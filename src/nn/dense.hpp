// Fully-connected layer over flattened NCHW input.
#pragma once

#include "nn/layer.hpp"

namespace ff::nn {

// Treats each batch image as a flat vector of in_dim floats and produces
// `units` outputs, shaped (n, units, 1, 1). Weight layout [units][in_dim].
class FullyConnected : public ComputeLayer {
 public:
  FullyConnected(std::string name, std::int64_t in_dim, std::int64_t units);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const TensorView& in, Tensor& out, FusedAct act) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<ParamView> Params() override;
  std::uint64_t Macs(const Shape& in) const override;

  std::int64_t in_dim() const { return in_dim_; }
  std::int64_t units() const { return units_; }

  std::vector<float>& weights() { return w_; }
  std::vector<float>& bias() { return b_; }

 private:
  std::int64_t in_dim_, units_;
  std::vector<float> w_, b_;
  std::vector<float> dw_, db_;
  Tensor saved_in_;
};

}  // namespace ff::nn
