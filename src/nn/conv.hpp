// 2-D convolutions: generic KxK, depthwise, and a fast pointwise (1x1) path.
//
// Padding modes:
//  * kValid    — no padding; out = (in - k)/s + 1.
//  * kSameCeil — TensorFlow "SAME"; out = ceil(in/s).
//  * kSameFloor— out = floor(in/s). MobileNet uses this mode so that the
//    feature-map dimensions match the ones quoted in paper Fig. 2
//    (1920x1080 -> conv4_2/sep 67x120, conv5_6/sep 33x60).
#pragma once

#include "nn/layer.hpp"

namespace ff::nn {

enum class Padding { kValid, kSameCeil, kSameFloor };

// Output length and begin-padding for one spatial axis.
struct AxisGeometry {
  std::int64_t out = 0;
  std::int64_t pad_begin = 0;
};
AxisGeometry ComputeAxisGeometry(std::int64_t in, std::int64_t k,
                                 std::int64_t s, Padding pad);

// Standard convolution; weight layout [out_c][in_c][k][k], plus bias[out_c].
class Conv2D : public ComputeLayer {
 public:
  Conv2D(std::string name, std::int64_t in_c, std::int64_t out_c,
         std::int64_t k, std::int64_t stride, Padding pad);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const TensorView& in, Tensor& out, FusedAct act) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<ParamView> Params() override;
  std::uint64_t Macs(const Shape& in) const override;

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }
  Padding padding() const { return pad_; }

  std::vector<float>& weights() { return w_; }
  std::vector<float>& bias() { return b_; }

 private:
  std::int64_t in_c_, out_c_, k_, stride_;
  Padding pad_;
  std::vector<float> w_, b_;
  std::vector<float> dw_, db_;
  Tensor saved_in_;  // retained when training
};

// Depthwise convolution (depth multiplier 1); weight layout [c][k][k].
class DepthwiseConv2D : public ComputeLayer {
 public:
  DepthwiseConv2D(std::string name, std::int64_t channels, std::int64_t k,
                  std::int64_t stride, Padding pad);

  Shape OutputShape(const Shape& in) const override;
  void ForwardInto(const TensorView& in, Tensor& out, FusedAct act) override;
  Tensor Backward(const Tensor& grad_out) override;
  std::vector<ParamView> Params() override;
  std::uint64_t Macs(const Shape& in) const override;

  std::int64_t channels() const { return c_; }
  std::int64_t kernel() const { return k_; }
  std::int64_t stride() const { return stride_; }
  Padding padding() const { return pad_; }

  std::vector<float>& weights() { return w_; }
  std::vector<float>& bias() { return b_; }

 private:
  std::int64_t c_, k_, stride_;
  Padding pad_;
  std::vector<float> w_, b_;
  std::vector<float> dw_, db_;
  Tensor saved_in_;
};

}  // namespace ff::nn
