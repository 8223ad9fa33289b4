// Layer interface for the from-scratch NN engine.
//
// Design notes:
//  * Forward() takes a non-owning tensor::TensorView (owning Tensors convert
//    implicitly), so the multi-tenant edge node can feed cropped or
//    full-frame feature-map taps without materializing a per-tenant copy.
//    Kernels read through the view's row stride; layers that genuinely need
//    dense storage materialize internally.
//  * Forward() is usable standalone for inference. When training() is set,
//    layers retain whatever context Backward() needs (inputs, masks,
//    argmaxes). Inference mode retains nothing, keeping the multi-tenant
//    pipeline's memory footprint flat.
//  * Backward() accumulates parameter gradients (so shared-weight layers can
//    be applied several times per step) and returns the input gradient.
//  * Macs() implements the multiply-add formulas of paper §4.5; Fig. 7's
//    x-axis is produced by these, not by timing.
//  * Compute layers (ComputeLayer below) also have ForwardInto(), which
//    writes into caller-owned storage and applies a trailing ReLU/ReLU6 in
//    the layer's own epilogue. Sequential's inference forward runs on it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_view.hpp"

namespace ff::nn {

using tensor::Shape;
using tensor::Tensor;
using tensor::TensorView;

// Non-owning handle to one parameter blob and its gradient accumulator.
struct ParamView {
  std::string name;
  std::vector<float>* value = nullptr;
  std::vector<float>* grad = nullptr;
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }

  // Shape of the output produced for input shape `in`; checks validity.
  virtual Shape OutputShape(const Shape& in) const = 0;

  virtual Tensor Forward(const TensorView& in) = 0;

  // Gradient w.r.t. the layer input, given gradient w.r.t. the output of the
  // most recent Forward() (which must have run with training() == true).
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  // Parameter blobs (empty for stateless layers).
  virtual std::vector<ParamView> Params() { return {}; }

  // Multiply-adds for one forward pass on input shape `in` (per batch image).
  virtual std::uint64_t Macs(const Shape& in) const = 0;

  void set_training(bool t) { training_ = t; }
  bool training() const { return training_; }

  // Zeroes all parameter gradients.
  void ZeroGrad() {
    for (auto& p : Params()) {
      std::fill(p.grad->begin(), p.grad->end(), 0.0f);
    }
  }

 protected:
  bool training_ = false;

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

// Activation a compute layer can apply in its own epilogue.
enum class FusedAct { kNone, kRelu, kRelu6 };

// Conv2D, DepthwiseConv2D and FullyConnected: the compute layers of the
// fused-op grouping rule (nn::GroupAt) that Sequential and the int8
// quantizer share.
class ComputeLayer : public Layer {
 public:
  using Layer::Layer;

  // Reshapes `out` to OutputShape(in.shape()) with Tensor::Reset (its
  // storage is reused when large enough), writes the output into it and
  // applies `act` in place to each output block on the worker that just
  // computed it. Every element sees the bias, the taps in order, then the
  // activation: the op sequence of Forward() followed by a standalone
  // Activation, so fused and unfused results are bitwise-identical. `out`
  // must not alias `in`.
  virtual void ForwardInto(const TensorView& in, Tensor& out,
                           FusedAct act) = 0;

  Tensor Forward(const TensorView& in) final {
    Tensor out;
    ForwardInto(in, out, FusedAct::kNone);
    return out;
  }

 protected:
  // The fused epilogue over one finished output block.
  static void ApplyAct(FusedAct act, float* y, std::int64_t n) {
    if (act == FusedAct::kRelu) kernels::Relu(y, y, n);
    if (act == FusedAct::kRelu6) kernels::Relu6(y, y, n);
  }
};

}  // namespace ff::nn
