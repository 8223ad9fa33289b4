// Sequential network: a named chain of layers with activation taps.
//
// The feature extractor uses ForwardWithTaps() to collect intermediate
// activations (paper §3.1) and stops at the deepest tap it needs, so running
// microclassifiers fed from conv4_2/sep never pays for conv5/conv6.
//
// Every forward entry point runs one walk over (compute layer, optional
// ReLU/ReLU6) groups (GroupAt). In inference mode the compute layer applies
// the activation in its own epilogue and writes intermediate outputs into
// two activation buffers the network recycles across calls, so a
// steady-state batch allocates nothing per layer. Returned tensors and taps
// are always freshly owned, never views of those buffers. A layer in
// training mode runs unfused through Layer::Forward, exactly as a
// hand-chained forward would. The recycled buffers make one network
// non-reentrant: a second forward entered while one is running fails with
// CheckError.
//
// ForwardWithTaps (the feature extractor's trunk forward) runs a batch
// image-parallel when it is wide enough (ForEachImageSplit below): each pool
// chunk walks whole images through every layer with its own recycled buffer
// pair and copies its images' taps into the batch's tap tensors. The weights
// are shared, and the busy flag covers the whole call.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "nn/layer.hpp"

namespace ff::nn {

class Sequential {
 public:
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  const std::string& name() const { return name_; }

  // Appends a layer; returns a reference for inline tweaks. Layer names must
  // be unique within the network.
  Layer& Add(LayerPtr layer);

  std::size_t n_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

  // Index of the named layer; checks existence.
  std::size_t IndexOf(const std::string& layer_name) const;
  bool Contains(const std::string& layer_name) const;

  // Full forward pass.
  Tensor Forward(const TensorView& in);

  // Forward pass that stops after `last_layer` (inclusive).
  Tensor ForwardTo(const TensorView& in, const std::string& last_layer);

  // Forward through layers [begin, end) only. The windowed microclassifier
  // uses this to run its shared per-frame 1x1 conv once per frame and the
  // trunk once per window (paper §3.3.3's buffer-reuse optimization).
  Tensor ForwardRange(const TensorView& in, std::size_t begin, std::size_t end);

  // Forward collecting the outputs of every layer named in `taps`, stopping
  // at the deepest one. Returns the map tap-name -> activation. In inference
  // mode the batch is split by image (ForEachImageSplit); a layer in
  // training mode keeps the whole batch on the calling thread, since its
  // saved context must cover every image.
  std::map<std::string, Tensor> ForwardWithTaps(const TensorView& in,
                                                const std::set<std::string>& taps);

  // Backpropagates through all layers (most recent Forward must have been in
  // training mode); returns gradient w.r.t. the network input.
  Tensor Backward(const Tensor& grad_out);

  std::vector<ParamView> Params();
  void ZeroGrad();
  void SetTraining(bool training);

  // Output shape after the whole chain (or up to `last_layer`).
  Shape OutputShape(const Shape& in) const;
  Shape OutputShapeAt(const Shape& in, const std::string& last_layer) const;

  // Total multiply-adds per image for the whole chain (or a prefix).
  std::uint64_t Macs(const Shape& in) const;
  std::uint64_t MacsTo(const Shape& in, const std::string& last_layer) const;

  // Per-layer (name, macs, output shape) trace — used by the Fig. 2 bench.
  struct LayerCost {
    std::string name;
    std::uint64_t macs;
    Shape out_shape;
  };
  std::vector<LayerCost> CostTrace(const Shape& in) const;

  // Number of parameters (floats) across all layers.
  std::int64_t ParamCount() const;

 private:
  using BufPair = std::array<Tensor, 2>;

  // The walk behind every forward entry point: runs layers [begin, end) on
  // `in` through the recycled buffer pair `bufs` and returns the final
  // output unless that is itself a tap. Each output named in `taps` lands in
  // the preallocated (*tapped)[name] from image n0 on: computed there
  // directly when `in` is that tensor's whole batch, else computed in `bufs`
  // and copied in. Callers hold the busy flag.
  Tensor Run(const TensorView& in, std::size_t begin, std::size_t end,
             const std::set<std::string>& taps,
             std::map<std::string, Tensor>* tapped, std::int64_t n0,
             BufPair& bufs);

  // The recycled activation buffers and the flag that rejects a concurrent
  // forward; heap-held so the network stays movable. There is one buffer
  // pair per image-split slot; slot 0 also serves every whole-batch walk.
  struct Scratch {
    std::vector<BufPair> slots = std::vector<BufPair>(1);
    std::atomic<bool> busy{false};
  };

  std::string name_;
  std::vector<LayerPtr> layers_;
  std::map<std::string, std::size_t> index_;
  std::unique_ptr<Scratch> scratch_ = std::make_unique<Scratch>();
};

// The fused-op grouping rule shared by Sequential's inference forward (the
// compute layer applies the activation in its epilogue) and the int8
// quantizer (the activation folds into the requant clamp): a ComputeLayer,
// optionally followed by the ReLU/ReLU6 Activation it absorbs.
struct LayerGroup {
  std::size_t compute = 0;
  FusedAct act = FusedAct::kNone;  // the absorbed activation, if any
  std::size_t end = 0;             // one past the group's last layer
};

// The group starting at layer `i`; nullopt when layer `i` is not a
// ComputeLayer.
std::optional<LayerGroup> GroupAt(const Sequential& net, std::size_t i);

// The image split shared by Sequential::ForwardWithTaps and
// QuantizedProgram::ForwardWithTaps. With T = ImageSplitWidth() (one slot
// per pool worker plus the caller), a batch of n >= T images runs its
// largest multiple of T as T pool chunks: chunk `slot` calls
// run(slot, i, i + 1) for each of its images, and every kernel inside runs
// inline on that chunk's thread (the pool's nested-call rule). The other
// n mod T images, or the whole batch when n < T, then run as one
// run(0, begin, n) on the calling thread, whose kernels split
// images × out_c across the pool. A caller keeping per-slot state sizes it
// to ImageSplitWidth() first. Each image is computed exactly as a batch-1
// forward computes it, so the split never changes a bit.
std::size_t ImageSplitWidth();
void ForEachImageSplit(
    std::int64_t n,
    const std::function<void(std::size_t slot, std::int64_t begin,
                             std::int64_t end)>& run);

}  // namespace ff::nn
