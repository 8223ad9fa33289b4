#include "nn/sequential.hpp"

#include <algorithm>
#include <cstring>

#include "nn/activations.hpp"
#include "util/thread_pool.hpp"

namespace ff::nn {

namespace {

// Holds a network's busy flag for one forward entry point.
class BusyGuard {
 public:
  BusyGuard(std::atomic<bool>& busy, const std::string& net) : busy_(busy) {
    FF_CHECK_MSG(!busy_.exchange(true),
                 net << ": concurrent forward on one network");
  }
  ~BusyGuard() { busy_.store(false); }
  BusyGuard(const BusyGuard&) = delete;
  BusyGuard& operator=(const BusyGuard&) = delete;

 private:
  std::atomic<bool>& busy_;
};

// Copies every image of `src` into `dst` from image n0 on.
void CopyImages(const Tensor& src, Tensor& dst, std::int64_t n0) {
  const Shape& s = src.shape();
  const Shape& d = dst.shape();
  FF_CHECK(s.c == d.c && s.h == d.h && s.w == d.w && n0 + s.n <= d.n);
  std::memcpy(dst.plane(n0, 0), src.data(),
              static_cast<std::size_t>(src.elements()) * sizeof(float));
}

}  // namespace

std::size_t ImageSplitWidth() { return util::GlobalPool().size() + 1; }

void ForEachImageSplit(
    std::int64_t n,
    const std::function<void(std::size_t, std::int64_t, std::int64_t)>& run) {
  const std::size_t width = ImageSplitWidth();
  const std::int64_t per = n / static_cast<std::int64_t>(width);
  const std::int64_t split = per * static_cast<std::int64_t>(width);
  if (per > 0) {
    util::GlobalPool().ParallelFor(width, [&](std::size_t slot) {
      const std::int64_t first = static_cast<std::int64_t>(slot) * per;
      for (std::int64_t i = first; i < first + per; ++i) run(slot, i, i + 1);
    });
  }
  if (split < n) run(0, split, n);
}

std::optional<LayerGroup> GroupAt(const Sequential& net, std::size_t i) {
  if (dynamic_cast<const ComputeLayer*>(&net.layer(i)) == nullptr) {
    return std::nullopt;
  }
  LayerGroup g{i, FusedAct::kNone, i + 1};
  if (i + 1 < net.n_layers()) {
    if (const auto* a = dynamic_cast<const Activation*>(&net.layer(i + 1))) {
      if (a->kind() == ActKind::kRelu) g.act = FusedAct::kRelu;
      if (a->kind() == ActKind::kRelu6) g.act = FusedAct::kRelu6;
      if (g.act != FusedAct::kNone) g.end = i + 2;
    }
  }
  return g;
}

Layer& Sequential::Add(LayerPtr layer) {
  FF_CHECK_MSG(index_.find(layer->name()) == index_.end(),
               name_ << ": duplicate layer name " << layer->name());
  index_[layer->name()] = layers_.size();
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

std::size_t Sequential::IndexOf(const std::string& layer_name) const {
  const auto it = index_.find(layer_name);
  FF_CHECK_MSG(it != index_.end(), name_ << ": no layer named " << layer_name);
  return it->second;
}

bool Sequential::Contains(const std::string& layer_name) const {
  return index_.find(layer_name) != index_.end();
}

Tensor Sequential::Forward(const TensorView& in) {
  return ForwardRange(in, 0, layers_.size());
}

Tensor Sequential::ForwardTo(const TensorView& in, const std::string& last_layer) {
  return ForwardRange(in, 0, IndexOf(last_layer) + 1);
}

Tensor Sequential::ForwardRange(const TensorView& in, std::size_t begin,
                                std::size_t end) {
  FF_CHECK(begin < end && end <= layers_.size());
  const BusyGuard busy(scratch_->busy, name_);
  return Run(in, begin, end, {}, nullptr, 0, scratch_->slots[0]);
}

std::map<std::string, Tensor> Sequential::ForwardWithTaps(
    const TensorView& in, const std::set<std::string>& taps) {
  FF_CHECK(!taps.empty());
  std::size_t end = 0;
  for (const auto& t : taps) end = std::max(end, IndexOf(t) + 1);
  const BusyGuard busy(scratch_->busy, name_);
  std::map<std::string, Tensor> out;
  for (const auto& t : taps) out[t].Reset(OutputShapeAt(in.shape(), t));
  const auto run = [&](std::size_t slot, std::int64_t b, std::int64_t e) {
    Run(in.Images(b, e), 0, end, taps, &out, b, scratch_->slots[slot]);
  };
  // A layer in training mode saves context that must cover the whole batch.
  const auto last = layers_.begin() + static_cast<std::ptrdiff_t>(end);
  if (std::any_of(layers_.begin(), last,
                  [](const LayerPtr& l) { return l->training(); })) {
    run(0, 0, in.shape().n);
  } else {
    scratch_->slots.resize(ImageSplitWidth());
    ForEachImageSplit(in.shape().n, run);
  }
  return out;
}

Tensor Sequential::Run(const TensorView& in, std::size_t begin,
                       std::size_t end, const std::set<std::string>& taps,
                       std::map<std::string, Tensor>* tapped, std::int64_t n0,
                       BufPair& bufs) {
  TensorView x = in;
  Tensor held;    // owns x when the previous output is not a buffer or tap
  int x_buf = -1;  // the recycled buffer x views, or -1
  for (std::size_t i = begin; i < end;) {
    Layer& l = *layers_[i];
    const std::optional<LayerGroup> g = GroupAt(*this, i);
    const bool into = g && !l.training();
    // Fuse only when the activation is in range, in inference mode too, and
    // the pre-activation output is not itself a requested tap.
    const bool fuse = into && g->act != FusedAct::kNone && g->end <= end &&
                      !layers_[i + 1]->training() && taps.count(l.name()) == 0;
    const FusedAct act = fuse ? g->act : FusedAct::kNone;
    const std::size_t next = fuse ? g->end : i + 1;
    const std::string& out_name = layers_[next - 1]->name();
    Tensor* tap = taps.count(out_name) > 0 ? &tapped->at(out_name) : nullptr;
    const bool in_place = tap != nullptr && tap->shape().n == in.shape().n;
    const int b = x_buf == 0 ? 1 : 0;
    Tensor y;
    Tensor* dst = &y;
    if (in_place) {
      dst = tap;
    } else if (into && (tap != nullptr || next < end)) {
      dst = &bufs[static_cast<std::size_t>(b)];
    }
    if (into) {
      static_cast<ComputeLayer&>(l).ForwardInto(x, *dst, act);
    } else {
      *dst = l.Forward(x);
    }
    if (tap != nullptr && !in_place) CopyImages(*dst, *tap, n0);
    if (dst == &y) {
      held = std::move(y);
      dst = &held;
    }
    x = *dst;
    x_buf = dst == &bufs[static_cast<std::size_t>(b)] ? b : -1;
    i = next;
  }
  return held;
}

Tensor Sequential::Backward(const Tensor& grad_out) {
  FF_CHECK(!layers_.empty());
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->Backward(g);
  }
  return g;
}

std::vector<ParamView> Sequential::Params() {
  std::vector<ParamView> all;
  for (auto& l : layers_) {
    for (auto& p : l->Params()) all.push_back(p);
  }
  return all;
}

void Sequential::ZeroGrad() {
  for (auto& l : layers_) l->ZeroGrad();
}

void Sequential::SetTraining(bool training) {
  for (auto& l : layers_) l->set_training(training);
}

Shape Sequential::OutputShape(const Shape& in) const {
  Shape s = in;
  for (const auto& l : layers_) s = l->OutputShape(s);
  return s;
}

Shape Sequential::OutputShapeAt(const Shape& in,
                                const std::string& last_layer) const {
  const std::size_t last = IndexOf(last_layer);
  Shape s = in;
  for (std::size_t i = 0; i <= last; ++i) s = layers_[i]->OutputShape(s);
  return s;
}

std::uint64_t Sequential::Macs(const Shape& in) const {
  std::uint64_t total = 0;
  Shape s = in;
  for (const auto& l : layers_) {
    total += l->Macs(s);
    s = l->OutputShape(s);
  }
  return total;
}

std::uint64_t Sequential::MacsTo(const Shape& in,
                                 const std::string& last_layer) const {
  const std::size_t last = IndexOf(last_layer);
  std::uint64_t total = 0;
  Shape s = in;
  for (std::size_t i = 0; i <= last; ++i) {
    total += layers_[i]->Macs(s);
    s = layers_[i]->OutputShape(s);
  }
  return total;
}

std::vector<Sequential::LayerCost> Sequential::CostTrace(const Shape& in) const {
  std::vector<LayerCost> trace;
  Shape s = in;
  for (const auto& l : layers_) {
    const Shape out = l->OutputShape(s);
    trace.push_back({l->name(), l->Macs(s), out});
    s = out;
  }
  return trace;
}

std::int64_t Sequential::ParamCount() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) {
    for (const auto& p : const_cast<Layer&>(*l).Params()) {
      total += static_cast<std::int64_t>(p.value->size());
    }
  }
  return total;
}

}  // namespace ff::nn
