#include "nn/sequential.hpp"

#include "nn/activations.hpp"

namespace ff::nn {

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
  FF_CHECK(!layers_.empty());
  return Run(in, 0, layers_.size(), {}, nullptr);
}

Tensor Sequential::ForwardTo(const TensorView& in, const std::string& last_layer) {
  return Run(in, 0, IndexOf(last_layer) + 1, {}, nullptr);
}

Tensor Sequential::ForwardRange(const TensorView& in, std::size_t begin,
                                std::size_t end) {
  return Run(in, begin, end, {}, nullptr);
}

std::map<std::string, Tensor> Sequential::ForwardWithTaps(
    const TensorView& in, const std::set<std::string>& taps) {
  FF_CHECK(!taps.empty());
  std::size_t deepest = 0;
  for (const auto& t : taps) deepest = std::max(deepest, IndexOf(t));
  std::map<std::string, Tensor> out;
  Run(in, 0, deepest + 1, taps, &out);
  return out;
}

Tensor Sequential::Run(const TensorView& in, std::size_t begin,
                       std::size_t end, const std::set<std::string>& taps,
                       std::map<std::string, Tensor>* tapped) {
  FF_CHECK(begin < end && end <= layers_.size());
  FF_CHECK_MSG(!scratch_->busy.exchange(true),
               name_ << ": concurrent forward on one network");
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false); }
  } release{scratch_->busy};

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
    const bool tap = taps.count(out_name) > 0;
    if (into && !tap && next < end) {
      const int b = x_buf == 0 ? 1 : 0;
      static_cast<ComputeLayer&>(l).ForwardInto(x, scratch_->bufs[b], act);
      x = scratch_->bufs[b];
      x_buf = b;
    } else {
      Tensor y;
      if (into) {
        static_cast<ComputeLayer&>(l).ForwardInto(x, y, act);
      } else {
        y = l.Forward(x);
      }
      if (tap) {
        x = tapped->insert_or_assign(out_name, std::move(y)).first->second;
      } else {
        held = std::move(y);
        x = held;
      }
      x_buf = -1;
    }
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
