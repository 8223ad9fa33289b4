// Tenants that run their real microclassifier network but answer with the
// ground truth.
//
// Untrained MCs fire on almost every frame, which would make the uplink carry
// the whole stream. Each tenant here runs its architecture's InferView (float
// or int8 — the real per-frame cost) and then returns the ground-truth label
// of the frame its decision refers to: the stream-local frame index of this
// call minus DecisionDelay(). Upload volume then follows the scene's event
// share, and the clips the datacenter must reassemble are known exactly.
//
// Labels are indexed by the stream's processed-frame index. Without shedding
// that is the camera frame index; a shed frame shifts the labels onto later
// frames, which keeps the output check exact (it uses the same indexing) while
// the shed frames themselves count as failures.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/microclassifier.hpp"
#include "trace.hpp"

namespace perfbench {

template <class Base>
class LabelledMc final : public Base {
 public:
  // `span` names this tenant's traced self time (a string literal).
  template <class... Args>
  LabelledMc(std::shared_ptr<const std::vector<std::uint8_t>> labels,
             const char* span, Args&&... args)
      : Base(std::forward<Args>(args)...),
        labels_(std::move(labels)),
        span_(span) {}

 protected:
  float InferView(const ff::nn::TensorView& features) override {
    {
      Span s(span_);
      (void)Base::InferView(features);
    }
    const std::int64_t frame = calls_++ - this->DecisionDelay();
    if (frame < 0) return 0.0f;  // precedes the tenant's first live frame
    const auto n = static_cast<std::int64_t>(labels_->size());
    return (*labels_)[static_cast<std::size_t>(frame % n)] ? 1.0f : 0.0f;
  }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> labels_;
  const char* span_;
  std::int64_t calls_ = 0;
};

}  // namespace perfbench
