// Microclassifiers — FilterForward's per-application filters (paper §3.2).
//
// An MC is a small binary-classification network that consumes feature maps
// from one base DNN layer (optionally cropped) and outputs the probability
// that the frame is relevant to its application. Three architectures from
// paper Fig. 2:
//
//   * FullFrameObjectDetectorMc (2a): stacked 1x1 convolutions applied at
//     every location of a late feature map, max over the logit grid,
//     sigmoid. A sliding-window detector ("is there >= 1 match anywhere?").
//     Note: Fig. 2a draws a ReLU on the final 1-filter conv; we keep that
//     conv linear so the logit can fall below zero (a ReLU there pins the
//     post-sigmoid probability to [0.5, 1) and blocks training on
//     negatives). See docs/ARCHITECTURE.md, "Microclassifier final-layer
//     linearity".
//
//   * LocalizedBinaryClassifierMc (2b): two separable convolutions + FC on a
//     cropped mid-network feature map — "zooming in" on a region.
//
//   * WindowedLocalizedMc (2c): per-frame 1x1 conv (computed once and
//     ring-buffered — the paper's reuse optimization), depthwise concat of a
//     W-frame window, small CNN + FCs. Picks up motion cues; its decision is
//     for the window's center frame, i.e. it has a W/2-frame decision delay.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "core/crop.hpp"
#include "dnn/feature_extractor.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"

namespace ff::core {

struct McConfig {
  std::string name;
  // Base DNN tap to pull features from (paper §3.4).
  std::string tap = dnn::kMidTap;
  // Optional spatial crop, in *pixel* coordinates of the full frame.
  // The explicit nullopt default lets designated initializers omit the field
  // without tripping -Wmissing-field-initializers.
  std::optional<tensor::Rect> pixel_crop = std::nullopt;
  std::uint64_t seed = 7;
  // Run the MC's conv/dense prefix through the int8 path (nn/quantize.hpp),
  // calibrated lazily from the first inference input. The float tail (pool /
  // sigmoid) is untouched, and the default keeps inference bitwise-identical
  // to a pre-quantization MC. Unsupported (FF_CHECK) for the windowed
  // architecture, whose split ForwardRange execution would need per-segment
  // programs.
  bool quantize = false;
};

class Microclassifier {
 public:
  // `fx` supplies tap geometry; `frame_h`/`frame_w` fix the input
  // resolution (MC weight shapes depend on it, as in the paper's Fig. 2).
  Microclassifier(McConfig cfg, const dnn::FeatureExtractor& fx,
                  std::int64_t frame_h, std::int64_t frame_w);
  virtual ~Microclassifier() = default;

  const McConfig& config() const { return cfg_; }
  const std::string& name() const { return cfg_.name; }

  // Probability that frame `image` of the feature maps is relevant (the
  // maps may carry a whole Submit batch; the per-image view is zero-copy).
  // Stateless except for the windowed architecture (see DecisionDelay).
  float Infer(const dnn::FeatureMaps& fm, std::int64_t image = 0) {
    return InferView(FeatureView(fm, image));
  }

  // How many frames behind the input the decision refers to (0 for
  // single-frame MCs, W/2 for windowed ones).
  virtual std::int64_t DecisionDelay() const { return 0; }

  // Clears temporal state at stream boundaries.
  virtual void ResetTemporalState() {}

  // Marginal multiply-adds per frame — the per-MC cost that Fig. 7 plots
  // against accuracy (the shared base DNN cost is excluded by definition).
  virtual std::uint64_t MarginalMacsPerFrame() const;

  // Underlying trainable network.
  virtual nn::Sequential& net() = 0;

  // Zero-copy view of the (optionally cropped) tap activation this MC
  // consumes, for image `image` of the (possibly batched) maps. Borrows
  // `fm`'s storage: valid only while `fm` is alive and unmodified. This is
  // the per-frame inference path — neither full-frame taps, crops, nor
  // batch slices allocate per tenant.
  nn::TensorView FeatureView(const dnn::FeatureMaps& fm,
                             std::int64_t image = 0) const;

  // Owning copy of the same (for consumers that outlive the feature maps,
  // e.g. the trainer's frame cache and the windowed no-reuse ablation).
  nn::Tensor CropFeatures(const dnn::FeatureMaps& fm) const;

  // Shape of the (cropped) input feature map this MC consumes.
  const nn::Shape& input_shape() const { return input_shape_; }

 protected:
  // Architecture-specific inference over the (cropped, batch-1) feature
  // view Infer() prepared.
  virtual float InferView(const nn::TensorView& features) = 0;

  // Forward pass honoring cfg_.quantize: the float path is a plain
  // net.Forward; the quantized path runs the int8 program over the
  // quantizable prefix (calibrating it from `in` on first use) and finishes
  // the float tail with ForwardRange from resume_index().
  nn::Tensor RunNet(nn::Sequential& net, const nn::TensorView& in);

  McConfig cfg_;
  nn::Shape tap_shape_;       // full tap activation shape at this resolution
  nn::Shape input_shape_;     // after the optional crop
  std::optional<tensor::Rect> feature_rect_;
  std::optional<nn::QuantizedProgram> qprog_;
};

// --- Fig. 2a ---------------------------------------------------------------
class FullFrameObjectDetectorMc : public Microclassifier {
 public:
  FullFrameObjectDetectorMc(McConfig cfg, const dnn::FeatureExtractor& fx,
                            std::int64_t frame_h, std::int64_t frame_w);
  nn::Sequential& net() override { return net_; }

 protected:
  float InferView(const nn::TensorView& features) override;

 private:
  nn::Sequential net_;
};

// --- Fig. 2b ---------------------------------------------------------------
class LocalizedBinaryClassifierMc : public Microclassifier {
 public:
  LocalizedBinaryClassifierMc(McConfig cfg, const dnn::FeatureExtractor& fx,
                              std::int64_t frame_h, std::int64_t frame_w);
  nn::Sequential& net() override { return net_; }

 protected:
  float InferView(const nn::TensorView& features) override;

 private:
  nn::Sequential net_;
};

// --- Fig. 2c ---------------------------------------------------------------
class WindowedLocalizedMc : public Microclassifier {
 public:
  static constexpr std::int64_t kDefaultWindow = 5;

  WindowedLocalizedMc(McConfig cfg, const dnn::FeatureExtractor& fx,
                      std::int64_t frame_h, std::int64_t frame_w,
                      std::int64_t window = kDefaultWindow,
                      bool reuse_buffers = true);

  std::int64_t DecisionDelay() const override { return window_ / 2; }
  void ResetTemporalState() override {
    buffer_.clear();
    raw_buffer_.clear();
  }
  std::uint64_t MarginalMacsPerFrame() const override;
  nn::Sequential& net() override { return net_; }

  std::int64_t window() const { return window_; }
  bool reuse_buffers() const { return reuse_buffers_; }

  // Cost if the per-frame 1x1 conv were recomputed for the whole window each
  // frame (the ablation of paper §3.3.3's optimization).
  std::uint64_t MarginalMacsWithoutReuse() const;

 protected:
  float InferView(const nn::TensorView& features) override;

 private:
  std::int64_t window_;
  bool reuse_buffers_;
  nn::Sequential net_;
  std::deque<nn::Tensor> buffer_;  // per-frame 1x1 conv outputs (reuse path)
  std::deque<nn::Tensor> raw_buffer_;  // cropped features (no-reuse path)
};

// Factory helpers used by benches/examples.
std::unique_ptr<Microclassifier> MakeMicroclassifier(
    const std::string& arch, McConfig cfg, const dnn::FeatureExtractor& fx,
    std::int64_t frame_h, std::int64_t frame_w);

}  // namespace ff::core
