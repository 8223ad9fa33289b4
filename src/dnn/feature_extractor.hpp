// The feature extractor (paper §3.1): evaluates the base DNN once per frame
// and hands the requested intermediate activations to all microclassifiers.
//
// The extractor stops the forward pass at the deepest requested tap, so an
// edge node whose tenants all read conv4_2/sep never executes conv5_*/conv6.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "dnn/mobilenet.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"

namespace ff::dnn {

// Activations for one frame, keyed by tap name.
using FeatureMaps = std::map<std::string, nn::Tensor>;

// Extractor construction options. `quantize = false` (the default) keeps the
// float path bitwise-identical to an extractor built from MobileNetOptions
// alone; `quantize = true` swaps the trunk forward pass for the int8 program
// (nn/quantize.hpp) once activation scales exist — either calibrated from
// the first Extract batch (or an explicit CalibrateQuantized call) or loaded
// from an FFNQ checkpoint. Taps still come back as float32 tensors, so MCs
// and signature consumers never see quantized bytes.
struct FeatureExtractorConfig {
  MobileNetOptions model{};
  bool quantize = false;
};

class FeatureExtractor {
 public:
  explicit FeatureExtractor(MobileNetOptions opts = {});
  explicit FeatureExtractor(const FeatureExtractorConfig& config);

  // Registers a tap; must be one of MobileNetTapNames(). Requests are
  // reference-counted so independent consumers (tenants across all of an
  // EdgeFleet's streams, trainers, benches) can share one extractor.
  void RequestTap(const std::string& tap);
  // Releases one reference; when the last holder of the deepest tap lets
  // go, subsequent Extract calls stop the forward pass earlier again (the
  // fleet calls this when a tenant detaches or its stream is removed).
  void ReleaseTap(const std::string& tap);
  const std::set<std::string>& taps() const { return taps_; }
  // Outstanding references on one tap (0 when unrequested). Lets tests pin
  // that stream/tenant churn restores the early-exit depth exactly.
  std::int64_t TapRefs(const std::string& tap) const;

  // Runs the base DNN on a preprocessed frame batch (N, 3, H, W) and
  // returns the requested activations, each with the same leading batch
  // dimension. Every image is computed exactly as a batch-1 call would
  // (bitwise: image n of a batched tap equals Extract on frame n alone —
  // pinned by edge_batch_test, float and int8). With T = the pool's workers
  // plus the caller, a batch of N >= T frames runs image-parallel: T pool
  // chunks each take whole images through every layer, their kernels
  // inline, with no barrier between layers. The N mod T remaining frames,
  // and any batch smaller than T, run layer by layer with the kernels split
  // across n × out_c (nn::ForEachImageSplit; ROADMAP: frame batching).
  //
  // Taking a view (owning Tensors convert implicitly) is what lets the
  // EdgeFleet's geometry buckets reuse one staging tensor per bucket across
  // batches: a partial batch passes TensorView::Prefix of the staging
  // storage instead of materializing a right-sized input every Step.
  FeatureMaps Extract(const tensor::TensorView& frames);

  // Multiply-adds for one frame of shape (1, 3, h, w): the cost of the
  // prefix up to the deepest requested tap. This is the "upfront overhead"
  // amortized across MCs (paper §3.1, Fig. 6).
  std::uint64_t MacsPerFrame(std::int64_t h, std::int64_t w) const;

  // Shape of a tap's activation for an h x w frame.
  nn::Shape TapShape(const std::string& tap, std::int64_t h,
                     std::int64_t w) const;

  const MobileNetOptions& options() const { return opts_; }
  nn::Sequential& network() { return net_; }

  // True when this extractor was configured for int8 inference.
  bool quantized() const { return quantize_; }
  // True once activation scales exist (calibration ran or an FFNQ
  // checkpoint was loaded) and Extract will take the int8 path.
  bool quantized_ready() const { return qprog_.has_value(); }

  // Builds the int8 program now, using `frames` as the calibration batch
  // (requires a quantize-configured extractor). Extract auto-calibrates on
  // its first batch when this was never called.
  void CalibrateQuantized(const tensor::TensorView& frames);

  // Checkpoint I/O honoring the configured mode: float extractors write /
  // read "FFNW" weight files, quantized extractors write / read "FFNQ"
  // programs (saving requires quantized_ready()). Loading a file of the
  // other kind fails a loud FF_CHECK naming both kinds.
  void SaveWeights(const std::string& path);
  void LoadWeights(const std::string& path);

 private:
  // Internal layer name of the ReLU blob for a tap (identical today; kept as
  // a seam in case tap aliasing is needed).
  MobileNetOptions opts_;
  nn::Sequential net_;
  std::set<std::string> taps_;
  std::map<std::string, std::int64_t> tap_refs_;
  bool quantize_ = false;
  std::optional<nn::QuantizedProgram> qprog_;
};

// Converts 8-bit RGB planes to the base DNN's input tensor (1, 3, h, w),
// scaled to [-1, 1] (MobileNet's 1/127.5 - 1 preprocessing).
nn::Tensor PreprocessRgb(const std::uint8_t* r, const std::uint8_t* g,
                         const std::uint8_t* b, std::int64_t h, std::int64_t w);

// Same conversion written into image `n` of a preallocated (N, 3, h, w)
// batch tensor — the staging step of the batched Submit path. Bitwise
// identical to PreprocessRgb on the same planes.
void PreprocessRgbInto(nn::Tensor& batch, std::int64_t n,
                       const std::uint8_t* r, const std::uint8_t* g,
                       const std::uint8_t* b);

}  // namespace ff::dnn
