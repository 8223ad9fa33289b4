// Post-training int8 quantization of a Sequential prefix (ROADMAP: quantized
// inference path; the edge-analytics systems surveyed in PAPERS.md lean on
// int8 to hit real-time on CPU-class edge hardware).
//
// Scheme:
//  * activations are u8: float x ≈ (v - zero_point) * scale. Post-ReLU
//    tensors are non-negative, so zero_point = 0 and scale = absmax/255;
//    signed tensors (the [-1, 1] network input, activation-less conv
//    outputs) use zero_point = 128 and scale = absmax/127. Scales come from
//    a calibration batch (Quantizer::Quantize), not from weights.
//  * weights are s8 with per-output-channel symmetric scales
//    (scale = absmax/127, round-to-nearest-even, clamped to ±127).
//  * accumulation is s32 under the pinned maddubs pair-saturation rule (see
//    kernels.hpp); between layers a single requantize-with-fused-ReLU maps
//    acc back to u8: y = clamp_u8(rne(acc * rscale[oc] + rbias[oc])), where
//    rscale folds the three scales and rbias folds the float bias, the
//    output zero point, and the input-zero-point correction
//    (-rscale * zp_in * sum(w_s8)). With zp_out = 0 the u8 clamp at 0 IS
//    the fused ReLU; ReLU6's upper clip is absorbed by calibration (the
//    post-act absmax is <= 6, so 255 maps to it).
//  * KxK ops pad with the input zero point (the u8 encoding of float 0), so
//    borders need no per-position correction.
//  * every tap dequantizes back to float32, so TensorView consumers (MCs,
//    xcam signatures) see an ordinary dense Tensor and are untouched.
//
// A QuantizedProgram covers the longest quantizable prefix of the source
// net: runs of Conv2D / DepthwiseConv2D / FullyConnected, each optionally
// fused with an immediately following ReLU/ReLU6 Activation (the fused op
// takes the activation layer's name, so taps keep resolving). The first
// unsupported layer (pooling, sigmoid, WindowPack, ...) ends the prefix;
// resume_index() tells the caller where to re-enter the float net.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/sequential.hpp"

namespace ff::nn {

// Quantization parameters of one activation tensor: byte v represents
// float (v - zero_point) * scale.
struct ActQuant {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

// One fused quantized op: conv / depthwise / dense plus its folded
// activation and requant chain.
struct QuantOp {
  enum class Kind : std::uint8_t { kConv = 0, kDepthwise = 1, kDense = 2 };

  Kind kind = Kind::kConv;
  // Tap-visible name: the Activation layer's name when fused, else the
  // compute layer's own.
  std::string name;

  // Geometry, copied from the float layer. kDense reads in_c as the
  // flattened input dimension and out_c as the unit count.
  std::int64_t in_c = 0, out_c = 0, k = 1, stride = 1;
  Padding pad = Padding::kSameCeil;

  ActQuant out_q;
  std::vector<std::int8_t> w;  // same element layout as the float layer
  std::vector<float> rscale;   // [out_c] requant scale
  std::vector<float> rbias;    // [out_c] requant bias (bias + zp folded)

  // Weight element count implied by the geometry.
  std::size_t WeightCount() const;
};

// A compiled int8 inference program over a Sequential prefix.
class QuantizedProgram {
 public:
  std::size_t n_ops() const { return ops_.size(); }
  const QuantOp& op(std::size_t i) const { return ops_[i]; }
  const ActQuant& input_quant() const { return in_q_; }

  // Index (in the source Sequential) of the first layer the program does
  // NOT cover; a caller with a float tail resumes ForwardRange here.
  std::size_t resume_index() const { return resume_index_; }

  // True when some op carries this tap-visible name.
  bool Covers(const std::string& name) const;

  // Runs the whole program and dequantizes the final op's output.
  Tensor Forward(const TensorView& in) const;

  // Mirrors Sequential::ForwardWithTaps: runs up to the deepest requested
  // tap and dequantizes each tapped activation, splitting the batch by
  // image the same way (ForEachImageSplit). Every tap must be covered.
  std::map<std::string, Tensor> ForwardWithTaps(
      const TensorView& in, const std::set<std::string>& taps) const;

 private:
  friend class Quantizer;
  friend QuantizedProgram DeserializeQuantized(Sequential&,
                                               const std::string&);

  std::vector<QuantOp> ops_;
  ActQuant in_q_;
  std::size_t resume_index_ = 0;
};

class Quantizer {
 public:
  // Structure-only pass: the fused-op skeleton (geometry + names, weight /
  // requant vectors sized but zeroed) for the longest quantizable prefix of
  // `net`. The quantized deserializer validates untrusted bytes against
  // this. FF_CHECKs that at least the first layer is quantizable.
  static QuantizedProgram Plan(Sequential& net);

  // Full post-training quantization: Plan, then per-channel weight
  // quantization plus activation scales calibrated by running `net` in
  // float over the recorded calibration batch `calib`.
  static QuantizedProgram Quantize(Sequential& net, const TensorView& calib);
};

}  // namespace ff::nn
