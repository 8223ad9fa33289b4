// Portable SIMD micro-kernel library — the arithmetic core under every hot
// path: the base DNN's convolutions (the axpy row kernels, the pointwise
// tiles, the stride-2 row kernel, and their int8 twins), the MCs'
// fully-connected heads (dot), activations (relu/relu6), bias broadcast
// (fill), and the codec's motion search (sad16x16). The table holds only
// ops some layer or the codec calls.
//
// Contract: every kernel has one *reference* implementation (namespace
// `scalar`) and zero or more SIMD implementations selected at startup by
// compile-time support ∩ runtime CPUID ∩ the FF_SIMD env cap. The tiers are
// scalar, avx2 and avx512 (AVX-512F; its table is the avx2 table with
// pw_acc8 and axpy_rows_s2 overridden); an x86-64 host without AVX2 runs
// the scalar reference. FF_SIMD takes exactly those three names; anything
// else fails loudly. A tier entry that does not beat its fallback by 1.3x
// points at the fallback's function instead of carrying a copy. All
// implementations of a kernel are BITWISE-IDENTICAL for every input:
//
//  * axpy_rows/axpy4_rows/axpy_rows_s2/fill/relu/relu6 are elementwise IEEE
//    single ops, so lane width cannot change results. The SIMD paths use
//    separate multiply and add (never FMA), matching the scalar fallback, and
//    kernels.cpp is compiled with -ffp-contract=off so the compiler cannot
//    contract the scalar reference into FMA either (see src/CMakeLists.txt).
//  * pw_acc1/pw_acc4/pw_acc8 fold each output element over the input
//    channels in ascending ic order, one `y = y + w*x` (mul, then add) per
//    channel starting from the y already in memory — the same per-element
//    sequence at every tile width.
//  * dot is a reduction, so its accumulation order is pinned by spec:
//    8 double-precision partial sums by index mod 8, combined as
//    ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)). Scalar and SIMD implement the
//    same scheme, so the result is bitwise-reproducible across ISAs.
//  * sad16x16 is an integer sum — exact under any association.
//  * the q* kernels (int8 inference path) are integer except for the
//    requant/quant/dequant boundaries. Their accumulation rule is pinned by
//    spec to the AVX2 maddubs+madd sequence: u8*s8 products are summed in
//    PAIRS with signed-16 saturation, pair sums add exactly in s32 (see the
//    per-kernel comments for which indices pair up). The float boundaries
//    use separate mul/add plus round-to-nearest-even (cvtps semantics), so
//    every ISA — including the scalar reference — produces identical bytes.
//
// No over-read: the float kernels touch only the elements their contract
// names (a masked or scalar tail finishes each run), so a run may end at
// the last byte of its allocation. The one exception is qaxpy_rows_s2,
// whose callers keep slack bytes mapped past the last row.
//
// nn_kernels_test pins the parity for every kernel on every ISA the host
// supports, at awkward lengths (0, 1, vector-width±1, unaligned, strided),
// including int8 saturation edge cases (w=±127 against x=255).
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.hpp"

namespace ff::nn::kernels {

// Instruction sets in increasing capability order. kScalar is always
// available; kAvx2 and kAvx512 need x86-64 and CPUID (AVX2, and AVX-512F
// plus AVX2).
enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* IsaName(Isa isa);

// One dispatch table; `Active()` resolves once per process.
struct OpTable {
  // y[i] = v
  void (*fill)(float* y, std::int64_t n, float v);
  // Fused row loops for the KxK and depthwise paths over `rows` rows whose
  // x/y bases advance by the given strides, one dispatch per (channel, tap)
  // with the weight broadcasts hoisted out of the row loop:
  // y[r*y_stride + i] += a * x[r*x_stride + i], one mul then one add per
  // element. axpy4_rows is the register-blocked KxK update: one load of x
  // feeds four output-channel rows, yk[...] += w[k] * x[...] for k in 0..3.
  void (*axpy_rows)(float a, const float* x, std::int64_t x_stride, float* y,
                    std::int64_t y_stride, std::int64_t rows, std::int64_t n);
  void (*axpy4_rows)(const float* w, const float* x, std::int64_t x_stride,
                     float* y0, float* y1, float* y2, float* y3,
                     std::int64_t y_stride, std::int64_t rows, std::int64_t n);
  // Stride-2 axpy_rows, the taps of every stride-2 KxK and depthwise conv:
  // y[r*y_stride + i] += a * x[r*x_stride + 2*i], one mul then one add per
  // element. Row r reads nothing past x[r*x_stride + 2*(n-1)].
  void (*axpy_rows_s2)(float a, const float* x, std::int64_t x_stride,
                       float* y, std::int64_t y_stride, std::int64_t rows,
                       std::int64_t n);
  // The pointwise-conv workhorse: yk[i] += sum_ic w[k*w_stride + ic] *
  // x[ic][i], accumulated in registers across the whole ic loop (one y
  // read/write per element instead of one per input channel). Per element
  // the fold over ic runs in index order with one rounding per step — the
  // same sequence every implementation performs, so results are bitwise
  // identical across ISAs and tile widths.
  void (*pw_acc4)(const float* const* x, std::int64_t n_ic, const float* w,
                  std::int64_t w_stride, float* y0, float* y1, float* y2,
                  float* y3, std::int64_t n);
  // Eight output channels: row k (y + k*y_stride, weights w + k*w_stride)
  // is bitwise-identical to pw_acc1 on that row. The AVX-512 tile holds
  // 8 rows x 32 pixels in registers across the whole ic loop.
  void (*pw_acc8)(const float* const* x, std::int64_t n_ic, const float* w,
                  std::int64_t w_stride, float* y, std::int64_t y_stride,
                  std::int64_t n);
  // Single-row variant for the output-channel remainder (w indexed w[ic]).
  void (*pw_acc1)(const float* const* x, std::int64_t n_ic, const float* w,
                  float* y, std::int64_t n);
  // Returns sum_i a[i]*b[i] under the pinned 8-lane double scheme above.
  double (*dot)(const float* a, const float* b, std::int64_t n);
  // y[i] = max(x[i], 0)   (NaN -> 0, matching `v > 0 ? v : 0`)
  // relu and relu6 may run in place (y == x): the compute layers' fused
  // epilogue applies them to a finished output block that way. Partially
  // overlapping x and y are not supported.
  void (*relu)(const float* x, float* y, std::int64_t n);
  // y[i] = min(max(x[i], 0), 6)
  void (*relu6)(const float* x, float* y, std::int64_t n);
  // SAD of a 16x16 u8 block with independent row strides — the motion
  // search's inner loop, dispatched once per candidate vector.
  std::uint32_t (*sad16x16)(const std::uint8_t* a, std::int64_t stride_a,
                            const std::uint8_t* b, std::int64_t stride_b);

  // -------------------------------------------------------------------------
  // int8 inference path (see quantize.hpp). Activations are u8, weights s8,
  // accumulation s32. The qpw/qdot reduction rule is pinned by spec to the
  // maddubs sequence: products at indices (2j, 2j+1) form a pair whose sum
  // saturates to signed 16 bits; pair sums then add EXACTLY in s32 (an odd
  // tail product stands alone — a single u8*s8 product is at most ±32385 and
  // can never saturate). Every ISA implements this same rule, so results are
  // bitwise-identical.
  // -------------------------------------------------------------------------

  // acc[r*acc_stride + i] += w * x[r*x_stride + i] — exact (unpaired) s32
  // accumulation, used by the KxK / depthwise taps where each dispatch
  // carries a single weight. `w` is an s8 value passed widened.
  void (*qaxpy_rows)(std::int32_t w, const std::uint8_t* x,
                     std::int64_t x_stride, std::int32_t* acc,
                     std::int64_t acc_stride, std::int64_t rows,
                     std::int64_t n);
  // Packs channel planes into the interleaved channel-quad layout the
  // packed pointwise kernels stream: out[q*4*n + 4*i + j] = x[4q+j][i],
  // zero-filled for the padding channels of a partial final quad (q runs to
  // ceil(n_ic/4)). Pure data movement — the output is byte-identical on
  // every ISA; the SIMD versions only do it faster.
  void (*qpw_pack)(const std::uint8_t* const* x, std::int64_t n_ic,
                   std::uint8_t* out, std::int64_t n);
  // Pointwise conv on the qpw_pack layout: acc[i] += sum_ic w[ic] * x[ic][i]
  // under the pinned pair-saturation rule (pairs are (2j, 2j+1) over ic),
  // accumulators in registers across the whole ic loop. Packing once per
  // image keeps the byte transpose out of the per-output-channel loop (a
  // zero-padded pair saturates to the lone product, so the padded quad is
  // exact under the pinned pair rule). qpw_acc2p is two output channels
  // sharing each packed load; row k is bitwise-identical to
  // qpw_acc1p(packed, n_ic, wk, acck, n).
  void (*qpw_acc1p)(const std::uint8_t* packed, std::int64_t n_ic,
                    const std::int8_t* w, std::int32_t* acc, std::int64_t n);
  void (*qpw_acc2p)(const std::uint8_t* packed, std::int64_t n_ic,
                    const std::int8_t* w0, const std::int8_t* w1,
                    std::int32_t* acc0, std::int32_t* acc1, std::int64_t n);
  // Stride-2 qaxpy_rows: acc[r*acc_stride + i] += w * x[r*x_stride + 2*i],
  // exact s32 accumulation (the stride-2 KxK/depthwise taps). The SIMD
  // paths read the odd in-between bytes of each 2n-1-byte span, so callers
  // must keep a few bytes of slack mapped past the last row.
  void (*qaxpy_rows_s2)(std::int32_t w, const std::uint8_t* x,
                        std::int64_t x_stride, std::int32_t* acc,
                        std::int64_t acc_stride, std::int64_t rows,
                        std::int64_t n);
  // Dense: returns sum_i w[i] * x[i] under the same pair-saturation rule.
  std::int32_t (*qdot)(const std::uint8_t* x, const std::int8_t* w,
                       std::int64_t n);
  // Requantize s32 accumulators back to u8 with a fused ReLU/clamp:
  // y[i] = u8(rne(clamp(float(acc[i]) * scale + bias, 0, 255))), with
  // separate mul and add (no FMA), NaN -> 0, and round-to-nearest-even —
  // the cvtps_epi32 semantics the SIMD paths get for free.
  void (*qrequant)(const std::int32_t* acc, float scale, float bias,
                   std::uint8_t* y, std::int64_t n);
  // Dequantize at a tap boundary: y[i] = float(int(x[i]) - zp) * scale
  // (exact int subtract, then a single float rounding in the multiply).
  void (*qdequant)(const std::uint8_t* x, float scale, std::int32_t zp,
                   float* y, std::int64_t n);
  // Quantize the float network input:
  // y[i] = u8(rne(clamp(x[i] * inv_scale + zp, 0, 255))), same float
  // semantics as qrequant.
  void (*qquant)(const float* x, float inv_scale, float zp, std::uint8_t* y,
                 std::int64_t n);
};

// The table for `isa`, or nullptr when this build/CPU cannot run it.
// Tests iterate supported ISAs and pin each against `scalar::Table()`.
const OpTable* TableFor(Isa isa);

// Highest supported ISA, capped by the FF_SIMD env var ("scalar", "avx2",
// "avx512"); resolved once on first use.
Isa ActiveIsa();

// The active table (never nullptr).
const OpTable& Active();

// Test hook: force the active table to `isa` (must be supported); returns
// the previously active ISA so tests can restore it.
Isa SetActiveIsaForTest(Isa isa);

// Reference implementations — always available, used as the parity oracle
// and as the fallback on non-x86 hosts.
namespace scalar {
const OpTable& Table();

// Reference only, outside every table: the unpacked int8 pointwise conv,
// acc[i] += sum_ic w[ic] * x[ic][i] under the pinned pair rule, reading
// the channel planes directly. No layer calls it; nn_kernels_test checks
// every ISA's qpw_acc1p/qpw_acc2p against it, an oracle that shares no
// packing code with them.
void QPwAcc1(const std::uint8_t* const* x, std::int64_t n_ic,
             const std::int8_t* w, std::int32_t* acc, std::int64_t n);
}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched convenience wrappers (what the layers call).
// ---------------------------------------------------------------------------

inline void Fill(float* y, std::int64_t n, float v) { Active().fill(y, n, v); }
inline void AxpyRows(float a, const float* x, std::int64_t x_stride, float* y,
                     std::int64_t y_stride, std::int64_t rows,
                     std::int64_t n) {
  Active().axpy_rows(a, x, x_stride, y, y_stride, rows, n);
}
inline void Axpy4Rows(const float* w, const float* x, std::int64_t x_stride,
                      float* y0, float* y1, float* y2, float* y3,
                      std::int64_t y_stride, std::int64_t rows,
                      std::int64_t n) {
  Active().axpy4_rows(w, x, x_stride, y0, y1, y2, y3, y_stride, rows, n);
}
inline void AxpyRowsS2(float a, const float* x, std::int64_t x_stride,
                       float* y, std::int64_t y_stride, std::int64_t rows,
                       std::int64_t n) {
  Active().axpy_rows_s2(a, x, x_stride, y, y_stride, rows, n);
}
inline void PwAcc8(const float* const* x, std::int64_t n_ic, const float* w,
                   std::int64_t w_stride, float* y, std::int64_t y_stride,
                   std::int64_t n) {
  Active().pw_acc8(x, n_ic, w, w_stride, y, y_stride, n);
}
inline void PwAcc4(const float* const* x, std::int64_t n_ic, const float* w,
                   std::int64_t w_stride, float* y0, float* y1, float* y2,
                   float* y3, std::int64_t n) {
  Active().pw_acc4(x, n_ic, w, w_stride, y0, y1, y2, y3, n);
}
inline void PwAcc1(const float* const* x, std::int64_t n_ic, const float* w,
                   float* y, std::int64_t n) {
  Active().pw_acc1(x, n_ic, w, y, n);
}
inline double Dot(const float* a, const float* b, std::int64_t n) {
  return Active().dot(a, b, n);
}
inline void Relu(const float* x, float* y, std::int64_t n) {
  Active().relu(x, y, n);
}
inline void Relu6(const float* x, float* y, std::int64_t n) {
  Active().relu6(x, y, n);
}
inline std::uint32_t Sad16x16(const std::uint8_t* a, std::int64_t stride_a,
                              const std::uint8_t* b, std::int64_t stride_b) {
  return Active().sad16x16(a, stride_a, b, stride_b);
}
inline void QAxpyRows(std::int32_t w, const std::uint8_t* x,
                      std::int64_t x_stride, std::int32_t* acc,
                      std::int64_t acc_stride, std::int64_t rows,
                      std::int64_t n) {
  Active().qaxpy_rows(w, x, x_stride, acc, acc_stride, rows, n);
}
inline void QPwPack(const std::uint8_t* const* x, std::int64_t n_ic,
                    std::uint8_t* out, std::int64_t n) {
  Active().qpw_pack(x, n_ic, out, n);
}
inline void QPwAcc1P(const std::uint8_t* packed, std::int64_t n_ic,
                     const std::int8_t* w, std::int32_t* acc,
                     std::int64_t n) {
  Active().qpw_acc1p(packed, n_ic, w, acc, n);
}
inline void QPwAcc2P(const std::uint8_t* packed, std::int64_t n_ic,
                     const std::int8_t* w0, const std::int8_t* w1,
                     std::int32_t* acc0, std::int32_t* acc1, std::int64_t n) {
  Active().qpw_acc2p(packed, n_ic, w0, w1, acc0, acc1, n);
}
inline void QAxpyRowsS2(std::int32_t w, const std::uint8_t* x,
                        std::int64_t x_stride, std::int32_t* acc,
                        std::int64_t acc_stride, std::int64_t rows,
                        std::int64_t n) {
  Active().qaxpy_rows_s2(w, x, x_stride, acc, acc_stride, rows, n);
}
inline std::int32_t QDot(const std::uint8_t* x, const std::int8_t* w,
                         std::int64_t n) {
  return Active().qdot(x, w, n);
}
inline void QRequant(const std::int32_t* acc, float scale, float bias,
                     std::uint8_t* y, std::int64_t n) {
  Active().qrequant(acc, scale, bias, y, n);
}
inline void QDequant(const std::uint8_t* x, float scale, std::int32_t zp,
                     float* y, std::int64_t n) {
  Active().qdequant(x, scale, zp, y, n);
}
inline void QQuant(const float* x, float inv_scale, float zp, std::uint8_t* y,
                   std::int64_t n) {
  Active().qquant(x, inv_scale, zp, y, n);
}

// ---------------------------------------------------------------------------
// Thread-pool dispatch policy, shared by conv / depthwise / pooling / dense.
// ---------------------------------------------------------------------------

// Minimum flops before a layer hands work to util::GlobalPool(); below it,
// the dispatch overhead outweighs the parallelism.
inline constexpr std::int64_t kParallelFlopThreshold = 1 << 17;

inline bool WorthParallel(std::int64_t flops) {
  return flops > kParallelFlopThreshold;
}

// Runs `block(n, c0, c1)` over the flattened (batch × channel) plane index
// space, fanned out across util::GlobalPool() when `total_flops` clears the
// shared threshold — the one dispatch policy conv, depthwise, and the
// pooling layers all follow. Batched inputs widen the fan-out to
// n × channels instead of channels alone.
template <typename Block>
void ForEachPlaneBlock(std::int64_t batch, std::int64_t channels,
                       std::int64_t total_flops, const Block& block) {
  if (WorthParallel(total_flops)) {
    util::GlobalPool().ParallelForRange(
        static_cast<std::size_t>(batch * channels),
        [&](std::size_t b, std::size_t e) {
          for (auto idx = static_cast<std::int64_t>(b);
               idx < static_cast<std::int64_t>(e);) {
            const std::int64_t n = idx / channels;
            const std::int64_t c0 = idx % channels;
            const std::int64_t c1 =
                std::min(channels, c0 + (static_cast<std::int64_t>(e) - idx));
            block(n, c0, c1);
            idx += c1 - c0;
          }
        });
  } else {
    for (std::int64_t n = 0; n < batch; ++n) block(n, 0, channels);
  }
}

// Per-plane convenience wrapper: `fn(n, c)` for every plane.
template <typename PlaneFn>
void ForEachPlane(std::int64_t batch, std::int64_t channels,
                  std::int64_t total_flops, const PlaneFn& fn) {
  ForEachPlaneBlock(batch, channels, total_flops,
                    [&](std::int64_t n, std::int64_t c0, std::int64_t c1) {
                      for (std::int64_t c = c0; c < c1; ++c) fn(n, c);
                    });
}

}  // namespace ff::nn::kernels
