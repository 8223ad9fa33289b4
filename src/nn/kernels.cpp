// SIMD micro-kernels. See kernels.hpp for the bitwise-parity contract.
//
// This file is compiled with -ffp-contract=off (src/CMakeLists.txt) so that
// even under -march=x86-64-v3 the compiler cannot fuse the scalar reference
// path's multiply+add into an FMA — the SIMD paths deliberately use separate
// mul/add, and parity is the whole point.

#include "nn/kernels.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include "util/check.hpp"

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FF_KERNELS_X86 1
#include <immintrin.h>
#else
#define FF_KERNELS_X86 0
#endif

namespace ff::nn::kernels {

// pw_acc8 for the tiers without an 8-row tile: two pw_acc4 calls, each row
// bitwise-identical to pw_acc1 by pw_acc4's own contract.
template <auto PwAcc4Fn>
void PwAcc8ByQuads(const float* const* x, std::int64_t n_ic, const float* w,
                   std::int64_t w_stride, float* y, std::int64_t y_stride,
                   std::int64_t n) {
  for (std::int64_t k = 0; k < 8; k += 4) {
    float* yk = y + k * y_stride;
    PwAcc4Fn(x, n_ic, w + k * w_stride, w_stride, yk, yk + y_stride,
             yk + 2 * y_stride, yk + 3 * y_stride, n);
  }
}

// Scalar reference pieces of the int8 path, shared by every ISA's tail and
// remainder loops so the bitwise contract holds by construction.
namespace qdetail {
namespace {

inline std::int32_t QSat16(std::int32_t v) {
  return v < -32768 ? -32768 : (v > 32767 ? 32767 : v);
}

// Contribution of channels [ic0, n_ic) at pixel i under the pinned pair
// rule. ic0 must be even so pair boundaries line up with the full sequence.
inline std::int32_t QPwPixel(const std::uint8_t* const* x, std::int64_t ic0,
                             std::int64_t n_ic, const std::int8_t* w,
                             std::int64_t i) {
  std::int32_t a = 0;
  std::int64_t ic = ic0;
  for (; ic + 2 <= n_ic; ic += 2) {
    a += QSat16(static_cast<std::int32_t>(w[ic]) * x[ic][i] +
                static_cast<std::int32_t>(w[ic + 1]) * x[ic + 1][i]);
  }
  if (ic < n_ic) a += static_cast<std::int32_t>(w[ic]) * x[ic][i];
  return a;
}

// Pair-rule dot over [0, n); the caller guarantees any SIMD prefix consumed
// an even number of elements so the pairing stays globally aligned.
inline std::int32_t QDotTail(const std::uint8_t* x, const std::int8_t* w,
                             std::int64_t n) {
  std::int32_t a = 0;
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    a += QSat16(static_cast<std::int32_t>(w[i]) * x[i] +
                static_cast<std::int32_t>(w[i + 1]) * x[i + 1]);
  }
  if (i < n) a += static_cast<std::int32_t>(w[i]) * x[i];
  return a;
}

// clamp-to-[0,255] then round-to-nearest-even, the scalar twin of the SIMD
// max/min + cvtps sequence (max first so NaN -> 0, like relu).
inline std::uint8_t QClampU8(float t) {
  t = t > 0.0f ? t : 0.0f;
  t = t < 255.0f ? t : 255.0f;
  return static_cast<std::uint8_t>(
      static_cast<std::int32_t>(std::nearbyintf(t)));
}

inline std::uint8_t QRequantOne(std::int32_t a, float scale, float bias) {
  float t = static_cast<float>(a) * scale;
  t = t + bias;
  return QClampU8(t);
}

inline std::uint8_t QQuantOne(float v, float inv_scale, float zp) {
  float t = v * inv_scale;
  t = t + zp;
  return QClampU8(t);
}

inline float QDequantOne(std::uint8_t v, float scale, std::int32_t zp) {
  return static_cast<float>(static_cast<std::int32_t>(v) - zp) * scale;
}

// The 4 weight bytes of a channel quad packed little-endian for set1_epi32.
inline int QuadBits(const std::int8_t* w) {
  const std::uint32_t b =
      static_cast<std::uint32_t>(static_cast<std::uint8_t>(w[0])) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(w[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(w[2])) << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(w[3])) << 24);
  return static_cast<int>(b);
}

// Weight quad q of an n_ic-channel row, zero-padded past the end — the
// weight-side twin of qpw_pack's zero-filled padding channels.
inline void QuadW(const std::int8_t* w, std::int64_t q, std::int64_t n_ic,
                  std::int8_t out[4]) {
  for (int j = 0; j < 4; ++j) {
    const std::int64_t ic = 4 * q + j;
    out[j] = ic < n_ic ? w[ic] : 0;
  }
}

// Pinned pair rule applied to one packed pixel (4 channel bytes) against a
// possibly zero-padded weight quad. A zero-weight pair member contributes 0
// inside the saturation and a lone u8*s8 product can never saturate, so the
// padded quad is bitwise-identical to the unpacked tail rule.
inline std::int32_t QPackedPixel(const std::uint8_t* p,
                                 const std::int8_t* wq) {
  return QSat16(static_cast<std::int32_t>(wq[0]) * p[0] +
                static_cast<std::int32_t>(wq[1]) * p[1]) +
         QSat16(static_cast<std::int32_t>(wq[2]) * p[2] +
                static_cast<std::int32_t>(wq[3]) * p[3]);
}

}  // namespace
}  // namespace qdetail

namespace scalar {
namespace {

void Fill(float* y, std::int64_t n, float v) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = v;
}

void AxpyRows(float a, const float* x, std::int64_t x_stride, float* y,
              std::int64_t y_stride, std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* yr = y + r * y_stride;
    for (std::int64_t i = 0; i < n; ++i) yr[i] += a * xr[i];
  }
}

void Axpy4Rows(const float* w, const float* x, std::int64_t x_stride,
               float* y0, float* y1, float* y2, float* y3,
               std::int64_t y_stride, std::int64_t rows, std::int64_t n) {
  const float w0 = w[0], w1 = w[1], w2 = w[2], w3 = w[3];
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* r0 = y0 + r * y_stride;
    float* r1 = y1 + r * y_stride;
    float* r2 = y2 + r * y_stride;
    float* r3 = y3 + r * y_stride;
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = xr[i];
      r0[i] += w0 * v;
      r1[i] += w1 * v;
      r2[i] += w2 * v;
      r3[i] += w3 * v;
    }
  }
}

void AxpyRowsS2(float a, const float* x, std::int64_t x_stride, float* y,
                std::int64_t y_stride, std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* yr = y + r * y_stride;
    for (std::int64_t i = 0; i < n; ++i) yr[i] += a * xr[2 * i];
  }
}

void PwAcc4(const float* const* x, std::int64_t n_ic, const float* w,
            std::int64_t w_stride, float* y0, float* y1, float* y2, float* y3,
            std::int64_t n) {
  const float* w0 = w;
  const float* w1 = w + w_stride;
  const float* w2 = w + 2 * w_stride;
  const float* w3 = w + 3 * w_stride;
  for (std::int64_t i = 0; i < n; ++i) {
    float a0 = y0[i], a1 = y1[i], a2 = y2[i], a3 = y3[i];
    for (std::int64_t ic = 0; ic < n_ic; ++ic) {
      const float v = x[ic][i];
      a0 += w0[ic] * v;
      a1 += w1[ic] * v;
      a2 += w2[ic] * v;
      a3 += w3[ic] * v;
    }
    y0[i] = a0;
    y1[i] = a1;
    y2[i] = a2;
    y3[i] = a3;
  }
}

void PwAcc1(const float* const* x, std::int64_t n_ic, const float* w,
            float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    float a = y[i];
    for (std::int64_t ic = 0; ic < n_ic; ++ic) a += w[ic] * x[ic][i];
    y[i] = a;
  }
}

// The pinned reduction scheme: lane j accumulates indices i ≡ j (mod 8).
double Dot(const float* a, const float* b, std::int64_t n) {
  double s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      s[j] += static_cast<double>(a[i + j]) * static_cast<double>(b[i + j]);
    }
  }
  for (int j = 0; i < n; ++i, ++j) {
    s[j] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void Relu(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void Relu6(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float r = x[i] > 0.0f ? x[i] : 0.0f;
    y[i] = r < 6.0f ? r : 6.0f;
  }
}

std::uint32_t Sad16x16(const std::uint8_t* a, std::int64_t stride_a,
                       const std::uint8_t* b, std::int64_t stride_b) {
  std::uint32_t sad = 0;
  for (int y = 0; y < 16; ++y) {
    const std::uint8_t* ar = a + y * stride_a;
    const std::uint8_t* br = b + y * stride_b;
    for (int i = 0; i < 16; ++i) {
      sad += static_cast<std::uint32_t>(
          ar[i] > br[i] ? ar[i] - br[i] : br[i] - ar[i]);
    }
  }
  return sad;
}

void QAxpyRows(std::int32_t w, const std::uint8_t* x, std::int64_t x_stride,
               std::int32_t* acc, std::int64_t acc_stride, std::int64_t rows,
               std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint8_t* xr = x + r * x_stride;
    std::int32_t* ar = acc + r * acc_stride;
    for (std::int64_t i = 0; i < n; ++i) ar[i] += w * xr[i];
  }
}

void QPwPack(const std::uint8_t* const* x, std::int64_t n_ic,
             std::uint8_t* out, std::int64_t n) {
  const std::int64_t quads = (n_ic + 3) / 4;
  for (std::int64_t q = 0; q < quads; ++q) {
    std::uint8_t* oq = out + q * 4 * n;
    for (std::int64_t j = 0; j < 4; ++j) {
      const std::int64_t ic = 4 * q + j;
      if (ic < n_ic) {
        const std::uint8_t* xp = x[ic];
        for (std::int64_t i = 0; i < n; ++i) oq[4 * i + j] = xp[i];
      } else {
        for (std::int64_t i = 0; i < n; ++i) oq[4 * i + j] = 0;
      }
    }
  }
}

void QPwAcc1P(const std::uint8_t* packed, std::int64_t n_ic,
              const std::int8_t* w, std::int32_t* acc, std::int64_t n) {
  const std::int64_t quads = (n_ic + 3) / 4;
  for (std::int64_t q = 0; q < quads; ++q) {
    std::int8_t wq[4];
    qdetail::QuadW(w, q, n_ic, wq);
    const std::uint8_t* pq = packed + q * 4 * n;
    for (std::int64_t i = 0; i < n; ++i) {
      acc[i] += qdetail::QPackedPixel(pq + 4 * i, wq);
    }
  }
}

// The scalar pair is the one-channel kernel once per output channel, which
// is the pair's contract.
void QPwAcc2P(const std::uint8_t* packed, std::int64_t n_ic,
              const std::int8_t* w0, const std::int8_t* w1, std::int32_t* acc0,
              std::int32_t* acc1, std::int64_t n) {
  QPwAcc1P(packed, n_ic, w0, acc0, n);
  QPwAcc1P(packed, n_ic, w1, acc1, n);
}

void QAxpyRowsS2(std::int32_t w, const std::uint8_t* x,
                 std::int64_t x_stride, std::int32_t* acc,
                 std::int64_t acc_stride, std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint8_t* xr = x + r * x_stride;
    std::int32_t* ar = acc + r * acc_stride;
    for (std::int64_t i = 0; i < n; ++i) ar[i] += w * xr[2 * i];
  }
}

std::int32_t QDot(const std::uint8_t* x, const std::int8_t* w,
                  std::int64_t n) {
  return qdetail::QDotTail(x, w, n);
}

void QRequant(const std::int32_t* acc, float scale, float bias,
              std::uint8_t* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = qdetail::QRequantOne(acc[i], scale, bias);
  }
}

void QDequant(const std::uint8_t* x, float scale, std::int32_t zp, float* y,
              std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = qdetail::QDequantOne(x[i], scale, zp);
  }
}

void QQuant(const float* x, float inv_scale, float zp, std::uint8_t* y,
            std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = qdetail::QQuantOne(x[i], inv_scale, zp);
  }
}

constexpr OpTable kTable = {Fill,      AxpyRows,   Axpy4Rows, AxpyRowsS2,
                            PwAcc4,    PwAcc8ByQuads<PwAcc4>,
                            PwAcc1,    Dot,        Relu,      Relu6,
                            Sad16x16,  QAxpyRows,  QPwPack,   QPwAcc1P,
                            QPwAcc2P,  QAxpyRowsS2, QDot,     QRequant,
                            QDequant,  QQuant};

}  // namespace

void QPwAcc1(const std::uint8_t* const* x, std::int64_t n_ic,
             const std::int8_t* w, std::int32_t* acc, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    acc[i] += qdetail::QPwPixel(x, 0, n_ic, w, i);
  }
}

const OpTable& Table() { return kTable; }

}  // namespace scalar

#if FF_KERNELS_X86

// ---------------------------------------------------------------------------
// AVX2 — gated at runtime by CPUID; compiled via the target attribute so the
// baseline build still carries it.
// ---------------------------------------------------------------------------
namespace avx2 {
namespace {

#define FF_AVX2 __attribute__((target("avx2")))

FF_AVX2 void Fill(float* y, std::int64_t n, float v) {
  const __m256 vv = _mm256_set1_ps(v);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, vv);
  for (; i < n; ++i) y[i] = v;
}

FF_AVX2 void AxpyRows(float a, const float* x, std::int64_t x_stride,
                      float* y, std::int64_t y_stride, std::int64_t rows,
                      std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* yr = y + r * y_stride;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 vy = _mm256_loadu_ps(yr + i);
      _mm256_storeu_ps(
          yr + i, _mm256_add_ps(vy, _mm256_mul_ps(va, _mm256_loadu_ps(xr + i))));
    }
    for (; i < n; ++i) yr[i] += a * xr[i];
  }
}

FF_AVX2 void Axpy4Rows(const float* w, const float* x, std::int64_t x_stride,
                       float* y0, float* y1, float* y2, float* y3,
                       std::int64_t y_stride, std::int64_t rows,
                       std::int64_t n) {
  const __m256 w0 = _mm256_set1_ps(w[0]), w1 = _mm256_set1_ps(w[1]);
  const __m256 w2 = _mm256_set1_ps(w[2]), w3 = _mm256_set1_ps(w[3]);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* r0 = y0 + r * y_stride;
    float* r1 = y1 + r * y_stride;
    float* r2 = y2 + r * y_stride;
    float* r3 = y3 + r * y_stride;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(xr + i);
      _mm256_storeu_ps(
          r0 + i, _mm256_add_ps(_mm256_loadu_ps(r0 + i), _mm256_mul_ps(w0, v)));
      _mm256_storeu_ps(
          r1 + i, _mm256_add_ps(_mm256_loadu_ps(r1 + i), _mm256_mul_ps(w1, v)));
      _mm256_storeu_ps(
          r2 + i, _mm256_add_ps(_mm256_loadu_ps(r2 + i), _mm256_mul_ps(w2, v)));
      _mm256_storeu_ps(
          r3 + i, _mm256_add_ps(_mm256_loadu_ps(r3 + i), _mm256_mul_ps(w3, v)));
    }
    for (; i < n; ++i) {
      const float v = xr[i];
      r0[i] += w[0] * v;
      r1[i] += w[1] * v;
      r2[i] += w[2] * v;
      r3[i] += w[3] * v;
    }
  }
}

// Two overlapping loads: lo = x[0..7] holds x[0,2,4,6] in lanes 0,2,4,6 and
// hi = x[7..14] holds x[8,10,12,14] in lanes 1,3,5,7, so the last element
// read is x[14], the last one the 8 outputs use.
FF_AVX2 void AxpyRowsS2(float a, const float* x, std::int64_t x_stride,
                        float* y, std::int64_t y_stride, std::int64_t rows,
                        std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* yr = y + r * y_stride;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256 lo = _mm256_loadu_ps(xr + 2 * i);
      const __m256 hi = _mm256_loadu_ps(xr + 2 * i + 7);
      // [x0 x2 x8 x10 | x4 x6 x12 x14], then the 64-bit pairs reordered.
      const __m256 mix = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 2, 0));
      const __m256 v = _mm256_castpd_ps(_mm256_permute4x64_pd(
          _mm256_castps_pd(mix), _MM_SHUFFLE(3, 1, 2, 0)));
      _mm256_storeu_ps(
          yr + i, _mm256_add_ps(_mm256_loadu_ps(yr + i), _mm256_mul_ps(va, v)));
    }
    for (; i < n; ++i) yr[i] += a * xr[2 * i];
  }
}

FF_AVX2 void PwAcc4(const float* const* x, std::int64_t n_ic, const float* w,
                    std::int64_t w_stride, float* y0, float* y1, float* y2,
                    float* y3, std::int64_t n) {
  const float* w0 = w;
  const float* w1 = w + w_stride;
  const float* w2 = w + 2 * w_stride;
  const float* w3 = w + 3 * w_stride;
  std::int64_t i = 0;
  // 4 output rows x 16 columns of accumulators live in registers across the
  // whole ic loop: 8 accumulators + 2 column vectors + broadcasts = 14 regs.
  for (; i + 16 <= n; i += 16) {
    __m256 a0l = _mm256_loadu_ps(y0 + i), a0h = _mm256_loadu_ps(y0 + i + 8);
    __m256 a1l = _mm256_loadu_ps(y1 + i), a1h = _mm256_loadu_ps(y1 + i + 8);
    __m256 a2l = _mm256_loadu_ps(y2 + i), a2h = _mm256_loadu_ps(y2 + i + 8);
    __m256 a3l = _mm256_loadu_ps(y3 + i), a3h = _mm256_loadu_ps(y3 + i + 8);
    for (std::int64_t ic = 0; ic < n_ic; ++ic) {
      const __m256 vl = _mm256_loadu_ps(x[ic] + i);
      const __m256 vh = _mm256_loadu_ps(x[ic] + i + 8);
      __m256 wv = _mm256_set1_ps(w0[ic]);
      a0l = _mm256_add_ps(a0l, _mm256_mul_ps(wv, vl));
      a0h = _mm256_add_ps(a0h, _mm256_mul_ps(wv, vh));
      wv = _mm256_set1_ps(w1[ic]);
      a1l = _mm256_add_ps(a1l, _mm256_mul_ps(wv, vl));
      a1h = _mm256_add_ps(a1h, _mm256_mul_ps(wv, vh));
      wv = _mm256_set1_ps(w2[ic]);
      a2l = _mm256_add_ps(a2l, _mm256_mul_ps(wv, vl));
      a2h = _mm256_add_ps(a2h, _mm256_mul_ps(wv, vh));
      wv = _mm256_set1_ps(w3[ic]);
      a3l = _mm256_add_ps(a3l, _mm256_mul_ps(wv, vl));
      a3h = _mm256_add_ps(a3h, _mm256_mul_ps(wv, vh));
    }
    _mm256_storeu_ps(y0 + i, a0l);
    _mm256_storeu_ps(y0 + i + 8, a0h);
    _mm256_storeu_ps(y1 + i, a1l);
    _mm256_storeu_ps(y1 + i + 8, a1h);
    _mm256_storeu_ps(y2 + i, a2l);
    _mm256_storeu_ps(y2 + i + 8, a2h);
    _mm256_storeu_ps(y3 + i, a3l);
    _mm256_storeu_ps(y3 + i + 8, a3h);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 a0 = _mm256_loadu_ps(y0 + i), a1 = _mm256_loadu_ps(y1 + i);
    __m256 a2 = _mm256_loadu_ps(y2 + i), a3 = _mm256_loadu_ps(y3 + i);
    for (std::int64_t ic = 0; ic < n_ic; ++ic) {
      const __m256 v = _mm256_loadu_ps(x[ic] + i);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(w0[ic]), v));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_set1_ps(w1[ic]), v));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_set1_ps(w2[ic]), v));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_set1_ps(w3[ic]), v));
    }
    _mm256_storeu_ps(y0 + i, a0);
    _mm256_storeu_ps(y1 + i, a1);
    _mm256_storeu_ps(y2 + i, a2);
    _mm256_storeu_ps(y3 + i, a3);
  }
  for (; i < n; ++i) {
    float a0 = y0[i], a1 = y1[i], a2 = y2[i], a3 = y3[i];
    for (std::int64_t ic = 0; ic < n_ic; ++ic) {
      const float v = x[ic][i];
      a0 += w0[ic] * v;
      a1 += w1[ic] * v;
      a2 += w2[ic] * v;
      a3 += w3[ic] * v;
    }
    y0[i] = a0;
    y1[i] = a1;
    y2[i] = a2;
    y3[i] = a3;
  }
}

FF_AVX2 void PwAcc1(const float* const* x, std::int64_t n_ic, const float* w,
                    float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256 al = _mm256_loadu_ps(y + i);
    __m256 ah = _mm256_loadu_ps(y + i + 8);
    for (std::int64_t ic = 0; ic < n_ic; ++ic) {
      const __m256 wv = _mm256_set1_ps(w[ic]);
      al = _mm256_add_ps(al, _mm256_mul_ps(wv, _mm256_loadu_ps(x[ic] + i)));
      ah = _mm256_add_ps(ah,
                         _mm256_mul_ps(wv, _mm256_loadu_ps(x[ic] + i + 8)));
    }
    _mm256_storeu_ps(y + i, al);
    _mm256_storeu_ps(y + i + 8, ah);
  }
  for (; i + 8 <= n; i += 8) {
    __m256 a = _mm256_loadu_ps(y + i);
    for (std::int64_t ic = 0; ic < n_ic; ++ic) {
      a = _mm256_add_ps(
          a, _mm256_mul_ps(_mm256_set1_ps(w[ic]), _mm256_loadu_ps(x[ic] + i)));
    }
    _mm256_storeu_ps(y + i, a);
  }
  for (; i < n; ++i) {
    float a = y[i];
    for (std::int64_t ic = 0; ic < n_ic; ++ic) a += w[ic] * x[ic][i];
    y[i] = a;
  }
}

FF_AVX2 double Dot(const float* a, const float* b, std::int64_t n) {
  // acc_lo carries lanes 0-3, acc_hi lanes 4-7 of the pinned scheme.
  __m256d acc_lo = _mm256_setzero_pd(), acc_hi = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(alo, blo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(ahi, bhi));
  }
  alignas(32) double s[8];
  _mm256_store_pd(s + 0, acc_lo);
  _mm256_store_pd(s + 4, acc_hi);
  for (int j = 0; i < n; ++i, ++j) {
    s[j] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

FF_AVX2 void Relu(const float* x, float* y, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

FF_AVX2 void Relu6(const float* x, float* y, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 six = _mm256_set1_ps(6.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(x + i), zero), six));
  }
  for (; i < n; ++i) {
    const float r = x[i] > 0.0f ? x[i] : 0.0f;
    y[i] = r < 6.0f ? r : 6.0f;
  }
}

// A 16-byte row fills one xmm register, so this is baseline 128-bit psadbw
// without the AVX2 target: a 256-bit copy measured no faster.
std::uint32_t Sad16x16(const std::uint8_t* a, std::int64_t stride_a,
                       const std::uint8_t* b, std::int64_t stride_b) {
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < 16; ++y) {
    const __m128i va = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + y * stride_a));
    const __m128i vb = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + y * stride_b));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
  }
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si64(acc) + _mm_cvtsi128_si64(_mm_srli_si128(acc, 8)));
}

FF_AVX2 void QAxpyRows(std::int32_t w, const std::uint8_t* x,
                       std::int64_t x_stride, std::int32_t* acc,
                       std::int64_t acc_stride, std::int64_t rows,
                       std::int64_t n) {
  const __m256i wv = _mm256_set1_epi16(static_cast<short>(w));
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint8_t* xr = x + r * x_stride;
    std::int32_t* ar = acc + r * acc_stride;
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m128i xb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(xr + i));
      // |w * x| <= 127*255 = 32385, so the s16 product is exact.
      const __m256i p = _mm256_mullo_epi16(_mm256_cvtepu8_epi16(xb), wv);
      const __m256i plo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p));
      const __m256i phi =
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(ar + i),
          _mm256_add_epi32(_mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(ar + i)),
                           plo));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(ar + i + 8),
          _mm256_add_epi32(_mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(ar + i + 8)),
                           phi));
    }
    for (; i < n; ++i) ar[i] += w * xr[i];
  }
}

// maddubs (u8*s8 pair products saturated to s16) + madd-by-ones (exact pair
// sums per pixel) — the hardware form of the pinned reduction rule.
FF_AVX2 inline __m256i QQuadMadd(__m256i u, __m256i wq, __m256i ones) {
  return _mm256_madd_epi16(_mm256_maddubs_epi16(u, wq), ones);
}

// Transposes four 32-pixel channel rows into per-pixel channel quads.
// u_k lane0 holds pixels 4k..4k+3, lane1 pixels 16+4k..16+4k+3; QPwPack's
// store permutation below matches that layout.
#define FF_Q_TRANSPOSE4(base)                                             \
  const __m256i r0 = _mm256_loadu_si256(                                  \
      reinterpret_cast<const __m256i*>(x[(base)] + i));                   \
  const __m256i r1 = _mm256_loadu_si256(                                  \
      reinterpret_cast<const __m256i*>(x[(base) + 1] + i));               \
  const __m256i r2 = _mm256_loadu_si256(                                  \
      reinterpret_cast<const __m256i*>(x[(base) + 2] + i));               \
  const __m256i r3 = _mm256_loadu_si256(                                  \
      reinterpret_cast<const __m256i*>(x[(base) + 3] + i));               \
  const __m256i t0 = _mm256_unpacklo_epi8(r0, r1);                        \
  const __m256i t1 = _mm256_unpackhi_epi8(r0, r1);                        \
  const __m256i t2 = _mm256_unpacklo_epi8(r2, r3);                        \
  const __m256i t3 = _mm256_unpackhi_epi8(r2, r3);                        \
  const __m256i u0 = _mm256_unpacklo_epi16(t0, t2);                       \
  const __m256i u1 = _mm256_unpackhi_epi16(t0, t2);                       \
  const __m256i u2 = _mm256_unpacklo_epi16(t1, t3);                       \
  const __m256i u3 = _mm256_unpackhi_epi16(t1, t3)

FF_AVX2 void QPwPack(const std::uint8_t* const* x, std::int64_t n_ic,
                     std::uint8_t* out, std::int64_t n) {
  const std::int64_t quads = n_ic / 4;
  for (std::int64_t q = 0; q < quads; ++q) {
    std::uint8_t* oq = out + q * 4 * n;
    std::int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
      FF_Q_TRANSPOSE4(4 * q);
      // Store in sequential pixel order: u0/u1 lane0 = px 0-7, u2/u3 lane0
      // = px 8-15, the lane1 halves px 16-31.
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(oq + 4 * i),
                          _mm256_permute2x128_si256(u0, u1, 0x20));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(oq + 4 * i + 32),
                          _mm256_permute2x128_si256(u2, u3, 0x20));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(oq + 4 * i + 64),
                          _mm256_permute2x128_si256(u0, u1, 0x31));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(oq + 4 * i + 96),
                          _mm256_permute2x128_si256(u2, u3, 0x31));
    }
    for (; i < n; ++i) {
      oq[4 * i] = x[4 * q][i];
      oq[4 * i + 1] = x[4 * q + 1][i];
      oq[4 * i + 2] = x[4 * q + 2][i];
      oq[4 * i + 3] = x[4 * q + 3][i];
    }
  }
  if (4 * quads < n_ic) {
    std::uint8_t* oq = out + quads * 4 * n;
    for (std::int64_t j = 0; j < 4; ++j) {
      const std::int64_t ic = 4 * quads + j;
      if (ic < n_ic) {
        const std::uint8_t* xp = x[ic];
        for (std::int64_t i = 0; i < n; ++i) oq[4 * i + j] = xp[i];
      } else {
        for (std::int64_t i = 0; i < n; ++i) oq[4 * i + j] = 0;
      }
    }
  }
}

FF_AVX2 void QPwAcc1P(const std::uint8_t* packed, std::int64_t n_ic,
                      const std::int8_t* w, std::int32_t* acc,
                      std::int64_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  const std::int64_t full = n_ic / 4;
  std::int8_t wtail[4] = {0, 0, 0, 0};
  const std::int64_t quads = (n_ic + 3) / 4;
  if (quads > full) qdetail::QuadW(w, full, n_ic, wtail);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 8));
    __m256i a2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 16));
    __m256i a3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 24));
    for (std::int64_t q = 0; q < quads; ++q) {
      const std::uint8_t* p = packed + q * 4 * n + 4 * i;
      const __m256i wq = _mm256_set1_epi32(
          q < full ? qdetail::QuadBits(w + 4 * q) : qdetail::QuadBits(wtail));
      // Packed bytes are already per-pixel channel quads in pixel order, so
      // maddubs+madd lands 8 sequential s32 sums per register — no shuffles.
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
      const __m256i v2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 64));
      const __m256i v3 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 96));
      a0 = _mm256_add_epi32(a0, QQuadMadd(v0, wq, ones));
      a1 = _mm256_add_epi32(a1, QQuadMadd(v1, wq, ones));
      a2 = _mm256_add_epi32(a2, QQuadMadd(v2, wq, ones));
      a3 = _mm256_add_epi32(a3, QQuadMadd(v3, wq, ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 8), a1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 16), a2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 24), a3);
  }
  if (i < n) {
    // Masked final block: each pixel's channel quad is exactly one 4-byte
    // lane, so vpmaskmovd gives a per-pixel predicate. Masked lanes are
    // never read or written, so the live lanes compute the same pinned-rule
    // sums as the full-width path (bitwise identity preserved) and a scalar
    // per-pixel tail -- which walks the quad stride 4 bytes at a time and
    // dominated whole layers when the plane was not a multiple of 32 --
    // is never needed.
    const __m256i lane =
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const int rem = static_cast<int>(n - i);
    const __m256i m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), lane);
    const __m256i m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 8), lane);
    const __m256i m2 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 16), lane);
    const __m256i m3 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 24), lane);
    __m256i a0 = _mm256_maskload_epi32(acc + i, m0);
    __m256i a1 = _mm256_maskload_epi32(acc + i + 8, m1);
    __m256i a2 = _mm256_maskload_epi32(acc + i + 16, m2);
    __m256i a3 = _mm256_maskload_epi32(acc + i + 24, m3);
    for (std::int64_t q = 0; q < quads; ++q) {
      const int* p =
          reinterpret_cast<const int*>(packed + q * 4 * n + 4 * i);
      const __m256i wq = _mm256_set1_epi32(
          q < full ? qdetail::QuadBits(w + 4 * q) : qdetail::QuadBits(wtail));
      a0 = _mm256_add_epi32(
          a0, QQuadMadd(_mm256_maskload_epi32(p, m0), wq, ones));
      a1 = _mm256_add_epi32(
          a1, QQuadMadd(_mm256_maskload_epi32(p + 8, m1), wq, ones));
      a2 = _mm256_add_epi32(
          a2, QQuadMadd(_mm256_maskload_epi32(p + 16, m2), wq, ones));
      a3 = _mm256_add_epi32(
          a3, QQuadMadd(_mm256_maskload_epi32(p + 24, m3), wq, ones));
    }
    _mm256_maskstore_epi32(acc + i, m0, a0);
    _mm256_maskstore_epi32(acc + i + 8, m1, a1);
    _mm256_maskstore_epi32(acc + i + 16, m2, a2);
    _mm256_maskstore_epi32(acc + i + 24, m3, a3);
  }
}

FF_AVX2 void QPwAcc2P(const std::uint8_t* packed, std::int64_t n_ic,
                      const std::int8_t* w0, const std::int8_t* w1,
                      std::int32_t* acc0, std::int32_t* acc1,
                      std::int64_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  const std::int64_t full = n_ic / 4;
  std::int8_t wtail0[4] = {0, 0, 0, 0};
  std::int8_t wtail1[4] = {0, 0, 0, 0};
  const std::int64_t quads = (n_ic + 3) / 4;
  if (quads > full) {
    qdetail::QuadW(w0, full, n_ic, wtail0);
    qdetail::QuadW(w1, full, n_ic, wtail1);
  }
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i a00 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0 + i));
    __m256i a01 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0 + i + 8));
    __m256i a02 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0 + i + 16));
    __m256i a03 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc0 + i + 24));
    __m256i a10 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1 + i));
    __m256i a11 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1 + i + 8));
    __m256i a12 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1 + i + 16));
    __m256i a13 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc1 + i + 24));
    for (std::int64_t q = 0; q < quads; ++q) {
      const std::uint8_t* p = packed + q * 4 * n + 4 * i;
      const __m256i wq0 = _mm256_set1_epi32(
          q < full ? qdetail::QuadBits(w0 + 4 * q)
                   : qdetail::QuadBits(wtail0));
      const __m256i wq1 = _mm256_set1_epi32(
          q < full ? qdetail::QuadBits(w1 + 4 * q)
                   : qdetail::QuadBits(wtail1));
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
      const __m256i v2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 64));
      const __m256i v3 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 96));
      a00 = _mm256_add_epi32(a00, QQuadMadd(v0, wq0, ones));
      a01 = _mm256_add_epi32(a01, QQuadMadd(v1, wq0, ones));
      a02 = _mm256_add_epi32(a02, QQuadMadd(v2, wq0, ones));
      a03 = _mm256_add_epi32(a03, QQuadMadd(v3, wq0, ones));
      a10 = _mm256_add_epi32(a10, QQuadMadd(v0, wq1, ones));
      a11 = _mm256_add_epi32(a11, QQuadMadd(v1, wq1, ones));
      a12 = _mm256_add_epi32(a12, QQuadMadd(v2, wq1, ones));
      a13 = _mm256_add_epi32(a13, QQuadMadd(v3, wq1, ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc0 + i), a00);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc0 + i + 8), a01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc0 + i + 16), a02);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc0 + i + 24), a03);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc1 + i), a10);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc1 + i + 8), a11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc1 + i + 16), a12);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc1 + i + 24), a13);
  }
  if (i < n) {
    // Masked final block; see QPwAcc1P for why this preserves bitwise
    // identity and why a scalar tail is a throughput cliff.
    const __m256i lane =
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const int rem = static_cast<int>(n - i);
    const __m256i m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), lane);
    const __m256i m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 8), lane);
    const __m256i m2 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 16), lane);
    const __m256i m3 = _mm256_cmpgt_epi32(_mm256_set1_epi32(rem - 24), lane);
    __m256i a00 = _mm256_maskload_epi32(acc0 + i, m0);
    __m256i a01 = _mm256_maskload_epi32(acc0 + i + 8, m1);
    __m256i a02 = _mm256_maskload_epi32(acc0 + i + 16, m2);
    __m256i a03 = _mm256_maskload_epi32(acc0 + i + 24, m3);
    __m256i a10 = _mm256_maskload_epi32(acc1 + i, m0);
    __m256i a11 = _mm256_maskload_epi32(acc1 + i + 8, m1);
    __m256i a12 = _mm256_maskload_epi32(acc1 + i + 16, m2);
    __m256i a13 = _mm256_maskload_epi32(acc1 + i + 24, m3);
    for (std::int64_t q = 0; q < quads; ++q) {
      const int* p =
          reinterpret_cast<const int*>(packed + q * 4 * n + 4 * i);
      const __m256i wq0 = _mm256_set1_epi32(
          q < full ? qdetail::QuadBits(w0 + 4 * q)
                   : qdetail::QuadBits(wtail0));
      const __m256i wq1 = _mm256_set1_epi32(
          q < full ? qdetail::QuadBits(w1 + 4 * q)
                   : qdetail::QuadBits(wtail1));
      const __m256i v0 = _mm256_maskload_epi32(p, m0);
      const __m256i v1 = _mm256_maskload_epi32(p + 8, m1);
      const __m256i v2 = _mm256_maskload_epi32(p + 16, m2);
      const __m256i v3 = _mm256_maskload_epi32(p + 24, m3);
      a00 = _mm256_add_epi32(a00, QQuadMadd(v0, wq0, ones));
      a01 = _mm256_add_epi32(a01, QQuadMadd(v1, wq0, ones));
      a02 = _mm256_add_epi32(a02, QQuadMadd(v2, wq0, ones));
      a03 = _mm256_add_epi32(a03, QQuadMadd(v3, wq0, ones));
      a10 = _mm256_add_epi32(a10, QQuadMadd(v0, wq1, ones));
      a11 = _mm256_add_epi32(a11, QQuadMadd(v1, wq1, ones));
      a12 = _mm256_add_epi32(a12, QQuadMadd(v2, wq1, ones));
      a13 = _mm256_add_epi32(a13, QQuadMadd(v3, wq1, ones));
    }
    _mm256_maskstore_epi32(acc0 + i, m0, a00);
    _mm256_maskstore_epi32(acc0 + i + 8, m1, a01);
    _mm256_maskstore_epi32(acc0 + i + 16, m2, a02);
    _mm256_maskstore_epi32(acc0 + i + 24, m3, a03);
    _mm256_maskstore_epi32(acc1 + i, m0, a10);
    _mm256_maskstore_epi32(acc1 + i + 8, m1, a11);
    _mm256_maskstore_epi32(acc1 + i + 16, m2, a12);
    _mm256_maskstore_epi32(acc1 + i + 24, m3, a13);
  }
}

FF_AVX2 void QAxpyRowsS2(std::int32_t w, const std::uint8_t* x,
                         std::int64_t x_stride, std::int32_t* acc,
                         std::int64_t acc_stride, std::int64_t rows,
                         std::int64_t n) {
  const __m256i wv = _mm256_set1_epi16(static_cast<short>(w));
  const __m256i mask = _mm256_set1_epi16(0x00FF);
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint8_t* xr = x + r * x_stride;
    std::int32_t* ar = acc + r * acc_stride;
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xr + 2 * i));
      // Even bytes zero-extended to u16; |w * x| <= 32385 so the s16
      // product is exact.
      const __m256i p = _mm256_mullo_epi16(_mm256_and_si256(b, mask), wv);
      const __m256i lo =
          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p));
      const __m256i hi =
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(ar + i),
          _mm256_add_epi32(_mm256_loadu_si256(
                               reinterpret_cast<const __m256i*>(ar + i)),
                           lo));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(ar + i + 8),
          _mm256_add_epi32(
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(ar + i + 8)),
              hi));
    }
    for (; i < n; ++i) ar[i] += w * xr[2 * i];
  }
}

#undef FF_Q_TRANSPOSE4

FF_AVX2 std::int32_t QDot(const std::uint8_t* x, const std::int8_t* w,
                          std::int64_t n) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i accv = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    accv = _mm256_add_epi32(accv, QQuadMadd(xv, wv, ones));
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), accv);
  std::int32_t a = 0;
  for (int j = 0; j < 8; ++j) a += lanes[j];
  return a + qdetail::QDotTail(x + i, w + i, n - i);
}

FF_AVX2 void QRequant(const std::int32_t* acc, float scale, float bias,
                      std::uint8_t* y, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  const __m256 vb = _mm256_set1_ps(bias);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 v255 = _mm256_set1_ps(255.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i)));
    t = _mm256_add_ps(_mm256_mul_ps(t, vs), vb);
    t = _mm256_max_ps(t, zero);  // NaN -> 0, like relu
    t = _mm256_min_ps(t, v255);
    const __m256i q = _mm256_cvtps_epi32(t);  // round-to-nearest-even
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(y + i), p8);
  }
  for (; i < n; ++i) y[i] = qdetail::QRequantOne(acc[i], scale, bias);
}

FF_AVX2 void QDequant(const std::uint8_t* x, float scale, std::int32_t zp,
                      float* y, std::int64_t n) {
  const __m256i vzp = _mm256_set1_epi32(zp);
  const __m256 vs = _mm256_set1_ps(scale);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i xb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m256i x32 = _mm256_cvtepu8_epi32(xb);
    _mm256_storeu_ps(
        y + i,
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(x32, vzp)), vs));
  }
  for (; i < n; ++i) y[i] = qdetail::QDequantOne(x[i], scale, zp);
}

FF_AVX2 void QQuant(const float* x, float inv_scale, float zp,
                    std::uint8_t* y, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256 vzp = _mm256_set1_ps(zp);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 v255 = _mm256_set1_ps(255.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), vs), vzp);
    t = _mm256_max_ps(t, zero);
    t = _mm256_min_ps(t, v255);
    const __m256i q = _mm256_cvtps_epi32(t);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(y + i), p8);
  }
  for (; i < n; ++i) y[i] = qdetail::QQuantOne(x[i], inv_scale, zp);
}

#undef FF_AVX2

constexpr OpTable kTable = {Fill,      AxpyRows,   Axpy4Rows, AxpyRowsS2,
                            PwAcc4,    PwAcc8ByQuads<PwAcc4>,
                            PwAcc1,    Dot,        Relu,      Relu6,
                            Sad16x16,  QAxpyRows,  QPwPack,   QPwAcc1P,
                            QPwAcc2P,  QAxpyRowsS2, QDot,     QRequant,
                            QDequant,  QQuant};

}  // namespace
}  // namespace avx2

// ---------------------------------------------------------------------------
// AVX-512 — gated at runtime by CPUID (AVX-512F, plus AVX2 for the entries
// it inherits). The table is the AVX2 table with only the entries that gain
// from 512-bit registers overridden.
// ---------------------------------------------------------------------------
namespace avx512 {
namespace {

#define FF_AVX512 __attribute__((target("avx512f")))

// The low `k` lanes (0 <= k <= 16).
inline __mmask16 LowLanes(std::int64_t k) {
  return static_cast<__mmask16>((1u << k) - 1u);
}

template <bool kMasked>
FF_AVX512 inline __m512 LoadPs(const float* p, __mmask16 tail) {
  if constexpr (kMasked) {
    return _mm512_maskz_loadu_ps(tail, p);
  } else {
    return _mm512_loadu_ps(p);
  }
}

// One 8-row block of kCols 16-pixel columns starting at pixel i. kMasked
// loads and stores only the `tail` lanes (one column), so a run may end at
// the last float of its allocation.
template <int kCols, bool kMasked>
FF_AVX512 inline void PwTile8(const float* const* x, std::int64_t n_ic,
                              const float* w, std::int64_t w_stride, float* y,
                              std::int64_t y_stride, std::int64_t i,
                              __mmask16 tail) {
  __m512 acc[8][kCols];
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) {
    for (int c = 0; c < kCols; ++c) {
      acc[k][c] = LoadPs<kMasked>(y + k * y_stride + i + 16 * c, tail);
    }
  }
  for (std::int64_t ic = 0; ic < n_ic; ++ic) {
    __m512 v[kCols];
    for (int c = 0; c < kCols; ++c) {
      v[c] = LoadPs<kMasked>(x[ic] + i + 16 * c, tail);
    }
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
      const __m512 wv = _mm512_set1_ps(w[k * w_stride + ic]);
      for (int c = 0; c < kCols; ++c) {
        acc[k][c] = _mm512_add_ps(acc[k][c], _mm512_mul_ps(wv, v[c]));
      }
    }
  }
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) {
    for (int c = 0; c < kCols; ++c) {
      float* p = y + k * y_stride + i + 16 * c;
      if constexpr (kMasked) {
        _mm512_mask_storeu_ps(p, tail, acc[k][c]);
      } else {
        _mm512_storeu_ps(p, acc[k][c]);
      }
    }
  }
}

// 8 output rows x 32 pixels: 16 zmm accumulators stay in registers across
// the whole ic loop, then a 16-pixel block and a masked tail.
FF_AVX512 void PwAcc8(const float* const* x, std::int64_t n_ic,
                      const float* w, std::int64_t w_stride, float* y,
                      std::int64_t y_stride, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    PwTile8<2, false>(x, n_ic, w, w_stride, y, y_stride, i, 0);
  }
  if (i + 16 <= n) {
    PwTile8<1, false>(x, n_ic, w, w_stride, y, y_stride, i, 0);
    i += 16;
  }
  if (i < n) {
    PwTile8<1, true>(x, n_ic, w, w_stride, y, y_stride, i, LowLanes(n - i));
  }
}

// vpermt2ps picks the even inputs out of two overlapping loads: lo =
// x[0..15] and hi = x[15..30], whose odd lanes hold x[16], x[18], ...,
// x[30]. Loading hi from x+15 rather than x+16 ends the read at x[30], the
// last element the 16 outputs use; the masked tail reads only x[0..2m-2].
FF_AVX512 void AxpyRowsS2(float a, const float* x, std::int64_t x_stride,
                          float* y, std::int64_t y_stride, std::int64_t rows,
                          std::int64_t n) {
  const __m512 va = _mm512_set1_ps(a);
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 17, 19,
                                         21, 23, 25, 27, 29, 31);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * x_stride;
    float* yr = y + r * y_stride;
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512 v = _mm512_permutex2var_ps(
          _mm512_loadu_ps(xr + 2 * i), even, _mm512_loadu_ps(xr + 2 * i + 15));
      _mm512_storeu_ps(
          yr + i, _mm512_add_ps(_mm512_loadu_ps(yr + i), _mm512_mul_ps(va, v)));
    }
    if (i < n) {
      const std::int64_t span = 2 * (n - i) - 1;  // inputs the tail uses
      const __mmask16 lo = LowLanes(std::min<std::int64_t>(span, 16));
      const __mmask16 hi = LowLanes(std::max<std::int64_t>(span - 15, 0));
      const __mmask16 out = LowLanes(n - i);
      const __m512 v = _mm512_permutex2var_ps(
          _mm512_maskz_loadu_ps(lo, xr + 2 * i), even,
          _mm512_maskz_loadu_ps(hi, xr + 2 * i + 15));
      _mm512_mask_storeu_ps(yr + i, out,
                            _mm512_add_ps(_mm512_maskz_loadu_ps(out, yr + i),
                                          _mm512_mul_ps(va, v)));
    }
  }
}

#undef FF_AVX512

constexpr OpTable Avx512Table() {
  OpTable t = avx2::kTable;
  t.axpy_rows_s2 = AxpyRowsS2;
  t.pw_acc8 = PwAcc8;
  return t;
}

constexpr OpTable kTable = Avx512Table();

}  // namespace
}  // namespace avx512

#endif  // FF_KERNELS_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace {

// Highest ISA the env cap allows; unset means "no cap". An unrecognized
// value fails loudly — FF_SIMD exists precisely to control parity checks
// and baseline benchmarks, where a typo silently running a wider tier
// would invalidate the measurement.
Isa EnvCap() {
  const char* env = std::getenv("FF_SIMD");
  if (env == nullptr) return Isa::kAvx512;
  const std::string s(env);
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (s == IsaName(isa)) return isa;
  }
  FF_CHECK_MSG(false,
               "FF_SIMD=" << s << " is not one of scalar/avx2/avx512");
  return Isa::kScalar;
}

Isa DetectIsa() {
  const Isa cap = EnvCap();
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2}) {
    if (cap >= isa && TableFor(isa) != nullptr) return isa;
  }
  return Isa::kScalar;
}

struct Dispatch {
  const OpTable* table;
  Isa isa;
};

// Thread-safe: the first caller — which may be a thread-pool worker inside
// a fanned-out layer — resolves the ISA under the magic-static guard.
// SetActiveIsaForTest mutates this afterwards; tests are single-threaded.
Dispatch& GlobalDispatch() {
  static Dispatch d = [] {
    const Isa isa = DetectIsa();
    return Dispatch{TableFor(isa), isa};
  }();
  return d;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "?";
}

const OpTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &scalar::Table();
#if FF_KERNELS_X86
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") ? &avx2::kTable : nullptr;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
                     __builtin_cpu_supports("avx2")
                 ? &avx512::kTable
                 : nullptr;
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return nullptr;
#endif
  }
  return nullptr;
}

Isa ActiveIsa() { return GlobalDispatch().isa; }

const OpTable& Active() { return *GlobalDispatch().table; }

Isa SetActiveIsaForTest(Isa isa) {
  const OpTable* table = TableFor(isa);
  FF_CHECK_MSG(table != nullptr,
               "ISA " << IsaName(isa) << " not supported on this host");
  Dispatch& d = GlobalDispatch();
  const Isa prev = d.isa;
  d.table = table;
  d.isa = isa;
  return prev;
}

}  // namespace ff::nn::kernels
