#include "codec/dct.hpp"

#include <algorithm>
#include <cmath>

namespace ff::codec {

namespace {

// Orthonormal DCT-II basis: A[u][x] = c(u) * cos((2x+1) u pi / 16),
// c(0) = sqrt(1/8), c(u>0) = sqrt(2/8). Then F = A f A^T and f = A^T F A.
// `at` is A^T, so every product below reads a contiguous row of 8.
struct Basis {
  float a[8][8];
  float at[8][8];
  Basis() {
    constexpr double kPi = 3.14159265358979323846;
    for (int u = 0; u < 8; ++u) {
      const double c = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x) {
        a[u][x] = static_cast<float>(
            c * std::cos((2.0 * x + 1.0) * u * kPi / 16.0));
        at[x][u] = a[u][x];
      }
    }
  }
};

const Basis& B() {
  static const Basis basis;
  return basis;
}

// out = l * r for row-major 8x8 matrices. Each output is accumulated from 0
// in ascending k, one multiply and one add per term (the codec builds with
// -ffp-contract=off); the innermost loop runs over the 8 contiguous outputs
// of a row. Unrolled whole, the accumulators stay in registers and the
// compiler vectorizes across j without reassociating any sum.
void MatMul8(const float* __restrict l, const float* __restrict r,
             float* __restrict out) {
  for (int i = 0; i < 8; ++i) {
    float acc[8] = {};
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
      const float lik = l[i * 8 + k];
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) acc[j] += lik * r[k * 8 + j];
    }
    std::copy(acc, acc + 8, out + i * 8);
  }
}

}  // namespace

Block ForwardDct(const Block& spatial) {
  const Basis& basis = B();
  Block tmp, out;
  MatMul8(&basis.a[0][0], spatial.data(), tmp.data());  // tmp = A * f
  MatMul8(tmp.data(), &basis.at[0][0], out.data());     // F = tmp * A^T
  return out;
}

Block InverseDct(const Block& freq) {
  const Basis& basis = B();
  Block tmp, out;
  MatMul8(&basis.at[0][0], freq.data(), tmp.data());  // tmp = A^T * F
  MatMul8(tmp.data(), &basis.a[0][0], out.data());    // f = tmp * A
  return out;
}

double QStep(int qp) {
  // 0.625 * 2^(qp/6): qp 0 -> fine, qp 51 -> step ~230 (obliterating).
  return 0.625 * std::pow(2.0, static_cast<double>(qp) / 6.0);
}

QuantBlock Quantize(const Block& freq, double qstep) {
  QuantBlock q{};
  for (std::size_t i = 0; i < 64; ++i) {
    // lround(v), half away from zero, without the libm call; beyond 2^30
    // (and for NaN) the library's value stands.
    const double v = static_cast<double>(freq[i]) / qstep;
    if (!(std::fabs(v) < 1073741824.0)) {
      q[i] = static_cast<std::int32_t>(std::lround(v));
      continue;
    }
    const auto t = static_cast<std::int32_t>(v);  // truncates toward zero
    const double frac = v - t;
    q[i] = t + (frac >= 0.5) - (frac <= -0.5);
  }
  return q;
}

Block Dequantize(const QuantBlock& q, double qstep) {
  Block f{};
  for (std::size_t i = 0; i < 64; ++i) {
    f[i] = static_cast<float>(static_cast<double>(q[i]) * qstep);
  }
  return f;
}

const std::array<int, 64>& ZigzagOrder() {
  static const std::array<int, 64> order = [] {
    std::array<int, 64> z{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {  // up-right
        for (int y = std::min(s, 7); y >= 0 && s - y <= 7; --y) {
          z[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
        }
      } else {  // down-left
        for (int x = std::min(s, 7); x >= 0 && s - x <= 7; --x) {
          z[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
        }
      }
    }
    return z;
  }();
  return order;
}

}  // namespace ff::codec
