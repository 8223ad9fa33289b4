// Bitwise parity of the SIMD micro-kernels against the scalar reference
// (kernels.hpp's core contract): every kernel, on every ISA this host can
// run, at awkward lengths — 0, 1, vector-width±1, unaligned bases, strided
// rows — must produce byte-identical results. A CI leg builds with
// -march=x86-64-v3 and fails if these tests are skipped (non-x86 hosts have
// no SIMD table and skip honestly).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace ff::nn::kernels {
namespace {

// Vector-width boundaries for every implementation in the library (8 for
// AVX2 floats, 16 for AVX-512 floats, 16/32 for the int8 byte kernels) plus
// short runs, odd tails and a larger run.
const std::int64_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                 15, 16, 17, 31, 32, 33, 63, 64, 65, 200};

std::vector<Isa> SimdIsas() {
  std::vector<Isa> isas;
  for (const Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (TableFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

// Random floats with sign variety plus the awkward specials the kernels
// must treat exactly like the scalar path.
std::vector<float> RandomFloats(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(rng.Uniform(-4.0, 4.0));
  }
  if (n > 3) {
    v[1] = 0.0f;
    v[2] = -0.0f;
    v[3] = 6.0f;  // relu6 boundary
  }
  return v;
}

// Bitwise equality of n elements at a and b — the bytes memcmp compares,
// without handing memcmp the null data() of an empty vector (its pointers
// must be valid even for a zero length).
template <typename T>
bool SameBits(const T* a, const T* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

#define SKIP_WITHOUT_SIMD()                                       \
  if (SimdIsas().empty()) {                                       \
    GTEST_SKIP() << "no SIMD ISA available on this host";         \
  }

TEST(KernelParity, Fill) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      // +1 offset makes the base deliberately unaligned.
      std::vector<float> a(static_cast<std::size_t>(n) + 1, -1.0f);
      std::vector<float> b(a);
      scalar::Table().fill(a.data() + 1, n, 0.37f);
      simd.fill(b.data() + 1, n, 0.37f);
      ASSERT_TRUE(SameBits(a.data(), b.data(), a.size()))
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(KernelParity, AxpyRowsStrided) {
  SKIP_WITHOUT_SIMD();
  const std::int64_t rows = 5, xs = 37, ys = 41;
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      if (n > xs || n > ys) continue;  // rows must not overlap
      const auto x = RandomFloats(static_cast<std::size_t>(rows * xs), 31);
      auto ya = RandomFloats(static_cast<std::size_t>(rows * ys), 32);
      auto yb = ya;
      scalar::Table().axpy_rows(-0.8f, x.data(), xs, ya.data(), ys, rows, n);
      simd.axpy_rows(-0.8f, x.data(), xs, yb.data(), ys, rows, n);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(KernelParity, Axpy4RowsStrided) {
  SKIP_WITHOUT_SIMD();
  const std::int64_t rows = 4, xs = 67, ys = 71;
  const float w[4] = {1.1f, -0.4f, 0.9f, -2.2f};
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      if (n > xs || n > ys) continue;
      const auto x = RandomFloats(static_cast<std::size_t>(rows * xs), 41);
      auto ya = RandomFloats(static_cast<std::size_t>(4 * rows * ys), 42);
      auto yb = ya;
      auto run = [&](const OpTable& t, std::vector<float>& y) {
        t.axpy4_rows(w, x.data(), xs, y.data(), y.data() + rows * ys,
                     y.data() + 2 * rows * ys, y.data() + 3 * rows * ys, ys,
                     rows, n);
      };
      run(scalar::Table(), ya);
      run(simd, yb);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(KernelParity, PwAcc4AndPwAcc1) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      for (const std::int64_t n_ic : {0, 1, 3, 8}) {
        const auto xdata =
            RandomFloats(static_cast<std::size_t>(n_ic * n), 51);
        std::vector<const float*> xs(static_cast<std::size_t>(n_ic));
        for (std::int64_t ic = 0; ic < n_ic; ++ic) {
          xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
        }
        const std::int64_t w_stride = n_ic + 2;  // padded weight rows
        const auto w =
            RandomFloats(static_cast<std::size_t>(4 * w_stride), 52);
        auto ya = RandomFloats(static_cast<std::size_t>(4 * n), 53);
        auto yb = ya;
        auto run4 = [&](const OpTable& t, std::vector<float>& y) {
          t.pw_acc4(xs.data(), n_ic, w.data(), w_stride, y.data(),
                    y.data() + n, y.data() + 2 * n, y.data() + 3 * n, n);
        };
        run4(scalar::Table(), ya);
        run4(simd, yb);
        ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
            << IsaName(isa) << " pw_acc4 n=" << n << " ic=" << n_ic;

        auto za = RandomFloats(static_cast<std::size_t>(n), 54);
        auto zb = za;
        scalar::Table().pw_acc1(xs.data(), n_ic, w.data(), za.data(), n);
        simd.pw_acc1(xs.data(), n_ic, w.data(), zb.data(), n);
        ASSERT_TRUE(SameBits(za.data(), zb.data(), za.size()))
            << IsaName(isa) << " pw_acc1 n=" << n << " ic=" << n_ic;
      }
    }
  }
}

// Lengths around the AVX-512 pointwise tile (16 and 32 pixels) and its
// 16-pixel block and masked tail.
const std::int64_t kTileLengths[] = {0, 1, 15, 16, 17, 31, 32, 33, 47};

// pw_acc8 row k must equal pw_acc1 on that row. Every input plane and the
// last output row end exactly at the end of their own allocations, so an
// over-read past the run shows up under ASan.
TEST(KernelParity, PwAcc8TilesNoOverRead) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kTileLengths) {
      for (const std::int64_t n_ic : {0, 1, 3, 8, 19}) {
        std::vector<std::vector<float>> planes;
        std::vector<const float*> xs;
        for (std::int64_t ic = 0; ic < n_ic; ++ic) {
          // +1 offset makes every plane base deliberately unaligned.
          planes.push_back(RandomFloats(static_cast<std::size_t>(n) + 1,
                                        static_cast<std::uint64_t>(100 + ic)));
          xs.push_back(planes.back().data() + 1);
        }
        const std::int64_t w_stride = n_ic + 3;  // padded weight rows
        const auto w = RandomFloats(static_cast<std::size_t>(8 * w_stride), 56);
        const std::int64_t y_stride = n + 5;  // strided output rows
        auto ya = RandomFloats(static_cast<std::size_t>(1 + 7 * y_stride + n),
                               57);
        auto yb = ya;
        scalar::Table().pw_acc8(xs.data(), n_ic, w.data(), w_stride,
                                ya.data() + 1, y_stride, n);
        simd.pw_acc8(xs.data(), n_ic, w.data(), w_stride, yb.data() + 1,
                     y_stride, n);
        ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
            << IsaName(isa) << " pw_acc8 n=" << n << " ic=" << n_ic;

        // The reference itself is eight pw_acc1 rows.
        auto yc = RandomFloats(ya.size(), 57);
        for (std::int64_t k = 0; k < 8; ++k) {
          scalar::Table().pw_acc1(xs.data(), n_ic, w.data() + k * w_stride,
                                  yc.data() + 1 + k * y_stride, n);
        }
        ASSERT_TRUE(SameBits(ya.data(), yc.data(), ya.size()))
            << "scalar pw_acc8 vs pw_acc1 n=" << n << " ic=" << n_ic;
      }
    }
  }
}

// Strided rows of a stride-2 tap. The x allocation ends exactly at the last
// element the last row uses, x[(rows-1)*x_stride + 2*(n-1)], and the y
// allocation at the last output, so ASan sees any over-read.
TEST(KernelParity, AxpyRowsS2StridedNoOverRead) {
  SKIP_WITHOUT_SIMD();
  const std::int64_t rows = 3;
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kTileLengths) {
      const std::int64_t x_stride = 2 * n + 5, y_stride = n + 3;
      const std::int64_t x_len =
          1 + (rows - 1) * x_stride + (n > 0 ? 2 * (n - 1) + 1 : 0);
      const auto x = RandomFloats(static_cast<std::size_t>(x_len), 58);
      auto ya = RandomFloats(
          static_cast<std::size_t>(1 + (rows - 1) * y_stride + n), 59);
      auto yb = ya;
      // +1 offsets make both bases deliberately unaligned.
      scalar::Table().axpy_rows_s2(0.7f, x.data() + 1, x_stride,
                                   ya.data() + 1, y_stride, rows, n);
      simd.axpy_rows_s2(0.7f, x.data() + 1, x_stride, yb.data() + 1,
                        y_stride, rows, n);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " axpy_rows_s2 n=" << n;
    }
  }
}

TEST(KernelParity, DotBitwise) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      const auto a = RandomFloats(static_cast<std::size_t>(n) + 1, 61);
      const auto b = RandomFloats(static_cast<std::size_t>(n) + 1, 62);
      const double ds = scalar::Table().dot(a.data() + 1, b.data() + 1, n);
      const double dv = simd.dot(a.data() + 1, b.data() + 1, n);
      // Bitwise, not approximate: the 8-lane scheme pins the reduction
      // order, so every ISA must land on the same double.
      ASSERT_TRUE(SameBits(&ds, &dv, 1))
          << IsaName(isa) << " n=" << n << " scalar=" << ds
          << " simd=" << dv;
    }
  }
}

TEST(KernelParity, ReluAndRelu6WithSpecials) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      auto x = RandomFloats(static_cast<std::size_t>(n), 71);
      if (n > 6) {
        x[4] = std::numeric_limits<float>::quiet_NaN();
        x[5] = std::numeric_limits<float>::infinity();
        x[6] = -std::numeric_limits<float>::infinity();
      }
      std::vector<float> ya(static_cast<std::size_t>(n), -9.0f), yb = ya;
      scalar::Table().relu(x.data(), ya.data(), n);
      simd.relu(x.data(), yb.data(), n);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " relu n=" << n;
      scalar::Table().relu6(x.data(), ya.data(), n);
      simd.relu6(x.data(), yb.data(), n);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " relu6 n=" << n;
    }
  }
}

// In place (y == x) is how the conv epilogue calls relu/relu6, so every ISA
// the host supports, the scalar reference included, must match the
// out-of-place scalar result there too.
TEST(KernelParity, ReluAndRelu6InPlace) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const OpTable* table = TableFor(isa);
    if (table == nullptr) continue;
    for (const std::int64_t n : kLengths) {
      auto x = RandomFloats(static_cast<std::size_t>(n) + 1, 73);
      if (n > 6) {
        x[4] = std::numeric_limits<float>::quiet_NaN();
        x[5] = std::numeric_limits<float>::infinity();
        x[6] = -std::numeric_limits<float>::infinity();
      }
      std::vector<float> want(x.size(), -9.0f);
      for (const bool six : {false, true}) {
        auto kernel = six ? &OpTable::relu6 : &OpTable::relu;
        // +1 offset makes the in-place base deliberately unaligned.
        (scalar::Table().*kernel)(x.data() + 1, want.data() + 1, n);
        std::vector<float> y = x;
        (table->*kernel)(y.data() + 1, y.data() + 1, n);
        ASSERT_TRUE(SameBits(want.data() + 1, y.data() + 1,
                             static_cast<std::size_t>(n)))
            << IsaName(isa) << (six ? " relu6" : " relu") << " n=" << n;
      }
    }
  }
}

TEST(KernelParity, Sad16x16) {
  SKIP_WITHOUT_SIMD();
  util::Pcg32 rng(81);
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    // 16x16 block with distinct strides (the motion-search access pattern).
    const std::int64_t sa = 23, sb = 29;
    std::vector<std::uint8_t> pa(static_cast<std::size_t>(16 * sa) + 16);
    std::vector<std::uint8_t> pb(static_cast<std::size_t>(16 * sb) + 16);
    for (auto& v : pa) v = static_cast<std::uint8_t>(rng.Uniform(0, 256));
    for (auto& v : pb) v = static_cast<std::uint8_t>(rng.Uniform(0, 256));
    ASSERT_EQ(scalar::Table().sad16x16(pa.data() + 1, sa, pb.data() + 1, sb),
              simd.sad16x16(pa.data() + 1, sa, pb.data() + 1, sb))
        << IsaName(isa);
  }
}

// Random u8 activations biased toward the 255 extreme so the int8 pair
// saturation actually fires, not just on the dedicated edge-case test.
std::vector<std::uint8_t> RandomU8(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) {
    x = rng.UniformInt(0, 3) == 0
            ? std::uint8_t{255}
            : static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  }
  return v;
}

std::vector<std::int8_t> RandomS8(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    const std::int64_t r = rng.UniformInt(0, 5);
    x = r == 0 ? std::int8_t{127}
               : (r == 1 ? std::int8_t{-127}
                         : static_cast<std::int8_t>(rng.UniformInt(-128, 127)));
  }
  return v;
}

TEST(QKernelParity, QAxpyRowsStrided) {
  SKIP_WITHOUT_SIMD();
  const std::int64_t rows = 5, xs = 37, as = 41;
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      if (n > xs || n > as) continue;
      const auto x = RandomU8(static_cast<std::size_t>(rows * xs), 101);
      for (const std::int32_t w : {-128, -127, -3, 0, 1, 127}) {
        std::vector<std::int32_t> aa(static_cast<std::size_t>(rows * as), 7);
        auto ab = aa;
        scalar::Table().qaxpy_rows(w, x.data() + 1, xs, aa.data(), as, rows,
                                   n);
        simd.qaxpy_rows(w, x.data() + 1, xs, ab.data(), as, rows, n);
        ASSERT_TRUE(SameBits(aa.data(), ab.data(), aa.size()))
            << IsaName(isa) << " n=" << n << " w=" << w;
      }
    }
  }
}

TEST(QKernelParity, QPwPackLayout) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      for (const std::int64_t n_ic : {1, 2, 3, 4, 5, 7, 8, 13}) {
        const auto xdata = RandomU8(static_cast<std::size_t>(n_ic * n), 141);
        std::vector<const std::uint8_t*> xs(static_cast<std::size_t>(n_ic));
        for (std::int64_t ic = 0; ic < n_ic; ++ic) {
          xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
        }
        const std::int64_t quads = (n_ic + 3) / 4;
        std::vector<std::uint8_t> pa(static_cast<std::size_t>(quads * 4 * n),
                                     0xAB);
        auto pb = pa;
        scalar::Table().qpw_pack(xs.data(), n_ic, pa.data(), n);
        simd.qpw_pack(xs.data(), n_ic, pb.data(), n);
        ASSERT_TRUE(SameBits(pa.data(), pb.data(), pa.size()))
            << IsaName(isa) << " qpw_pack n=" << n << " ic=" << n_ic;
      }
    }
  }
}

// The packed accumulate kernels must match the unpacked scalar::QPwAcc1
// oracle bit for bit — packing is a layout change, never a numeric one. Partial
// final quads (n_ic % 4 != 0) are zero-padded and a zero pair member
// contributes nothing inside the saturating pair sum, so they are exercised
// on purpose.
TEST(QKernelParity, QPwAccPacked) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      for (const std::int64_t n_ic : {1, 2, 3, 4, 5, 7, 8, 13}) {
        const auto xdata = RandomU8(static_cast<std::size_t>(n_ic * n), 151);
        std::vector<const std::uint8_t*> xs(static_cast<std::size_t>(n_ic));
        for (std::int64_t ic = 0; ic < n_ic; ++ic) {
          xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
        }
        const std::int64_t quads = (n_ic + 3) / 4;
        std::vector<std::uint8_t> packed(
            static_cast<std::size_t>(quads * 4 * n));
        simd.qpw_pack(xs.data(), n_ic, packed.data(), n);

        const auto w = RandomS8(static_cast<std::size_t>(2 * n_ic) + 2, 152);
        const std::int8_t* w0 = w.data();
        const std::int8_t* w1 = w.data() + n_ic + 1;

        std::vector<std::int32_t> ref(static_cast<std::size_t>(n), -3);
        auto got = ref;
        scalar::QPwAcc1(xs.data(), n_ic, w0, ref.data(), n);
        simd.qpw_acc1p(packed.data(), n_ic, w0, got.data(), n);
        ASSERT_TRUE(SameBits(ref.data(), got.data(), ref.size()))
            << IsaName(isa) << " qpw_acc1p n=" << n << " ic=" << n_ic;

        std::vector<std::int32_t> ref2(static_cast<std::size_t>(2 * n), 7);
        auto got2 = ref2;
        scalar::QPwAcc1(xs.data(), n_ic, w0, ref2.data(), n);
        scalar::QPwAcc1(xs.data(), n_ic, w1, ref2.data() + n, n);
        simd.qpw_acc2p(packed.data(), n_ic, w0, w1, got2.data(),
                       got2.data() + n, n);
        ASSERT_TRUE(SameBits(ref2.data(), got2.data(), ref2.size()))
            << IsaName(isa) << " qpw_acc2p n=" << n << " ic=" << n_ic;
      }
    }
  }
}

// Packed kernels under the pair-saturation extremes of
// QKernelSaturation.PairSaturationAtExtremes: the layout change must not
// alter where saturation bites.
TEST(QKernelSaturation, PackedPairSaturationAtExtremes) {
  const std::int64_t n = 40;
  const std::int64_t n_ic = 6;
  std::vector<std::uint8_t> xdata(static_cast<std::size_t>(n_ic * n), 255);
  std::vector<const std::uint8_t*> xs(static_cast<std::size_t>(n_ic));
  for (std::int64_t ic = 0; ic < n_ic; ++ic) {
    xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
  }
  const std::vector<std::int8_t> w = {127, 127, 127, 127, -127, -127};
  const std::int32_t expect = 32767 + 32767 - 32768;
  auto check = [&](const OpTable& t, const char* name) {
    const std::int64_t quads = (n_ic + 3) / 4;
    std::vector<std::uint8_t> packed(static_cast<std::size_t>(quads * 4 * n));
    t.qpw_pack(xs.data(), n_ic, packed.data(), n);
    std::vector<std::int32_t> acc(static_cast<std::size_t>(n), 0);
    t.qpw_acc1p(packed.data(), n_ic, w.data(), acc.data(), n);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(expect, acc[i]) << name << " qpw_acc1p pixel " << i;
    }
  };
  check(scalar::Table(), "scalar");
  for (const Isa isa : SimdIsas()) check(*TableFor(isa), IsaName(isa));
}

TEST(QKernelParity, QAxpyRowsStride2) {
  SKIP_WITHOUT_SIMD();
  const std::int64_t rows = 5, as = 41;
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      const std::int64_t xstride = 2 * n + 3;
      if (n > as) continue;
      // The stride-2 kernel's contract allows reading up to 32 bytes past
      // the last even sample of each row (PadImage leaves that slack).
      const auto x = RandomU8(
          static_cast<std::size_t>(rows * xstride) + 33, 161);
      for (const std::int32_t w : {-128, -127, -3, 0, 1, 127}) {
        std::vector<std::int32_t> aa(static_cast<std::size_t>(rows * as), 7);
        auto ab = aa;
        scalar::Table().qaxpy_rows_s2(w, x.data() + 1, xstride, aa.data(),
                                      as, rows, n);
        simd.qaxpy_rows_s2(w, x.data() + 1, xstride, ab.data(), as, rows, n);
        ASSERT_TRUE(SameBits(aa.data(), ab.data(), aa.size()))
            << IsaName(isa) << " n=" << n << " w=" << w;
      }
    }
  }
}

TEST(QKernelParity, QDot) {
  SKIP_WITHOUT_SIMD();
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      const auto x = RandomU8(static_cast<std::size_t>(n) + 1, 121);
      const auto w = RandomS8(static_cast<std::size_t>(n) + 1, 122);
      ASSERT_EQ(scalar::Table().qdot(x.data() + 1, w.data() + 1, n),
                simd.qdot(x.data() + 1, w.data() + 1, n))
          << IsaName(isa) << " n=" << n;
    }
  }
}

TEST(QKernelParity, QRequantQuantDequant) {
  SKIP_WITHOUT_SIMD();
  util::Pcg32 rng(131);
  for (const Isa isa : SimdIsas()) {
    const OpTable& simd = *TableFor(isa);
    for (const std::int64_t n : kLengths) {
      // Accumulators spanning far below 0 and far above 255 after scaling,
      // plus exact .5 ties to pin round-to-nearest-even.
      std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
      for (auto& a : acc) {
        a = static_cast<std::int32_t>(rng.UniformInt(-2000000, 2000000));
      }
      if (n > 2) {
        acc[0] = 1000;  // 1000*0.0005+bias ties at .5 for bias k+0.0
        acc[1] = std::numeric_limits<std::int32_t>::max();
        acc[2] = std::numeric_limits<std::int32_t>::min();
      }
      std::vector<std::uint8_t> ya(static_cast<std::size_t>(n), 9), yb = ya;
      scalar::Table().qrequant(acc.data(), 2.47e-4f, 3.5f, ya.data(), n);
      simd.qrequant(acc.data(), 2.47e-4f, 3.5f, yb.data(), n);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " qrequant n=" << n;

      auto x = RandomFloats(static_cast<std::size_t>(n), 132);
      if (n > 6) {
        x[4] = std::numeric_limits<float>::quiet_NaN();  // must clamp to 0
        x[5] = std::numeric_limits<float>::infinity();
        x[6] = -std::numeric_limits<float>::infinity();
      }
      scalar::Table().qquant(x.data(), 63.75f, 128.0f, ya.data(), n);
      simd.qquant(x.data(), 63.75f, 128.0f, yb.data(), n);
      ASSERT_TRUE(SameBits(ya.data(), yb.data(), ya.size()))
          << IsaName(isa) << " qquant n=" << n;

      const auto q = RandomU8(static_cast<std::size_t>(n), 133);
      for (const std::int32_t zp : {0, 128}) {
        std::vector<float> fa(static_cast<std::size_t>(n), -7.0f), fb = fa;
        scalar::Table().qdequant(q.data(), 0.031f, zp, fa.data(), n);
        simd.qdequant(q.data(), 0.031f, zp, fb.data(), n);
        ASSERT_TRUE(SameBits(fa.data(), fb.data(), fa.size()))
            << IsaName(isa) << " qdequant n=" << n << " zp=" << zp;
      }
    }
  }
}

// The pinned pair-saturation rule at its extremes: w=±127 against x=255.
// One pair of such products is ±64770, which must saturate to ±32767/-32768
// — NOT accumulate exactly — in the unpacked oracle and in every ISA's qdot
// (PackedPairSaturationAtExtremes covers every ISA's packed pointwise).
TEST(QKernelSaturation, PairSaturationAtExtremes) {
  const std::int64_t n = 40;  // one AVX2 tile + tail
  const std::int64_t n_ic = 6;
  std::vector<std::uint8_t> xdata(static_cast<std::size_t>(n_ic * n), 255);
  std::vector<const std::uint8_t*> xs(static_cast<std::size_t>(n_ic));
  for (std::int64_t ic = 0; ic < n_ic; ++ic) {
    xs[static_cast<std::size_t>(ic)] = xdata.data() + ic * n;
  }
  // Quad 1: two saturating positive pairs; tail pair saturates negative.
  const std::vector<std::int8_t> w = {127, 127, 127, 127, -127, -127};
  // 32767 (sat) + 32767 (sat) + (-32768) (sat) per pixel.
  const std::int32_t expect = 32767 + 32767 - 32768;
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n), 0);
  scalar::QPwAcc1(xs.data(), n_ic, w.data(), acc.data(), n);
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(expect, acc[i]) << "oracle qpw_acc1 pixel " << i;
  }
  auto check = [&](const OpTable& t, const char* name) {
    ASSERT_EQ(expect, t.qdot(xdata.data(), w.data(), n_ic)) << name
                                                            << " qdot";
  };
  check(scalar::Table(), "scalar");
  for (const Isa isa : SimdIsas()) check(*TableFor(isa), IsaName(isa));
  // A lone product never saturates: 127*255 = 32385 stands alone exactly.
  ASSERT_EQ(32385,
            scalar::Table().qdot(xdata.data(), w.data(), 1));
}

// End-to-end: whole layers forwarded under the scalar table vs each SIMD
// table must be byte-identical — the dispatch choice can never change a
// network's output.
TEST(KernelParity, ConvLayersBitwiseAcrossIsas) {
  SKIP_WITHOUT_SIMD();
  util::Pcg32 rng(91);
  Conv2D pw("pw", 13, 7, 1, 1, Padding::kSameCeil);
  HeInitLayer(pw, 1);
  Conv2D kxk("kxk", 5, 6, 3, 1, Padding::kSameCeil);
  HeInitLayer(kxk, 2);
  Conv2D strided("s2", 5, 6, 3, 2, Padding::kSameFloor);
  HeInitLayer(strided, 3);
  DepthwiseConv2D dw("dw", 9, 3, 1, Padding::kSameCeil);
  HeInitLayer(dw, 4);
  FullyConnected fc("fc", 45, 11);
  HeInitLayer(fc, 5);

  Tensor in13(Shape{2, 13, 9, 11});
  in13.FillNormal(rng, 1.0f);
  Tensor in5(Shape{2, 5, 9, 11});
  in5.FillNormal(rng, 1.0f);
  Tensor in9(Shape{2, 9, 9, 11});
  in9.FillNormal(rng, 1.0f);
  Tensor in45(Shape{2, 45, 1, 1});
  in45.FillNormal(rng, 1.0f);

  const Isa prev = SetActiveIsaForTest(Isa::kScalar);
  const Tensor ref_pw = pw.Forward(in13);
  const Tensor ref_kxk = kxk.Forward(in5);
  const Tensor ref_s2 = strided.Forward(in5);
  const Tensor ref_dw = dw.Forward(in9);
  const Tensor ref_fc = fc.Forward(in45);
  for (const Isa isa : SimdIsas()) {
    SetActiveIsaForTest(isa);
    auto expect_same = [&](const Tensor& ref, const Tensor& got,
                           const char* what) {
      ASSERT_EQ(ref.elements(), got.elements());
      ASSERT_TRUE(SameBits(ref.data(), got.data(),
                           static_cast<std::size_t>(ref.elements())))
          << what << " differs on " << IsaName(isa);
    };
    expect_same(ref_pw, pw.Forward(in13), "pointwise conv");
    expect_same(ref_kxk, kxk.Forward(in5), "3x3 conv");
    expect_same(ref_s2, strided.Forward(in5), "3x3 stride-2 conv");
    expect_same(ref_dw, dw.Forward(in9), "depthwise conv");
    expect_same(ref_fc, fc.Forward(in45), "fully connected");
  }
  SetActiveIsaForTest(prev);
}

// The layer shapes ConvLayersBitwiseAcrossIsas does not reach: 21 output
// channels walk the pointwise blocks of 8, 8, 4 and 1 over a 117-pixel
// plane (three 32-pixel tiles, a 16-pixel block and a masked tail), a
// cropped view feeds the pointwise conv as strided row runs, and stride-2
// depthwise and KxK convs run the stride-2 row kernel.
TEST(KernelParity, WideConvLayersBitwiseAcrossIsas) {
  SKIP_WITHOUT_SIMD();
  util::Pcg32 rng(92);
  Conv2D pw("pw", 19, 21, 1, 1, Padding::kSameCeil);
  HeInitLayer(pw, 6);
  DepthwiseConv2D dw_s2("dw_s2", 19, 3, 2, Padding::kSameFloor);
  HeInitLayer(dw_s2, 7);
  Conv2D conv_s2("conv_s2", 3, 21, 3, 2, Padding::kSameCeil);
  HeInitLayer(conv_s2, 8);

  Tensor in19(Shape{2, 19, 9, 13});
  in19.FillNormal(rng, 1.0f);
  Tensor big19(Shape{2, 19, 12, 47});
  big19.FillNormal(rng, 1.0f);
  const TensorView crop19 =
      TensorView(big19).CropHW(tensor::Rect{.y0 = 1, .x0 = 3, .y1 = 11, .x1 = 40});
  Tensor in3(Shape{2, 3, 37, 70});
  in3.FillNormal(rng, 1.0f);

  const Isa prev = SetActiveIsaForTest(Isa::kScalar);
  const Tensor ref_pw = pw.Forward(in19);
  const Tensor ref_crop = pw.Forward(crop19);
  const Tensor ref_dw = dw_s2.Forward(crop19);
  const Tensor ref_conv = conv_s2.Forward(in3);
  for (const Isa isa : SimdIsas()) {
    SetActiveIsaForTest(isa);
    auto expect_same = [&](const Tensor& ref, const Tensor& got,
                           const char* what) {
      ASSERT_EQ(ref.shape(), got.shape());
      ASSERT_TRUE(SameBits(ref.data(), got.data(),
                           static_cast<std::size_t>(ref.elements())))
          << what << " differs on " << IsaName(isa);
    };
    expect_same(ref_pw, pw.Forward(in19), "21-channel pointwise conv");
    expect_same(ref_crop, pw.Forward(crop19), "pointwise conv on a crop");
    expect_same(ref_dw, dw_s2.Forward(crop19), "stride-2 depthwise conv");
    expect_same(ref_conv, conv_s2.Forward(in3), "3x3 stride-2 conv");
  }
  SetActiveIsaForTest(prev);
}

TEST(KernelDispatch, ActiveIsaIsSupported) {
  const Isa isa = ActiveIsa();
  EXPECT_NE(TableFor(isa), nullptr);
  EXPECT_EQ(&Active(), TableFor(isa));
}

}  // namespace
}  // namespace ff::nn::kernels
