// Codec substrate tests: bitstream round trips, DCT orthonormality,
// quantization behaviour, YUV conversion, encoder/decoder agreement, rate
// control convergence, quality monotonicity in bitrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "codec/bitstream.hpp"
#include "codec/codec.hpp"
#include "codec/dct.hpp"
#include "codec/transcode.hpp"
#include "codec/yuv.hpp"
#include "util/rng.hpp"
#include "video/dataset.hpp"
#include "video/source.hpp"

namespace ff::codec {
namespace {

TEST(Bitstream, BitsRoundTrip) {
  BitWriter w;
  w.PutBit(1);
  w.PutBits(0b1011, 4);
  w.PutBit(0);
  const std::string bytes = w.Finish();
  BitReader r(bytes);
  EXPECT_EQ(r.GetBit(), 1u);
  EXPECT_EQ(r.GetBits(4), 0b1011u);
  EXPECT_EQ(r.GetBit(), 0u);
}

TEST(Bitstream, UeRoundTripSweep) {
  BitWriter w;
  for (std::uint32_t v = 0; v < 300; ++v) w.PutUe(v);
  const std::string bytes = w.Finish();
  BitReader r(bytes);
  for (std::uint32_t v = 0; v < 300; ++v) ASSERT_EQ(r.GetUe(), v);
}

TEST(Bitstream, SeRoundTripSweep) {
  BitWriter w;
  for (std::int32_t v = -120; v <= 120; ++v) w.PutSe(v);
  const std::string bytes = w.Finish();
  BitReader r(bytes);
  for (std::int32_t v = -120; v <= 120; ++v) ASSERT_EQ(r.GetSe(), v);
}

TEST(Bitstream, UeIsCanonicalExpGolomb) {
  // ue(0) = "1": one bit.
  BitWriter w;
  w.PutUe(0);
  EXPECT_EQ(w.bit_count(), 1u);
  // ue(4) = "00101": five bits.
  BitWriter w2;
  w2.PutUe(4);
  EXPECT_EQ(w2.bit_count(), 5u);
}

TEST(Bitstream, ReaderDetectsOverrun) {
  BitReader r(std::string_view("\x80", 1));
  r.GetBits(8);
  EXPECT_THROW(r.GetBit(), util::CheckError);
}

TEST(Dct, RoundTripIsIdentity) {
  util::Pcg32 rng(5);
  Block b{};
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-128, 128));
  const Block rec = InverseDct(ForwardDct(b));
  for (std::size_t i = 0; i < 64; ++i) ASSERT_NEAR(rec[i], b[i], 1e-3f);
}

TEST(Dct, FlatBlockConcentratesInDc) {
  Block b{};
  b.fill(100.0f);
  const Block f = ForwardDct(b);
  EXPECT_NEAR(f[0], 800.0f, 1e-2f);  // 100 * 8 (orthonormal scaling)
  for (std::size_t i = 1; i < 64; ++i) ASSERT_NEAR(f[i], 0.0f, 1e-3f);
}

TEST(Dct, EnergyPreserved) {
  util::Pcg32 rng(6);
  Block b{};
  double e_spatial = 0;
  for (auto& v : b) {
    v = static_cast<float>(rng.Normal(0, 30));
    e_spatial += double(v) * v;
  }
  const Block f = ForwardDct(b);
  double e_freq = 0;
  for (const auto v : f) e_freq += double(v) * v;
  EXPECT_NEAR(e_freq / e_spatial, 1.0, 1e-4);  // Parseval
}

TEST(Quant, QStepDoublesEverySixQp) {
  EXPECT_NEAR(QStep(10) * 2.0, QStep(16), 1e-9);
  EXPECT_NEAR(QStep(0), 0.625, 1e-9);
}

TEST(Quant, CoarserQpKillsMoreCoefficients) {
  util::Pcg32 rng(7);
  Block b{};
  for (auto& v : b) v = static_cast<float>(rng.Normal(0, 10));
  const Block f = ForwardDct(b);
  auto nonzero = [&](int qp) {
    const QuantBlock q = Quantize(f, QStep(qp));
    int n = 0;
    for (const auto v : q) n += v != 0;
    return n;
  };
  EXPECT_GE(nonzero(10), nonzero(30));
  EXPECT_GE(nonzero(30), nonzero(48));
}

TEST(Quant, ZigzagIsAPermutation) {
  const auto& z = ZigzagOrder();
  std::array<int, 64> seen{};
  for (const int i : z) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, 64);
    seen[static_cast<std::size_t>(i)]++;
  }
  for (const int c : seen) ASSERT_EQ(c, 1);
  // First entries walk the top-left corner.
  EXPECT_EQ(z[0], 0);
  EXPECT_EQ(z[1], 1);
  EXPECT_EQ(z[2], 8);
}

TEST(Yuv, PrimaryColorsRoundTrip) {
  video::Frame f(16, 16);
  f.FillRect(0, 0, 8, 16, video::Rgb{255, 0, 0});
  f.FillRect(8, 0, 8, 16, video::Rgb{0, 0, 255});
  const YuvImage img = RgbToYuv420(f, 16, 16);
  const video::Frame back = Yuv420ToRgb(img, 16, 16);
  // 4:2:0 blurs the boundary column; check block interiors.
  EXPECT_NEAR(back.At(2, 8).r, 255, 6);
  EXPECT_NEAR(back.At(2, 8).g, 0, 6);
  EXPECT_NEAR(back.At(13, 8).b, 255, 6);
}

TEST(Yuv, PaddingReplicatesEdges) {
  video::Frame f(10, 10, video::Rgb{50, 100, 150});
  const YuvImage img = RgbToYuv420(f, 16, 16);
  EXPECT_EQ(img.w, 16);
  // Padding rows carry the edge color's luma, not black.
  const double y_edge = img.y[static_cast<std::size_t>(15 * 16 + 15)];
  const double y_interior = img.y[0];
  EXPECT_NEAR(y_edge, y_interior, 2.0);
}

video::Frame TestPattern(std::int64_t w, std::int64_t h, int t) {
  video::Frame f(w, h, video::Rgb{80, 90, 100});
  f.FillRect(5 + t, 5, 10, 8, video::Rgb{200, 40, 40});
  f.FillRect(20, 12 + t, 6, 6, video::Rgb{30, 180, 60});
  return f;
}

TEST(Codec, IFrameRoundTripIsFaithfulAtLowQp) {
  EncoderConfig cfg{.width = 48, .height = 32};
  cfg.initial_qp = 6;
  Encoder enc(cfg);
  Decoder dec(48, 32);
  const video::Frame f = TestPattern(48, 32, 0);
  const video::Frame rec = dec.DecodeFrame(enc.EncodeFrame(f));
  // RGB fidelity is bounded by 4:2:0 chroma subsampling, not by the codec;
  // compare against the pure color-conversion round trip.
  const video::Frame yuv_only = Yuv420ToRgb(RgbToYuv420(f, 48, 32), 48, 32);
  EXPECT_GT(Psnr(yuv_only, rec), 38.0);
  EXPECT_GT(Psnr(f, rec), Psnr(f, yuv_only) - 2.0);
}

TEST(Codec, HighQpDegradesQuality) {
  auto psnr_at = [](int qp) {
    EncoderConfig cfg{.width = 48, .height = 32};
    cfg.initial_qp = qp;
    Encoder enc(cfg);
    Decoder dec(48, 32);
    const video::Frame f = TestPattern(48, 32, 0);
    return Psnr(f, dec.DecodeFrame(enc.EncodeFrame(f)));
  };
  EXPECT_GT(psnr_at(8), psnr_at(28));
  EXPECT_GT(psnr_at(28), psnr_at(46));
}

TEST(Codec, PFramesTrackMotion) {
  EncoderConfig cfg{.width = 64, .height = 48};
  cfg.initial_qp = 12;
  cfg.gop_size = 30;
  Encoder enc(cfg);
  Decoder dec(64, 48);
  double min_psnr = 1e9;
  std::uint64_t p_bytes = 0, i_bytes = 0;
  for (int t = 0; t < 8; ++t) {
    const video::Frame f = TestPattern(64, 48, t);
    const std::string chunk = enc.EncodeFrame(f);
    if (enc.last_stats().is_iframe) {
      i_bytes += chunk.size();
    } else {
      p_bytes += chunk.size();
    }
    min_psnr = std::min(min_psnr, Psnr(f, dec.DecodeFrame(chunk)));
  }
  EXPECT_GT(min_psnr, 30.0);
  // P-frames exploit temporal redundancy: far cheaper than the I-frame.
  EXPECT_LT(static_cast<double>(p_bytes) / 7.0,
            static_cast<double>(i_bytes) * 0.6);
}

TEST(Codec, StaticSceneIsMostlySkips) {
  EncoderConfig cfg{.width = 64, .height = 48};
  cfg.initial_qp = 20;
  cfg.gop_size = 100;
  Encoder enc(cfg);
  const video::Frame f = TestPattern(64, 48, 0);
  enc.EncodeFrame(f);
  enc.EncodeFrame(f);  // identical frame
  // The I-frame reference carries QP-20 error, so a handful of blocks may
  // still code residuals; the vast majority must be skips.
  EXPECT_GT(enc.last_stats().skip_blocks, 8);
  EXPECT_LT(enc.last_stats().coded_blocks, enc.last_stats().skip_blocks / 2);
}

TEST(Codec, ForceIFrameRestartsPrediction) {
  EncoderConfig cfg{.width = 48, .height = 32};
  cfg.gop_size = 100;
  Encoder enc(cfg);
  enc.EncodeFrame(TestPattern(48, 32, 0));
  enc.EncodeFrame(TestPattern(48, 32, 1));
  EXPECT_FALSE(enc.last_stats().is_iframe);
  enc.EncodeFrame(TestPattern(48, 32, 2), /*force_iframe=*/true);
  EXPECT_TRUE(enc.last_stats().is_iframe);
}

TEST(Codec, DecoderRejectsPFrameWithoutReference) {
  EncoderConfig cfg{.width = 48, .height = 32};
  Encoder enc(cfg);
  enc.EncodeFrame(TestPattern(48, 32, 0));
  const std::string p_chunk = enc.EncodeFrame(TestPattern(48, 32, 1));
  Decoder fresh(48, 32);
  EXPECT_THROW(fresh.DecodeFrame(p_chunk), util::CheckError);
}

// A P-frame chunk is untrusted input: a motion vector that would read the
// prediction from outside the padded reference must be refused before any
// block is fetched, and the refusal must leave the reference intact.
TEST(Codec, DecoderRejectsOutOfFrameMotionVector) {
  EncoderConfig cfg{.width = 48, .height = 32};
  cfg.gop_size = 100;
  Encoder enc(cfg);
  const std::string i_chunk = enc.EncodeFrame(TestPattern(48, 32, 0));
  const std::string p_chunk = enc.EncodeFrame(TestPattern(48, 32, 1));
  ASSERT_FALSE(enc.last_stats().is_iframe);
  Decoder dec(48, 32);
  Decoder clean(48, 32);
  dec.DecodeFrame(i_chunk);
  clean.DecodeFrame(i_chunk);

  // First macroblock (0, 0): P-frame header, then "coded" with (dx, dy).
  auto p_frame_with_mv = [](std::int32_t dx, std::int32_t dy) {
    BitWriter bw;
    bw.PutBit(0);       // P-frame
    bw.PutBits(20, 6);  // qp
    bw.PutBit(0);       // not skipped
    bw.PutSe(dx);
    bw.PutSe(dy);
    return bw.Finish();
  };
  EXPECT_THROW(dec.DecodeFrame(p_frame_with_mv(10000, 0)), util::CheckError);
  EXPECT_THROW(dec.DecodeFrame(p_frame_with_mv(0, -1)), util::CheckError);

  const video::Frame got = dec.DecodeFrame(p_chunk);
  const video::Frame want = clean.DecodeFrame(p_chunk);
  const auto n = static_cast<std::size_t>(want.pixels());
  EXPECT_EQ(0, std::memcmp(got.r(), want.r(), n));
  EXPECT_EQ(0, std::memcmp(got.g(), want.g(), n));
  EXPECT_EQ(0, std::memcmp(got.b(), want.b(), n));
}

TEST(Codec, RateControlHitsTargetOnSyntheticVideo) {
  const video::SyntheticDataset ds(video::JacksonSpec(160, 120, 77));
  const double target = 120'000;  // bits/s at this small resolution
  EncoderConfig cfg{.width = ds.spec().width, .height = ds.spec().height};
  cfg.fps = ds.spec().fps;
  cfg.target_bitrate_bps = target;
  Encoder enc(cfg);
  Decoder dec(cfg.width, cfg.height);
  for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
    dec.DecodeFrame(enc.EncodeFrame(ds.RenderFrame(t)));
  }
  EXPECT_NEAR(enc.AverageBitrateBps() / target, 1.0, 0.35);
}

TEST(Codec, LowerBitrateLowerQualityFewerBits) {
  const video::SyntheticDataset ds(video::JacksonSpec(160, 60, 78));
  auto run = [&](double bps) {
    EncoderConfig cfg{.width = ds.spec().width, .height = ds.spec().height};
    cfg.fps = ds.spec().fps;
    cfg.target_bitrate_bps = bps;
    Encoder enc(cfg);
    Decoder dec(cfg.width, cfg.height);
    double psnr_sum = 0;
    for (std::int64_t t = 0; t < ds.n_frames(); ++t) {
      const video::Frame f = ds.RenderFrame(t);
      psnr_sum += Psnr(f, dec.DecodeFrame(enc.EncodeFrame(f)));
    }
    return std::pair{enc.total_bytes(),
                     psnr_sum / static_cast<double>(ds.n_frames())};
  };
  const auto [bytes_hi, psnr_hi] = run(400'000);
  const auto [bytes_lo, psnr_lo] = run(40'000);
  EXPECT_LT(bytes_lo, bytes_hi);
  EXPECT_LT(psnr_lo, psnr_hi);
  EXPECT_GT(psnr_hi - psnr_lo, 2.0);
}

TEST(Transcode, SourcePreservesIndexAndCountsBits) {
  const video::SyntheticDataset ds(video::JacksonSpec(160, 20, 79));
  video::DatasetSource inner(ds, 5, 15);
  EncoderConfig cfg{.width = ds.spec().width, .height = ds.spec().height};
  cfg.fps = ds.spec().fps;
  cfg.target_bitrate_bps = 100'000;
  TranscodedSource src(inner, cfg);
  std::int64_t n = 0;
  std::int64_t first = -1;
  while (auto f = src.Next()) {
    if (first < 0) first = f->index;
    ++n;
  }
  EXPECT_EQ(n, 10);
  EXPECT_EQ(first, 5);
  EXPECT_GT(src.total_bytes(), 0u);
  src.Reset();
  EXPECT_EQ(src.Next()->index, 5);
}

}  // namespace
}  // namespace ff::codec
