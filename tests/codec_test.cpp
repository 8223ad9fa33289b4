// Codec substrate tests: bitstream round trips, DCT orthonormality,
// quantization behaviour, YUV conversion, encoder/decoder agreement, rate
// control convergence, quality monotonicity in bitrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

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

TEST(Codec, IsIFrameReadsTheFrameTypeBit) {
  Encoder enc({.width = 48, .height = 32, .gop_size = 4});
  int iframes = 0;
  for (int t = 0; t < 12; ++t) {
    const std::string chunk =
        enc.EncodeFrame(TestPattern(48, 32, t), /*force_iframe=*/t == 6);
    EXPECT_EQ(IsIFrame(chunk), enc.last_stats().is_iframe) << "frame " << t;
    iframes += IsIFrame(chunk) ? 1 : 0;
  }
  EXPECT_EQ(iframes, 4);  // 0, 4, the forced 6, 8
  EXPECT_FALSE(IsIFrame(""));
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


// ---------------------------------------------------------------------------
// Bitwise pins. The codec's fast loops must reproduce, bit for bit, the
// arithmetic written out literally below: the colour conversions, every
// chunk byte and every decoded pixel, and the bitstream readers' values and
// refusals.
// ---------------------------------------------------------------------------

// Half away from zero, saturating to [0, 255]: the codec's rounding rule.
std::uint8_t LiteralClamp8(double v) {
  return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
}

// Every (y, cb, cr) triple: one 256x256 image per cb value, whose 2x2 quads
// each carry one cr value (64 quads per cr, so all 256 lumas per cr).
TEST(Yuv, ToRgbMatchesLiteralFormulaForEveryTriple) {
  YuvImage img;
  img.w = 256;
  img.h = 256;
  img.y.resize(256 * 256);
  img.cb.resize(128 * 128);
  img.cr.resize(128 * 128);
  for (std::size_t q = 0; q < img.cr.size(); ++q) {
    img.cr[q] = static_cast<std::uint8_t>(q / 64);
  }
  for (std::int64_t yy = 0; yy < 256; ++yy) {
    for (std::int64_t xx = 0; xx < 256; ++xx) {
      const std::int64_t q = (yy / 2) * 128 + xx / 2;
      img.y[static_cast<std::size_t>(yy * 256 + xx)] =
          static_cast<std::uint8_t>((q % 64) * 4 + (yy % 2) * 2 + xx % 2);
    }
  }
  std::int64_t mismatches = 0;
  for (int cbv = 0; cbv < 256; ++cbv) {
    std::fill(img.cb.begin(), img.cb.end(), static_cast<std::uint8_t>(cbv));
    const video::Frame f = Yuv420ToRgb(img, 256, 256);
    for (std::int64_t yy = 0; yy < 256; ++yy) {
      for (std::int64_t xx = 0; xx < 256; ++xx) {
        const auto i = static_cast<std::size_t>(yy * 256 + xx);
        const double y = img.y[i];
        const auto ci = static_cast<std::size_t>((yy / 2) * 128 + xx / 2);
        const double cb = static_cast<double>(img.cb[ci]) - 128.0;
        const double cr = static_cast<double>(img.cr[ci]) - 128.0;
        mismatches += f.r()[i] != LiteralClamp8(y + 1.402 * cr);
        mismatches +=
            f.g()[i] != LiteralClamp8(y - 0.344136 * cb - 0.714136 * cr);
        mismatches += f.b()[i] != LiteralClamp8(y + 1.772 * cb);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Every (r, g, b) triple for luma: one 256x256 frame of (g, b) per r value.
// Each quad's chroma is checked against the literal four-pixel mean too.
TEST(Yuv, FromRgbMatchesLiteralFormulaForEveryTriple) {
  video::Frame f(256, 256);
  for (std::int64_t yy = 0; yy < 256; ++yy) {
    for (std::int64_t xx = 0; xx < 256; ++xx) {
      const auto i = static_cast<std::size_t>(yy * 256 + xx);
      f.g()[i] = static_cast<std::uint8_t>(yy);
      f.b()[i] = static_cast<std::uint8_t>(xx);
    }
  }
  std::int64_t mismatches = 0;
  for (int rv = 0; rv < 256; ++rv) {
    std::fill(f.r(), f.r() + f.pixels(), static_cast<std::uint8_t>(rv));
    const YuvImage img = RgbToYuv420(f, 256, 256);
    for (std::size_t i = 0; i < img.y.size(); ++i) {
      const double r = f.r()[i], g = f.g()[i], b = f.b()[i];
      mismatches += img.y[i] != LiteralClamp8(0.299 * r + 0.587 * g + 0.114 * b);
    }
    auto cb_at = [&](std::size_t i) {
      const double r = f.r()[i], g = f.g()[i], b = f.b()[i];
      return 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b;
    };
    auto cr_at = [&](std::size_t i) {
      const double r = f.r()[i], g = f.g()[i], b = f.b()[i];
      return 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b;
    };
    for (std::size_t cy = 0; cy < 128; ++cy) {
      for (std::size_t cx = 0; cx < 128; ++cx) {
        const std::size_t i00 = 2 * cy * 256 + 2 * cx, i01 = i00 + 1;
        const std::size_t i10 = i00 + 256, i11 = i10 + 1;
        const std::size_t o = cy * 128 + cx;
        mismatches += img.cb[o] != LiteralClamp8((cb_at(i00) + cb_at(i01) +
                                                  cb_at(i10) + cb_at(i11)) /
                                                 4.0);
        mismatches += img.cr[o] != LiteralClamp8((cr_at(i00) + cr_at(i01) +
                                                  cr_at(i10) + cr_at(i11)) /
                                                 4.0);
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

struct GoldenCase {
  const char* dataset;  // "jackson" | "roadway"
  std::int64_t width;
  int qp;
  std::uint64_t chunk_digest;  // every chunk byte, in order
  std::uint64_t frame_digest;  // every decoded r, g, b plane, in order
};

// Recorded from the reference codec. Each case encodes 60 frames (GOP 30,
// a forced I-frame at frame 45) and decodes them; QP 45 runs rate control
// from that initial QP. Widths 256 (a 16-multiple luma width) and 200 (the
// encoder pads and the decoder crops).
constexpr GoldenCase kGolden[] = {
    {"jackson", 256, 10, 0x9e9e33a1c2ca855ull, 0x38a981cf66d3e776ull},
    {"jackson", 256, 20, 0x500d1935ea5b7fbdull, 0x8eae1b106a7221f5ull},
    {"jackson", 256, 32, 0x78f0bba7062145b4ull, 0x7bb94579838e11ffull},
    {"jackson", 256, 45, 0x8cafb95869067a1bull, 0xd8182b36257112afull},
    {"jackson", 200, 10, 0x2b161815631e69d9ull, 0xe211cc7862fd59e5ull},
    {"jackson", 200, 20, 0x233bda66c6930166ull, 0x97cf7dcb55ebcdb5ull},
    {"jackson", 200, 32, 0x12bd0f40e8c16033ull, 0xf9c14c5e3572e66eull},
    {"jackson", 200, 45, 0x4804c04d12347c1full, 0x4618ae9b3d5a4546ull},
    {"roadway", 256, 10, 0xf81223b18531f039ull, 0x1f4257cacfd950e8ull},
    {"roadway", 256, 20, 0x46daa5d4f38cbf0dull, 0xacb46c7eeda3d132ull},
    {"roadway", 256, 32, 0x1a8f7f8f118f3b37ull, 0xa7c292adb1d2068ull},
    {"roadway", 256, 45, 0x7dc2613cd80f3f11ull, 0x2102d15d98f7093dull},
    {"roadway", 200, 10, 0xd2af3b0182b38a34ull, 0x7314056ec64aac6full},
    {"roadway", 200, 20, 0x7eb12c76015125beull, 0x77a4d4cd87d4145dull},
    {"roadway", 200, 32, 0x37fe1accd1a23f50ull, 0xdd305a32031b5ecfull},
    {"roadway", 200, 45, 0x4896833a9724662eull, 0xc16dea32d2a08efaull},
};

TEST(CodecGolden, ChunksAndDecodedFramesMatchRecordedDigests) {
  constexpr std::int64_t kFrames = 60;
  std::string clip_key;
  std::vector<video::Frame> clip;
  for (const GoldenCase& c : kGolden) {
    const std::string key = std::string(c.dataset) + std::to_string(c.width);
    if (key != clip_key) {
      const video::SyntheticDataset ds(
          std::string(c.dataset) == "jackson"
              ? video::JacksonSpec(c.width, kFrames, 5)
              : video::RoadwaySpec(c.width, kFrames, 6));
      clip.clear();
      for (std::int64_t t = 0; t < kFrames; ++t) {
        clip.push_back(ds.RenderFrame(t));
      }
      clip_key = key;
    }
    const std::int64_t w = clip[0].width(), h = clip[0].height();
    EncoderConfig cfg{.width = w, .height = h};
    cfg.initial_qp = c.qp;
    cfg.gop_size = 30;
    if (c.qp == 45) cfg.target_bitrate_bps = 150'000;
    Encoder enc(cfg);
    Decoder dec(w, h);
    std::uint64_t chunk_digest = 0xcbf29ce484222325ull;
    std::uint64_t frame_digest = chunk_digest;
    for (std::int64_t t = 0; t < kFrames; ++t) {
      const std::string chunk =
          enc.EncodeFrame(clip[static_cast<std::size_t>(t)], t == 45);
      chunk_digest = Fnv1a(chunk_digest, chunk.data(), chunk.size());
      const video::Frame rec = dec.DecodeFrame(chunk);
      const auto n = static_cast<std::size_t>(rec.pixels());
      frame_digest = Fnv1a(frame_digest, rec.r(), n);
      frame_digest = Fnv1a(frame_digest, rec.g(), n);
      frame_digest = Fnv1a(frame_digest, rec.b(), n);
    }
    EXPECT_EQ(chunk_digest, c.chunk_digest)
        << c.dataset << " " << w << "x" << h << " qp " << c.qp << ": got 0x"
        << std::hex << chunk_digest;
    EXPECT_EQ(frame_digest, c.frame_digest)
        << c.dataset << " " << w << "x" << h << " qp " << c.qp << ": got 0x"
        << std::hex << frame_digest;
  }
}

// Bit-at-a-time reference readers and writers: the literal Exp-Golomb
// definitions, one bit per step.
class RefBitReader {
 public:
  explicit RefBitReader(std::string_view data) : data_(data) {}

  std::uint32_t GetBit() {
    FF_CHECK_MSG(pos_ < data_.size() * 8, "bitstream overrun");
    const std::size_t byte = pos_ >> 3;
    const int shift = 7 - static_cast<int>(pos_ & 7);
    ++pos_;
    return (static_cast<std::uint8_t>(data_[byte]) >> shift) & 1u;
  }
  std::uint32_t GetBits(int n) {
    FF_CHECK(n >= 0 && n <= 32);
    std::uint32_t v = 0;
    for (int i = 0; i < n; ++i) v = (v << 1) | GetBit();
    return v;
  }
  std::uint32_t GetUe() {
    int zeros = 0;
    while (GetBit() == 0) {
      ++zeros;
      FF_CHECK_MSG(zeros <= 32, "malformed Exp-Golomb code");
    }
    std::uint32_t v = 1;
    for (int i = 0; i < zeros; ++i) v = (v << 1) | GetBit();
    return v - 1;
  }
  std::int32_t GetSe() {
    const std::uint32_t u = GetUe();
    if (u & 1u) return static_cast<std::int32_t>((u + 1) / 2);
    return -static_cast<std::int32_t>(u / 2);
  }
  bool exhausted() const { return pos_ >= data_.size() * 8; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

class RefBitWriter {
 public:
  void PutBit(std::uint32_t b) {
    acc_ = (acc_ << 1) | (b & 1u);
    ++bit_count_;
    if (++acc_bits_ == 8) {
      bytes_.push_back(static_cast<char>(acc_ & 0xFFu));
      acc_ = 0;
      acc_bits_ = 0;
    }
  }
  void PutBits(std::uint32_t v, int n) {
    for (int i = n - 1; i >= 0; --i) PutBit((v >> i) & 1u);
  }
  void PutUe(std::uint32_t v) {
    const std::uint32_t code = v + 1;
    const int bits = std::bit_width(code);
    for (int i = 0; i < bits - 1; ++i) PutBit(0);
    PutBits(code, bits);
  }
  void PutSe(std::int32_t v) {
    PutUe(v > 0 ? static_cast<std::uint32_t>(2 * v - 1)
                : static_cast<std::uint32_t>(-2 * static_cast<std::int64_t>(v)));
  }
  std::string Finish() {
    while (acc_bits_ != 0) PutBit(0);
    return bytes_;
  }
  std::uint64_t bit_count() const { return bit_count_; }

 private:
  std::string bytes_;
  std::uint32_t acc_ = 0;
  int acc_bits_ = 0;
  std::uint64_t bit_count_ = 0;
};

// What one read returned: a value, or the refusal's message.
struct ReadOutcome {
  bool threw = false;
  std::int64_t value = 0;
  std::string error;
  bool exhausted = false;
  bool operator==(const ReadOutcome&) const = default;
};

// Refusal messages carry the throwing file and line; compare the reason.
std::string Reason(const util::CheckError& e) {
  const std::string what = e.what();
  for (const char* r : {"bitstream overrun", "malformed Exp-Golomb code"}) {
    if (what.find(r) != std::string::npos) return r;
  }
  return "bad argument";
}

template <typename Reader>
ReadOutcome ReadOp(Reader& r, int op, int n) {
  ReadOutcome out;
  try {
    switch (op) {
      case 0: out.value = r.GetBit(); break;
      case 1: out.value = r.GetBits(n); break;
      case 2: out.value = r.GetUe(); break;
      default: out.value = r.GetSe(); break;
    }
  } catch (const util::CheckError& e) {
    out.threw = true;
    out.error = Reason(e);
  }
  out.exhausted = r.exhausted();
  return out;
}

// Replays one random op sequence on both readers until the first refusal;
// returns the number of ops that ran.
int ReadBothUntilThrow(std::string_view data, util::Pcg32& rng) {
  BitReader fast(data);
  RefBitReader ref(data);
  for (int k = 0;; ++k) {
    const int op = static_cast<int>(rng.NextU32() % 4);
    // Mostly in range; now and then one past either end of [0, 32].
    const int n = static_cast<int>(rng.NextU32() % 35) - 1;
    const ReadOutcome a = ReadOp(fast, op, n);
    const ReadOutcome b = ReadOp(ref, op, n);
    EXPECT_EQ(a, b) << "op " << k << " kind " << op << " n " << n
                    << ": fast " << a.value << " '" << a.error << "', ref "
                    << b.value << " '" << b.error << "'";
    if (a != b || a.threw) return k + 1;
  }
}

TEST(Bitstream, ReaderMatchesBitAtATimeReference) {
  util::Pcg32 rng(2027);
  std::int64_t ops = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string data;
    const int kind = trial % 4;
    if (kind == 0) {
      // Random bytes, biased toward zeros so long Exp-Golomb prefixes (and
      // the 33-zero refusal) come up.
      data.resize(rng.NextU32() % 40);
      for (char& c : data) {
        c = static_cast<char>(rng.NextU32() % 3 == 0 ? rng.NextU32() : 0);
      }
    } else {
      // A valid stream of codes, then truncated (kind 2) or mutated (3).
      RefBitWriter w;
      const int n_codes = 1 + static_cast<int>(rng.NextU32() % 40);
      for (int i = 0; i < n_codes; ++i) {
        const std::uint32_t v = rng.NextU32() >> (rng.NextU32() % 32);
        w.PutUe(v);
      }
      data = w.Finish();
      if (kind == 2) data.resize(rng.NextU32() % (data.size() + 1));
      if (kind == 3 && !data.empty()) {
        for (int flips = 1 + static_cast<int>(rng.NextU32() % 4); flips > 0;
             --flips) {
          data[rng.NextU32() % data.size()] ^=
              static_cast<char>(1u << (rng.NextU32() % 8));
        }
      }
    }
    ops += ReadBothUntilThrow(data, rng);
    if (HasFailure()) return;
  }
  EXPECT_GT(ops, 3000);
  // Exp-Golomb prefixes of every length up to the refusal, at every bit
  // offset, with and without room for the suffix.
  for (int lead = 0; lead < 8; ++lead) {
    for (int zeros = 30; zeros <= 34; ++zeros) {
      for (int suffix = 0; suffix <= 34; ++suffix) {
        RefBitWriter w;
        w.PutBits(0x5a, lead);
        for (int i = 0; i < zeros; ++i) w.PutBit(0);
        w.PutBit(1);
        for (int i = 0; i < suffix; ++i) w.PutBit(i & 1);
        const std::string data = w.Finish();
        BitReader fast(data);
        RefBitReader ref(data);
        ASSERT_EQ(ReadOp(fast, 1, lead), ReadOp(ref, 1, lead));
        ASSERT_EQ(ReadOp(fast, 2, 0), ReadOp(ref, 2, 0))
            << "lead " << lead << " zeros " << zeros << " suffix " << suffix;
        ASSERT_EQ(ReadOp(fast, 0, 0), ReadOp(ref, 0, 0));
      }
    }
  }
}

TEST(Bitstream, WriterMatchesBitAtATimeReference) {
  util::Pcg32 rng(2028);
  for (int trial = 0; trial < 2000; ++trial) {
    BitWriter fast;
    RefBitWriter ref;
    const int n_ops = static_cast<int>(rng.NextU32() % 60);
    for (int i = 0; i < n_ops; ++i) {
      const std::uint32_t v = rng.NextU32() >> (rng.NextU32() % 32);
      switch (rng.NextU32() % 4) {
        case 0:
          fast.PutBit(v);
          ref.PutBit(v);
          break;
        case 1: {
          const int n = static_cast<int>(rng.NextU32() % 33);
          fast.PutBits(v, n);
          ref.PutBits(v, n);
          break;
        }
        case 2: {
          // Includes ue(2^32 - 1), whose code v + 1 wraps to zero bits.
          const std::uint32_t u = rng.NextU32() % 16 == 0 ? 0xFFFFFFFFu : v;
          fast.PutUe(u);
          ref.PutUe(u);
          break;
        }
        default: {
          const auto s = static_cast<std::int32_t>(v >> 2) *
                         (rng.NextU32() % 2 == 0 ? 1 : -1);
          fast.PutSe(s);
          ref.PutSe(s);
          break;
        }
      }
      ASSERT_EQ(fast.bit_count(), ref.bit_count()) << "trial " << trial;
    }
    ASSERT_EQ(fast.Finish(), ref.Finish()) << "trial " << trial;
    ASSERT_EQ(fast.bit_count(), ref.bit_count()) << "trial " << trial;
  }
}

}  // namespace
}  // namespace ff::codec
