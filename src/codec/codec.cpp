#include "codec/codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "codec/bitstream.hpp"
#include "codec/dct.hpp"
#include "nn/kernels.hpp"
#include "util/check.hpp"

namespace ff::codec {

namespace {

std::int64_t PadTo16(std::int64_t v) { return (v + 15) / 16 * 16; }

// The six 8x8 blocks of a macroblock: four luma, then cb and cr.
struct BlockSite {
  int plane;          // 0 = y, 1 = cb, 2 = cr
  std::int64_t x, y;  // block origin within its plane
};

std::array<BlockSite, 6> MacroblockSites(std::int64_t mx, std::int64_t my) {
  return {{{0, mx, my},
           {0, mx + 8, my},
           {0, mx, my + 8},
           {0, mx + 8, my + 8},
           {1, mx / 2, my / 2},
           {2, mx / 2, my / 2}}};
}

std::int64_t Stride(const YuvImage& img, int plane) {
  return plane == 0 ? img.w : img.chroma_w();
}

// The 8x8 block of `img` at a site, shifted by (dx, dy) in that plane.
template <typename Image>
auto* BlockAt(Image& img, const BlockSite& s, std::int64_t dx = 0,
              std::int64_t dy = 0) {
  auto& plane = s.plane == 0 ? img.y : s.plane == 1 ? img.cb : img.cr;
  return plane.data() + (s.y + dy) * Stride(img, s.plane) + s.x + dx;
}

// 8x8 pixels with a row stride: a block's prediction, or where its
// reconstruction goes.
struct Pixels {
  const std::uint8_t* p;
  std::int64_t stride;
};

// Intra blocks predict from a flat 128.
Pixels Flat128() {
  static const std::array<std::uint8_t, 64> flat = [] {
    std::array<std::uint8_t, 64> a;
    a.fill(128);
    return a;
  }();
  return {flat.data(), 8};
}

// Sum of absolute differences between a 16x16 luma block of `cur` at
// (x0, y0) and of `ref` at (x0+dx, y0+dy). Caller guarantees bounds.
std::uint32_t Sad16(const YuvImage& cur, const YuvImage& ref, std::int64_t x0,
                    std::int64_t y0, std::int64_t dx, std::int64_t dy) {
  return nn::kernels::Sad16x16(cur.y.data() + y0 * cur.w + x0, cur.w,
                               ref.y.data() + (y0 + dy) * ref.w + x0 + dx,
                               ref.w);
}

struct Mv {
  std::int64_t dx = 0, dy = 0;
};

// Diamond search around (0,0), clamped so the reference block stays inside
// the padded frame.
Mv MotionSearch(const YuvImage& cur, const YuvImage& ref, std::int64_t x0,
                std::int64_t y0, int range) {
  const std::int64_t lo_x = std::max<std::int64_t>(-range, -x0);
  const std::int64_t hi_x = std::min<std::int64_t>(range, cur.w - 16 - x0);
  const std::int64_t lo_y = std::max<std::int64_t>(-range, -y0);
  const std::int64_t hi_y = std::min<std::int64_t>(range, cur.h - 16 - y0);
  Mv best{};
  std::uint32_t best_sad = Sad16(cur, ref, x0, y0, 0, 0);
  if (best_sad < 64) return best;  // static block: not worth searching
  for (std::int64_t step = 8; step >= 1; step /= 2) {
    bool improved = true;
    while (improved) {
      improved = false;
      const Mv candidates[] = {
          {best.dx + step, best.dy}, {best.dx - step, best.dy},
          {best.dx, best.dy + step}, {best.dx, best.dy - step},
          {best.dx + step, best.dy + step}, {best.dx - step, best.dy - step},
          {best.dx + step, best.dy - step}, {best.dx - step, best.dy + step}};
      for (const Mv& c : candidates) {
        if (c.dx < lo_x || c.dx > hi_x || c.dy < lo_y || c.dy > hi_y) continue;
        const std::uint32_t sad = Sad16(cur, ref, x0, y0, c.dx, c.dy);
        if (sad < best_sad) {
          best_sad = sad;
          best = c;
          improved = true;
        }
      }
    }
  }
  return best;
}

// The motion-compensated prediction of one block: chroma moves by half the
// luma vector, rounded toward zero.
Pixels RefBlock(const YuvImage& ref, const BlockSite& s, const Mv& mv) {
  const std::int64_t dx = s.plane == 0 ? mv.dx : mv.dx / 2;
  const std::int64_t dy = s.plane == 0 ? mv.dy : mv.dy / 2;
  return {BlockAt(ref, s, dx, dy), Stride(ref, s.plane)};
}

// The residual the encoder codes: current pixels minus the prediction.
Block Residual(const Pixels& cur, const Pixels& pred) {
  Block r;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      r[static_cast<std::size_t>(y * 8 + x)] =
          static_cast<float>(cur.p[y * cur.stride + x]) -
          static_cast<float>(pred.p[y * pred.stride + x]);
    }
  }
  return r;
}

// Writes prediction + residual, rounded, into the block at `out`.
void Reconstruct(std::uint8_t* out, std::int64_t stride, const Pixels& pred,
                 const Block& residual) {
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      out[y * stride + x] =
          RoundToPixel(static_cast<float>(pred.p[y * pred.stride + x]) +
                       residual[static_cast<std::size_t>(y * 8 + x)]);
    }
  }
}

// An uncoded block reconstructs to its prediction (pred + 0 rounds back to
// pred), so its bytes are copied.
void CopyBlock(std::uint8_t* out, std::int64_t stride, const Pixels& pred) {
  for (int y = 0; y < 8; ++y) {
    std::memcpy(out + y * stride, pred.p + y * pred.stride, 8);
  }
}

// Entropy-codes one quantized residual block; false if nothing survived
// quantization (CBP 0: one bit, no residual).
bool CodeBlock(BitWriter& bw, const QuantBlock& q) {
  const auto& zz = ZigzagOrder();
  int n_nonzero = 0;
  for (const auto v : q) n_nonzero += v != 0 ? 1 : 0;
  if (n_nonzero == 0) {
    bw.PutBit(0);  // CBP: block not coded
    return false;
  }
  bw.PutBit(1);
  bw.PutUe(static_cast<std::uint32_t>(n_nonzero - 1));
  std::uint32_t run = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int32_t level = q[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])];
    if (level == 0) {
      ++run;
      continue;
    }
    bw.PutUe(run);
    bw.PutSe(level);
    run = 0;
  }
  return true;
}

// Reads one block's quantized residual into `q`; false for an uncoded block.
bool DecodeBlock(BitReader& br, QuantBlock& q) {
  if (br.GetBit() == 0) return false;
  const std::uint32_t n_nonzero = br.GetUe() + 1;
  q = QuantBlock{};
  const auto& zz = ZigzagOrder();
  std::size_t pos = 0;
  for (std::uint32_t i = 0; i < n_nonzero; ++i) {
    const std::uint32_t run = br.GetUe();
    pos += run;
    FF_CHECK_MSG(pos < 64, "coefficient index out of range");
    q[static_cast<std::size_t>(zz[pos])] = br.GetSe();
    ++pos;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

Encoder::Encoder(const EncoderConfig& cfg)
    : cfg_(cfg),
      pad_w_(PadTo16(cfg.width)),
      pad_h_(PadTo16(cfg.height)),
      qp_(cfg.initial_qp) {
  FF_CHECK_GT(cfg.width, 0);
  FF_CHECK_GT(cfg.height, 0);
  FF_CHECK_GT(cfg.fps, 0);
  FF_CHECK(cfg.min_qp >= 0 && cfg.max_qp <= 51 && cfg.min_qp <= cfg.max_qp);
  FF_CHECK_GE(cfg.gop_size, 1);
  qp_ = std::clamp(qp_, cfg.min_qp, cfg.max_qp);
}

std::string Encoder::EncodeFrame(const video::Frame& frame,
                                 bool force_iframe) {
  FF_CHECK_EQ(frame.width(), cfg_.width);
  FF_CHECK_EQ(frame.height(), cfg_.height);

  const YuvImage cur = RgbToYuv420(frame, pad_w_, pad_h_);
  const bool iframe =
      force_iframe || !have_ref_ || (frame_idx_ % cfg_.gop_size == 0);
  const double qstep = QStep(qp_);

  YuvImage recon;
  recon.w = pad_w_;
  recon.h = pad_h_;
  recon.y.resize(cur.y.size());
  recon.cb.resize(cur.cb.size());
  recon.cr.resize(cur.cr.size());

  BitWriter bw;
  bw.PutBit(iframe ? 1 : 0);
  bw.PutBits(static_cast<std::uint32_t>(qp_), 6);

  stats_ = FrameStats{};
  stats_.is_iframe = iframe;
  stats_.qp = qp_;

  for (std::int64_t my = 0; my < pad_h_; my += 16) {
    for (std::int64_t mx = 0; mx < pad_w_; mx += 16) {
      Mv mv{};
      if (!iframe) {
        mv = MotionSearch(cur, ref_, mx, my, cfg_.search_range);
      }
      const auto sites = MacroblockSites(mx, my);
      Pixels pred[6];
      Block residual[6];
      for (int b = 0; b < 6; ++b) {
        pred[b] = iframe ? Flat128() : RefBlock(ref_, sites[b], mv);
        residual[b] = Residual(
            {BlockAt(cur, sites[b]), Stride(cur, sites[b].plane)}, pred[b]);
      }
      // Quantize blocks until one keeps a coefficient: the macroblock is
      // then coded, and those blocks' coefficients are reused below.
      QuantBlock q[6];
      int quantized = 0;
      bool all_zero = true;
      while (all_zero && quantized < 6) {
        q[quantized] = Quantize(ForwardDct(residual[quantized]), qstep);
        for (const auto v : q[quantized]) all_zero = all_zero && v == 0;
        ++quantized;
      }

      // Skip mode: P-frame, zero motion, nothing survives quantization.
      if (!iframe && mv.dx == 0 && mv.dy == 0 && all_zero) {
        bw.PutBit(1);  // skip
        ++stats_.skip_blocks;
        for (int b = 0; b < 6; ++b) {
          CopyBlock(BlockAt(recon, sites[b]), Stride(recon, sites[b].plane),
                    pred[b]);
        }
        continue;
      }

      if (!iframe) {
        bw.PutBit(0);  // coded
        bw.PutSe(static_cast<std::int32_t>(mv.dx));
        bw.PutSe(static_cast<std::int32_t>(mv.dy));
      }
      ++stats_.coded_blocks;

      for (int b = 0; b < 6; ++b) {
        if (b >= quantized) q[b] = Quantize(ForwardDct(residual[b]), qstep);
        std::uint8_t* out = BlockAt(recon, sites[b]);
        const std::int64_t stride = Stride(recon, sites[b].plane);
        if (CodeBlock(bw, q[b])) {
          Reconstruct(out, stride, pred[b], InverseDct(Dequantize(q[b], qstep)));
        } else {
          CopyBlock(out, stride, pred[b]);
        }
      }
    }
  }

  std::string chunk = bw.Finish();
  stats_.bytes = chunk.size();
  total_bytes_ += chunk.size();
  ++frame_idx_;
  ref_ = std::move(recon);
  have_ref_ = true;
  UpdateRateControl(static_cast<std::uint64_t>(chunk.size()) * 8, iframe);
  return chunk;
}

void Encoder::UpdateRateControl(std::uint64_t frame_bits, bool was_iframe) {
  if (cfg_.target_bitrate_bps <= 0) return;
  const double target =
      cfg_.target_bitrate_bps / static_cast<double>(cfg_.fps);
  // I-frames legitimately cost more; budget them a multiple of the mean so
  // rate control does not overreact once per GOP.
  const double weight =
      was_iframe ? std::min<double>(4.0, static_cast<double>(cfg_.gop_size))
                 : 0.8;
  cum_bits_ += static_cast<double>(frame_bits);
  cum_target_bits_ += target;
  const double frame_ratio = static_cast<double>(frame_bits) / (target * weight);
  const double drift_ratio = cum_bits_ / cum_target_bits_;
  const double adjust =
      1.6 * std::log2(std::max(0.05, frame_ratio)) +
      1.2 * std::log2(std::clamp(drift_ratio, 0.25, 4.0));
  qp_ += static_cast<int>(std::lround(std::clamp(adjust, -3.0, 3.0)));
  qp_ = std::clamp(qp_, cfg_.min_qp, cfg_.max_qp);
}

double Encoder::AverageBitrateBps() const {
  if (frame_idx_ == 0) return 0.0;
  const double seconds =
      static_cast<double>(frame_idx_) / static_cast<double>(cfg_.fps);
  return static_cast<double>(total_bytes_) * 8.0 / seconds;
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

Decoder::Decoder(std::int64_t width, std::int64_t height)
    : width_(width),
      height_(height),
      pad_w_(PadTo16(width)),
      pad_h_(PadTo16(height)) {
  FF_CHECK_GT(width, 0);
  FF_CHECK_GT(height, 0);
}

video::Frame Decoder::DecodeFrame(std::string_view chunk) {
  BitReader br(chunk);
  const bool iframe = br.GetBit() == 1;
  const int qp = static_cast<int>(br.GetBits(6));
  const double qstep = QStep(qp);
  FF_CHECK_MSG(iframe || have_ref_, "P-frame without a reference");

  YuvImage recon;
  recon.w = pad_w_;
  recon.h = pad_h_;
  recon.y.resize(static_cast<std::size_t>(pad_w_ * pad_h_));
  recon.cb.resize(static_cast<std::size_t>((pad_w_ / 2) * (pad_h_ / 2)));
  recon.cr.resize(recon.cb.size());

  QuantBlock q;
  for (std::int64_t my = 0; my < pad_h_; my += 16) {
    for (std::int64_t mx = 0; mx < pad_w_; mx += 16) {
      Mv mv{};
      bool skip = false;
      if (!iframe) {
        skip = br.GetBit() == 1;
        if (!skip) {
          mv.dx = br.GetSe();
          mv.dy = br.GetSe();
          // The bounds MotionSearch obeys: the 16x16 luma prediction (and
          // with it the 8x8 chroma one) stays inside the padded reference.
          FF_CHECK_MSG(mx + mv.dx >= 0 && mx + mv.dx <= pad_w_ - 16 &&
                           my + mv.dy >= 0 && my + mv.dy <= pad_h_ - 16,
                       "motion vector (" << mv.dx << ", " << mv.dy
                                         << ") at macroblock (" << mx << ", "
                                         << my << ") leaves the reference");
        }
      }

      const auto sites = MacroblockSites(mx, my);
      for (const BlockSite& site : sites) {
        const Pixels pred = iframe ? Flat128() : RefBlock(ref_, site, mv);
        std::uint8_t* out = BlockAt(recon, site);
        const std::int64_t stride = Stride(recon, site.plane);
        if (!skip && DecodeBlock(br, q)) {
          Reconstruct(out, stride, pred, InverseDct(Dequantize(q, qstep)));
        } else {
          CopyBlock(out, stride, pred);
        }
      }
    }
  }

  ref_ = std::move(recon);
  have_ref_ = true;
  return Yuv420ToRgb(ref_, width_, height_);
}

bool IsIFrame(std::string_view chunk) {
  return !chunk.empty() && (static_cast<std::uint8_t>(chunk[0]) & 0x80u) != 0;
}

// ---------------------------------------------------------------------------
// ChunkReplay
// ---------------------------------------------------------------------------

ChunkReplay::ChunkReplay(std::int64_t width, std::int64_t height)
    : decoder_(width, height) {}

const video::Frame& ChunkReplay::Decode(const std::vector<std::string>& chunks,
                                        std::size_t slot) {
  FF_CHECK_LT(slot, chunks.size());
  if (slot == slot_) return frame_;
  std::size_t start = slot;
  while (start > 0 && !IsIFrame(chunks[start])) --start;
  // An I-frame decodes alike whatever the decoder held. Past a cached slot
  // in the same run, the decoder already holds the reference.
  std::size_t next = start;
  if (slot_ != kNone && start <= slot_ && slot_ < slot) next = slot_ + 1;
  slot_ = kNone;  // a refused chunk leaves no usable cache
  for (; next < slot; ++next) decoder_.DecodeFrame(chunks[next]);
  frame_ = decoder_.DecodeFrame(chunks[slot]);
  slot_ = slot;
  return frame_;
}

}  // namespace ff::codec
