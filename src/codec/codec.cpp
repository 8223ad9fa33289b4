#include "codec/codec.hpp"

#include <algorithm>
#include <cmath>

#include "codec/bitstream.hpp"
#include "codec/dct.hpp"
#include "nn/kernels.hpp"
#include "util/check.hpp"

namespace ff::codec {

namespace {

std::int64_t PadTo16(std::int64_t v) { return (v + 15) / 16 * 16; }

std::uint8_t Clamp8(float v) {
  return static_cast<std::uint8_t>(
      std::clamp<long>(std::lround(v), 0L, 255L));
}

// Extracts an 8x8 block fully inside a plane.
Block GetBlock8(const std::uint8_t* p, std::int64_t stride, std::int64_t x0,
                std::int64_t y0) {
  Block b{};
  for (int y = 0; y < 8; ++y) {
    const std::uint8_t* row = p + (y0 + y) * stride + x0;
    for (int x = 0; x < 8; ++x) {
      b[static_cast<std::size_t>(y * 8 + x)] = static_cast<float>(row[x]);
    }
  }
  return b;
}

void PutBlock8(std::uint8_t* p, std::int64_t stride, std::int64_t x0,
               std::int64_t y0, const Block& b) {
  for (int y = 0; y < 8; ++y) {
    std::uint8_t* row = p + (y0 + y) * stride + x0;
    for (int x = 0; x < 8; ++x) {
      row[x] = Clamp8(b[static_cast<std::size_t>(y * 8 + x)]);
    }
  }
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

// Quantizes and entropy-codes one residual block; returns the reconstructed
// residual (what the decoder will add to its prediction).
Block CodeBlock(BitWriter& bw, const Block& residual, double qstep) {
  const Block freq = ForwardDct(residual);
  const QuantBlock q = Quantize(freq, qstep);
  const auto& zz = ZigzagOrder();
  int n_nonzero = 0;
  for (const auto v : q) n_nonzero += v != 0 ? 1 : 0;
  if (n_nonzero == 0) {
    bw.PutBit(0);  // CBP: block not coded
    return Block{};
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
  return InverseDct(Dequantize(q, qstep));
}

Block DecodeBlock(BitReader& br, double qstep) {
  if (br.GetBit() == 0) return Block{};
  const std::uint32_t n_nonzero = br.GetUe() + 1;
  QuantBlock q{};
  const auto& zz = ZigzagOrder();
  std::size_t pos = 0;
  for (std::uint32_t i = 0; i < n_nonzero; ++i) {
    const std::uint32_t run = br.GetUe();
    pos += run;
    FF_CHECK_MSG(pos < 64, "coefficient index out of range");
    q[static_cast<std::size_t>(zz[pos])] = br.GetSe();
    ++pos;
  }
  return InverseDct(Dequantize(q, qstep));
}

// The six 8x8 blocks of a macroblock: offsets within luma / chroma planes.
struct MbGeometry {
  std::int64_t mx, my;    // luma pixel origin
  std::int64_t cx, cy;    // chroma pixel origin
};

// Adds residual to prediction and writes the result into `plane`.
void ReconstructBlock(std::uint8_t* plane, std::int64_t stride,
                      std::int64_t x0, std::int64_t y0, const Block& pred,
                      const Block& residual) {
  Block sum{};
  for (std::size_t i = 0; i < 64; ++i) sum[i] = pred[i] + residual[i];
  PutBlock8(plane, stride, x0, y0, sum);
}

Block FlatBlock(float v) {
  Block b{};
  b.fill(v);
  return b;
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

  const std::int64_t cw = pad_w_ / 2;
  for (std::int64_t my = 0; my < pad_h_; my += 16) {
    for (std::int64_t mx = 0; mx < pad_w_; mx += 16) {
      const MbGeometry g{mx, my, mx / 2, my / 2};
      Mv mv{};
      if (!iframe) {
        mv = MotionSearch(cur, ref_, mx, my, cfg_.search_range);
      }

      // Gather predictions for the 6 blocks.
      Block pred[6];
      if (iframe) {
        for (auto& p : pred) p = FlatBlock(128.0f);
      } else {
        int bi = 0;
        for (const auto& [ox, oy] :
             {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
          pred[bi++] = GetBlock8(ref_.y.data(), pad_w_, mx + mv.dx + ox,
                                 my + mv.dy + oy);
        }
        pred[4] = GetBlock8(ref_.cb.data(), cw, g.cx + mv.dx / 2,
                            g.cy + mv.dy / 2);
        pred[5] = GetBlock8(ref_.cr.data(), cw, g.cx + mv.dx / 2,
                            g.cy + mv.dy / 2);
      }

      // Residuals.
      Block cur_blocks[6];
      {
        int bi = 0;
        for (const auto& [ox, oy] :
             {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
          cur_blocks[bi++] = GetBlock8(cur.y.data(), pad_w_, mx + ox, my + oy);
        }
        cur_blocks[4] = GetBlock8(cur.cb.data(), cw, g.cx, g.cy);
        cur_blocks[5] = GetBlock8(cur.cr.data(), cw, g.cx, g.cy);
      }
      Block residual[6];
      bool all_zero = true;
      QuantBlock qtest{};
      for (int b = 0; b < 6; ++b) {
        for (std::size_t i = 0; i < 64; ++i) {
          residual[b][i] = cur_blocks[b][i] - pred[b][i];
        }
        if (all_zero) {
          const Block freq = ForwardDct(residual[b]);
          qtest = Quantize(freq, qstep);
          for (const auto v : qtest) {
            if (v != 0) {
              all_zero = false;
              break;
            }
          }
        }
      }

      // Skip mode: P-frame, zero motion, nothing survives quantization.
      if (!iframe && mv.dx == 0 && mv.dy == 0 && all_zero) {
        bw.PutBit(1);  // skip
        ++stats_.skip_blocks;
        int bi = 0;
        for (const auto& [ox, oy] :
             {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
          PutBlock8(recon.y.data(), pad_w_, mx + ox, my + oy, pred[bi++]);
        }
        PutBlock8(recon.cb.data(), cw, g.cx, g.cy, pred[4]);
        PutBlock8(recon.cr.data(), cw, g.cx, g.cy, pred[5]);
        continue;
      }

      if (!iframe) {
        bw.PutBit(0);  // coded
        bw.PutSe(static_cast<std::int32_t>(mv.dx));
        bw.PutSe(static_cast<std::int32_t>(mv.dy));
      }
      ++stats_.coded_blocks;

      int bi = 0;
      for (const auto& [ox, oy] : {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
        const Block rec_res = CodeBlock(bw, residual[bi], qstep);
        ReconstructBlock(recon.y.data(), pad_w_, mx + ox, my + oy, pred[bi],
                         rec_res);
        ++bi;
      }
      const Block rec_cb = CodeBlock(bw, residual[4], qstep);
      ReconstructBlock(recon.cb.data(), cw, g.cx, g.cy, pred[4], rec_cb);
      const Block rec_cr = CodeBlock(bw, residual[5], qstep);
      ReconstructBlock(recon.cr.data(), cw, g.cx, g.cy, pred[5], rec_cr);
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

  const std::int64_t cw = pad_w_ / 2;
  for (std::int64_t my = 0; my < pad_h_; my += 16) {
    for (std::int64_t mx = 0; mx < pad_w_; mx += 16) {
      const std::int64_t cx = mx / 2, cy = my / 2;
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

      Block pred[6];
      if (iframe) {
        for (auto& p : pred) p = FlatBlock(128.0f);
      } else {
        int bi = 0;
        for (const auto& [ox, oy] :
             {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
          pred[bi++] = GetBlock8(ref_.y.data(), pad_w_, mx + mv.dx + ox,
                                 my + mv.dy + oy);
        }
        pred[4] = GetBlock8(ref_.cb.data(), cw, cx + mv.dx / 2, cy + mv.dy / 2);
        pred[5] = GetBlock8(ref_.cr.data(), cw, cx + mv.dx / 2, cy + mv.dy / 2);
      }

      if (skip) {
        int bi = 0;
        for (const auto& [ox, oy] :
             {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
          PutBlock8(recon.y.data(), pad_w_, mx + ox, my + oy, pred[bi++]);
        }
        PutBlock8(recon.cb.data(), cw, cx, cy, pred[4]);
        PutBlock8(recon.cr.data(), cw, cx, cy, pred[5]);
        continue;
      }

      int bi = 0;
      for (const auto& [ox, oy] : {std::pair{0, 0}, {8, 0}, {0, 8}, {8, 8}}) {
        const Block res = DecodeBlock(br, qstep);
        ReconstructBlock(recon.y.data(), pad_w_, mx + ox, my + oy, pred[bi],
                         res);
        ++bi;
      }
      const Block res_cb = DecodeBlock(br, qstep);
      ReconstructBlock(recon.cb.data(), cw, cx, cy, pred[4], res_cb);
      const Block res_cr = DecodeBlock(br, qstep);
      ReconstructBlock(recon.cr.data(), cw, cx, cy, pred[5], res_cr);
    }
  }

  ref_ = std::move(recon);
  have_ref_ = true;
  return Yuv420ToRgb(ref_, width_, height_);
}

}  // namespace ff::codec
