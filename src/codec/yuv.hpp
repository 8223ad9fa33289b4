// BT.601 RGB <-> YCbCr conversion with 4:2:0 chroma subsampling.
//
// Both directions are pinned bit for bit (tests/codec_test.cpp sweeps every
// input triple against the literal formulas): each pixel evaluates the same
// double expressions, in the same order, and rounds with RoundToPixel. The
// codec's sources build with -ffp-contract=off, so no -march flag can fuse
// a multiply-add and move a rounding boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "video/frame.hpp"

namespace ff::codec {

// Rounds half away from zero and saturates to [0, 255]: the value of
// clamp(lround(v), 0, 255), without the libm call. NaN and out-of-range
// inputs saturate before any float-to-int conversion, so a hostile chunk
// cannot reach one that overflows.
template <typename T>
inline std::uint8_t RoundToPixel(T v) {
  if (!(v >= 0)) return 0;
  if (v >= 255) return 255;
  const int i = static_cast<int>(v);  // truncation == floor for v >= 0
  return static_cast<std::uint8_t>(i + (v - static_cast<T>(i) >= T(0.5)));
}

// Planar 4:2:0 image. Luma is w x h; chroma planes are (w/2) x (h/2).
// Dimensions must be even (the codec pads to multiples of 16 before use).
struct YuvImage {
  std::int64_t w = 0, h = 0;
  std::vector<std::uint8_t> y, cb, cr;

  std::int64_t chroma_w() const { return w / 2; }
  std::int64_t chroma_h() const { return h / 2; }
};

// Converts and pads to `pad_w` x `pad_h` (>= frame dims, multiples of 16) by
// replicating edge pixels. Luma is RoundToPixel(0.299 r + 0.587 g +
// 0.114 b). Chroma is the mean of each 2x2 quad's four full-resolution
// values, summed in raster order and divided by 4.0, then rounded.
YuvImage RgbToYuv420(const video::Frame& f, std::int64_t pad_w,
                     std::int64_t pad_h);

// Converts back, cropping to `out_w` x `out_h`; each pixel takes its quad's
// chroma (r = y + 1.402 cr, g = y - 0.344136 cb - 0.714136 cr,
// b = y + 1.772 cb, with cb and cr centred on 128).
video::Frame Yuv420ToRgb(const YuvImage& img, std::int64_t out_w,
                         std::int64_t out_h);

}  // namespace ff::codec
