#include "codec/yuv.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ff::codec {

namespace {

// Full-range BT.601 for one pixel; the chroma values stay unrounded until
// their quad is averaged.
struct Ycc {
  std::uint8_t y;
  double cb, cr;
};

Ycc ToYcc(const video::Frame& f, std::int64_t i) {
  const double r = f.r()[i], g = f.g()[i], b = f.b()[i];
  return {RoundToPixel(0.299 * r + 0.587 * g + 0.114 * b),
          128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b,
          128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b};
}

// YCbCr -> RGB. Red and blue depend on (y, one chroma value) only, so each
// is a 64 KiB table of the formula's rounded results. Green depends on all
// three: its two chroma products are tabled and the subtraction runs per
// pixel, in the formula's order.
struct RgbTables {
  std::uint8_t r[256][256];  // [cr][y]
  std::uint8_t b[256][256];  // [cb][y]
  double g_cb[256], g_cr[256];
  RgbTables() {
    for (int c = 0; c < 256; ++c) {
      const double centred = static_cast<double>(c) - 128.0;
      g_cb[c] = 0.344136 * centred;
      g_cr[c] = 0.714136 * centred;
      for (int y = 0; y < 256; ++y) {
        r[c][y] = RoundToPixel(static_cast<double>(y) + 1.402 * centred);
        b[c][y] = RoundToPixel(static_cast<double>(y) + 1.772 * centred);
      }
    }
  }
};

const RgbTables& Tables() {
  static const RgbTables tables;
  return tables;
}

}  // namespace

YuvImage RgbToYuv420(const video::Frame& f, std::int64_t pad_w,
                     std::int64_t pad_h) {
  FF_CHECK(pad_w >= f.width() && pad_h >= f.height());
  FF_CHECK(pad_w % 16 == 0 && pad_h % 16 == 0);
  YuvImage img;
  img.w = pad_w;
  img.h = pad_h;
  img.y.resize(static_cast<std::size_t>(pad_w * pad_h));
  img.cb.resize(static_cast<std::size_t>((pad_w / 2) * (pad_h / 2)));
  img.cr.resize(img.cb.size());

  // One 2x2 quad at a time; the padding replicates the last row and column.
  const std::int64_t cw = pad_w / 2;
  for (std::int64_t cy = 0; cy < pad_h / 2; ++cy) {
    const std::int64_t row0 = std::min(2 * cy, f.height() - 1) * f.width();
    const std::int64_t row1 = std::min(2 * cy + 1, f.height() - 1) * f.width();
    std::uint8_t* y0 = img.y.data() + 2 * cy * pad_w;
    std::uint8_t* y1 = y0 + pad_w;
    for (std::int64_t cx = 0; cx < cw; ++cx) {
      const std::int64_t x0 = std::min(2 * cx, f.width() - 1);
      const std::int64_t x1 = std::min(2 * cx + 1, f.width() - 1);
      const Ycc p00 = ToYcc(f, row0 + x0), p01 = ToYcc(f, row0 + x1);
      const Ycc p10 = ToYcc(f, row1 + x0), p11 = ToYcc(f, row1 + x1);
      y0[2 * cx] = p00.y;
      y0[2 * cx + 1] = p01.y;
      y1[2 * cx] = p10.y;
      y1[2 * cx + 1] = p11.y;
      const auto o = static_cast<std::size_t>(cy * cw + cx);
      img.cb[o] = RoundToPixel((p00.cb + p01.cb + p10.cb + p11.cb) / 4.0);
      img.cr[o] = RoundToPixel((p00.cr + p01.cr + p10.cr + p11.cr) / 4.0);
    }
  }
  return img;
}

video::Frame Yuv420ToRgb(const YuvImage& img, std::int64_t out_w,
                         std::int64_t out_h) {
  FF_CHECK(out_w <= img.w && out_h <= img.h);
  const RgbTables& t = Tables();
  video::Frame f(out_w, out_h);
  const std::int64_t cw = img.chroma_w();
  for (std::int64_t yy = 0; yy < out_h; ++yy) {
    const std::uint8_t* ys = img.y.data() + yy * img.w;
    const std::uint8_t* cbs = img.cb.data() + (yy / 2) * cw;
    const std::uint8_t* crs = img.cr.data() + (yy / 2) * cw;
    std::uint8_t* r = f.r() + yy * out_w;
    std::uint8_t* g = f.g() + yy * out_w;
    std::uint8_t* b = f.b() + yy * out_w;
    for (std::int64_t xx = 0; xx < out_w; ++xx) {
      const std::uint8_t y = ys[xx], cb = cbs[xx / 2], cr = crs[xx / 2];
      r[xx] = t.r[cr][y];
      g[xx] = RoundToPixel(static_cast<double>(y) - t.g_cb[cb] - t.g_cr[cr]);
      b[xx] = t.b[cb][y];
    }
  }
  return f;
}

}  // namespace ff::codec
