#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>

#include "nn/kernels.hpp"
#include "util/thread_pool.hpp"

namespace ff::nn {

AxisGeometry ComputeAxisGeometry(std::int64_t in, std::int64_t k,
                                 std::int64_t s, Padding pad) {
  FF_CHECK_GT(in, 0);
  FF_CHECK_GT(k, 0);
  FF_CHECK_GT(s, 0);
  AxisGeometry g;
  switch (pad) {
    case Padding::kValid:
      FF_CHECK_MSG(in >= k, "valid conv needs in >= k, in=" << in << " k=" << k);
      g.out = (in - k) / s + 1;
      g.pad_begin = 0;
      break;
    case Padding::kSameCeil: {
      g.out = (in + s - 1) / s;
      const std::int64_t needed = (g.out - 1) * s + k;
      const std::int64_t total = std::max<std::int64_t>(0, needed - in);
      g.pad_begin = total / 2;
      break;
    }
    case Padding::kSameFloor: {
      g.out = in / s;
      FF_CHECK_MSG(g.out > 0, "input " << in << " smaller than stride " << s);
      const std::int64_t needed = (g.out - 1) * s + k;
      const std::int64_t total = std::max<std::int64_t>(0, needed - in);
      g.pad_begin = total / 2;
      break;
    }
  }
  return g;
}

namespace {

// Valid output-x range so that ix = ox*s + kx - pad_x stays inside [0, in_w).
struct XRange {
  std::int64_t lo, hi;  // [lo, hi)
};
XRange ValidX(std::int64_t out_w, std::int64_t in_w, std::int64_t s,
              std::int64_t kx, std::int64_t pad_x) {
  const std::int64_t off = kx - pad_x;
  // ox*s + off >= 0  =>  ox >= ceil(-off / s)
  std::int64_t lo = 0;
  if (off < 0) lo = (-off + s - 1) / s;
  // ox*s + off < in_w  =>  ox <= floor((in_w - 1 - off) / s)
  std::int64_t hi = out_w;
  const std::int64_t max_ix = in_w - 1 - off;
  if (max_ix < 0) {
    hi = 0;
  } else {
    hi = std::min<std::int64_t>(out_w, max_ix / s + 1);
  }
  return {lo, std::max(lo, hi)};
}

// The outputs one (ky, kx) weight tap reaches: `rows` x `n` pixels starting
// at out[y_off], reading in[x_off + r*s*is + i*s]. Valid output rows and
// columns are both contiguous ranges, so one fused row-kernel call covers a
// whole tap.
struct TapWindow {
  std::int64_t x_off, y_off, rows, n;
  bool empty() const { return rows <= 0 || n <= 0; }
};
TapWindow TapFor(std::int64_t ih, std::int64_t iw, std::int64_t is,
                 std::int64_t oh, std::int64_t ow, std::int64_t s,
                 std::int64_t ky, std::int64_t kx, const AxisGeometry& gy,
                 const AxisGeometry& gx) {
  const XRange yr = ValidX(oh, ih, s, ky, gy.pad_begin);
  const XRange xr = ValidX(ow, iw, s, kx, gx.pad_begin);
  return {(yr.lo * s + ky - gy.pad_begin) * is + xr.lo * s + kx - gx.pad_begin,
          yr.lo * ow + xr.lo, yr.hi - yr.lo, xr.hi - xr.lo};
}

// op[t.y_off + r*ow + i] += w * ip[t.x_off + r*s*is + i*s] — one tap of a
// single-output-channel KxK or depthwise conv, one mul then one add per
// output element.
void AccumulateTap(float w, const float* ip, std::int64_t is, float* op,
                   std::int64_t ow, std::int64_t s, const TapWindow& t) {
  const float* x = ip + t.x_off;
  float* y = op + t.y_off;
  if (s == 1) {
    kernels::AxpyRows(w, x, is, y, ow, t.rows, t.n);
  } else if (s == 2) {
    kernels::AxpyRowsS2(w, x, 2 * is, y, ow, t.rows, t.n);
  } else {
    for (std::int64_t r = 0; r < t.rows; ++r) {
      for (std::int64_t i = 0; i < t.n; ++i) {
        y[r * ow + i] += w * x[r * s * is + i * s];
      }
    }
  }
}

using kernels::ForEachPlaneBlock;

}  // namespace

// ---------------------------------------------------------------------------
// Conv2D
// ---------------------------------------------------------------------------

Conv2D::Conv2D(std::string name, std::int64_t in_c, std::int64_t out_c,
               std::int64_t k, std::int64_t stride, Padding pad)
    : ComputeLayer(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      k_(k),
      stride_(stride),
      pad_(pad),
      w_(static_cast<std::size_t>(out_c * in_c * k * k), 0.0f),
      b_(static_cast<std::size_t>(out_c), 0.0f),
      dw_(w_.size(), 0.0f),
      db_(b_.size(), 0.0f) {
  FF_CHECK_GT(in_c, 0);
  FF_CHECK_GT(out_c, 0);
  FF_CHECK_GT(k, 0);
  FF_CHECK_GT(stride, 0);
}

Shape Conv2D::OutputShape(const Shape& in) const {
  FF_CHECK_MSG(in.c == in_c_, name() << ": expected " << in_c_
                                     << " input channels, got " << in.c);
  const AxisGeometry gy = ComputeAxisGeometry(in.h, k_, stride_, pad_);
  const AxisGeometry gx = ComputeAxisGeometry(in.w, k_, stride_, pad_);
  return Shape{in.n, out_c_, gy.out, gx.out};
}

void Conv2D::ForwardInto(const TensorView& in, Tensor& out, FusedAct act) {
  const Shape out_shape = OutputShape(in.shape());
  out.Reset(out_shape);
  const AxisGeometry gy = ComputeAxisGeometry(in.shape().h, k_, stride_, pad_);
  const AxisGeometry gx = ComputeAxisGeometry(in.shape().w, k_, stride_, pad_);
  const std::int64_t ih = in.shape().h, iw = in.shape().w;
  const std::int64_t oh = out_shape.h, ow = out_shape.w;
  const std::int64_t is = in.row_stride();

  // Fast path: 1x1 stride-1 convolution is a sequence of rank-1 (axpy)
  // updates over contiguous runs; blocking 8 output channels per input
  // plane load multiplies arithmetic intensity eightfold. This path carries
  // ~75% of MobileNet's multiply-adds, so it is the one that matters. A
  // dense plane is processed as one h*w run; a strided (cropped-view) plane
  // as h runs of w floats, is apart.
  const bool pointwise = (k_ == 1 && stride_ == 1);
  const std::int64_t n_runs = in.plane_contiguous() ? 1 : ih;
  const std::int64_t run = in.plane_contiguous() ? ih * iw : iw;

  auto compute_oc_block = [&](std::int64_t n, std::int64_t oc0,
                              std::int64_t oc1) {
    for (std::int64_t oc = oc0; oc < oc1; ++oc) {
      kernels::Fill(out.plane(n, oc), oh * ow,
                    b_[static_cast<std::size_t>(oc)]);
    }
    if (pointwise) {
      // Input-plane run pointers gathered once per oc block; the fused PwAcc
      // kernels keep 8 (then 4, then 1) output rows in registers across the
      // whole ic loop.
      std::vector<const float*> xs(
          static_cast<std::size_t>(n_runs * in_c_));
      for (std::int64_t ic = 0; ic < in_c_; ++ic) {
        const float* ipl = in.plane(n, ic);
        for (std::int64_t r = 0; r < n_runs; ++r) {
          xs[static_cast<std::size_t>(r * in_c_ + ic)] = ipl + r * is;
        }
      }
      const std::int64_t plane = oh * ow;
      std::int64_t oc = oc0;
      for (; oc + 8 <= oc1; oc += 8) {
        float* const o = out.plane(n, oc);
        const float* w = &w_[static_cast<std::size_t>(oc * in_c_)];
        for (std::int64_t r = 0; r < n_runs; ++r) {
          kernels::PwAcc8(&xs[static_cast<std::size_t>(r * in_c_)], in_c_, w,
                          in_c_, o + r * run, plane, run);
        }
      }
      for (; oc + 4 <= oc1; oc += 4) {
        float* const o0 = out.plane(n, oc);
        float* const o1 = out.plane(n, oc + 1);
        float* const o2 = out.plane(n, oc + 2);
        float* const o3 = out.plane(n, oc + 3);
        const float* w = &w_[static_cast<std::size_t>(oc * in_c_)];
        for (std::int64_t r = 0; r < n_runs; ++r) {
          kernels::PwAcc4(&xs[static_cast<std::size_t>(r * in_c_)], in_c_, w,
                          in_c_, o0 + r * run, o1 + r * run, o2 + r * run,
                          o3 + r * run, run);
        }
      }
      for (; oc < oc1; ++oc) {
        float* const op = out.plane(n, oc);
        const float* w = &w_[static_cast<std::size_t>(oc * in_c_)];
        for (std::int64_t r = 0; r < n_runs; ++r) {
          kernels::PwAcc1(&xs[static_cast<std::size_t>(r * in_c_)], in_c_, w,
                          op + r * run, run);
        }
      }
      ApplyAct(act, out.plane(n, oc0), (oc1 - oc0) * oh * ow);
      return;
    }
    // General KxK path: scalar weight broadcast over a row axpy, blocked
    // four output channels per input-row load for stride 1 (the inner
    // x-loop is contiguous and runs through the SIMD kernel).
    std::int64_t oc = oc0;
    for (; stride_ == 1 && oc + 4 <= oc1; oc += 4) {
      float* const o0 = out.plane(n, oc);
      float* const o1 = out.plane(n, oc + 1);
      float* const o2 = out.plane(n, oc + 2);
      float* const o3 = out.plane(n, oc + 3);
      for (std::int64_t ic = 0; ic < in_c_; ++ic) {
        const float* ip = in.plane(n, ic);
        const float* wrow =
            &w_[static_cast<std::size_t>((oc * in_c_ + ic) * k_ * k_)];
        const std::int64_t wplane = in_c_ * k_ * k_;
        for (std::int64_t ky = 0; ky < k_; ++ky) {
          for (std::int64_t kx = 0; kx < k_; ++kx) {
            const std::int64_t kidx = ky * k_ + kx;
            const float w4[4] = {wrow[kidx], wrow[wplane + kidx],
                                 wrow[2 * wplane + kidx],
                                 wrow[3 * wplane + kidx]};
            if (w4[0] == 0.0f && w4[1] == 0.0f && w4[2] == 0.0f &&
                w4[3] == 0.0f) {
              continue;
            }
            const TapWindow t = TapFor(ih, iw, is, oh, ow, 1, ky, kx, gy, gx);
            if (t.empty()) continue;
            kernels::Axpy4Rows(w4, ip + t.x_off, is, o0 + t.y_off,
                               o1 + t.y_off, o2 + t.y_off, o3 + t.y_off, ow,
                               t.rows, t.n);
          }
        }
      }
    }
    for (; oc < oc1; ++oc) {
      float* op = out.plane(n, oc);
      for (std::int64_t ic = 0; ic < in_c_; ++ic) {
        const float* ip = in.plane(n, ic);
        const float* wrow =
            &w_[static_cast<std::size_t>((oc * in_c_ + ic) * k_ * k_)];
        for (std::int64_t ky = 0; ky < k_; ++ky) {
          for (std::int64_t kx = 0; kx < k_; ++kx) {
            const float w = wrow[ky * k_ + kx];
            if (w == 0.0f) continue;
            const TapWindow t =
                TapFor(ih, iw, is, oh, ow, stride_, ky, kx, gy, gx);
            if (!t.empty()) AccumulateTap(w, ip, is, op, ow, stride_, t);
          }
        }
      }
    }
    ApplyAct(act, out.plane(n, oc0), (oc1 - oc0) * oh * ow);
  };

  const std::int64_t flops_per_oc = 2 * oh * ow * in_c_ * k_ * k_;
  ForEachPlaneBlock(in.shape().n, out_c_,
                    flops_per_oc * out_c_ * in.shape().n, compute_oc_block);

  if (training_) saved_in_ = in.Materialize();  // copy: needed for dW
}

Tensor Conv2D::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(!saved_in_.empty(),
               name() << ": Backward without a training-mode Forward");
  const Tensor& in = saved_in_;
  const Shape out_shape = OutputShape(in.shape());
  FF_CHECK(grad_out.shape() == out_shape);
  const AxisGeometry gy = ComputeAxisGeometry(in.shape().h, k_, stride_, pad_);
  const AxisGeometry gx = ComputeAxisGeometry(in.shape().w, k_, stride_, pad_);
  const std::int64_t ih = in.shape().h, iw = in.shape().w;
  const std::int64_t oh = out_shape.h, ow = out_shape.w;

  Tensor grad_in(in.shape());

  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    // dB and dW: parallel over output channels (each thread owns oc rows).
    util::GlobalPool().ParallelForRange(
        static_cast<std::size_t>(out_c_), [&](std::size_t b, std::size_t e) {
          for (auto oc = static_cast<std::int64_t>(b);
               oc < static_cast<std::int64_t>(e); ++oc) {
            const float* gp = grad_out.plane(n, oc);
            double gsum = 0;
            for (std::int64_t p = 0; p < oh * ow; ++p) gsum += gp[p];
            db_[static_cast<std::size_t>(oc)] += static_cast<float>(gsum);
            for (std::int64_t ic = 0; ic < in_c_; ++ic) {
              const float* ip = in.plane(n, ic);
              float* dwrow =
                  &dw_[static_cast<std::size_t>((oc * in_c_ + ic) * k_ * k_)];
              for (std::int64_t ky = 0; ky < k_; ++ky) {
                for (std::int64_t kx = 0; kx < k_; ++kx) {
                  const XRange xr = ValidX(ow, iw, stride_, kx, gx.pad_begin);
                  double acc = 0;
                  for (std::int64_t oy = 0; oy < oh; ++oy) {
                    const std::int64_t iy = oy * stride_ + ky - gy.pad_begin;
                    if (iy < 0 || iy >= ih) continue;
                    const float* irow = ip + iy * iw + (kx - gx.pad_begin);
                    const float* grow = gp + oy * ow;
                    for (std::int64_t ox = xr.lo; ox < xr.hi; ++ox) {
                      acc += static_cast<double>(grow[ox]) * irow[ox * stride_];
                    }
                  }
                  dwrow[ky * k_ + kx] += static_cast<float>(acc);
                }
              }
            }
          }
        });

    // dIn: parallel over input channels (each thread owns ic planes).
    util::GlobalPool().ParallelForRange(
        static_cast<std::size_t>(in_c_), [&](std::size_t b, std::size_t e) {
          for (auto ic = static_cast<std::int64_t>(b);
               ic < static_cast<std::int64_t>(e); ++ic) {
            float* dip = grad_in.plane(n, ic);
            for (std::int64_t oc = 0; oc < out_c_; ++oc) {
              const float* gp = grad_out.plane(n, oc);
              const float* wrow =
                  &w_[static_cast<std::size_t>((oc * in_c_ + ic) * k_ * k_)];
              for (std::int64_t ky = 0; ky < k_; ++ky) {
                for (std::int64_t kx = 0; kx < k_; ++kx) {
                  const float w = wrow[ky * k_ + kx];
                  if (w == 0.0f) continue;
                  const XRange xr = ValidX(ow, iw, stride_, kx, gx.pad_begin);
                  for (std::int64_t oy = 0; oy < oh; ++oy) {
                    const std::int64_t iy = oy * stride_ + ky - gy.pad_begin;
                    if (iy < 0 || iy >= ih) continue;
                    float* drow = dip + iy * iw + (kx - gx.pad_begin);
                    const float* grow = gp + oy * ow;
                    for (std::int64_t ox = xr.lo; ox < xr.hi; ++ox) {
                      drow[ox * stride_] += w * grow[ox];
                    }
                  }
                }
              }
            }
          }
        });
  }
  return grad_in;
}

std::vector<ParamView> Conv2D::Params() {
  return {{name() + "/weight", &w_, &dw_}, {name() + "/bias", &b_, &db_}};
}

std::uint64_t Conv2D::Macs(const Shape& in) const {
  const Shape out = OutputShape(in);
  // Paper §4.5: H/S * W/S * M * K^2 * F, with actual output dims.
  return static_cast<std::uint64_t>(out.h * out.w) *
         static_cast<std::uint64_t>(in.c) *
         static_cast<std::uint64_t>(k_ * k_) *
         static_cast<std::uint64_t>(out_c_);
}

// ---------------------------------------------------------------------------
// DepthwiseConv2D
// ---------------------------------------------------------------------------

DepthwiseConv2D::DepthwiseConv2D(std::string name, std::int64_t channels,
                                 std::int64_t k, std::int64_t stride,
                                 Padding pad)
    : ComputeLayer(std::move(name)),
      c_(channels),
      k_(k),
      stride_(stride),
      pad_(pad),
      w_(static_cast<std::size_t>(channels * k * k), 0.0f),
      b_(static_cast<std::size_t>(channels), 0.0f),
      dw_(w_.size(), 0.0f),
      db_(b_.size(), 0.0f) {
  FF_CHECK_GT(channels, 0);
  FF_CHECK_GT(k, 0);
  FF_CHECK_GT(stride, 0);
}

Shape DepthwiseConv2D::OutputShape(const Shape& in) const {
  FF_CHECK_MSG(in.c == c_, name() << ": expected " << c_
                                  << " input channels, got " << in.c);
  const AxisGeometry gy = ComputeAxisGeometry(in.h, k_, stride_, pad_);
  const AxisGeometry gx = ComputeAxisGeometry(in.w, k_, stride_, pad_);
  return Shape{in.n, c_, gy.out, gx.out};
}

void DepthwiseConv2D::ForwardInto(const TensorView& in, Tensor& out,
                                  FusedAct act) {
  const Shape out_shape = OutputShape(in.shape());
  out.Reset(out_shape);
  const AxisGeometry gy = ComputeAxisGeometry(in.shape().h, k_, stride_, pad_);
  const AxisGeometry gx = ComputeAxisGeometry(in.shape().w, k_, stride_, pad_);
  const std::int64_t ih = in.shape().h, iw = in.shape().w;
  const std::int64_t oh = out_shape.h, ow = out_shape.w;
  const std::int64_t is = in.row_stride();

  auto compute_c = [&](std::int64_t n, std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const float* ip = in.plane(n, c);
      float* op = out.plane(n, c);
      kernels::Fill(op, oh * ow, b_[static_cast<std::size_t>(c)]);
      const float* wrow = &w_[static_cast<std::size_t>(c * k_ * k_)];
      for (std::int64_t ky = 0; ky < k_; ++ky) {
        for (std::int64_t kx = 0; kx < k_; ++kx) {
          const TapWindow t =
              TapFor(ih, iw, is, oh, ow, stride_, ky, kx, gy, gx);
          if (!t.empty()) {
            AccumulateTap(wrow[ky * k_ + kx], ip, is, op, ow, stride_, t);
          }
        }
      }
    }
    ApplyAct(act, out.plane(n, c0), (c1 - c0) * oh * ow);
  };

  ForEachPlaneBlock(in.shape().n, c_,
                    2 * oh * ow * k_ * k_ * c_ * in.shape().n, compute_c);
  if (training_) saved_in_ = in.Materialize();
}

Tensor DepthwiseConv2D::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(!saved_in_.empty(),
               name() << ": Backward without a training-mode Forward");
  const Tensor& in = saved_in_;
  const Shape out_shape = OutputShape(in.shape());
  FF_CHECK(grad_out.shape() == out_shape);
  const AxisGeometry gy = ComputeAxisGeometry(in.shape().h, k_, stride_, pad_);
  const AxisGeometry gx = ComputeAxisGeometry(in.shape().w, k_, stride_, pad_);
  const std::int64_t ih = in.shape().h, iw = in.shape().w;
  const std::int64_t oh = out_shape.h, ow = out_shape.w;

  Tensor grad_in(in.shape());
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    util::GlobalPool().ParallelForRange(
        static_cast<std::size_t>(c_), [&](std::size_t b, std::size_t e) {
          for (auto c = static_cast<std::int64_t>(b);
               c < static_cast<std::int64_t>(e); ++c) {
            const float* ip = in.plane(n, c);
            const float* gp = grad_out.plane(n, c);
            float* dip = grad_in.plane(n, c);
            float* dwrow = &dw_[static_cast<std::size_t>(c * k_ * k_)];
            const float* wrow = &w_[static_cast<std::size_t>(c * k_ * k_)];
            double gsum = 0;
            for (std::int64_t p = 0; p < oh * ow; ++p) gsum += gp[p];
            db_[static_cast<std::size_t>(c)] += static_cast<float>(gsum);
            for (std::int64_t ky = 0; ky < k_; ++ky) {
              for (std::int64_t kx = 0; kx < k_; ++kx) {
                const XRange xr = ValidX(ow, iw, stride_, kx, gx.pad_begin);
                const float w = wrow[ky * k_ + kx];
                double acc = 0;
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  const std::int64_t iy = oy * stride_ + ky - gy.pad_begin;
                  if (iy < 0 || iy >= ih) continue;
                  const float* irow = ip + iy * iw + (kx - gx.pad_begin);
                  float* drow = dip + iy * iw + (kx - gx.pad_begin);
                  const float* grow = gp + oy * ow;
                  for (std::int64_t ox = xr.lo; ox < xr.hi; ++ox) {
                    acc += static_cast<double>(grow[ox]) * irow[ox * stride_];
                    drow[ox * stride_] += w * grow[ox];
                  }
                }
                dwrow[ky * k_ + kx] += static_cast<float>(acc);
              }
            }
          }
        });
  }
  return grad_in;
}

std::vector<ParamView> DepthwiseConv2D::Params() {
  return {{name() + "/weight", &w_, &dw_}, {name() + "/bias", &b_, &db_}};
}

std::uint64_t DepthwiseConv2D::Macs(const Shape& in) const {
  const Shape out = OutputShape(in);
  // Depthwise part of the separable-conv formula: H/S * W/S * M * K^2.
  return static_cast<std::uint64_t>(out.h * out.w) *
         static_cast<std::uint64_t>(c_) * static_cast<std::uint64_t>(k_ * k_);
}

}  // namespace ff::nn
