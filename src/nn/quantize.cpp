#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/dense.hpp"
#include "nn/kernels.hpp"
#include "util/check.hpp"

namespace ff::nn {

namespace {

// Dense u8 NCHW activation buffer — the int8 twin of Tensor.
struct QTensor {
  Shape shape{0, 0, 0, 0};
  std::vector<std::uint8_t> data;

  explicit QTensor(const Shape& s)
      : shape(s), data(static_cast<std::size_t>(s.elements())) {}

  std::int64_t plane_size() const { return shape.h * shape.w; }
  std::uint8_t* plane(std::int64_t n, std::int64_t c) {
    return data.data() + (n * shape.c + c) * plane_size();
  }
  const std::uint8_t* plane(std::int64_t n, std::int64_t c) const {
    return data.data() + (n * shape.c + c) * plane_size();
  }
};

ActQuant ActQuantFromStats(float absmax, float min) {
  ActQuant q;
  const bool is_signed = min < 0.0f;
  q.zero_point = is_signed ? 128 : 0;
  if (absmax <= 0.0f || !std::isfinite(absmax)) {
    q.scale = 1.0f;
  } else {
    q.scale = is_signed ? absmax / 127.0f : absmax / 255.0f;
  }
  return q;
}

QTensor QuantizeInput(const TensorView& in, const ActQuant& q) {
  QTensor out(in.shape());
  const float inv = 1.0f / q.scale;
  const auto zp = static_cast<float>(q.zero_point);
  const std::int64_t h = in.shape().h, w = in.shape().w;
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    for (std::int64_t c = 0; c < in.shape().c; ++c) {
      std::uint8_t* op = out.plane(n, c);
      if (in.plane_contiguous()) {
        kernels::QQuant(in.plane(n, c), inv, zp, op, h * w);
      } else {
        for (std::int64_t y = 0; y < h; ++y) {
          kernels::QQuant(in.row(n, c, y), inv, zp, op + y * w, w);
        }
      }
    }
  }
  return out;
}

// Dequantizes every element of `in` into `out`, which has room for them.
void DequantizeInto(const QTensor& in, const ActQuant& q, float* out) {
  kernels::QDequant(in.data.data(), q.scale, q.zero_point, out,
                    in.shape.elements());
}

// Copies the input planes of image `n` into a zero-point-padded buffer of
// `ph` x `pw` per channel, so KxK taps never special-case borders: a padded
// byte equal to zp is exactly the u8 encoding of float 0. The padded extent
// may also crop the input (floor-mode geometry discards edge rows/cols).
void PadImage(const QTensor& in, std::int64_t n, std::int64_t zp,
              std::int64_t ph, std::int64_t pw, std::int64_t pad_y,
              std::int64_t pad_x, std::vector<std::uint8_t>& padded) {
  const std::int64_t ih = in.shape.h, iw = in.shape.w;
  // +32 slack bytes: the stride-2 SIMD taps load whole 2n-byte spans whose
  // final odd byte can sit one past the last row (the value is discarded).
  padded.assign(static_cast<std::size_t>(in.shape.c * ph * pw + 32),
                static_cast<std::uint8_t>(zp));
  const std::int64_t copy_w = std::min(iw, pw - pad_x);
  for (std::int64_t c = 0; c < in.shape.c; ++c) {
    const std::uint8_t* ip = in.plane(n, c);
    std::uint8_t* pp = padded.data() + c * ph * pw;
    for (std::int64_t y = 0; y < ph; ++y) {
      const std::int64_t sy = y - pad_y;
      if (sy < 0 || sy >= ih) continue;
      std::memcpy(pp + y * pw + pad_x, ip + sy * iw,
                  static_cast<std::size_t>(copy_w));
    }
  }
}

// Accumulates one KxK weight tap over the padded plane; stride 1 runs
// through the fused-rows kernel, larger strides fall back to an exact
// scalar loop (integer adds are order-free, so this stays bitwise-stable).
void AccumulateTap(std::int32_t w, const std::uint8_t* pplane,
                   std::int64_t pw, std::int64_t ky, std::int64_t kx,
                   std::int64_t stride, std::int32_t* acc, std::int64_t oh,
                   std::int64_t ow) {
  if (w == 0) return;
  const std::uint8_t* base = pplane + ky * pw + kx;
  if (stride == 1) {
    kernels::QAxpyRows(w, base, pw, acc, ow, oh, ow);
    return;
  }
  if (stride == 2) {
    kernels::QAxpyRowsS2(w, base, 2 * pw, acc, ow, oh, ow);
    return;
  }
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::uint8_t* xrow = base + oy * stride * pw;
    std::int32_t* arow = acc + oy * ow;
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      arow[ox] += w * xrow[ox * stride];
    }
  }
}

Shape OpOutputShape(const QuantOp& op, const Shape& in) {
  switch (op.kind) {
    case QuantOp::Kind::kDense:
      FF_CHECK_EQ(in.c * in.h * in.w, op.in_c);
      return Shape{in.n, op.out_c, 1, 1};
    case QuantOp::Kind::kConv:
    case QuantOp::Kind::kDepthwise: {
      FF_CHECK_EQ(in.c, op.in_c);
      const AxisGeometry gy = ComputeAxisGeometry(in.h, op.k, op.stride,
                                                  op.pad);
      const AxisGeometry gx = ComputeAxisGeometry(in.w, op.k, op.stride,
                                                  op.pad);
      return Shape{in.n, op.out_c, gy.out, gx.out};
    }
  }
  FF_CHECK_MSG(false, "bad QuantOp kind");
  return Shape{};
}

std::uint64_t OpMacs(const QuantOp& op, const Shape& out) {
  switch (op.kind) {
    case QuantOp::Kind::kDense:
      return static_cast<std::uint64_t>(op.in_c * op.out_c);
    case QuantOp::Kind::kConv:
      return static_cast<std::uint64_t>(out.h * out.w * op.in_c * op.k *
                                        op.k * op.out_c);
    case QuantOp::Kind::kDepthwise:
      return static_cast<std::uint64_t>(out.h * out.w * op.out_c * op.k *
                                        op.k);
  }
  return 0;
}

QTensor RunOp(const QuantOp& op, const QTensor& in, const ActQuant& in_q) {
  const Shape out_shape = OpOutputShape(op, in.shape);
  QTensor out(out_shape);
  const std::int64_t oh = out_shape.h, ow = out_shape.w;
  const std::int64_t plane = oh * ow;
  const auto flops =
      static_cast<std::int64_t>(2 * OpMacs(op, out_shape)) * in.shape.n;

  if (op.kind == QuantOp::Kind::kDense) {
    const std::int64_t in_dim = op.in_c;
    kernels::ForEachPlaneBlock(
        in.shape.n, op.out_c, flops,
        [&](std::int64_t n, std::int64_t u0, std::int64_t u1) {
          const std::uint8_t* xp = in.plane(n, 0);
          for (std::int64_t u = u0; u < u1; ++u) {
            const std::int32_t acc = kernels::QDot(
                xp, &op.w[static_cast<std::size_t>(u * in_dim)], in_dim);
            kernels::QRequant(&acc, op.rscale[static_cast<std::size_t>(u)],
                              op.rbias[static_cast<std::size_t>(u)],
                              out.plane(n, u), 1);
          }
        });
    return out;
  }

  if (op.kind == QuantOp::Kind::kConv && op.k == 1 && op.stride == 1) {
    // Pointwise fast path: ~75% of the trunk's multiply-adds. Each image is
    // packed into the channel-quad layout once, so every output channel
    // streams pure maddubs+madd with no per-channel byte transpose (the
    // transpose is what bounds qpw_acc2 at trunk-sized planes). The packed
    // kernels are bitwise-identical to the unpacked ones under the pinned
    // pair rule.
    const std::int64_t quads = (op.in_c + 3) / 4;
    std::vector<std::vector<std::uint8_t>> packed(
        static_cast<std::size_t>(in.shape.n));
    std::vector<const std::uint8_t*> xs(static_cast<std::size_t>(op.in_c));
    for (std::int64_t n = 0; n < in.shape.n; ++n) {
      for (std::int64_t ic = 0; ic < op.in_c; ++ic) {
        xs[static_cast<std::size_t>(ic)] = in.plane(n, ic);
      }
      packed[static_cast<std::size_t>(n)].resize(
          static_cast<std::size_t>(quads * 4 * plane));
      kernels::QPwPack(xs.data(), op.in_c,
                       packed[static_cast<std::size_t>(n)].data(), plane);
    }
    kernels::ForEachPlaneBlock(
        in.shape.n, op.out_c, flops,
        [&](std::int64_t n, std::int64_t oc0, std::int64_t oc1) {
          const std::uint8_t* pk =
              packed[static_cast<std::size_t>(n)].data();
          std::vector<std::int32_t> acc0(static_cast<std::size_t>(plane));
          std::vector<std::int32_t> acc1(static_cast<std::size_t>(plane));
          std::int64_t oc = oc0;
          for (; oc + 2 <= oc1; oc += 2) {
            std::fill(acc0.begin(), acc0.end(), 0);
            std::fill(acc1.begin(), acc1.end(), 0);
            kernels::QPwAcc2P(pk, op.in_c,
                              &op.w[static_cast<std::size_t>(oc * op.in_c)],
                              &op.w[static_cast<std::size_t>((oc + 1) *
                                                             op.in_c)],
                              acc0.data(), acc1.data(), plane);
            kernels::QRequant(acc0.data(),
                              op.rscale[static_cast<std::size_t>(oc)],
                              op.rbias[static_cast<std::size_t>(oc)],
                              out.plane(n, oc), plane);
            kernels::QRequant(acc1.data(),
                              op.rscale[static_cast<std::size_t>(oc + 1)],
                              op.rbias[static_cast<std::size_t>(oc + 1)],
                              out.plane(n, oc + 1), plane);
          }
          for (; oc < oc1; ++oc) {
            std::fill(acc0.begin(), acc0.end(), 0);
            kernels::QPwAcc1P(pk, op.in_c,
                              &op.w[static_cast<std::size_t>(oc * op.in_c)],
                              acc0.data(), plane);
            kernels::QRequant(acc0.data(),
                              op.rscale[static_cast<std::size_t>(oc)],
                              op.rbias[static_cast<std::size_t>(oc)],
                              out.plane(n, oc), plane);
          }
        });
    return out;
  }

  // KxK conv / depthwise over a zero-point-padded copy of each image.
  const AxisGeometry gy = ComputeAxisGeometry(in.shape.h, op.k, op.stride,
                                              op.pad);
  const AxisGeometry gx = ComputeAxisGeometry(in.shape.w, op.k, op.stride,
                                              op.pad);
  const std::int64_t ph = (oh - 1) * op.stride + op.k;
  const std::int64_t pw = (ow - 1) * op.stride + op.k;
  std::vector<std::vector<std::uint8_t>> padded(
      static_cast<std::size_t>(in.shape.n));
  for (std::int64_t n = 0; n < in.shape.n; ++n) {
    PadImage(in, n, in_q.zero_point, ph, pw, gy.pad_begin, gx.pad_begin,
             padded[static_cast<std::size_t>(n)]);
  }

  kernels::ForEachPlaneBlock(
      in.shape.n, op.out_c,
      flops, [&](std::int64_t n, std::int64_t oc0, std::int64_t oc1) {
        const std::uint8_t* pimg = padded[static_cast<std::size_t>(n)].data();
        std::vector<std::int32_t> acc(static_cast<std::size_t>(plane));
        for (std::int64_t oc = oc0; oc < oc1; ++oc) {
          std::fill(acc.begin(), acc.end(), 0);
          if (op.kind == QuantOp::Kind::kDepthwise) {
            const std::uint8_t* pplane = pimg + oc * ph * pw;
            const std::int8_t* wrow =
                &op.w[static_cast<std::size_t>(oc * op.k * op.k)];
            for (std::int64_t ky = 0; ky < op.k; ++ky) {
              for (std::int64_t kx = 0; kx < op.k; ++kx) {
                AccumulateTap(wrow[ky * op.k + kx], pplane, pw, ky, kx,
                              op.stride, acc.data(), oh, ow);
              }
            }
          } else {
            for (std::int64_t ic = 0; ic < op.in_c; ++ic) {
              const std::uint8_t* pplane = pimg + ic * ph * pw;
              const std::int8_t* wrow =
                  &op.w[static_cast<std::size_t>((oc * op.in_c + ic) *
                                                 op.k * op.k)];
              for (std::int64_t ky = 0; ky < op.k; ++ky) {
                for (std::int64_t kx = 0; kx < op.k; ++kx) {
                  AccumulateTap(wrow[ky * op.k + kx], pplane, pw, ky, kx,
                                op.stride, acc.data(), oh, ow);
                }
              }
            }
          }
          kernels::QRequant(acc.data(),
                            op.rscale[static_cast<std::size_t>(oc)],
                            op.rbias[static_cast<std::size_t>(oc)],
                            out.plane(n, oc), plane);
        }
      });
  return out;
}

// The fused-op groups of the longest quantizable prefix (the GroupAt rule
// Sequential's float forward follows too), shared by Plan and Quantize.
std::vector<LayerGroup> GroupLayers(const Sequential& net) {
  std::vector<LayerGroup> groups;
  for (std::size_t i = 0; i < net.n_layers();) {
    const std::optional<LayerGroup> g = GroupAt(net, i);
    if (!g) break;
    groups.push_back(*g);
    i = g->end;
  }
  return groups;
}

QuantOp PlanOp(Sequential& net, const LayerGroup& g) {
  QuantOp op;
  Layer& l = net.layer(g.compute);
  op.name = net.layer(g.end - 1).name();
  if (auto* conv = dynamic_cast<Conv2D*>(&l)) {
    op.kind = QuantOp::Kind::kConv;
    op.in_c = conv->in_channels();
    op.out_c = conv->out_channels();
    op.k = conv->kernel();
    op.stride = conv->stride();
    op.pad = conv->padding();
  } else if (auto* dw = dynamic_cast<DepthwiseConv2D*>(&l)) {
    op.kind = QuantOp::Kind::kDepthwise;
    op.in_c = dw->channels();
    op.out_c = dw->channels();
    op.k = dw->kernel();
    op.stride = dw->stride();
    op.pad = dw->padding();
  } else {
    auto* fc = dynamic_cast<FullyConnected*>(&l);
    FF_CHECK(fc != nullptr);
    op.kind = QuantOp::Kind::kDense;
    op.in_c = fc->in_dim();
    op.out_c = fc->units();
  }
  // s32 accumulator headroom: each saturated pair contributes at most
  // ±32767, so the reduction length must stay under 2^31 / 32767 * 2.
  const std::int64_t red = op.kind == QuantOp::Kind::kDense
                               ? op.in_c
                               : op.in_c * op.k * op.k;
  FF_CHECK_MSG(red <= 131072,
               op.name << ": reduction length " << red
                       << " exceeds int8 accumulator headroom");
  op.w.assign(op.WeightCount(), 0);
  op.rscale.assign(static_cast<std::size_t>(op.out_c), 0.0f);
  op.rbias.assign(static_cast<std::size_t>(op.out_c), 0.0f);
  return op;
}

}  // namespace

std::size_t QuantOp::WeightCount() const {
  switch (kind) {
    case Kind::kConv:
      return static_cast<std::size_t>(out_c * in_c * k * k);
    case Kind::kDepthwise:
      return static_cast<std::size_t>(out_c * k * k);
    case Kind::kDense:
      return static_cast<std::size_t>(out_c * in_c);
  }
  return 0;
}

bool QuantizedProgram::Covers(const std::string& name) const {
  for (const auto& op : ops_) {
    if (op.name == name) return true;
  }
  return false;
}

Tensor QuantizedProgram::Forward(const TensorView& in) const {
  FF_CHECK(!ops_.empty());
  QTensor cur = QuantizeInput(in, in_q_);
  const ActQuant* cur_q = &in_q_;
  for (const auto& op : ops_) {
    cur = RunOp(op, cur, *cur_q);
    cur_q = &op.out_q;
  }
  Tensor out;
  out.Reset(cur.shape);
  DequantizeInto(cur, *cur_q, out.data());
  return out;
}

std::map<std::string, Tensor> QuantizedProgram::ForwardWithTaps(
    const TensorView& in, const std::set<std::string>& taps) const {
  FF_CHECK(!ops_.empty());
  std::size_t deepest = 0;
  for (const auto& t : taps) {
    bool found = false;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].name == t) {
        deepest = std::max(deepest, i);
        found = true;
        break;
      }
    }
    FF_CHECK_MSG(found, "tap " << t << " not covered by quantized program");
  }
  // Each tap is allocated for the whole batch once; every run of the image
  // split dequantizes its images straight into it.
  std::map<std::string, Tensor> out;
  Shape s = in.shape();
  for (std::size_t i = 0; i <= deepest; ++i) {
    s = OpOutputShape(ops_[i], s);
    if (taps.count(ops_[i].name) > 0) out[ops_[i].name].Reset(s);
  }
  ForEachImageSplit(in.shape().n, [&](std::size_t, std::int64_t b,
                                      std::int64_t e) {
    QTensor cur = QuantizeInput(in.Images(b, e), in_q_);
    const ActQuant* cur_q = &in_q_;
    for (std::size_t i = 0; i <= deepest; ++i) {
      cur = RunOp(ops_[i], cur, *cur_q);
      cur_q = &ops_[i].out_q;
      const auto tap = out.find(ops_[i].name);
      if (tap != out.end()) {
        DequantizeInto(cur, *cur_q, tap->second.plane(b, 0));
      }
    }
  });
  return out;
}

QuantizedProgram Quantizer::Plan(Sequential& net) {
  const auto groups = GroupLayers(net);
  FF_CHECK_MSG(!groups.empty(),
               net.name() << ": first layer is not quantizable (needs a "
                             "conv/depthwise/dense prefix)");
  QuantizedProgram prog;
  for (const auto& g : groups) {
    prog.ops_.push_back(PlanOp(net, g));
  }
  prog.resume_index_ = groups.back().end;
  return prog;
}

QuantizedProgram Quantizer::Quantize(Sequential& net,
                                     const TensorView& calib) {
  QuantizedProgram prog = Plan(net);
  const auto groups = GroupLayers(net);

  // Activation stats from a float forward over the calibration batch.
  Tensor cur = calib.Materialize();
  prog.in_q_ = ActQuantFromStats(cur.MaxAbs(), cur.Min());
  std::vector<ActQuant> out_q(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = groups[g].compute; i < groups[g].end; ++i) {
      cur = net.layer(i).Forward(cur);
    }
    out_q[g] = ActQuantFromStats(cur.MaxAbs(), cur.Min());
    prog.ops_[g].out_q = out_q[g];
  }

  // Per-output-channel symmetric weight quantization + folded requant
  // parameters (double intermediates; the kernels only ever see the final
  // f32 rscale/rbias).
  const ActQuant* in_q = &prog.in_q_;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    QuantOp& op = prog.ops_[g];
    Layer& l = net.layer(groups[g].compute);
    const std::vector<float>* wf = nullptr;
    const std::vector<float>* bf = nullptr;
    if (auto* conv = dynamic_cast<Conv2D*>(&l)) {
      wf = &conv->weights();
      bf = &conv->bias();
    } else if (auto* dw = dynamic_cast<DepthwiseConv2D*>(&l)) {
      wf = &dw->weights();
      bf = &dw->bias();
    } else {
      auto* fc = dynamic_cast<FullyConnected*>(&l);
      wf = &fc->weights();
      bf = &fc->bias();
    }
    const std::size_t row =
        op.WeightCount() / static_cast<std::size_t>(op.out_c);
    FF_CHECK_EQ(wf->size(), op.WeightCount());
    for (std::int64_t oc = 0; oc < op.out_c; ++oc) {
      const float* wrow = wf->data() + static_cast<std::size_t>(oc) * row;
      float absmax = 0.0f;
      for (std::size_t j = 0; j < row; ++j) {
        absmax = std::max(absmax, std::fabs(wrow[j]));
      }
      const double sw = absmax > 0.0f ? absmax / 127.0 : 1.0;
      std::int8_t* qrow =
          op.w.data() + static_cast<std::size_t>(oc) * row;
      std::int64_t wsum = 0;
      for (std::size_t j = 0; j < row; ++j) {
        const auto q = static_cast<std::int32_t>(
            std::nearbyint(static_cast<double>(wrow[j]) / sw));
        const std::int32_t qc = std::clamp(q, -127, 127);
        qrow[j] = static_cast<std::int8_t>(qc);
        wsum += qc;
      }
      const double rscale = sw * static_cast<double>(in_q->scale) /
                            static_cast<double>(op.out_q.scale);
      const double rbias =
          static_cast<double>((*bf)[static_cast<std::size_t>(oc)]) /
              static_cast<double>(op.out_q.scale) +
          static_cast<double>(op.out_q.zero_point) -
          rscale * static_cast<double>(in_q->zero_point) *
              static_cast<double>(wsum);
      op.rscale[static_cast<std::size_t>(oc)] = static_cast<float>(rscale);
      op.rbias[static_cast<std::size_t>(oc)] = static_cast<float>(rbias);
    }
    in_q = &prog.ops_[g].out_q;
  }
  return prog;
}

}  // namespace ff::nn
