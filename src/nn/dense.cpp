#include "nn/dense.hpp"

#include "nn/kernels.hpp"
#include "util/thread_pool.hpp"

namespace ff::nn {

FullyConnected::FullyConnected(std::string name, std::int64_t in_dim,
                               std::int64_t units)
    : ComputeLayer(std::move(name)),
      in_dim_(in_dim),
      units_(units),
      w_(static_cast<std::size_t>(in_dim * units), 0.0f),
      b_(static_cast<std::size_t>(units), 0.0f),
      dw_(w_.size(), 0.0f),
      db_(b_.size(), 0.0f) {
  FF_CHECK_GT(in_dim, 0);
  FF_CHECK_GT(units, 0);
}

Shape FullyConnected::OutputShape(const Shape& in) const {
  FF_CHECK_MSG(in.per_image() == in_dim_,
               name() << ": expected flat dim " << in_dim_ << ", got "
                      << in.per_image() << " from " << in);
  return Shape{in.n, units_, 1, 1};
}

void FullyConnected::ForwardInto(const TensorView& in, Tensor& out,
                                 FusedAct act) {
  out.Reset(OutputShape(in.shape()));
  // The dot products need each image as one dense run; views arriving here
  // are virtually always dense already (FCs follow materializing layers).
  Tensor staged;
  if (!in.contiguous()) staged = in.Materialize();
  const float* flat = in.contiguous() ? in.data() : staged.data();
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    const float* x = flat + n * in.shape().per_image();
    float* y = out.plane(n, 0);
    auto compute_units = [&](std::int64_t u0, std::int64_t u1) {
      for (std::int64_t u = u0; u < u1; ++u) {
        const float* wrow = &w_[static_cast<std::size_t>(u * in_dim_)];
        y[u] = static_cast<float>(b_[static_cast<std::size_t>(u)] +
                                  kernels::Dot(wrow, x, in_dim_));
      }
      ApplyAct(act, y + u0, u1 - u0);
    };
    // The MC heads are tiny (200x1); dispatching those to the pool costs
    // more than the dot products themselves.
    if (kernels::WorthParallel(2 * units_ * in_dim_)) {
      util::GlobalPool().ParallelForRange(
          static_cast<std::size_t>(units_), [&](std::size_t b, std::size_t e) {
            compute_units(static_cast<std::int64_t>(b),
                          static_cast<std::int64_t>(e));
          });
    } else {
      compute_units(0, units_);
    }
  }
  if (training_) saved_in_ = in.contiguous() ? in.Materialize()
                                             : std::move(staged);
}

Tensor FullyConnected::Backward(const Tensor& grad_out) {
  FF_CHECK_MSG(!saved_in_.empty(),
               name() << ": Backward without a training-mode Forward");
  const Tensor& in = saved_in_;
  FF_CHECK(grad_out.shape() == OutputShape(in.shape()));
  Tensor grad_in(in.shape());
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    const float* x = in.plane(n, 0);
    const float* g = grad_out.plane(n, 0);
    float* dx = grad_in.plane(n, 0);
    for (std::int64_t u = 0; u < units_; ++u) {
      const float gu = g[u];
      db_[static_cast<std::size_t>(u)] += gu;
      float* dwrow = &dw_[static_cast<std::size_t>(u * in_dim_)];
      const float* wrow = &w_[static_cast<std::size_t>(u * in_dim_)];
      for (std::int64_t i = 0; i < in_dim_; ++i) {
        dwrow[i] += gu * x[i];
        dx[i] += gu * wrow[i];
      }
    }
  }
  return grad_in;
}

std::vector<ParamView> FullyConnected::Params() {
  return {{name() + "/weight", &w_, &dw_}, {name() + "/bias", &b_, &db_}};
}

std::uint64_t FullyConnected::Macs(const Shape& in) const {
  // Paper §4.5: N * H * W * M == units * flattened input size.
  return static_cast<std::uint64_t>(units_) *
         static_cast<std::uint64_t>(in.per_image());
}

}  // namespace ff::nn
