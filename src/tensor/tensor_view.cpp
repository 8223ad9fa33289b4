#include "tensor/tensor_view.hpp"

#include <cstring>

namespace ff::tensor {

TensorView::TensorView(const Tensor& t)
    : base_(t.data()),
      shape_(t.shape()),
      sn_(t.shape().per_image()),
      sc_(t.shape().plane()),
      sh_(t.shape().w) {}

TensorView TensorView::Image(std::int64_t n) const {
  FF_CHECK_MSG(n >= 0 && n < shape_.n,
               "image " << n << " out of range for " << shape_);
  return Images(n, n + 1);
}

TensorView TensorView::Prefix(std::int64_t n) const {
  FF_CHECK_MSG(n >= 1 && n <= shape_.n,
               "prefix of " << n << " images out of range for " << shape_);
  return Images(0, n);
}

TensorView TensorView::Images(std::int64_t begin, std::int64_t end) const {
  FF_CHECK_MSG(begin >= 0 && begin < end && end <= shape_.n,
               "images [" << begin << ", " << end << ") out of range for "
                          << shape_);
  TensorView v = *this;
  v.base_ = base_ + begin * sn_;
  v.shape_.n = end - begin;
  return v;
}

TensorView TensorView::CropHW(const Rect& r) const {
  FF_CHECK_MSG(r.y0 >= 0 && r.x0 >= 0 && r.y1 <= shape_.h &&
                   r.x1 <= shape_.w && !r.empty(),
               "crop " << r.ToString() << " out of range for " << shape_);
  TensorView v = *this;
  v.base_ = base_ + r.y0 * sh_ + r.x0;
  v.shape_.h = r.height();
  v.shape_.w = r.width();
  return v;
}

const float* TensorView::plane(std::int64_t n, std::int64_t c) const {
  FF_CHECK(n >= 0 && n < shape_.n && c >= 0 && c < shape_.c);
  return base_ + n * sn_ + c * sc_;
}

float TensorView::at(std::int64_t n, std::int64_t c, std::int64_t y,
                     std::int64_t x) const {
  FF_CHECK(y >= 0 && y < shape_.h && x >= 0 && x < shape_.w);
  return plane(n, c)[y * sh_ + x];
}

const float* TensorView::data() const {
  FF_CHECK_MSG(contiguous(), "flat access to a non-contiguous view");
  return base_;
}

Tensor TensorView::Materialize() const { return Materialize(shape_); }

Tensor TensorView::Materialize(const Shape& as) const {
  FF_CHECK_EQ(as.elements(), shape_.elements());
  Tensor out(as);
  float* dst = out.data();
  if (contiguous()) {
    std::memcpy(dst, base_,
                static_cast<std::size_t>(shape_.elements()) * sizeof(float));
    return out;
  }
  const std::size_t row_bytes =
      static_cast<std::size_t>(shape_.w) * sizeof(float);
  for (std::int64_t n = 0; n < shape_.n; ++n) {
    for (std::int64_t c = 0; c < shape_.c; ++c) {
      const float* src = plane(n, c);
      for (std::int64_t y = 0; y < shape_.h; ++y) {
        std::memcpy(dst, src + y * sh_, row_bytes);
        dst += shape_.w;
      }
    }
  }
  return out;
}

}  // namespace ff::tensor
