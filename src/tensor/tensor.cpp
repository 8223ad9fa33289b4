#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>

namespace ff::tensor {

Tensor::Tensor(const Shape& shape, float fill)
    : shape_(shape),
      data_(static_cast<std::size_t>(shape.elements()), fill) {}

Tensor Tensor::FromData(const Shape& shape, std::vector<float> data) {
  FF_CHECK_EQ(shape.elements(), static_cast<std::int64_t>(data.size()));
  Tensor t;
  t.shape_ = shape;
  t.data_.assign(data.begin(), data.end());
  return t;
}

float& Tensor::at(std::int64_t n, std::int64_t c, std::int64_t y,
                  std::int64_t x) {
  FF_CHECK(n >= 0 && n < shape_.n && c >= 0 && c < shape_.c && y >= 0 &&
           y < shape_.h && x >= 0 && x < shape_.w);
  return data_[static_cast<std::size_t>(
      ((n * shape_.c + c) * shape_.h + y) * shape_.w + x)];
}

float Tensor::at(std::int64_t n, std::int64_t c, std::int64_t y,
                 std::int64_t x) const {
  return const_cast<Tensor*>(this)->at(n, c, y, x);
}

float* Tensor::plane(std::int64_t n, std::int64_t c) {
  FF_CHECK(n >= 0 && n < shape_.n && c >= 0 && c < shape_.c);
  return data_.data() +
         static_cast<std::size_t>((n * shape_.c + c) * shape_.plane());
}

const float* Tensor::plane(std::int64_t n, std::int64_t c) const {
  return const_cast<Tensor*>(this)->plane(n, c);
}

void Tensor::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::Reset(const Shape& shape) {
  const auto n = static_cast<std::size_t>(shape.elements());
  // Free before reallocating so the old and new storage never coexist.
  if (n > data_.capacity()) decltype(data_)().swap(data_);
  data_.resize(n);
  shape_ = shape;
}

void Tensor::FillNormal(util::Pcg32& rng, float stddev) {
  for (auto& v : data_) v = static_cast<float>(rng.Normal(0.0, stddev));
}

void Tensor::FillUniform(util::Pcg32& rng, float lo, float hi) {
  for (auto& v : data_) v = static_cast<float>(rng.Uniform(lo, hi));
}

Tensor Tensor::CropHW(const Rect& r) const {
  FF_CHECK_MSG(r.y0 >= 0 && r.x0 >= 0 && r.y1 <= shape_.h && r.x1 <= shape_.w &&
                   !r.empty(),
               "crop " << r.ToString() << " out of range for " << shape_);
  Tensor out(Shape{shape_.n, shape_.c, r.height(), r.width()});
  for (std::int64_t n = 0; n < shape_.n; ++n) {
    for (std::int64_t c = 0; c < shape_.c; ++c) {
      const float* src = plane(n, c);
      float* dst = out.plane(n, c);
      for (std::int64_t y = 0; y < r.height(); ++y) {
        std::memcpy(dst + y * r.width(), src + (r.y0 + y) * shape_.w + r.x0,
                    static_cast<std::size_t>(r.width()) * sizeof(float));
      }
    }
  }
  return out;
}

Tensor Tensor::ConcatChannels(std::span<const Tensor* const> parts) {
  FF_CHECK(!parts.empty());
  const Shape& first = parts[0]->shape();
  std::int64_t total_c = 0;
  for (const Tensor* p : parts) {
    FF_CHECK_EQ(p->shape().n, first.n);
    FF_CHECK_EQ(p->shape().h, first.h);
    FF_CHECK_EQ(p->shape().w, first.w);
    total_c += p->shape().c;
  }
  Tensor out(Shape{first.n, total_c, first.h, first.w});
  for (std::int64_t n = 0; n < first.n; ++n) {
    std::int64_t c_off = 0;
    for (const Tensor* p : parts) {
      const std::size_t bytes = static_cast<std::size_t>(p->shape().per_image()) *
                                sizeof(float);
      std::memcpy(out.plane(n, c_off), p->plane(n, 0), bytes);
      c_off += p->shape().c;
    }
  }
  return out;
}

Tensor Tensor::Slice(std::int64_t n) const {
  FF_CHECK(n >= 0 && n < shape_.n);
  Tensor out(Shape{1, shape_.c, shape_.h, shape_.w});
  std::memcpy(out.data(), plane(n, 0),
              static_cast<std::size_t>(shape_.per_image()) * sizeof(float));
  return out;
}

Tensor Tensor::Stack(std::span<const Tensor* const> images) {
  FF_CHECK(!images.empty());
  const Shape& first = images[0]->shape();
  FF_CHECK_EQ(first.n, 1);
  Tensor out(Shape{static_cast<std::int64_t>(images.size()), first.c, first.h,
                   first.w});
  for (std::size_t i = 0; i < images.size(); ++i) {
    FF_CHECK(images[i]->shape() == first);
    std::memcpy(out.plane(static_cast<std::int64_t>(i), 0), images[i]->data(),
                static_cast<std::size_t>(first.per_image()) * sizeof(float));
  }
  return out;
}

Tensor Tensor::Reshaped(const Shape& s) const {
  FF_CHECK_EQ(s.elements(), shape_.elements());
  Tensor out;
  out.shape_ = s;
  out.data_ = data_;
  return out;
}

float Tensor::MaxAbs() const {
  float m = 0.0f;
  for (const float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::Min() const {
  FF_CHECK(!data_.empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::Max() const {
  FF_CHECK(!data_.empty());
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::Sum() const {
  double s = 0.0;
  for (const float v : data_) s += v;
  return s;
}

double Tensor::Mean() const {
  if (data_.empty()) return 0.0;
  return Sum() / static_cast<double>(data_.size());
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  FF_CHECK(a.shape() == b.shape());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

bool Tensor::AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  return MaxAbsDiff(a, b) <= atol;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  return os << "Tensor" << t.shape();
}

}  // namespace ff::tensor
