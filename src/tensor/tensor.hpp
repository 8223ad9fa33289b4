// Dense float32 NCHW tensor — the single activation/weight currency of the
// engine. Owns its storage (std::vector<float>); copies are explicit via the
// copy constructor, moves are cheap. No views/strides: crops and concats
// materialize, which keeps kernels simple and contiguous.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "tensor/shape.hpp"
#include "util/rng.hpp"

namespace ff::tensor {

// std::allocator whose value-less construct() default-initializes, so
// growing float storage leaves the new elements uninitialized instead of
// zero-filling them. Tensor::Reset relies on this; every other Tensor
// constructor still fills explicitly.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(const Shape& shape, float fill = 0.0f);

  static Tensor FromData(const Shape& shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::int64_t elements() const { return shape_.elements(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  // Element access (checked).
  float& at(std::int64_t n, std::int64_t c, std::int64_t y, std::int64_t x);
  float at(std::int64_t n, std::int64_t c, std::int64_t y, std::int64_t x) const;

  // Pointer to the start of channel plane (n, c) — h*w contiguous floats.
  float* plane(std::int64_t n, std::int64_t c);
  const float* plane(std::int64_t n, std::int64_t c) const;

  void Fill(float v);

  // Re-shapes in place for a caller that overwrites every element: the
  // storage is kept when it can hold `shape` (never shrunk), else replaced.
  // Element values are unspecified afterwards. This is what lets a forward
  // pass recycle activation buffers (Sequential) without an allocation or a
  // zero-fill per layer.
  void Reset(const Shape& shape);

  // Fills with N(0, stddev) noise from `rng`.
  void FillNormal(util::Pcg32& rng, float stddev);

  // Fills with U[lo, hi) noise from `rng`.
  void FillUniform(util::Pcg32& rng, float lo, float hi);

  // --- Shape manipulation (all materialize a fresh tensor) ---

  // Spatial crop: keeps rows [r.y0, r.y1) and cols [r.x0, r.x1) of every
  // channel. This is the feature-map crop of paper §3.2.
  Tensor CropHW(const Rect& r) const;

  // Concatenates along the channel axis; all inputs must share n/h/w.
  static Tensor ConcatChannels(std::span<const Tensor* const> parts);

  // Extracts image `n` as a batch-1 tensor.
  Tensor Slice(std::int64_t n) const;

  // Stacks batch-1 tensors into one batch.
  static Tensor Stack(std::span<const Tensor* const> images);

  // Returns a reshaped copy with identical data (element count must match).
  Tensor Reshaped(const Shape& s) const;

  // --- Reductions / comparisons (test and debug helpers) ---
  float MaxAbs() const;
  float Min() const;
  float Max() const;
  double Sum() const;
  double Mean() const;

  // Largest absolute elementwise difference; shapes must match.
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);
  static bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

 private:
  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace ff::tensor
