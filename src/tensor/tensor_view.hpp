// Non-owning, read-only view of NCHW float32 data: a shape plus strides over
// borrowed storage. Views are what make feature-map taps and spatial crops
// zero-copy (paper §3.2: every MC crops the *shared* feature map — with
// views, "crop" is pointer arithmetic, not a per-tenant allocation).
//
// Invariants kept deliberately narrow so kernels stay simple:
//  * the innermost (w) axis is always contiguous — a view row is a plain
//    `const float*` run of `shape().w` floats;
//  * rows within a plane are `row_stride()` floats apart;
//  * a view never owns storage. The viewed Tensor must outlive it
//    (see tensor_view_test.cpp's aliasing/lifetime tests).
#pragma once

#include "tensor/tensor.hpp"

namespace ff::tensor {

class TensorView {
 public:
  TensorView() = default;

  // Whole-tensor view; implicit so owning Tensors flow into view-accepting
  // forward paths unchanged.
  TensorView(const Tensor& t);  // NOLINT(google-explicit-constructor)

  // Narrowed view of rows [r.y0, r.y1) x cols [r.x0, r.x1) of every channel:
  // the zero-copy counterpart of Tensor::CropHW.
  TensorView CropHW(const Rect& r) const;

  // Batch-image `n` as a batch-1 view: the zero-copy counterpart of
  // Tensor::Slice (the batched Submit path feeds each frame's slice of the
  // shared feature maps to the MCs through this).
  TensorView Image(std::int64_t n) const;

  // First `n` batch images as an (n, C, H, W) view. The EdgeFleet's batch
  // buckets allocate one staging tensor at full batch width and hand the
  // filled prefix to the base DNN through this, so a partial batch never
  // reallocates the staging storage.
  TensorView Prefix(std::int64_t n) const;

  // Batch images [begin, end) as an (end - begin, C, H, W) view. The
  // image-parallel trunk forward (nn::ForEachImageSplit) hands each pool
  // chunk its images through this.
  TensorView Images(std::int64_t begin, std::int64_t end) const;

  const Shape& shape() const { return shape_; }
  std::int64_t elements() const { return shape_.elements(); }
  bool empty() const { return base_ == nullptr || shape_.elements() == 0; }

  // Distance in floats between vertically adjacent rows of one plane.
  std::int64_t row_stride() const { return sh_; }

  // True when the h*w floats of every (n, c) plane are contiguous.
  bool plane_contiguous() const { return sh_ == shape_.w; }
  // True when the whole view is one dense NCHW block.
  bool contiguous() const {
    return plane_contiguous() && sc_ == shape_.h * sh_ &&
           sn_ == shape_.c * sc_;
  }

  // Start of plane (n, c); rows are row_stride() apart, columns contiguous.
  const float* plane(std::int64_t n, std::int64_t c) const;
  const float* row(std::int64_t n, std::int64_t c, std::int64_t y) const {
    return plane(n, c) + y * sh_;
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t y,
           std::int64_t x) const;

  // Flat pointer to the first element; requires contiguous().
  const float* data() const;

  // Owning dense copy (optionally reshaped; element counts must match).
  Tensor Materialize() const;
  Tensor Materialize(const Shape& as) const;

 private:
  const float* base_ = nullptr;
  Shape shape_{0, 0, 0, 0};
  std::int64_t sn_ = 0, sc_ = 0, sh_ = 0;  // w-stride is always 1
};

}  // namespace ff::tensor
