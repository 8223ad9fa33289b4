// Frame sources: the pipeline's input abstraction.
//
// An edge node ingests a camera stream; in this repository a stream is
// either rendered on demand from a synthetic dataset or decoded from a
// codec bitstream (see codec/transcode.hpp).
#pragma once

#include <memory>
#include <optional>

#include "video/dataset.hpp"
#include "video/frame.hpp"

namespace ff::video {

class FrameSource {
 public:
  virtual ~FrameSource() = default;
  // Next frame, or nullopt at end of stream.
  //
  // Threading: Next() is never called twice at once on one source, but
  // successive calls may come from different threads, none of them
  // necessarily the one that constructed it. core::EdgeFleet's gather pulls
  // the sources of one round concurrently, one util::GlobalPool() task per
  // source (a lone pull runs on the thread running the turn), so Next() may
  // run on a pool worker at the same time as OTHER streams' sources — with
  // the fleet lock released in the pipelined schedule, so Push/churn
  // callers are not held up by decode. Implementations therefore need no
  // internal locking, but must not cache thread-local state across calls,
  // and state shared with other sources must be safe for concurrent use.
  // Next() may block: a slow decode stalls the current batch, not the
  // fleet's callers, and holds a pool worker while it blocks. The fleet
  // guarantees the source is not destroyed or Reset() mid-call
  // (RemoveStream waits for an in-flight Next() on that stream to return
  // before the handle dies).
  virtual std::optional<Frame> Next() = 0;
  virtual void Reset() = 0;

  // Stream metadata, 0 = unknown. core::EdgeFleet::AddStream reads these to
  // validate a stream's geometry up front (heterogeneous frame sizes are
  // rejected loudly) instead of discovering a mismatch mid-batch; sources
  // that cannot know their geometry ahead of time may leave them 0 and the
  // caller supplies an explicit StreamConfig.
  virtual std::int64_t width() const { return 0; }
  virtual std::int64_t height() const { return 0; }
  virtual std::int64_t fps() const { return 0; }
};

// Streams frames [begin, end) of a synthetic dataset.
//
// LIFETIME: the reference constructors BORROW the dataset — it must outlive
// this source, or Next() dereferences a dangling reference. Long-lived
// fleet streams should prefer the shared_ptr constructors, which keep the
// dataset alive for the source's lifetime.
class DatasetSource : public FrameSource {
 public:
  // Owning: shares the dataset's lifetime.
  DatasetSource(std::shared_ptr<const SyntheticDataset> dataset,
                std::int64_t begin, std::int64_t end)
      : dataset_(std::move(dataset)), begin_(begin), end_(end), next_(begin) {
    FF_CHECK_MSG(dataset_ != nullptr, "DatasetSource needs a dataset");
    FF_CHECK(begin >= 0 && begin <= end && end <= dataset_->n_frames());
  }
  explicit DatasetSource(std::shared_ptr<const SyntheticDataset> dataset)
      // Delegate with a copy: argument evaluation order is unspecified, so
      // moving here could null the pointer AllFrames reads.
      : DatasetSource(dataset, 0, AllFrames(dataset.get())) {}

  // Non-owning: `dataset` MUST outlive this source (see class comment).
  // The aliasing shared_ptr below never deletes.
  DatasetSource(const SyntheticDataset& dataset, std::int64_t begin,
                std::int64_t end)
      : DatasetSource(
            std::shared_ptr<const SyntheticDataset>(
                std::shared_ptr<const SyntheticDataset>(), &dataset),
            begin, end) {}
  explicit DatasetSource(const SyntheticDataset& dataset)
      : DatasetSource(dataset, 0, dataset.n_frames()) {}

  std::optional<Frame> Next() override {
    if (next_ >= end_) return std::nullopt;
    return dataset_->RenderFrame(next_++);
  }

  void Reset() override { next_ = begin_; }

  std::int64_t width() const override { return dataset_->spec().width; }
  std::int64_t height() const override { return dataset_->spec().height; }
  std::int64_t fps() const override { return dataset_->spec().fps; }

  // Debug hook for the lifetime contract: true when this source SHARES
  // ownership of its dataset (the shared_ptr constructors), false when it
  // merely borrows one (the const& constructors — whose aliasing handle has
  // an empty control block, hence use_count 0). No hook can detect that a
  // borrowed dataset has actually died; FF_CHECK(source.owns_dataset()) is
  // how a long-lived consumer (e.g. a fleet stream) asserts it was handed
  // the safe, owning form.
  bool owns_dataset() const { return dataset_.use_count() > 0; }

 private:
  // The delegating constructors need the frame count before the member
  // exists; keep the null check loud either way.
  static std::int64_t AllFrames(const SyntheticDataset* ds) {
    FF_CHECK_MSG(ds != nullptr, "DatasetSource needs a dataset");
    return ds->n_frames();
  }

  std::shared_ptr<const SyntheticDataset> dataset_;
  std::int64_t begin_, end_, next_;
};

}  // namespace ff::video
