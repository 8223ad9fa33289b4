// A fixed-size thread pool with a blocking ParallelFor. The EdgeFleet's
// pipeline driver is deliberately NOT a pool worker: it runs for the
// pipeline's whole lifetime and would permanently eat a worker the conv
// kernels need. The fleet's gather does use the pool: one task per camera
// source pulled in a round (FrameSource::Next(), i.e. decode), with the
// thread running the turn taking a share itself. A source whose Next()
// blocks holds its worker until it returns, and each pull task then takes
// the fleet lock.
//
// Chunks are claimed, not assigned: the caller and the submitted helpers
// take the next unstarted chunk until none is left, so a ParallelFor never
// waits on a chunk no thread has started. A caller therefore completes even
// while every worker is blocked — e.g. RemoveStream draining a windowed MC
// tail under the fleet lock while the gather's pull tasks wait for that
// lock.
//
// The NN kernels parallelize through this pool at two grains. A trunk batch
// of at least size() + 1 images runs one chunk per image group, each taking
// whole images through every layer (nn::ForEachImageSplit); smaller batches,
// the rest of a split batch and MC forwards split each layer across
// images × output channels. The pool is created once (see GlobalPool) so
// convolutions do not pay thread creation per call. ParallelFor is
// synchronous: it returns only when every index has been processed, which
// keeps layer semantics simple.
//
// Nested dispatch runs serial: a ParallelFor issued from inside a chunk of a
// ParallelFor on the same pool executes its body inline on the calling
// thread. This makes layered parallelism compose safely — the trunk's image
// chunks and the edge node's per-tenant microclassifier fan-out both run
// conv kernels inside a chunk, and those kernels (which would otherwise
// submit to the same, fully-occupied pool and deadlock waiting on their own
// sub-tasks) automatically degrade to their serial paths.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ff::util {

class ThreadPool {
 public:
  // n_threads == 0 means hardware concurrency minus one (at least 1): the
  // thread calling ParallelFor runs a chunk itself, so that many workers
  // fill the cores without oversubscribing them.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n). Work is split into contiguous chunks, one per
  // worker plus one for the calling thread, each run by whichever thread
  // claims it first. Exceptions from fn propagate to the caller (first one
  // wins).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Runs fn(begin, end) over contiguous ranges — cheaper than per-index
  // dispatch when the body is tiny.
  void ParallelForRange(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void WorkerLoop();
  void Submit(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Process-wide pool shared by all NN kernels. Sized from FF_NUM_THREADS if
// set, otherwise like ThreadPool(0).
ThreadPool& GlobalPool();

}  // namespace ff::util
