// A fixed-size thread pool with a blocking ParallelFor, plus a bounded
// hand-off queue for passing work to a dedicated long-running thread (such
// threads are deliberately NOT pool workers: one runs for the pipeline's
// whole lifetime and would permanently eat a worker the conv kernels need).
//
// The NN kernels parallelize across output channels / rows through this pool.
// The pool is created once (see GlobalPool) so convolutions do not pay thread
// creation per call. ParallelFor is synchronous: it returns only when every
// index has been processed, which keeps layer semantics simple.
//
// Nested dispatch runs serial: a ParallelFor issued from inside a chunk of a
// ParallelFor on the same pool executes its body inline on the calling
// thread. This makes layered parallelism compose safely — the edge node fans
// out per-tenant microclassifier inference across the pool, and the conv
// kernels inside each tenant (which would otherwise submit to the same,
// fully-occupied pool and deadlock waiting on their own sub-tasks)
// automatically degrade to their serial paths.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace ff::util {

// Bounded blocking hand-off queue between threads (the EdgeFleet's pipeline
// driver hands archive appends to its archive-writer thread through one of
// these). Multi-producer/multi-consumer safe.
//
// Shutdown protocol: Close() wakes every blocked producer and consumer;
// after it, Push returns false (the item is NOT enqueued) and Pop keeps
// returning the items already queued — a closed queue drains, it does not
// drop — then nullopt. This is what gives a pipeline clean drain-on-stop:
// the producer closes, the consumer finishes everything in flight, then
// exits on the first nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    // A zero-capacity queue could never accept an item; fail loudly instead
    // of deadlocking the first Push.
    if (capacity_ == 0) capacity_ = 1;
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Blocks while the queue is full. Returns true once the item is enqueued,
  // false if the queue was closed first (the item is dropped).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    item_cv_.notify_one();
    return true;
  }

  // Blocks while the queue is empty and open. Returns the next item, or
  // nullopt once the queue is closed AND drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    item_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    space_cv_.notify_one();
    return item;
  }

  // Idempotent; wakes every waiter (see the shutdown protocol above).
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable item_cv_;   // signaled on push and close
  std::condition_variable space_cv_;  // signaled on pop and close
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

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
  // worker (plus the calling thread). Exceptions from fn propagate to the
  // caller (first one wins).
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
