#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/check.hpp"
#include "util/env.hpp"

namespace ff::util {

namespace {
// The pool whose ParallelFor the current thread is executing a chunk of, if
// any. Guards against nested dispatch onto an already-saturated pool.
thread_local const ThreadPool* tl_active_pool = nullptr;

// The thread calling ParallelFor runs a chunk too, so one worker fewer than
// the cores keeps every core busy without oversubscribing them.
std::size_t DefaultPoolSize() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = DefaultPoolSize();
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ParallelForRange(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Nested call from inside one of this pool's own chunks: every worker may
  // already be busy on the outer dispatch, so queued sub-tasks could never
  // start. Run inline instead.
  if (tl_active_pool == this) {
    fn(0, n);
    return;
  }
  const std::size_t n_chunks = std::min(n, workers_.size() + 1);
  if (n_chunks <= 1) {
    fn(0, n);
    return;
  }
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  // Ceil rounding can leave trailing chunks with no work (e.g. n = 9 over 8
  // chunks gives chunk = 2 and only 5 non-empty chunks); dispatch only the
  // live ones rather than queueing no-op tasks on the hot path.
  const std::size_t n_live = (n + chunk - 1) / chunk;
  // Chunks are claimed, not assigned: the caller and n_live - 1 submitted
  // helpers each take the next unclaimed chunk until none is left. So the
  // caller never waits on a chunk no thread has started: every worker may
  // be busy or blocked elsewhere (a fleet gather's pull task inside a
  // blocking FrameSource::Next(), or waiting for the fleet lock this caller
  // holds), and the caller then runs the remaining chunks itself. A helper
  // that starts after every chunk is claimed returns at once; it shares
  // ownership of the bookkeeping, which therefore outlives this call, and
  // never touches `fn`.
  struct Shared {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;  // chunks finished, guarded by mu
    std::exception_ptr error;
  };
  const auto shared = std::make_shared<Shared>();
  const auto run_chunks = [this, shared, &fn, n, chunk, n_live] {
    for (;;) {
      const std::size_t c = shared->next.fetch_add(1);
      if (c >= n_live) return;
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      const ThreadPool* prev = tl_active_pool;
      tl_active_pool = this;
      std::exception_ptr error;
      try {
        fn(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      tl_active_pool = prev;
      // Count under the mutex the caller waits on.
      const std::lock_guard<std::mutex> lock(shared->mu);
      if (error && !shared->error) shared->error = error;
      if (++shared->done == n_live) shared->cv.notify_all();
    }
  };
  for (std::size_t c = 0; c + 1 < n_live; ++c) Submit(run_chunks);
  run_chunks();

  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->done == n_live; });
  if (shared->error) std::rethrow_exception(shared->error);
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  ParallelForRange(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& GlobalPool() {
  static ThreadPool pool(static_cast<std::size_t>(EnvInt("FF_NUM_THREADS", 0)));
  return pool;
}

}  // namespace ff::util
