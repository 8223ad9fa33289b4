#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>

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
  struct Shared {
    std::atomic<std::size_t> remaining;
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mu;
  } shared;
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  // Ceil rounding can leave trailing chunks with no work (e.g. n = 9 over 8
  // chunks gives chunk = 2 and only 5 non-empty chunks); dispatch only the
  // live ones rather than queueing no-op tasks on the hot path.
  const std::size_t n_live = (n + chunk - 1) / chunk;
  // The calling thread runs the last chunk itself, so only n_live - 1 tasks
  // are submitted to workers.
  shared.remaining.store(n_live - 1);
  auto run_chunk = [&](std::size_t begin, std::size_t end) {
    const ThreadPool* prev = tl_active_pool;
    tl_active_pool = this;
    try {
      fn(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(shared.error_mu);
      if (!shared.error) shared.error = std::current_exception();
    }
    tl_active_pool = prev;
  };

  for (std::size_t c = 0; c + 1 < n_live; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    Submit([&, begin, end] {
      run_chunk(begin, end);
      // Decrement and notify under the mutex: if the decrement happened
      // outside, the waiter could observe remaining == 0, return, and
      // destroy `shared` before this thread touches done_mu/done_cv.
      {
        std::lock_guard<std::mutex> lock(shared.done_mu);
        shared.remaining.fetch_sub(1);
        shared.done_cv.notify_one();
      }
    });
  }
  run_chunk((n_live - 1) * chunk, n);

  std::unique_lock<std::mutex> lock(shared.done_mu);
  shared.done_cv.wait(lock, [&] { return shared.remaining.load() == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
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
