// Unit tests for ff::util — RNG determinism and distributions, thread pool
// semantics, running statistics, tables, env parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/clock.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ff {
namespace {

TEST(Check, ThrowsCheckErrorWithContext) {
  try {
    FF_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "expected throw";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context 42"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Check, ComparisonMacrosPrintOperands) {
  try {
    const int a = 3, b = 7;
    FF_CHECK_EQ(a, b);
    FAIL() << "expected throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("lhs=3"), std::string::npos);
  }
}

TEST(Pcg32, DeterministicAcrossInstances) {
  util::Pcg32 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(Pcg32, DifferentSeedsDiverge) {
  util::Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU32() == b.NextU32() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformIntCoversRangeInclusive) {
  util::Pcg32 rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values appear
}

TEST(Pcg32, NormalMomentsAreSane) {
  util::Pcg32 rng(99);
  util::RunningStat s;
  for (int i = 0; i < 20000; ++i) s.Add(rng.Normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Pcg32, UniformRespectsBounds) {
  util::Pcg32 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.5, 3.5);
    ASSERT_GE(v, 2.5);
    ASSERT_LT(v, 3.5);
  }
}

TEST(Pcg32, BernoulliFrequencyTracksP) {
  util::Pcg32 rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(HashString, StableAndDistinct) {
  EXPECT_EQ(util::HashString("conv1"), util::HashString("conv1"));
  EXPECT_NE(util::HashString("conv1"), util::HashString("conv2"));
  EXPECT_NE(util::HashString(""), util::HashString("a"));
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForRangeCoversExactly) {
  util::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.ParallelForRange(12345, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<std::int64_t>(e - b));
  });
  EXPECT_EQ(total.load(), 12345);
}

// The caller runs a chunk of every ParallelFor, so a default pool starts one
// worker fewer than the cores (never none).
TEST(ThreadPool, DefaultSizeLeavesACoreForTheCaller) {
  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t want = cores > 1 ? cores - 1 : 1;
  EXPECT_EQ(util::ThreadPool().size(), want);
  if (std::getenv("FF_NUM_THREADS") == nullptr) {
    EXPECT_EQ(util::GlobalPool().size(), want);
  }
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  util::ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](std::size_t i) {
                         if (i == 57) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  util::ThreadPool pool(2);
  try {
    pool.ParallelFor(10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (...) {
  }
  std::atomic<int> n{0};
  pool.ParallelFor(10, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

// A ParallelFor must not wait on chunks no worker has started: with every
// worker blocked until `release`, the caller runs them itself. A caller
// that only waited would hang until the blocked chunks gave up (5 s).
TEST(ThreadPool, CallerRunsChunksWhileEveryWorkerIsBlocked) {
  util::ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int blocked = 0;
  int gave_up = 0;
  bool release = false;
  std::thread occupier([&] {
    pool.ParallelFor(3, [&](std::size_t) {
      std::unique_lock<std::mutex> lk(mu);
      ++blocked;
      cv.notify_all();
      if (!cv.wait_for(lk, std::chrono::seconds(5), [&] { return release; })) {
        ++gave_up;
      }
    });
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                            [&] { return blocked == 3; }));
  }
  std::atomic<int> n{0};
  pool.ParallelFor(8, [&](std::size_t) { n.fetch_add(1); });
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  occupier.join();
  EXPECT_EQ(n.load(), 8);
  EXPECT_EQ(gave_up, 0);
}

// A ParallelForRange issued from inside a chunk of the same pool runs its
// whole range inline, in one call on that chunk's thread. The trunk's image
// split relies on this: each chunk's layer kernels run serially inside it.
TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(3);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 64;
  struct Seen {
    std::thread::id outer;
    std::vector<std::thread::id> inner;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
  };
  std::vector<Seen> seen(kOuter);
  pool.ParallelFor(kOuter, [&](std::size_t c) {
    seen[c].outer = std::this_thread::get_id();
    pool.ParallelForRange(kInner, [&](std::size_t b, std::size_t e) {
      seen[c].inner.push_back(std::this_thread::get_id());
      seen[c].ranges.emplace_back(b, e);
    });
  });
  for (std::size_t c = 0; c < kOuter; ++c) {
    ASSERT_EQ(seen[c].ranges.size(), 1u) << "chunk " << c;
    EXPECT_EQ(seen[c].ranges[0], std::make_pair(std::size_t{0}, kInner));
    EXPECT_EQ(seen[c].inner[0], seen[c].outer) << "chunk " << c;
  }
}

TEST(RunningStat, MeanVarianceMinMax) {
  util::RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStat, PercentileInterpolates) {
  util::RunningStat s;
  for (int i = 1; i <= 5; ++i) s.Add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25), 2.0);
}

TEST(RunningStat, PercentileAfterMoreAddsResorts) {
  util::RunningStat s;
  s.Add(10);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 10.0);
  s.Add(0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.0);
}

TEST(Table, AlignsAndCountsRows) {
  util::Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.5"});
  EXPECT_EQ(t.n_rows(), 2u);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
}

TEST(Table, CsvEmission) {
  util::Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongArity) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), util::CheckError);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(util::Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(util::Table::Num(2.0, 0), "2");
}

TEST(Env, ParsesIntDoubleStringWithFallbacks) {
  ::setenv("FF_TEST_INT", "42", 1);
  ::setenv("FF_TEST_DBL", "2.5", 1);
  ::setenv("FF_TEST_STR", "hello", 1);
  ::setenv("FF_TEST_BAD", "abc", 1);
  EXPECT_EQ(util::EnvInt("FF_TEST_INT", 1), 42);
  EXPECT_DOUBLE_EQ(util::EnvDouble("FF_TEST_DBL", 0.0), 2.5);
  EXPECT_EQ(util::EnvString("FF_TEST_STR", "x"), "hello");
  EXPECT_EQ(util::EnvInt("FF_TEST_BAD", 7), 7);
  EXPECT_EQ(util::EnvInt("FF_TEST_UNSET_XYZ", -3), -3);
}

TEST(FakeClock, StartsAtGivenTimeAndAdvancesExactly) {
  util::FakeClock clock(5'000);
  EXPECT_EQ(clock.NowNs(), 5'000);
  clock.AdvanceNs(250);
  EXPECT_EQ(clock.NowNs(), 5'250);
  clock.AdvanceMs(3);
  EXPECT_EQ(clock.NowNs(), 3'005'250);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 3.00525);
  clock.SetNs(42);
  EXPECT_EQ(clock.NowNs(), 42);
  util::FakeClock fresh;
  EXPECT_EQ(fresh.NowNs(), 0);
}

TEST(WindowedStat, EmptyWindowIsZeroAndPercentileRefuses) {
  util::WindowedStat ws(4);
  EXPECT_EQ(ws.count(), 0);
  EXPECT_EQ(ws.window_count(), 0u);
  EXPECT_DOUBLE_EQ(ws.max(), 0.0);
  EXPECT_DOUBLE_EQ(ws.min(), 0.0);
  EXPECT_DOUBLE_EQ(ws.mean(), 0.0);
  EXPECT_THROW(ws.Percentile(50.0), util::CheckError);
  EXPECT_THROW(util::WindowedStat(0), util::CheckError);
}

TEST(WindowedStat, SingleSampleIsEveryPercentile) {
  util::WindowedStat ws(4);
  ws.Add(7.5);
  EXPECT_DOUBLE_EQ(ws.Percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(ws.Percentile(50.0), 7.5);
  EXPECT_DOUBLE_EQ(ws.Percentile(100.0), 7.5);
  EXPECT_DOUBLE_EQ(ws.max(), 7.5);
  EXPECT_DOUBLE_EQ(ws.min(), 7.5);
}

TEST(WindowedStat, PercentileInterpolatesLikeRunningStat) {
  util::WindowedStat ws(8);
  for (const double x : {10.0, 20.0, 30.0, 40.0}) ws.Add(x);
  // rank = p/100 * (n-1); p50 of {10,20,30,40} -> rank 1.5 -> 25.
  EXPECT_DOUBLE_EQ(ws.Percentile(50.0), 25.0);
  EXPECT_DOUBLE_EQ(ws.Percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(ws.Percentile(100.0), 40.0);
  EXPECT_THROW(ws.Percentile(-1.0), util::CheckError);
  EXPECT_THROW(ws.Percentile(101.0), util::CheckError);
}

TEST(WindowedStat, RingOverwriteForgetsSamplesPastTheWindow) {
  util::WindowedStat ws(3);
  for (const double x : {100.0, 1.0, 2.0, 3.0, 4.0}) ws.Add(x);
  // Window of 3 holds {2, 3, 4}; the 100 spike has aged out, but count()
  // still reports every sample ever added.
  EXPECT_EQ(ws.count(), 5);
  EXPECT_EQ(ws.window_count(), 3u);
  EXPECT_EQ(ws.window(), 3u);
  EXPECT_DOUBLE_EQ(ws.max(), 4.0);
  EXPECT_DOUBLE_EQ(ws.min(), 2.0);
  EXPECT_DOUBLE_EQ(ws.mean(), 3.0);
  EXPECT_DOUBLE_EQ(ws.Percentile(100.0), 4.0);
}

}  // namespace
}  // namespace ff
