// End-to-end and per-layer benchmark of the FilterForward reproduction:
// camera capture -> edge fleet -> WAN uplink -> datacenter clip.
//
//   ff_perfbench --workload <mixed_wall|lossy_wan|overlap_int8> --seed <n>
//                --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
//                [--trace-out <file.json>] [--commit <sha>]
//
// Prints a stamp line, a human-readable report, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics (plus a Chrome trace file)
// with --trace 1. Exits non-zero when the output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "nn/kernels.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ff_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>] "
               "[--trace-out <file>] [--commit <sha>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = argv[++i];
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else if (a == "--commit") {
      commit = argv[++i];
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const auto& w : perfbench::WorkloadNames()) known |= w == opt.workload;
  if (!known) return Usage("unknown --workload");
  if (!(opt.seconds > 0) || opt.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }
  if (opt.work_dir.empty()) opt.work_dir = ".";
  std::filesystem::create_directories(opt.work_dir);
  // The pool's workers plus the thread that calls ParallelFor should match
  // the cores. The library's default (one worker per core) oversubscribes by
  // one, and every straggling worker then stalls a whole batch's barrier.
  if (std::getenv("FF_NUM_THREADS") == nullptr) {
    const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
    setenv("FF_NUM_THREADS", std::to_string(cores - 1).c_str(), 0);
  }

  std::printf("stamp: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "nproc=%u pool_threads=%zu isa=%s commit=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0,
              std::thread::hardware_concurrency(),
              ff::util::GlobalPool().size() + 1,
              ff::nn::kernels::IsaName(ff::nn::kernels::ActiveIsa()),
              commit.c_str());

  perfbench::Outcome out;
  try {
    out = perfbench::RunWorkload(opt);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
  for (const auto& p : out.problems) std::printf("check failed: %s\n", p.c_str());
  for (const auto& m : out.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
