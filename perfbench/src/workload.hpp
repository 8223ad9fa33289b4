// The benchmark's workloads: synthetic cameras -> core::EdgeFleet ->
// net::UplinkClient over a net::Link -> net::DatacenterIngest, driven through
// the public API the way a deployment drives it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;    // per-layer run (spans on) instead of end-to-end
  bool smoke = false;    // tiny geometry, for the smoke test
  std::string work_dir;  // scratch space (archive packs); created, removed
  std::string trace_out;  // Chrome trace-event JSON (traced runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // output-check failures, for the log
};

// Names accepted by --workload.
const std::vector<std::string>& WorkloadNames();

// Runs one workload end to end and checks its outputs. With opt.trace the
// metrics are the per-layer ones, otherwise the end-to-end ones.
Outcome RunWorkload(const Options& opt);

}  // namespace perfbench
