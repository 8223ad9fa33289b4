// Per-unit trunk sweep: every conv+ReLU unit of the MobileNet trunk, conv1
// through conv6/sep, timed in float and int8 at one batch size and frame
// geometry — past every workload's deepest tap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/sequential.hpp"

namespace perfbench {

struct UnitTiming {
  std::string unit;  // tap name, e.g. "conv4_2/sep"
  // Throughput peer group: "conv" (conv1), "dw" or "sep".
  std::string kind;
  std::uint64_t macs = 0;  // per batch
  double f32_ms = 0;
  double i8_ms = 0;
};

// Float units run through Sequential::ForwardRange on the previous unit's
// output; int8 units are the difference between successive
// QuantizedProgram::ForwardWithTaps prefixes (the program is calibrated on
// `batch`). Each timing is the best of `reps`.
std::vector<UnitTiming> SweepTrunk(ff::nn::Sequential& net,
                                   const ff::nn::Tensor& batch, int reps);

// Prints the sweep as a table with GMAC/s beside ms, flagging any unit whose
// throughput falls below a third of the median of its kind (conv1,
// depthwise or pointwise) — the signature of a kernel dropping to a slow
// path.
void PrintSweep(const std::vector<UnitTiming>& units);

// "conv4_2/sep" -> "conv4_2.sep" (metric names allow no '/').
std::string MetricUnitName(const std::string& unit);

}  // namespace perfbench
