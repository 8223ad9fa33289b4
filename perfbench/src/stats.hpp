// Small statistics helpers shared by the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
// Infinite samples (results that never arrived) sort last.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// Peak resident set size of this process in MiB (VmHWM), 0 if unreadable.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// Cumulative (busy, steal) jiffies of all CPUs from /proc/stat. Steal is
// time the hypervisor ran someone else while this VM wanted a CPU; its share
// of a run explains run-to-run spread on a shared host.
struct CpuTimes {
  std::int64_t busy = 0;
  std::int64_t steal = 0;
};
inline CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::int64_t user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0,
               softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal;
  if (!in) return {};
  return {user + nice + sys + irq + softirq, steal};
}

}  // namespace perfbench
