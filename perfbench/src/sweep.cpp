#include "sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>

#include "dnn/mobilenet.hpp"
#include "nn/quantize.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

template <typename Fn>
double BestMs(int reps, Fn fn) {
  fn();  // warm: first-touch allocations and pool wake-up stay untimed
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = NowNs();
    fn();
    best = std::min(best, static_cast<double>(NowNs() - t0) / 1e6);
  }
  return best;
}

}  // namespace

std::string MetricUnitName(const std::string& unit) {
  std::string out = unit;
  std::replace(out.begin(), out.end(), '/', '.');
  return out;
}

std::vector<UnitTiming> SweepTrunk(ff::nn::Sequential& net,
                                   const ff::nn::Tensor& batch, int reps) {
  const ff::nn::Shape& in = batch.shape();
  std::map<std::string, std::uint64_t> layer_macs;
  for (const auto& c :
       net.CostTrace(ff::nn::Shape{1, in.c, in.h, in.w})) {
    layer_macs[c.name] = c.macs;
  }

  std::vector<UnitTiming> units;
  ff::nn::Tensor x = batch;
  for (const std::string& unit : ff::dnn::MobileNetTapNames()) {
    UnitTiming u;
    u.unit = unit;
    const std::size_t slash = unit.rfind('/');
    u.kind = slash == std::string::npos ? "conv" : unit.substr(slash + 1);
    u.macs = layer_macs.at(unit + "/conv") * static_cast<std::uint64_t>(in.n);
    const std::size_t begin = net.IndexOf(unit + "/conv");
    const std::size_t end = net.IndexOf(unit) + 1;
    ff::nn::Tensor y;
    u.f32_ms = BestMs(reps, [&] {
      Span s("Sequential::ForwardRange");
      y = net.ForwardRange(x, begin, end);
    });
    x = std::move(y);
    units.push_back(std::move(u));
  }

  // Prefix k runs units 1..k; unit k costs prefix(k) - prefix(k-1). The
  // prefixes are timed round-robin, rep by rep, so drift in machine speed
  // lands on every prefix alike instead of on whichever ran last.
  const ff::nn::QuantizedProgram prog = ff::nn::Quantizer::Quantize(net, batch);
  std::vector<double> prefix(units.size(), std::numeric_limits<double>::infinity());
  for (int r = 0; r <= reps; ++r) {
    for (std::size_t k = 0; k < units.size(); ++k) {
      const std::set<std::string> taps = {units[k].unit};
      const std::int64_t t0 = NowNs();
      {
        Span s("QuantizedProgram::ForwardWithTaps");
        (void)prog.ForwardWithTaps(batch, taps);
      }
      // Rep 0 warms every prefix and is not timed.
      if (r > 0) prefix[k] = std::min(prefix[k], static_cast<double>(NowNs() - t0) / 1e6);
    }
  }
  for (std::size_t k = 0; k < units.size(); ++k) {
    units[k].i8_ms = prefix[k] - (k == 0 ? 0.0 : prefix[k - 1]);
  }
  return units;
}

void PrintSweep(const std::vector<UnitTiming>& units) {
  auto gmacs = [](std::uint64_t macs, double ms) {
    return ms > 0 ? static_cast<double>(macs) / (ms * 1e6) : 0.0;
  };
  // Median throughput per (kind, precision): the reference for cliffs.
  std::map<std::pair<std::string, bool>, std::vector<double>> by_kind;
  for (const UnitTiming& u : units) {
    by_kind[{u.kind, false}].push_back(gmacs(u.macs, u.f32_ms));
    by_kind[{u.kind, true}].push_back(gmacs(u.macs, u.i8_ms));
  }
  std::map<std::pair<std::string, bool>, double> median;
  for (const auto& [k, v] : by_kind) median[k] = Median(v);

  std::printf("trunk sweep (per batch)      %10s %9s   %10s %9s\n", "f32 ms",
              "GMAC/s", "i8 ms", "GMAC/s");
  std::vector<std::string> cliffs;
  for (const UnitTiming& u : units) {
    const double gf = gmacs(u.macs, u.f32_ms);
    const double gi = gmacs(u.macs, u.i8_ms);
    const bool cf = gf < median[{u.kind, false}] / 3;
    const bool ci = gi < median[{u.kind, true}] / 3;
    std::printf("  %-26s %10.3f %9.2f%s %10.3f %9.2f%s\n", u.unit.c_str(),
                u.f32_ms, gf, cf ? "!" : " ", u.i8_ms, gi, ci ? "!" : " ");
    if (cf) cliffs.push_back(u.unit + " f32");
    if (ci) cliffs.push_back(u.unit + " i8");
  }
  std::printf("  cliffs (GMAC/s < 1/3 of its kind's median):");
  if (cliffs.empty()) std::printf(" none");
  for (const auto& c : cliffs) std::printf(" [%s]", c.c_str());
  std::printf("\n");
}

}  // namespace perfbench
