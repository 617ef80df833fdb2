// The benchmark's own arithmetic: order statistics with sample counts, the
// starved-host rule, and per-layer self time from nested spans. Header-only
// so the self-test exercises exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Quantile p ∈ [0, 1] by linear interpolation between order statistics
/// (Hyndman–Fan type 7, the numpy / Python `statistics` "inclusive"
/// default). NaN for an empty sample.
inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double h = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// A timing as the benchmark reports it: the median, the highest of the
/// fixed percentiles that still has at least kTailBacking samples beyond
/// it, and the sample count. tail_percentile is 0 when even the median is
/// not backed (fewer than 2·kTailBacking samples); tail then repeats the
/// median so the field is always a number.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  int tail_percentile = 0;
  std::size_t count = 0;
};

inline constexpr std::size_t kTailBacking = 10;

inline Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  s.median = quantile(values, 0.5);
  s.tail = s.median;
  for (const int pct : {99, 95, 90, 75, 50}) {
    const double beyond =
        static_cast<double>(values.size()) * (100 - pct) / 100.0;
    if (beyond >= static_cast<double>(kTailBacking)) {
      s.tail_percentile = pct;
      s.tail = quantile(values, pct / 100.0);
      break;
    }
  }
  return s;
}

/// A run whose process CPU per wall second falls below this share of its
/// thread count did not get the cores it asked for. The share sits well
/// under what every workload reaches on a quiet host (≥ 0.85 per thread;
/// the sharded campaign waits on its file writes), so only a starved host
/// trips it.
inline constexpr double kStarvedShare = 0.5;

inline bool starved(double cpu_per_wall, std::size_t threads) {
  return cpu_per_wall < kStarvedShare * static_cast<double>(threads);
}

/// One closed span: what ran, on which thread, for how long, and which
/// span caused it. `name` points at a string literal.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = a root
  std::uint32_t thread = 0;   ///< tracer-assigned thread number
  std::uint64_t stream = 0;   ///< stream instance (sim spans), else 0
  std::uint64_t key = 0;      ///< logical stream key (sim spans), else 0
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;    ///< CPU time of `thread` inside the span
  std::uint64_t piats = 0;    ///< PIATs a collect span returned
};

/// Per-name totals over a span set.
struct LayerTime {
  std::size_t spans = 0;
  double wall_s = 0.0;      ///< Σ span durations
  double self_wall_s = 0.0; ///< Σ (duration − union of children, clipped)
  double cpu_s = 0.0;       ///< Σ span CPU
  double self_cpu_s = 0.0;  ///< Σ (CPU − CPU of same-thread children)
};

/// Self time per span name. Wall self time subtracts the union of the
/// children's intervals clipped to the parent, whatever thread they ran
/// on — a parent waiting on four busy workers has no wall self time. CPU
/// self time subtracts only children on the parent's own thread, because
/// another thread's CPU was never part of the parent's.
inline std::map<std::string, LayerTime> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const auto& s : spans) {
    LayerTime& layer = out[s.name];
    const double wall = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    double covered = 0.0;
    double child_cpu = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) iv.emplace_back(a, b);
        if (c->thread == s.thread) child_cpu += static_cast<double>(c->cpu_ns) * 1e-9;
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t run_a = 0;
      std::int64_t run_b = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= run_b) {
          run_b = std::max(run_b, b);
          continue;
        }
        if (open) covered += static_cast<double>(run_b - run_a) * 1e-9;
        run_a = a;
        run_b = b;
        open = true;
      }
      if (open) covered += static_cast<double>(run_b - run_a) * 1e-9;
    }
    const double cpu = static_cast<double>(s.cpu_ns) * 1e-9;
    layer.spans += 1;
    layer.wall_s += wall;
    layer.self_wall_s += wall - covered;
    layer.cpu_s += cpu;
    layer.self_cpu_s += std::max(0.0, cpu - child_cpu);
  }
  return out;
}

}  // namespace perfbench
