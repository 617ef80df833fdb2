// Micro benchmarks: throughput of the hot paths that bound experiment
// wall-clock — the DES event core (old std::function/priority_queue design
// vs the pooled InlineCallback + TimerTask core, on the CIT testbed's event
// pattern), PIAT generation through the full testbed, feature extraction
// (batch extractors vs streaming window accumulators vs the five-feature
// DetectorBank inner loop), the streaming change-point update loop
// (two-sided CUSUM / adaptive-EWMA per-PIAT cost), KDE evaluation, the
// M/G/1 stationary-wait
// sampler, polar normal sampling and the prefix-replay
// curve pipeline (Fig 4(b)'s detection-vs-n workload, one engine run per
// point vs one collapsed run — outcomes asserted bit-identical), plus the
// population axis: thread scaling, process sharding, and the sampled
// execution mode (m-of-M strata with contention pinned at the full M,
// sampled flows asserted bitwise equal to their exhaustive twins), and the
// best-response tuner (candidate evaluations/sec through tune_adversary's
// selection stage, the robust frontier's inner loop).
//
// Emits machine-readable JSON with --json (one object per benchmark plus
// derived headline fields: events/sec speedup, features/sec and curve
// points/sec) so future PRs can track the perf trajectory; the default
// output is a human-readable table. --smoke shrinks every workload for CI.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include <thread>

#include "classify/feature.hpp"
#include "classify/window_accumulator.hpp"
#include "core/experiment.hpp"
#include "core/frontier.hpp"
#include "core/population.hpp"
#include "core/robust_frontier.hpp"
#include "core/scenarios.hpp"
#include "core/shard_io.hpp"
#include "sim/mg1.hpp"
#include "sim/scheduler.hpp"
#include "sim/testbed.hpp"
#include "stats/distributions.hpp"
#include "stats/kde.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace linkpad;

namespace {

// ---------------------------------------------------------------- harness

struct BenchResult {
  std::string name;
  std::string unit;        ///< what "items" counts (events, piats, samples)
  double items_per_sec = 0.0;
  double items = 0.0;
  double wall_s = 0.0;
};

/// Run `body` (returns items processed) repeatedly until `min_time` seconds
/// accumulate; one untimed warmup run first.
template <typename Fn>
BenchResult run_bench(const std::string& name, const std::string& unit,
                      double min_time, Fn&& body) {
  (void)body();  // warmup
  double items = 0.0;
  util::Stopwatch watch;
  do {
    items += static_cast<double>(body());
  } while (watch.elapsed_seconds() < min_time);
  BenchResult result;
  result.name = name;
  result.unit = unit;
  result.wall_s = watch.elapsed_seconds();
  result.items = items;
  result.items_per_sec = items / result.wall_s;
  return result;
}

// ------------------------------------------- legacy event core (pre-slab)

/// The event core this repository shipped with: a priority_queue of
/// {time, seq, std::function} entries. Kept here verbatim as the baseline
/// the refactored sim::Simulation is measured against.
class LegacySimulation {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] Seconds now() const { return now_; }

  void schedule_at(Seconds t, Callback cb) {
    queue_.push(Entry{t, next_seq_++, std::move(cb)});
  }
  void schedule_in(Seconds dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }

  void run_until(Seconds t_end) {
    while (!queue_.empty() && queue_.top().t <= t_end) {
      Entry entry{queue_.top().t, queue_.top().seq,
                  std::move(const_cast<Entry&>(queue_.top()).cb)};
      queue_.pop();
      now_ = entry.t;
      entry.cb();
      ++processed_;
    }
    if (queue_.empty()) return;
    now_ = t_end;
  }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  struct Entry {
    Seconds t;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  Seconds now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

// -------------------------------------- CIT testbed workload (event core)

/// Emission closures in the real gateway capture {this, Packet, emit time}
/// (~56 bytes) — past std::function's inline buffer, inside InlineCallback's.
struct WirePacket {
  std::uint64_t id = 0;
  double created = 0.0;
  double emitted = 0.0;
  int size_bytes = 1000;
  int kind = 1;
};

constexpr Seconds kTau = 10e-3;         // CIT designed interval
constexpr Seconds kEmitDelay = 25e-6;   // gateway jitter stand-in
constexpr Seconds kCbrPeriod = 25e-3;   // 40 pps payload

/// The CIT zero-cross testbed's event mix on the LEGACY core: every timer
/// fire and payload arrival is a fresh closure through the priority queue.
std::uint64_t legacy_cit_events(std::size_t fires) {
  LegacySimulation sim;
  std::uint64_t emitted = 0;

  struct Gateway {
    LegacySimulation& sim;
    std::uint64_t& emitted;
    Seconds next_fire = kTau;
    std::uint64_t seq = 0;
    std::uint64_t pending = 0;  // payload arrivals since last fire

    void fire() {
      WirePacket wire;
      wire.id = seq++;
      wire.kind = pending > 0 ? 1 : 0;
      pending = 0;
      wire.created = sim.now();
      const Seconds emit_time = sim.now() + kEmitDelay;
      sim.schedule_at(emit_time, [this, wire, emit_time]() mutable {
        wire.emitted = emit_time;
        emitted += static_cast<std::uint64_t>(wire.kind != 0) + 1;
      });
      next_fire += kTau;
      sim.schedule_at(next_fire, [this] { fire(); });
    }
  } gateway{sim, emitted};

  struct Source {
    LegacySimulation& sim;
    Gateway& gateway;
    void emit() {
      ++gateway.pending;
      sim.schedule_in(kCbrPeriod, [this] { emit(); });
    }
  } source{sim, gateway};

  sim.schedule_at(kTau, [&gateway] { gateway.fire(); });
  sim.schedule_in(kCbrPeriod / 2, [&source] { source.emit(); });
  sim.run_until(static_cast<Seconds>(fires) * kTau);
  return sim.events_processed();
}

/// Same workload on the refactored core: gateway timer and CBR source ride
/// the TimerTask fast path, the emission closure lives in the slab pool.
std::uint64_t pooled_cit_events(std::size_t fires) {
  sim::Simulation sim;
  std::uint64_t emitted = 0;

  struct Gateway final : sim::TimerTask {
    sim::Simulation& sim;
    std::uint64_t& emitted;
    Seconds next_fire = kTau;
    std::uint64_t seq = 0;
    std::uint64_t pending = 0;

    Gateway(sim::Simulation& s, std::uint64_t& e) : sim(s), emitted(e) {}

    void on_timer(Seconds now) override {
      WirePacket wire;
      wire.id = seq++;
      wire.kind = pending > 0 ? 1 : 0;
      pending = 0;
      wire.created = now;
      const Seconds emit_time = now + kEmitDelay;
      sim.schedule_at(emit_time, [this, wire, emit_time]() mutable {
        wire.emitted = emit_time;
        emitted += static_cast<std::uint64_t>(wire.kind != 0) + 1;
      });
      next_fire += kTau;
      sim.schedule_timer_at(next_fire, *this);
    }
  } gateway{sim, emitted};

  struct Source final : sim::TimerTask {
    sim::Simulation& sim;
    Gateway& gateway;
    Source(sim::Simulation& s, Gateway& g) : sim(s), gateway(g) {}
    void on_timer(Seconds /*now*/) override {
      ++gateway.pending;
      sim.schedule_timer_in(kCbrPeriod, *this);
    }
  } source{sim, gateway};

  sim.schedule_timer_at(kTau, gateway);
  sim.schedule_timer_in(kCbrPeriod / 2, source);
  sim.run_until(static_cast<Seconds>(fires) * kTau);
  return sim.events_processed();
}

/// Self-rescheduling 10k-event chain (the classic DES ping benchmark).
std::uint64_t legacy_chain(std::size_t events) {
  LegacySimulation sim;
  std::size_t fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < events) sim.schedule_in(1e-3, tick);
  };
  sim.schedule_in(1e-3, tick);
  sim.run_until(1e18);
  return sim.events_processed();
}

std::uint64_t pooled_chain(std::size_t events) {
  sim::Simulation sim;
  std::size_t fired = 0;
  std::function<void()> tick = [&] {
    if (++fired < events) sim.schedule_in(1e-3, tick);
  };
  sim.schedule_in(1e-3, tick);
  sim.run();
  return sim.events_processed();
}

// ------------------------------------------------------------- reporting

/// Derived headline numbers tracked across PRs.
struct DerivedMetrics {
  double event_core_speedup_cit = 0.0;
  /// PIATs/sec through all five features at once (DetectorBank inner loop).
  double bank_five_feature_piats_per_sec = 0.0;
  /// Whole-window span fan-out vs one-element spans, five-feature bank.
  double bank_span_speedup = 0.0;
  /// Two-sided CUSUM detector updates/sec (per-PIAT sequential cost of the
  /// streaming change-point attack, classify/cpd.hpp).
  double cpd_updates_per_sec = 0.0;
  /// Streaming accumulator vs batch extractor, variance feature.
  double streaming_vs_batch_variance = 0.0;
  /// M/G/1 wait draws/sec at the ρ = 0.95 clamp over polar standard-normal
  /// draws/sec, both measured in this process so host speed cancels. The
  /// two share only the RNG engine, so a change to the M/G/1 sampler moves
  /// the numerator alone.
  double mg1_clamp_vs_normal_ratio = 0.0;
  /// Fig 4(b) curve points/sec through the prefix-replay engine.
  double curve_points_per_sec = 0.0;
  /// Prefix-replay (1 sim) vs per-point engine runs (k sims), same curve.
  double curve_speedup_fig4b = 0.0;
  /// Population throughput: flows/sec through PopulationEngine at M = 1000
  /// on the hardware thread count.
  double population_flows_per_sec = 0.0;
  /// Same workload, hardware threads vs a single thread.
  double population_thread_speedup = 0.0;
  /// Thread-scaling curve for the same workload: 2 and 4 threads vs 1.
  double population_thread_speedup_2 = 0.0;
  double population_thread_speedup_4 = 0.0;
  /// Defense-frontier throughput: policy points/sec through run_frontier
  /// on the 5-rung budget ladder (gateway queue-feedback seam + overhead
  /// accounting included).
  double frontier_points_per_sec = 0.0;
  /// Best-response tuner throughput: candidate evaluations/sec through
  /// tune_adversary on an 8-candidate feature × window grid (the robust
  /// frontier's selection stage; one full attack pipeline per candidate).
  double tuning_points_per_sec = 0.0;
  /// End-to-end sharded pipeline (8 shard runs + serialize + parse + merge)
  /// vs the plain in-process run, same M = 1000 workload: ~1.0 means
  /// process sharding costs nothing but the file round-trip.
  double population_shard_speedup = 0.0;
  /// Sampled execution mode (DESIGN.md §2.11): executed flows/sec of a
  /// m = 1000 stratum drawn from a deployed M = 100k population (contention
  /// pinned at the full M).
  double population_sampled_flows_per_sec = 0.0;
  /// Wall-clock ratio of the exhaustive M = 100k campaign (extrapolated
  /// from the measured exhaustive per-flow rate) over the measured sampled
  /// m = 1000 run — the headline "millions of flows in seconds" number.
  double population_sampling_speedup = 0.0;
};

void print_table(const std::vector<BenchResult>& results,
                 const DerivedMetrics& derived) {
  std::printf("%-36s %14s %12s %10s\n", "benchmark", "items/sec", "items",
              "wall (s)");
  for (const auto& r : results) {
    std::printf("%-36s %14.3e %12.0f %10.3f   [%s]\n", r.name.c_str(),
                r.items_per_sec, r.items, r.wall_s, r.unit.c_str());
  }
  std::printf("\nevent core speedup on CIT testbed workload: %.2fx\n",
              derived.event_core_speedup_cit);
  std::printf("five-feature streaming extraction: %.3e piats/sec "
              "(streaming/batch variance: %.2fx, span path: %.2fx)\n",
              derived.bank_five_feature_piats_per_sec,
              derived.streaming_vs_batch_variance, derived.bank_span_speedup);
  std::printf("change-point (CUSUM) detector updates: %.3e updates/sec\n",
              derived.cpd_updates_per_sec);
  std::printf("M/G/1 wait draws at rho = 0.95 vs polar normal draws: %.3fx\n",
              derived.mg1_clamp_vs_normal_ratio);
  std::printf("Fig 4(b) curve throughput: %.3e points/sec "
              "(prefix replay vs per-point sims: %.2fx)\n",
              derived.curve_points_per_sec, derived.curve_speedup_fig4b);
  std::printf("population throughput at M = 1000: %.3e flows/sec "
              "(thread scaling vs 1: x2 %.2fx, x4 %.2fx, hw %.2fx)\n",
              derived.population_flows_per_sec,
              derived.population_thread_speedup_2,
              derived.population_thread_speedup_4,
              derived.population_thread_speedup);
  std::printf("defense-frontier throughput: %.3e policy points/sec\n",
              derived.frontier_points_per_sec);
  std::printf("best-response tuner throughput: %.3e candidate evals/sec\n",
              derived.tuning_points_per_sec);
  std::printf("sharded population pipeline vs in-process run: %.2fx\n",
              derived.population_shard_speedup);
  std::printf("sampled population (m = 1000 of M = 100k): %.3e flows/sec, "
              "%.1fx over exhaustive\n",
              derived.population_sampled_flows_per_sec,
              derived.population_sampling_speedup);
}

void print_json(const std::vector<BenchResult>& results,
                const DerivedMetrics& derived) {
  // hw_threads lets gate tooling condition floors on runner width (a thread
  // scaling target is meaningless on a 1-core CI box).
  const unsigned hw_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("{\n  \"version\": 10,\n  \"hw_threads\": %u,\n"
              "  \"benchmarks\": [\n",
              hw_threads);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", "
                "\"items_per_sec\": %.6e, \"items\": %.0f, \"wall_s\": %.6f}%s\n",
                r.name.c_str(), r.unit.c_str(), r.items_per_sec, r.items,
                r.wall_s, i + 1 < results.size() ? "," : "");
  }
  std::printf("  ],\n  \"derived\": {\n"
              "    \"event_core_speedup_cit\": %.4f,\n"
              "    \"bank_five_feature_piats_per_sec\": %.6e,\n"
              "    \"bank_span_speedup\": %.4f,\n"
              "    \"cpd_updates_per_sec\": %.6e,\n"
              "    \"streaming_vs_batch_variance\": %.4f,\n"
              "    \"mg1_clamp_vs_normal_ratio\": %.4f,\n"
              "    \"curve_points_per_sec\": %.6e,\n"
              "    \"curve_speedup_fig4b\": %.4f,\n"
              "    \"population_flows_per_sec\": %.6e,\n"
              "    \"population_thread_speedup\": %.4f,\n"
              "    \"population_thread_speedup_2\": %.4f,\n"
              "    \"population_thread_speedup_4\": %.4f,\n"
              "    \"frontier_points_per_sec\": %.6e,\n"
              "    \"tuning_points_per_sec\": %.6e,\n"
              "    \"population_shard_speedup\": %.4f,\n"
              "    \"population_sampled_flows_per_sec\": %.6e,\n"
              "    \"population_sampling_speedup\": %.4f\n  }\n}\n",
              derived.event_core_speedup_cit,
              derived.bank_five_feature_piats_per_sec,
              derived.bank_span_speedup,
              derived.cpd_updates_per_sec,
              derived.streaming_vs_batch_variance,
              derived.mg1_clamp_vs_normal_ratio,
              derived.curve_points_per_sec, derived.curve_speedup_fig4b,
              derived.population_flows_per_sec,
              derived.population_thread_speedup,
              derived.population_thread_speedup_2,
              derived.population_thread_speedup_4,
              derived.frontier_points_per_sec,
              derived.tuning_points_per_sec,
              derived.population_shard_speedup,
              derived.population_sampled_flows_per_sec,
              derived.population_sampling_speedup);
}

// ------------------------------------------- Fig 4(b) curve workload

/// The detection-vs-n curve of Fig 4(b): 10-point sample-size axis × the
/// three paper features, auto-selected entropy Δh, windows at n_max sized
/// for bench runtime. `collapsed` = the prefix-replay engine (1 sim for
/// the whole axis); otherwise one engine run per point — the pre-replay
/// pipeline, evaluating each prefix independently on the same capture keys.
const std::vector<std::size_t>& fig4b_axis() {
  static const std::vector<std::size_t> axis = {100,  200,  400,  500,  700,
                                                1000, 1500, 2000, 2500, 3000};
  return axis;
}

std::vector<double> run_fig4b_curve(std::size_t windows, bool collapsed) {
  const auto scenario = core::lab_zero_cross(core::make_cit());
  const std::vector<classify::FeatureKind> features = {
      classify::FeatureKind::kSampleMean,
      classify::FeatureKind::kSampleVariance,
      classify::FeatureKind::kSampleEntropy,
  };
  const auto& axis = fig4b_axis();
  const std::size_t n_max = axis.back();

  core::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.plan.adversary.feature = features.front();
  spec.plan.extra_features.assign(features.begin() + 1, features.end());
  spec.plan.train_windows = windows;
  spec.plan.test_windows = windows;
  spec.seed = 20030324;

  std::vector<double> rates;
  rates.reserve(axis.size() * features.size());
  if (collapsed) {
    spec.sample_size_axis = axis;
    spec.plan.adversary.window_size = n_max;
    const auto result = core::ExperimentEngine().run(spec);
    for (const auto& point : result.by_sample_size) {
      for (const auto& outcome : point.per_feature) {
        rates.push_back(outcome.detection_rate);
      }
    }
  } else {
    for (const std::size_t n : axis) {
      core::ExperimentSpec single = spec;
      single.plan.adversary.window_size = n;
      single.plan.train_windows = windows * n_max / n;
      single.plan.test_windows = windows * n_max / n;
      const auto result = core::ExperimentEngine().run(single);
      for (const auto& outcome : result.per_feature) {
        rates.push_back(outcome.detection_rate);
      }
    }
  }
  return rates;
}

// ------------------------------------------- population scaling workload

/// Cheap per-flow experiment so the benchmark measures the POPULATION
/// machinery (sharding, per-flow engine pipelines, aggregation), not one
/// flow's classifier arithmetic.
core::PopulationSpec population_spec(std::size_t flows) {
  core::PopulationSpec spec;
  spec.experiment.scenario = core::lab_cross_traffic(core::make_cit(), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 40;
  spec.experiment.plan.train_windows = 2;
  spec.experiment.plan.test_windows = 2;
  spec.flows = flows;
  spec.seed = 20030324;
  return spec;
}

core::PopulationResult run_population(std::size_t flows, std::size_t threads) {
  core::SweepOptions options;
  options.threads = threads;
  return core::PopulationEngine(core::sim_backend(), options)
      .run(population_spec(flows));
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("micro_perf", "hot-path throughput micro benchmarks");
  args.add_flag("--json", "emit machine-readable JSON instead of a table");
  args.add_flag("--smoke", "CI mode: short measurements, small workloads");
  args.add_num("--min-time", 0.5, "seconds per benchmark measurement");
  if (!args.parse(argc, argv)) return 1;
  const bool smoke = args.flag("--smoke");
  const double min_time = smoke ? 0.05 : args.num("--min-time");

  std::vector<BenchResult> results;
  DerivedMetrics derived;

  // Event core, old vs new, on the CIT testbed's event pattern.
  results.push_back(run_bench("event_core/cit_workload/legacy", "events",
                              min_time, [] { return legacy_cit_events(50000); }));
  results.push_back(run_bench("event_core/cit_workload/pooled", "events",
                              min_time, [] { return pooled_cit_events(50000); }));
  derived.event_core_speedup_cit =
      results[1].items_per_sec / results[0].items_per_sec;

  results.push_back(run_bench("event_core/chain/legacy", "events", min_time,
                              [] { return legacy_chain(10000); }));
  results.push_back(run_bench("event_core/chain/pooled", "events", min_time,
                              [] { return pooled_chain(10000); }));

  // Full testbed PIAT generation (everything: events, RNG, M/G/1, jitter).
  {
    const auto scenario = core::lab_zero_cross(core::make_cit());
    util::RngFactory factory(3);
    std::uint64_t trial = 0;
    results.push_back(run_bench("testbed/cit_piats", "piats", min_time, [&] {
      auto rng = factory.make(trial++);
      sim::Testbed bed(scenario.config_for(1), rng);
      return bed.collect_piats(5000).size();
    }));
  }
  {
    const auto scenario = core::wan(core::make_cit(), 15.0);
    util::RngFactory factory(4);
    std::uint64_t trial = 0;
    results.push_back(run_bench("testbed/wan_piats", "piats", min_time, [&] {
      auto rng = factory.make(trial++);
      sim::Testbed bed(scenario.config_for(1), rng);
      return bed.collect_piats(5000).size();
    }));
  }

  // M/G/1 stationary-wait sampler, at a mid utilization and at the
  // population clamp ρ = 0.95 (where a busy draw sums ~20 residuals).
  double mg1_clamp_rate = 0.0;
  {
    const auto bench_mg1 = [&](const std::string& name, double rho) {
      sim::Mg1WaitSampler sampler(rho, 12e-6);
      util::Rng rng(5);
      results.push_back(run_bench(name, "samples", min_time, [&] {
        double acc = 0.0;
        for (int i = 0; i < 100000; ++i) acc += sampler.sample(rng);
        return static_cast<std::uint64_t>(100000 + (acc < 0.0 ? 1 : 0));
      }));
      return results.back().items_per_sec;
    };
    bench_mg1("mg1/wait_sample", 0.45);
    mg1_clamp_rate = bench_mg1("mg1/wait_sample_clamp", 0.95);
  }

  // Feature extraction + KDE on a window of designed-size PIATs.
  {
    util::Rng rng(6);
    stats::Normal dist(10e-3, 10e-6);
    std::vector<double> window(4000);
    for (auto& x : window) x = dist.sample(rng);

    classify::SampleVarianceFeature variance;
    results.push_back(run_bench("feature/variance_4k", "piats", min_time, [&] {
      double v = variance.extract(window);
      return static_cast<std::uint64_t>(window.size() + (v < 0.0 ? 1 : 0));
    }));
    const double batch_variance_ips = results.back().items_per_sec;

    classify::SampleEntropyFeature entropy(3e-6);
    results.push_back(run_bench("feature/entropy_4k", "piats", min_time, [&] {
      double v = entropy.extract(window);
      return static_cast<std::uint64_t>(window.size() + (v < 0.0 ? 1 : 0));
    }));

    const std::vector<double> kde_data(window.begin(), window.begin() + 1000);
    stats::GaussianKde kde(kde_data);
    results.push_back(run_bench("kde/pdf_1k", "evals", min_time, [&] {
      double acc = 0.0;
      for (int i = 0; i < 1000; ++i) {
        acc += kde.pdf(10e-3 + rng.uniform(-3e-5, 3e-5));
      }
      return static_cast<std::uint64_t>(1000 + (acc < 0.0 ? 1 : 0));
    }));

    // Streaming window accumulators vs the batch extractors above, plus the
    // DetectorBank inner loop: every PIAT fanned out to all five features
    // in one pass (what a 5-feature sweep point actually runs).
    classify::AccumulatorOptions acc_opts;
    acc_opts.entropy_bin_width = 3e-6;

    const auto bench_accumulator = [&](const std::string& name,
                                       classify::FeatureKind kind,
                                       classify::QuantileMode mode) {
      auto opts = acc_opts;
      opts.quantile_mode = mode;
      auto acc = classify::make_window_accumulator(kind, opts);
      // One virtual call per sample: each PIAT is its own one-element span.
      results.push_back(run_bench(name, "piats", min_time, [&] {
        for (const double& x : window) acc->add({&x, 1});
        const double v = acc->value();
        acc->reset();
        return static_cast<std::uint64_t>(window.size() + (v < 0.0 ? 1 : 0));
      }));
    };
    bench_accumulator("feature_stream/variance_4k",
                      classify::FeatureKind::kSampleVariance,
                      classify::QuantileMode::kExact);
    derived.streaming_vs_batch_variance =
        results.back().items_per_sec / batch_variance_ips;
    bench_accumulator("feature_stream/entropy_4k",
                      classify::FeatureKind::kSampleEntropy,
                      classify::QuantileMode::kExact);
    bench_accumulator("feature_stream/iqr_sketch_4k",
                      classify::FeatureKind::kInterquartileRange,
                      classify::QuantileMode::kP2Sketch);

    {
      std::vector<std::unique_ptr<classify::WindowAccumulator>> bank;
      for (const auto kind : {classify::FeatureKind::kSampleMean,
                              classify::FeatureKind::kSampleVariance,
                              classify::FeatureKind::kSampleEntropy,
                              classify::FeatureKind::kMedianAbsDeviation,
                              classify::FeatureKind::kInterquartileRange}) {
        bank.push_back(classify::make_window_accumulator(kind, acc_opts));
      }
      results.push_back(
          run_bench("bank/five_feature_pass_4k", "piats", min_time, [&] {
            for (const double& x : window) {
              for (auto& acc : bank) acc->add({&x, 1});
            }
            double v = 0.0;
            for (auto& acc : bank) {
              v += acc->value();
              acc->reset();
            }
            return static_cast<std::uint64_t>(window.size() +
                                              (v < 0.0 ? 1 : 0));
          }));
      derived.bank_five_feature_piats_per_sec = results.back().items_per_sec;
      const double per_sample_ips = results.back().items_per_sec;

      // Same bank, whole window handed to each accumulator as one span —
      // the SoA batch path the chunked population dispatch feeds (one
      // virtual call per window per feature instead of one per PIAT).
      results.push_back(
          run_bench("bank/five_feature_span_4k", "piats", min_time, [&] {
            const std::span<const double> xs(window);
            for (auto& acc : bank) acc->add(xs);
            double v = 0.0;
            for (auto& acc : bank) {
              v += acc->value();
              acc->reset();
            }
            return static_cast<std::uint64_t>(window.size() +
                                              (v < 0.0 ? 1 : 0));
          }));
      derived.bank_span_speedup = results.back().items_per_sec / per_sample_ips;
    }
  }

  // Streaming change-point detectors: per-PIAT cost of one two-sided
  // update (both sides advanced + threshold bookkeeping) for the CUSUM
  // (Gaussian LLR) and adaptive-EWMA schemes of classify/cpd.hpp. The
  // CUSUM number is the headline cpd_updates_per_sec: it bounds how fast a
  // change-point adversary can ride the DetectorBank pass.
  {
    util::Rng rng(11);
    std::vector<std::vector<double>> pools(2);
    for (std::size_t c = 0; c < 2; ++c) {
      const double mean = c == 0 ? 0.10 : 0.11;
      pools[c].reserve(4096);
      for (int i = 0; i < 4096; ++i) {
        pools[c].push_back(mean +
                           0.01 * stats::sample_standard_normal(rng));
      }
    }
    const std::vector<double>& stream = pools[0];  // null-class replay
    for (const auto kind :
         {classify::CpdKind::kCusum, classify::CpdKind::kAdaptiveEwma}) {
      classify::CpdConfig config;
      config.kind = kind;
      const auto model = classify::CpdModel::train(config, pools);
      auto state = model.initial_state();
      const std::string name = std::string("cpd/") +
                               (kind == classify::CpdKind::kCusum
                                    ? "cusum_update_4k"
                                    : "ewma_update_4k");
      results.push_back(run_bench(name, "updates", min_time, [&] {
        for (const double x : stream) model.update(state, x);
        return static_cast<std::uint64_t>(stream.size());
      }));
      if (kind == classify::CpdKind::kCusum) {
        derived.cpd_updates_per_sec = results.back().items_per_sec;
      }
    }
  }

  // Standard-normal sampling: Marsaglia polar, the sampler every figure
  // uses.
  {
    util::Rng rng(7);
    constexpr int kDraws = 200000;
    results.push_back(run_bench("rng/normal_polar", "samples", min_time, [&] {
      double acc = 0.0;
      for (int i = 0; i < kDraws; ++i) acc += stats::sample_standard_normal(rng);
      return static_cast<std::uint64_t>(kDraws + (acc > 1e18 ? 1 : 0));
    }));
    derived.mg1_clamp_vs_normal_ratio =
        mg1_clamp_rate / results.back().items_per_sec;
  }

  // Curve throughput: the Fig 4(b) detection-vs-n workload (10-point axis
  // × 3 paper features). Old pipeline: one engine run — one simulation —
  // per point. New: the whole axis rides one prefix-replay run. Outcomes
  // must agree bit for bit; the headline metric is points/sec.
  {
    // Same workload in smoke mode (only the measurement time shrinks) so
    // the BENCH record stays comparable across CI and local runs.
    const std::size_t windows = 6;
    const auto old_rates = run_fig4b_curve(windows, /*collapsed=*/false);
    const auto new_rates = run_fig4b_curve(windows, /*collapsed=*/true);
    if (old_rates != new_rates) {
      std::fprintf(stderr,
                   "FATAL: prefix-replay curve diverged from per-point "
                   "evaluation — bit-identity contract broken\n");
      return 1;
    }
    const double points = static_cast<double>(fig4b_axis().size());
    results.push_back(
        run_bench("curve/fig4b_per_point_sims", "points", min_time, [&] {
          (void)run_fig4b_curve(windows, /*collapsed=*/false);
          return static_cast<std::uint64_t>(points);
        }));
    const double old_pps = results.back().items_per_sec;
    results.push_back(
        run_bench("curve/fig4b_prefix_replay", "points", min_time, [&] {
          (void)run_fig4b_curve(windows, /*collapsed=*/true);
          return static_cast<std::uint64_t>(points);
        }));
    derived.curve_points_per_sec = results.back().items_per_sec;
    derived.curve_speedup_fig4b = derived.curve_points_per_sec / old_pps;
  }

  // Defense frontier: the 5-rung budget ladder through run_frontier — one
  // full attack pipeline per policy point, exercising the gateway's
  // queue-feedback seam (spend_dummy/observe per fire) plus the per-stream
  // overhead accounting. Headline: policy points/sec.
  {
    core::FrontierSpec fspec;
    fspec.scenario = core::lab_zero_cross(core::make_cit());
    fspec.policies = core::budget_ladder({0.0, 40.0, 70.0, 85.0, 100.0});
    fspec.plan.adversary.window_size = 100;
    fspec.plan.train_windows = 4;
    fspec.plan.test_windows = 4;
    fspec.seed = 20030324;
    const double points = static_cast<double>(fspec.policies.size());
    results.push_back(
        run_bench("frontier/budget_ladder5", "points", min_time, [&] {
          (void)core::run_frontier(fspec);
          return static_cast<std::uint64_t>(points);
        }));
    derived.frontier_points_per_sec = results.back().items_per_sec;
  }

  // Best-response tuner: tune_adversary over an 8-candidate feature ×
  // window grid on the full-padding CIT scenario — the robust frontier's
  // selection stage, one full attack pipeline per candidate, sharded via
  // SweepRunner. Headline: candidate evaluations/sec.
  {
    const core::Scenario scenario = core::lab_zero_cross(core::make_cit());
    core::AdversaryPlan plan;
    plan.train_windows = 4;
    plan.test_windows = 4;
    classify::DetectorSearchSpace space;
    space.features = {classify::FeatureKind::kSampleMean,
                      classify::FeatureKind::kSampleVariance,
                      classify::FeatureKind::kSampleEntropy,
                      classify::FeatureKind::kMedianAbsDeviation};
    space.window_sizes = {100, 200};
    const std::uint64_t evals = space.size();  // exhaustive: 8 ≤ limit
    results.push_back(
        run_bench("tuning/best_response8", "evals", min_time, [&] {
          (void)core::tune_adversary(scenario, plan, space, 20030324);
          return evals;
        }));
    derived.tuning_points_per_sec = results.back().items_per_sec;
  }

  // Population scaling (pop_scaling): M = 1000 concurrent padded flows,
  // one detection pipeline per tapped flow, sharded across the pool.
  // Headline: flows/sec at the hardware thread count plus the thread
  // scaling ratio — with a built-in thread-count bit-identity assert on a
  // small population first (the cheap mirror of the ctest population wall).
  {
    const std::size_t hw =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    {
      const auto serial = run_population(64, 1);
      const auto wide = run_population(64, hw);
      const auto& sp = serial.by_sample_size[0];
      const auto& wp = wide.by_sample_size[0];
      bool identical = sp.mean_rate == wp.mean_rate &&
                       sp.min_rate == wp.min_rate &&
                       sp.max_rate == wp.max_rate &&
                       sp.worst_flow == wp.worst_flow &&
                       sp.quantiles.median == wp.quantiles.median &&
                       sp.quantiles.p95 == wp.quantiles.p95;
      for (std::size_t f = 0; identical && f < serial.flows(); ++f) {
        identical = serial.per_flow[f].detection_rate ==
                    wide.per_flow[f].detection_rate;
      }
      if (!identical) {
        std::fprintf(stderr,
                     "FATAL: population run diverged across thread counts "
                     "— bit-identity contract broken\n");
        return 1;
      }
    }

    const std::size_t flows = 1000;
    results.push_back(
        run_bench("population/flows1000_threads_1", "flows", min_time, [&] {
          (void)run_population(flows, 1);
          return flows;
        }));
    const double serial_fps = results.back().items_per_sec;
    // Thread-scaling curve at fixed counts 2 and 4 (a pool wider than the
    // machine just idles, so the ratios saturate at the core count), then
    // the hardware width. Fixed record names across machines (the hardware
    // count varies per runner; tools diff successive BENCH records by name).
    results.push_back(
        run_bench("population/flows1000_threads_2", "flows", min_time, [&] {
          (void)run_population(flows, 2);
          return flows;
        }));
    derived.population_thread_speedup_2 =
        results.back().items_per_sec / serial_fps;
    results.push_back(
        run_bench("population/flows1000_threads_4", "flows", min_time, [&] {
          (void)run_population(flows, 4);
          return flows;
        }));
    derived.population_thread_speedup_4 =
        results.back().items_per_sec / serial_fps;
    results.push_back(
        run_bench("population/flows1000_threads_hw", "flows", min_time, [&] {
          (void)run_population(flows, hw);
          return flows;
        }));
    derived.population_flows_per_sec = results.back().items_per_sec;
    derived.population_thread_speedup =
        derived.population_flows_per_sec / serial_fps;
  }

  // Sampled execution mode (DESIGN.md §2.11): a m = 1000 stratum of a
  // deployed M = 100k population, contention pinned at the full M. First
  // the in-bench wall: every sampled flow must be bitwise identical to the
  // same flow id of the exhaustive run (the pinned-contention contract the
  // whole mode rests on), checked at a small M where exhaustive is cheap.
  // Headline: population_sampling_speedup — the wall-clock of the
  // exhaustive M = 100k campaign (M flows at the measured exhaustive
  // per-flow rate; running it for real would take minutes per iteration)
  // over the measured sampled wall-clock.
  {
    const std::size_t hw =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    {
      const auto exhaustive = run_population(64, hw);
      core::SweepOptions options;
      options.threads = hw;
      const auto sampled = core::PopulationEngine(core::sim_backend(), options)
                               .run(population_spec(64).sampled(16));
      bool identical = sampled.sampled_ids.size() == sampled.flows();
      for (std::size_t i = 0; identical && i < sampled.flows(); ++i) {
        const auto& sub = sampled.per_flow[i];
        const auto& full = exhaustive.per_flow[sampled.sampled_ids[i]];
        identical = sub.by_sample_size.size() == full.by_sample_size.size();
        for (std::size_t a = 0; identical && a < sub.by_sample_size.size();
             ++a) {
          for (std::size_t j = 0;
               identical && j < sub.by_sample_size[a].per_feature.size();
               ++j) {
            identical = sub.by_sample_size[a].per_feature[j].detection_rate ==
                        full.by_sample_size[a].per_feature[j].detection_rate;
          }
        }
      }
      if (!identical) {
        std::fprintf(stderr,
                     "FATAL: sampled flows diverged from the exhaustive run "
                     "at the same flow ids — bit-identity contract broken\n");
        return 1;
      }
    }

    const std::size_t deployed = 100000;
    const std::size_t stratum = 1000;
    core::SweepOptions options;
    options.threads = hw;
    const core::PopulationEngine engine(core::sim_backend(), options);
    results.push_back(
        run_bench("population/sampled_1000_of_100k", "flows", min_time, [&] {
          (void)engine.run(population_spec(deployed).sampled(stratum));
          return stratum;
        }));
    derived.population_sampled_flows_per_sec = results.back().items_per_sec;
    // Exhaustive M = 100k wall = M / exhaustive flows/sec; sampled wall =
    // m / sampled flows/sec. Same per-flow workload (contention is analytic
    // either way), so the ratio is ~M/m modulo estimator overhead.
    derived.population_sampling_speedup =
        (static_cast<double>(deployed) / derived.population_flows_per_sec) /
        (static_cast<double>(stratum) /
         derived.population_sampled_flows_per_sec);
  }

  // Process sharding (core/shard_io): the same M = 1000 workload split 8
  // ways. Measures the file-format cost alone (serialize + parse round
  // trip, N-shard merge + finalize) and the end-to-end sharded pipeline
  // relative to the plain in-process run — with a built-in assert that
  // merged shards reproduce the plain run byte for byte.
  {
    const std::size_t hw =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    const auto shards_of = [&](std::size_t flows, std::size_t shard_n,
                               std::size_t threads) {
      const auto spec = population_spec(flows);
      std::vector<core::PopulationShard> shards;
      shards.reserve(shard_n);
      for (std::size_t i = 0; i < shard_n; ++i) {
        core::SweepOptions options;
        options.threads = threads;
        options.shard_index = i;
        options.shard_count = shard_n;
        shards.push_back(
            core::run_population_shard(spec, core::sim_backend(), options));
      }
      return shards;
    };

    {
      const auto merged = core::merge_shards(shards_of(64, 3, 1));
      const auto direct = run_population(64, hw);
      if (core::population_result_json(merged) !=
          core::population_result_json(direct)) {
        std::fprintf(stderr,
                     "FATAL: merged shards diverged from the in-process "
                     "population run — bit-identity contract broken\n");
        return 1;
      }
    }

    const std::size_t flows = 1000;
    const std::size_t shard_n = 8;
    const auto shards = shards_of(flows, shard_n, hw);

    results.push_back(
        run_bench("shard/roundtrip_1000x8", "flows", min_time, [&] {
          std::size_t round_tripped = 0;
          for (const auto& shard : shards) {
            const core::PopulationShard back =
                core::parse_shard(core::serialize_shard(shard));
            round_tripped += back.chunks.size() ? back.flows / shard_n : 0;
          }
          return round_tripped;
        }));

    results.push_back(run_bench("shard/merge_1000x8", "shards", min_time, [&] {
      auto copies = shards;
      const auto merged = core::merge_shards(std::move(copies));
      return shard_n + (merged.flow_count == 0 ? 1 : 0);
    }));

    results.push_back(
        run_bench("shard/pipeline_1000x8", "flows", min_time, [&] {
          auto fresh = shards_of(flows, shard_n, hw);
          std::vector<core::PopulationShard> parsed;
          parsed.reserve(fresh.size());
          for (const auto& shard : fresh) {
            parsed.push_back(core::parse_shard(core::serialize_shard(shard)));
          }
          const auto merged = core::merge_shards(std::move(parsed));
          return merged.flow_count;
        }));
    derived.population_shard_speedup =
        results.back().items_per_sec / derived.population_flows_per_sec;
  }

  if (args.flag("--json")) {
    print_json(results, derived);
  } else {
    print_table(results, derived);
  }
  return 0;
}
