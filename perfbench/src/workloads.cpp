#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>

#include "core/population.hpp"
#include "core/robust_frontier.hpp"
#include "core/shard_io.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = linkpad::core;
namespace classify = linkpad::classify;

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void require_rate(double rate, const std::string& what) {
  require(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0,
          what + " is not a finite rate in [0, 1]");
}

/// Times a span-free interval for CampaignStamps::wall_s / cpu_s.
struct RegionClock {
  std::int64_t wall0 = wall_ns();
  double cpu0 = process_cpu_s();
  void stop(CampaignStamps& stamps) const {
    stamps.wall_s = static_cast<double>(wall_ns() - wall0) * 1e-9;
    stamps.cpu_s = process_cpu_s() - cpu0;
  }
};

/// Chunk-order fold of ChunkAggregate::merge — ordered concatenation, so
/// it equals the library's tree reduction bit for bit.
core::ChunkAggregate merge_in_chunk_order(std::vector<core::ChunkAggregate> chunks) {
  core::ChunkAggregate all = std::move(chunks.front());
  for (std::size_t i = 1; i < chunks.size(); ++i) all.merge(chunks[i]);
  return all;
}

/// Pool width of every workload. On the shared 4-vCPU host the benchmark
/// was built on, a 4-thread campaign's time moved by up to 1.8× with the
/// neighbours' load while a single thread tracked the host control loop
/// within a few per cent; one thread per campaign keeps the numbers about
/// the code. It also makes the sharded workload's checkpoint sequence, and
/// so every byte count, deterministic.
constexpr std::size_t kThreads = 1;

/// The micro_perf per-flow template: a cheap attack pipeline per flow
/// (variance detector, w = 40, 2 + 2 windows) behind one router hop of
/// the cross-traffic lab, so a population run measures the population
/// machinery and the hop M/G/1 path rather than classifier arithmetic.
core::PopulationSpec population_template(std::size_t flows) {
  core::PopulationSpec spec;
  spec.experiment.scenario = core::lab_cross_traffic(core::make_cit(), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 40;
  spec.experiment.plan.train_windows = 2;
  spec.experiment.plan.test_windows = 2;
  spec.flows = flows;
  return spec;
}

/// Every hop before the tap must sit at the utilization clamp: below it the
/// per-hop load (and so the M/G/1 cost per packet) would change with M.
void require_clamped(const core::PopulationSpec& spec, const core::Scenario& loaded) {
  require(!loaded.base.hops_before_tap.empty(), "loaded scenario has no hop");
  for (const auto& hop : loaded.base.hops_before_tap) {
    require(hop.cross_utilization == spec.max_hop_utilization,
            "population too small: a hop is below the utilization clamp");
  }
}

std::size_t chunk_count(const core::PopulationSpec& spec,
                        const core::SweepOptions& options) {
  return core::population_chunk_count(
      spec.executed_flows(),
      core::resolved_flow_grain(spec.executed_flows(), options.grain));
}

// ------------------------------------------------------------ population

/// M flows on one shared path, every flow its own attack pipeline, rates
/// folded into chunk aggregates only (keep_per_flow = false). M sits far
/// past the point where the loaded hop reaches the ρ = 0.95 clamp, so the
/// hop M/G/1 path does most of the work and no two flows share any.
class PopulationWorkload final : public Workload {
 public:
  static constexpr std::size_t kFlows = 10000;
  static constexpr std::size_t kSpotChecks = 8;

  std::size_t threads() const override { return kThreads; }
  const char* item() const override { return "flows"; }
  double items() const override { return static_cast<double>(kFlows); }

  void setup() override {
    spec_ = population_template(kFlows);
    spec_.keep_per_flow = false;
    require_clamped(spec_, spec_.loaded_scenario());
    options_ = {};
    options_.threads = kThreads;
  }

  void run(std::uint64_t input_seed) override {
    spec_.seed = input_seed;
    result_ = core::PopulationEngine(core::sim_backend(), options_).run(spec_);
  }

  void check_result() const override {
    require(result_.flows() == kFlows, "population ran another flow count");
    for (const auto& point : result_.by_sample_size) {
      require_rate(point.detected_fraction, "detected fraction");
      require_rate(point.mean_rate, "mean rate");
    }
  }

  CampaignStamps run_decomposed(const core::ExperimentBackend& backend) override {
    CampaignStamps stamps;
    const core::PopulationEngine engine(backend, options_);
    std::vector<std::size_t> ids(chunk_count(spec_, options_));
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    std::vector<std::size_t> seen(ids.size(), 0);
    core::PopulationResult result;
    std::vector<std::vector<double>> rates;
    std::vector<core::FlowOverhead> overhead;
    const RegionClock clock;
    {
      ScopedSpan campaign("campaign");
      std::vector<core::ChunkAggregate> chunks;
      {
        ScopedSpan span("population.run_chunks");
        chunks = engine.run_chunks(
            spec_, ids, [&](std::size_t id, const core::ChunkAggregate&) {
              ++seen.at(id);
              ++stamps.chunks;
            });
      }
      core::ChunkAggregate all;
      {
        ScopedSpan span("population.merge");
        all = merge_in_chunk_order(std::move(chunks));
      }
      rates = all.rates;
      overhead = all.overhead;
      ScopedSpan span("population.finalize");
      result = core::finalize_population(
          std::move(all), kFlows, spec_.experiment.sample_sizes(),
          spec_.detection_threshold,
          spec_.experiment.scenario.base.policy->mean_interval());
    }
    clock.stop(stamps);

    check_result();
    for (const std::size_t n : seen) require(n == 1, "a chunk completed other than once");
    require(core::population_result_json(result) == core::population_result_json(result_),
            "run_chunks + merge + finalize differs from PopulationEngine::run");
    require(overhead.size() == kFlows, "merged chunks do not cover every flow");
    for (const auto& row : rates) {
      require(row.size() == kFlows, "a rate row does not cover every flow");
      for (const double r : row) require_rate(r, "a flow's detection rate");
    }
    // Spot checks: a flow re-run standalone from its resolved spec must be
    // bit-identical to its slot in the population.
    const core::ExperimentEngine standalone(core::sim_backend());
    for (std::size_t k = 0; k < kSpotChecks; ++k) {
      const std::size_t f =
          k == 0 ? kFlows - 1
                 : linkpad::util::SplitMix64::mix(spec_.seed + k) % kFlows;
      const auto flow = standalone.run(spec_.flow_spec(f));
      for (std::size_t i = 0; i < rates.size(); ++i) {
        require(same_bits(flow.by_sample_size.at(i).per_feature.front().detection_rate,
                          rates[i][f]),
                "flow " + std::to_string(f) + " re-run standalone differs from its slot");
      }
      require(same_bits(flow.mean_padding_bps().value_or(-1.0), overhead[f].padding_bps),
              "flow " + std::to_string(f) + " overhead differs from its slot");
    }
    return stamps;
  }

 private:
  core::PopulationSpec spec_;
  core::SweepOptions options_;
  core::PopulationResult result_;
};

// -------------------------------------------------------- robust frontier

/// The 5-rung budget ladder on the zero-cross lab, each point attacked by
/// a best-response adversary tuned over the default 5-feature × 3-window
/// space plus the EDF (KS, CvM) and CUSUM (two target false-alarm rates)
/// families. There are no hops, so the M/G/1 path is bypassed; candidates
/// of one point share identical captures, so the classify, CPD and tuner
/// layers carry a large share of the work.
class RobustFrontierWorkload final : public Workload {
 public:
  std::size_t threads() const override { return kThreads; }
  const char* item() const override { return "points"; }
  double items() const override {
    return static_cast<double>(spec_.frontier.policies.size());
  }

  void setup() override {
    spec_ = {};
    spec_.frontier.scenario = core::lab_zero_cross(core::make_cit());
    spec_.frontier.policies = core::budget_ladder({0.0, 40.0, 70.0, 85.0, 100.0});
    spec_.space.edf_distances = {classify::EdfDistance::kKolmogorovSmirnov,
                                 classify::EdfDistance::kCramerVonMises};
    spec_.space.cpd_target_fars = {0.01, 0.05};
    require(spec_.space.expand().size() == spec_.space.size(),
            "search space expands to the wrong candidate count");
    options_ = {};
    options_.threads = kThreads;
  }

  void run(std::uint64_t input_seed) override {
    spec_.frontier.seed = input_seed;
    result_ = core::run_robust_frontier(spec_, core::sim_backend(), options_);
  }

  void check_result() const override {
    require(result_.points.size() == spec_.frontier.policies.size(),
            "frontier has the wrong point count");
    for (std::size_t i = 0; i < result_.points.size(); ++i) {
      const auto& p = result_.points[i];
      const std::string where = "point " + std::to_string(i);
      require(p.tuned_detection >= p.fixed_detection, where + ": tuned < fixed");
      require_rate(p.fixed_detection, where + " fixed detection");
      require_rate(p.tuned_detection, where + " tuned detection");
      require(std::isfinite(p.overhead_bps) && p.overhead_bps >= 0.0,
              where + ": overhead is not finite and non-negative");
    }
  }

  CampaignStamps run_decomposed(const core::ExperimentBackend& backend) override {
    CampaignStamps stamps;
    const std::size_t count = spec_.frontier.policies.size();
    std::vector<core::TuneResult> tuned;
    core::SweepReport scored;
    const RegionClock clock;
    {
      ScopedSpan campaign("campaign");
      for (std::size_t i = 0; i < count; ++i) {
        ScopedSpan span("tune.point");
        core::Scenario scenario = spec_.frontier.scenario;
        scenario.base.policy = spec_.frontier.policies[i];
        core::TuneOptions tune = spec_.tune;
        tune.sweep = options_;
        tuned.push_back(core::tune_adversary(scenario, spec_.frontier.plan,
                                             spec_.space, spec_.selection_seed(i),
                                             backend, tune));
      }
      ScopedSpan span("score");
      scored = core::SweepRunner(backend, options_).run(count, [&](std::size_t i) {
        core::ExperimentSpec point = spec_.frontier.point_spec(i);
        point.plan.extra_detectors.push_back(tuned[i].winner_spec);
        return point;
      });
    }
    clock.stop(stamps);

    check_result();
    require(scored.all_completed(), "scoring sweep left points unfinished");
    for (std::size_t i = 0; i < count; ++i) {
      const auto& t = tuned[i];
      const auto& p = result_.points[i];
      const std::string where = "point " + std::to_string(i);
      stamps.tune_rounds += t.rounds;
      stamps.tune_evaluations += t.evaluations;
      require(t.winner == p.winner && t.winner_label == p.winner_label &&
                  same_bits(t.winner_score, p.selection_score),
              where + ": tune_adversary winner differs from the frontier's");
      double fixed = 0.0;
      for (const auto& outcome : scored.results[i].per_feature) {
        fixed = std::max(fixed, outcome.detection_rate);
      }
      const double tuned_rate =
          std::max(fixed, scored.results[i].per_detector.back().attack_score);
      require(same_bits(fixed, p.fixed_detection) &&
                  same_bits(tuned_rate, p.tuned_detection),
              where + ": scoring stage differs from the frontier's rates");
    }
    return stamps;
  }

 private:
  core::RobustFrontierSpec spec_;
  core::SweepOptions options_;
  core::RobustFrontierResult result_;
};

// ------------------------------------------------------- sharded campaign

/// The population template with per-flow results kept, a 4-point sample
/// size axis and one CUSUM detector, run as N shards one after another
/// (a worker process per core), each checkpointing to its shard file, then
/// merged from the files. This is the write-heavy use of the population
/// path: shard_io's codec and the whole-file checkpoint rewrites are a
/// visible share of the wall.
class ShardedWorkload final : public Workload {
 public:
  static constexpr std::size_t kFlows = 4000;
  static constexpr std::size_t kShards = 4;

  explicit ShardedWorkload(std::string dir) : dir_(std::move(dir)) {}

  ~ShardedWorkload() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::size_t threads() const override { return kThreads; }
  const char* item() const override { return "flows"; }
  double items() const override { return static_cast<double>(kFlows); }

  void setup() override {
    spec_ = population_template(kFlows);
    spec_.keep_per_flow = true;
    spec_.experiment.sample_size_axis = {10, 20, 30, 40};
    spec_.experiment.plan.cpd_detectors = {classify::CpdConfig{}};
    require_clamped(spec_, spec_.loaded_scenario());
    options_ = {};
    options_.threads = kThreads;
    options_.shard_count = kShards;
    // The directory belongs to this process and every campaign replaces
    // each shard file atomically, so set-up never has to empty it.
    std::filesystem::create_directories(dir_);
    paths_.clear();
    for (std::size_t s = 0; s < kShards; ++s) {
      paths_.push_back((std::filesystem::path(dir_) /
                        ("shard-" + std::to_string(s) + ".jsonl")).string());
    }
  }

  void run(std::uint64_t input_seed) override {
    spec_.seed = input_seed;
    for (std::size_t s = 0; s < kShards; ++s) {
      core::SweepOptions options = options_;
      options.shard_index = s;
      core::ShardRunOptions durability;
      durability.checkpoint_path = paths_[s];
      (void)core::run_population_shard(spec_, core::sim_backend(), options,
                                       durability);
    }
    result_ = core::merge_shard_files(paths_);
  }

  void check_result() const override {
    require(result_.per_flow.size() == kFlows, "per-flow results were not kept");
    for (const auto& flow : result_.per_flow) {
      for (const auto& point : flow.by_sample_size) {
        require_rate(point.per_feature.front().detection_rate, "a flow's detection rate");
      }
    }
    for (const auto& point : result_.by_sample_size) {
      require_rate(point.detected_fraction, "detected fraction");
    }
  }

  CampaignStamps run_decomposed(const core::ExperimentBackend& backend) override {
    CampaignStamps stamps;
    std::vector<core::PopulationShard> shards;
    core::PopulationResult from_files;
    const RegionClock clock;
    {
      ScopedSpan campaign("campaign");
      for (std::size_t s = 0; s < kShards; ++s) {
        ScopedSpan span("shard.run");
        // One thread: flows, progress stamps and checkpoint commits all run
        // in order on this thread, so the interval from a chunk's last flow
        // to its chunk_progress call is exactly that chunk's checkpoint
        // rewrite (serialize the chunk, rebuild the file, write, rename).
        std::int64_t flow_wall = wall_ns();
        std::int64_t flow_cpu = thread_cpu_ns();
        core::SweepOptions options = options_;
        options.shard_index = s;
        options.progress = [&](std::size_t, std::size_t) {
          flow_wall = wall_ns();
          flow_cpu = thread_cpu_ns();
        };
        core::ShardRunOptions durability;
        durability.checkpoint_path = paths_[s];
        durability.chunk_progress = [&](std::size_t done, std::size_t) {
          if (done == 0) return;  // the resumed-baseline report
          Span commit;
          commit.name = "shard.checkpoint";
          commit.id = next_span_id();
          commit.parent = current_parent();
          commit.start_ns = flow_wall;
          commit.end_ns = wall_ns();
          commit.cpu_ns = thread_cpu_ns() - flow_cpu;
          record_span(commit);
          stamps.checkpoint_writes += 1;
          stamps.checkpoint_bytes += std::filesystem::file_size(paths_[s]);
        };
        shards.push_back(
            core::run_population_shard(spec_, backend, options, durability));
      }
      ScopedSpan span("shard.merge");
      from_files = core::merge_shard_files(paths_);
    }
    clock.stop(stamps);

    check_result();
    const std::string json = core::population_result_json(from_files);
    require(json == core::population_result_json(result_),
            "merged shard files differ from the timed campaign");
    {
      ScopedSpan span("shard.serialize");
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::string text = core::serialize_shard(shards[s]);
        stamps.shard_bytes += text.size();
        std::ifstream in(paths_[s], std::ios::binary);
        const std::string on_disk((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
        require(on_disk == text, "shard file " + std::to_string(s) +
                                     " differs from its in-memory shard");
      }
    }
    {
      ScopedSpan span("shard.parse");
      for (std::size_t s = 0; s < kShards; ++s) {
        require(core::read_shard_file(paths_[s]).chunks.size() == shards[s].chunks.size(),
                "shard file " + std::to_string(s) + " parses to another chunk count");
      }
    }

    // The chunks must cover the (flows, grain) partition exactly once.
    const std::size_t total = chunk_count(spec_, options_);
    std::vector<std::size_t> seen(total, 0);
    std::vector<core::ChunkAggregate> chunks;
    for (const auto& shard : shards) {
      stamps.chunks += shard.chunks.size();
      std::vector<std::size_t> ids;
      for (const auto& chunk : shard.chunks) {
        const std::size_t id = chunk.first_flow / shard.grain;
        require(id < total, "a chunk lies outside the partition");
        ++seen[id];
        ids.push_back(id);
        chunks.push_back(chunk);
      }
      require(ids == shard.owned_chunk_ids(), "a shard holds chunks it does not own");
    }
    for (const std::size_t n : seen) require(n == 1, "a chunk is covered other than once");
    std::sort(chunks.begin(), chunks.end(),
              [](const core::ChunkAggregate& a, const core::ChunkAggregate& b) {
                return a.first_flow < b.first_flow;
              });
    core::ChunkAggregate all;
    {
      ScopedSpan span("population.merge");
      all = merge_in_chunk_order(std::move(chunks));
    }
    core::PopulationResult decomposed;
    {
      ScopedSpan span("population.finalize");
      decomposed = core::finalize_population(
          std::move(all), kFlows, spec_.experiment.sample_sizes(),
          spec_.detection_threshold,
          spec_.experiment.scenario.base.policy->mean_interval());
    }
    require(core::population_result_json(decomposed) == json,
            "chunk-order merge + finalize differs from the file merge");
    require(core::population_result_json(core::merge_shards(std::move(shards))) == json,
            "merging the in-memory shards differs from merging the files");
    return stamps;
  }

 private:
  std::string dir_;
  core::PopulationSpec spec_;
  core::SweepOptions options_;
  std::vector<std::string> paths_;
  core::PopulationResult result_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"population", "robust_frontier",
                                                 "sharded_campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch_dir) {
  if (name == "population") return std::make_unique<PopulationWorkload>();
  if (name == "robust_frontier") return std::make_unique<RobustFrontierWorkload>();
  if (name == "sharded_campaign") {
    return std::make_unique<ShardedWorkload>(scratch_dir);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
