// PopulationEngine: the flow-count axis. The paper evaluates ONE padded
// flow against one adversary; its Sec 6 guidelines, however, are about
// deploying link padding for whole user populations — and population-scale
// adversaries are the norm in the related literature (statistical
// disclosure aggregates rounds across many users; throughput
// fingerprinting exploits many concurrent flows sharing a bottleneck).
//
// A population run simulates M concurrent padded flows through one shared
// scenario. Flows contend for the same router path: every flow's hops
// carry the mutual cross traffic of the other padded flows
// (with_population_load — each padded stream offers a payload-independent
// constant wire rate, so the aggregate load is analytic), and the
// adversary taps every flow, running one full detection pipeline
// (ExperimentEngine → DetectorBank per feature) per tapped flow.
//
// Determinism contract (the population analogue of prefix replay,
// DESIGN.md §2.7):
//  * flow f's streams derive from core::derive_point_seed(seed, f) — flows
//    never share RNG streams, and flow f's outcome is a pure function of
//    (spec template, contention, seed, f);
//  * results are bit-identical at ANY thread count: flows dispatch in
//    grain-aligned chunks (util::parallel_for_chunks; chunk boundaries
//    derive from M alone), each chunk folds its flows' rates and overhead
//    into a mergeable accumulator in flow order, and the per-chunk partials
//    reduce in a deterministic fixed-shape binary tree (util::tree_reduce)
//    whose merges are exact concatenations — so the order-sensitive P²
//    sketches still see the full flow-id feed order at finalize;
//  * M-prefix: flows 0..k-1 of an M-flow run are bit-identical to a
//    standalone k-flow run of the same spec with contention_flows pinned
//    to M — shrinking the tapped set never perturbs the flows kept.
//
// Memory: per-flow results are O(features × axis); transient per-worker
// state is O(batch + axis · features × window) per in-flight flow, so a
// 10k-flow run needs O(threads) flow pipelines resident, never O(M).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/check.hpp"

namespace linkpad::core {

/// One population experiment: M flows × one per-flow experiment template.
struct PopulationSpec {
  /// Per-flow experiment (scenario, adversary, features, sample-size axis,
  /// window budgets). `experiment.seed` is ignored: flow f runs with
  /// derive_point_seed(seed, f) so flows never share streams.
  ExperimentSpec experiment;

  /// Number of tapped flows M (each gets its own adversary pipeline).
  std::size_t flows = 1;

  /// Sampled execution mode (DESIGN.md §2.11): when non-zero, the engine
  /// simulates only this many flows — stratum `sample_round` of a
  /// seed-derived pseudorandom permutation of [0, flows) — while the
  /// contention model stays at the FULL population (effective_contention()
  /// still resolves from `flows`). Cross-load is analytic per flow, so each
  /// sampled flow's capture is bitwise identical to the same flow_id in the
  /// exhaustive run; aggregates over the sample carry concentration-bound
  /// error bars (PopulationResult::estimates). 0 ⇒ exhaustive.
  std::size_t sample_flows = 0;

  /// Which disjoint stratum of the sampling permutation to execute:
  /// positions [round·m, (round+1)·m). Rounds never overlap, which is what
  /// lets run_sampled_until grow the sample by whole strata.
  std::size_t sample_round = 0;

  /// Number of flows loading the shared path. 0 ⇒ `flows` (every tapped
  /// flow is also on the link). Each flow's hops then carry the wire rate
  /// of the OTHER contention_flows - 1 padded streams as cross traffic.
  /// The M-prefix contract compares runs at EQUAL contention: tapping
  /// fewer flows of the same deployed population (contention pinned) keeps
  /// the kept flows bit-identical.
  std::size_t contention_flows = 0;

  /// Per-hop utilization cap under population load (sim::add_cross_load).
  double max_hop_utilization = 0.95;

  /// A flow counts as "detected" at a sample size when its primary-feature
  /// detection rate reaches this threshold. 0.75 is halfway between
  /// coin-flipping and certainty — past it the adversary is clearly
  /// winning on that flow.
  double detection_threshold = 0.75;

  /// Materialize per-flow ExperimentResults in PopulationResult::per_flow.
  /// true keeps the full per-flow detail (memory O(M × features × axis));
  /// false drops each flow's result right after its rates and overhead are
  /// folded into the chunk aggregates, shrinking a run to O(M × axis)
  /// doubles — the knob for the millions-of-flows regime. Aggregates are
  /// bit-identical either way.
  bool keep_per_flow = true;

  std::uint64_t seed = 20030324;

  /// contention_flows, with 0 resolved to `flows`. Sampling never changes
  /// this: a sampled run keeps the full M flows on the link.
  [[nodiscard]] std::size_t effective_contention() const {
    return contention_flows == 0 ? flows : contention_flows;
  }

  /// A copy of this spec in sampled mode: simulate stratum `round` (m flows)
  /// of the deployed population of `flows`.
  [[nodiscard]] PopulationSpec sampled(std::size_t m,
                                       std::size_t round = 0) const {
    PopulationSpec out = *this;
    out.sample_flows = m;
    out.sample_round = round;
    return out;
  }

  [[nodiscard]] bool is_sampled() const { return sample_flows != 0; }

  /// Number of flows a run of this spec actually simulates: m when sampled,
  /// M when exhaustive. The chunk partition (and the shard ownership map)
  /// lives in this executed index space.
  [[nodiscard]] std::size_t executed_flows() const {
    return sample_flows == 0 ? flows : sample_flows;
  }

  /// The shared scenario under population cross-load. Each contention flow
  /// offers flow_wire_rate_bps: the analytic constant rate for the paper's
  /// policies, a MEASURED calibration rate for payload-reactive policies
  /// (whose wire load tracks the payload instead of the timer — the
  /// constant-wire-rate invariant the analytic form needs is gone). The
  /// calibration substream derives from (seed, kCalibrationSalt), so every
  /// flow sees the identical loaded path. Flow-independent; the engine
  /// computes it ONCE per run.
  [[nodiscard]] Scenario loaded_scenario() const;

  /// The fully resolved per-flow spec of flow `flow_id`: the shared
  /// scenario under population load, the template's adversary/axis, and
  /// the flow's derived seed. A standalone ExperimentEngine::run of this
  /// spec is bit-identical to slot `flow_id` of the population run.
  [[nodiscard]] ExperimentSpec flow_spec(std::size_t flow_id) const;

  /// Salt of the calibration substream — far outside any flow id, so the
  /// measurement never shares streams with a tapped flow.
  static constexpr std::uint64_t kCalibrationSalt = 0x63616c6962726174ULL;
};

/// One flow's overhead summary, recorded in-worker so the population
/// aggregates survive keep_per_flow = false.
struct FlowOverhead {
  bool has_cost = false;  ///< padding/wire/dummy accounting present
  double padding_bps = 0.0;
  double wire_bps = 0.0;
  double dummy_fraction = 0.0;
  bool has_delay = false;
  Seconds delay_p95 = 0.0;
};

/// One flow's outcome for ONE configured change-point detector, recorded
/// in-worker (like FlowOverhead) so the population CPD aggregates survive
/// keep_per_flow = false.
struct FlowCpd {
  bool detected = false;           ///< every class stream tripped its side
  std::size_t n_at_detection = 0;  ///< worst first-crossing; 0 if undetected
  std::size_t false_alarms = 0;    ///< wrong-side crossings, all streams
  double threshold = 0.0;          ///< h in use (post-calibration)
};

/// Mergeable per-chunk aggregation state (DESIGN.md §2.9). A chunk covers a
/// contiguous, grain-aligned run of flow ids and stores, in flow order: one
/// detection rate per (axis point, flow), one overhead summary per flow,
/// and (optionally) the flows' full ExperimentResults. Merging adjacent
/// chunks is ordered concatenation — exact and associative — so the
/// reduction tree's shape can never perturb a bit; the order-sensitive
/// parts of the aggregation (P² sketches, float sums) run over the merged
/// flow-order sequence at finalize. Because the merge is pure
/// concatenation, a chunk is also the unit of process sharding: shard
/// files carry serialized ChunkAggregates (core/shard_io), and N-shard
/// merges reassemble exactly the sequence a single process would have
/// reduced.
struct ChunkAggregate {
  std::size_t first_flow = 0;
  std::vector<std::vector<double>> rates;  ///< [axis point][flow - first_flow]
  std::vector<FlowOverhead> overhead;      ///< [flow - first_flow]
  /// Configured change-point schemes (identical in every chunk of a run —
  /// carried so finalize and shard validation know the detector layout).
  std::vector<classify::CpdKind> cpd_kinds;
  std::vector<std::vector<FlowCpd>> cpd;   ///< [cpd detector][flow - first_flow]
  std::vector<ExperimentResult> per_flow;  ///< kept only when requested

  /// Flows this chunk covers (overhead has exactly one entry per flow).
  [[nodiscard]] std::size_t flow_count() const { return overhead.size(); }

  void merge(ChunkAggregate& right) {
    LINKPAD_EXPECTS(first_flow + overhead.size() == right.first_flow);
    LINKPAD_EXPECTS(cpd_kinds == right.cpd_kinds);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      rates[i].insert(rates[i].end(), right.rates[i].begin(),
                      right.rates[i].end());
    }
    overhead.insert(overhead.end(), right.overhead.begin(),
                    right.overhead.end());
    for (std::size_t j = 0; j < cpd.size(); ++j) {
      cpd[j].insert(cpd[j].end(), right.cpd[j].begin(), right.cpd[j].end());
    }
    per_flow.insert(per_flow.end(),
                    std::make_move_iterator(right.per_flow.begin()),
                    std::make_move_iterator(right.per_flow.end()));
  }
};

/// The grain actually used for `flows` when SweepOptions::grain is
/// `grain_option` (0 ⇒ the flow-count-derived default clamp(M/128, 1, 32)).
/// The chunk partition is a pure function of (flows, grain) — never the
/// pool width or process count — which is what makes N-shard merges
/// bit-identical to the single-process run (DESIGN.md §2.10).
[[nodiscard]] std::size_t resolved_flow_grain(std::size_t flows,
                                              std::size_t grain_option);

/// Number of grain-aligned chunks in the (flows, grain) partition. Chunk c
/// covers flows [c·grain, min(flows, (c+1)·grain)).
[[nodiscard]] std::size_t population_chunk_count(std::size_t flows,
                                                 std::size_t grain);

/// The flow ids stratum `round` of the sampling permutation selects:
/// positions [round·m, (round+1)·m) of a seed-keyed pseudorandom
/// permutation of [0, flows), in permutation order. Implemented as a
/// 4-round Feistel network over the smallest even-bit power-of-two domain
/// covering `flows`, cycle-walked back into range — a bijection evaluated
/// in O(1) memory, so selecting 1k of 10M flows never materializes the
/// population. Pure integer function of (flows, m, round, seed): identical
/// on every thread, shard, and platform. Distinct rounds are disjoint by
/// construction. Requires 1 ≤ m ≤ flows and (round+1)·m ≤ flows.
[[nodiscard]] std::vector<std::size_t> sampled_flow_ids(std::size_t flows,
                                                        std::size_t m,
                                                        std::size_t round,
                                                        std::uint64_t seed);

/// Detection-rate quantiles over the population (stats::P2Quantile; exact
/// for M ≤ 5, documented ~1% sketch accuracy beyond).
struct RateQuantiles {
  double p05 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
};

/// Population-level aggregation at one sample size (primary feature).
struct PopulationPoint {
  std::size_t sample_size = 0;
  /// Fraction of flows at or above the detection threshold.
  double detected_fraction = 0.0;
  double mean_rate = 0.0;
  /// Extremes start at the identity of min/max so a default-constructed
  /// point is safe to fold rates into (and obviously unfed if read early).
  double min_rate = std::numeric_limits<double>::infinity();
  double max_rate = -std::numeric_limits<double>::infinity();
  /// Flow with the highest detection rate — the deployment's worst case
  /// (ties break to the lowest flow id).
  std::size_t worst_flow = 0;
  RateQuantiles quantiles;
};

/// Population-level aggregation of ONE configured change-point detector
/// over all tapped flows (folded in flow-id order, so bit-identical at any
/// thread count or shard layout).
struct CpdPopulationPoint {
  classify::CpdKind kind = classify::CpdKind::kCusum;
  /// Mean calibrated threshold across flows (per-flow thresholds differ:
  /// each flow calibrates on its own training capture).
  double mean_threshold = 0.0;
  /// Fraction of flows whose every class stream tripped its targeting side.
  double detected_fraction = 0.0;
  /// Mean worst first-crossing PIAT count over the DETECTED flows
  /// (0 when no flow was detected).
  double mean_n_at_detection = 0.0;
  /// Fastest detection across the population; 0 when no flow was detected.
  std::size_t min_n_at_detection = 0;
  /// REAL flow id of the fastest-detected flow (ties break to the lowest
  /// execution slot) — the deployment's most exposed user.
  std::size_t first_exposed_flow = 0;
  /// min_n_at_detection as observation time: PIATs × mean timer interval.
  /// nullopt when no flow was detected.
  std::optional<Seconds> min_time_to_detection;
  /// Mean wrong-side alarm count per flow.
  double mean_false_alarms = 0.0;
};

/// Two-sided confidence level every sampled-mode estimate is computed at
/// unless a caller (run_sampled_until) asks otherwise. A constant, not a
/// spec knob: merge_shards must finalize with the same level as the
/// single-process run for the byte-diffed JSON to agree.
inline constexpr double kDefaultEstimateConfidence = 0.95;

/// A population-level estimate extrapolated from a sample: the point value
/// measured over the m executed flows plus a finite-sample [lo, hi] bound
/// on the corresponding exhaustive-M value (stats/concentration).
struct PopulationEstimate {
  double point = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t m = 0;  ///< flows the estimate was measured on
  std::size_t M = 0;  ///< deployed population it speaks for

  [[nodiscard]] double half_width() const { return (hi - lo) / 2.0; }
};

/// Per-sample-size error bars of a sampled run, parallel to
/// PopulationResult::by_sample_size.
struct SampledEstimates {
  std::size_t sample_size = 0;
  /// Wilson score interval on the population detected fraction.
  PopulationEstimate detected_fraction;
  /// Hoeffding interval on the population mean detection rate (rates are
  /// bounded in [0, 1], so the bound needs no variance estimate).
  PopulationEstimate mean_rate;
  /// DKW band half-width: the sample's rate ECDF (hence each reported
  /// quantile's plotting position) is within ±dkw_epsilon of the
  /// population ECDF, simultaneously over the whole curve.
  double dkw_epsilon = 0.0;
};

/// Outcome of a population run: per-flow experiment results (slot = flow
/// id; empty when PopulationSpec::keep_per_flow is false) plus one
/// aggregated point per sample size (ascending, mirroring
/// ExperimentResult::by_sample_size) and population-wide overhead
/// aggregates.
struct PopulationResult {
  std::vector<ExperimentResult> per_flow;
  std::vector<PopulationPoint> by_sample_size;
  /// One aggregate per configured change-point detector
  /// (PopulationSpec::experiment.cpd_detectors order); empty without CPD.
  std::vector<CpdPopulationPoint> cpd;

  /// Smallest axis sample size at which ANY flow crosses the detection
  /// threshold; empty when the whole population holds at every n.
  std::optional<std::size_t> first_detection_n;
  /// first_detection_n expressed as observation time: n PIATs ≈ n mean
  /// timer intervals of capture on the weakest flow.
  std::optional<Seconds> time_to_first_detection;

  /// Padding-cost aggregates across the population (equal priors, like the
  /// per-flow ExperimentResult::mean_* accessors): means over flows of each
  /// flow's expected overhead, and the worst per-flow p95 payload queueing
  /// delay (ties break to the lowest flow id). nullopt when any flow lacks
  /// backend accounting (live captures). Folded in flow-id order, so they
  /// are bit-identical at any thread count — and they survive
  /// keep_per_flow = false.
  std::optional<double> mean_padding_bps;
  std::optional<double> mean_wire_bps;
  std::optional<double> mean_dummy_fraction;
  std::optional<Seconds> worst_delay_p95;

  /// Number of flows the run executed (per_flow.size() when per-flow
  /// results were kept; the executed count when they were dropped).
  std::size_t flow_count = 0;

  /// Sampled-mode provenance: the deployed population M the executed flows
  /// were drawn from (0 ⇒ exhaustive run), the real flow ids executed (slot
  /// i of per_flow / of each rates row is flow sampled_ids[i]), and one
  /// error-bar block per sample size. All empty/zero when exhaustive.
  std::size_t sampled_from = 0;
  std::vector<std::size_t> sampled_ids;
  std::vector<SampledEstimates> estimates;
  /// Empirical-Bernstein interval on the population mean dummy fraction
  /// (per-flow dummy fractions concentrate tightly under a common policy,
  /// where Bernstein beats Hoeffding); absent when overhead accounting is
  /// (or exhaustive mode makes estimates) unavailable.
  std::optional<PopulationEstimate> dummy_fraction_estimate;

  [[nodiscard]] bool is_sampled() const { return sampled_from != 0; }

  [[nodiscard]] std::size_t flows() const { return flow_count; }

  /// Point at sample size `n`; throws if `n` was not on the axis.
  [[nodiscard]] const PopulationPoint& at_sample_size(std::size_t n) const;
};

/// Runs M per-flow experiments sharded across util::thread_pool and
/// aggregates them. Accepts SweepOptions (threads / batch_piats / grain /
/// progress, where progress counts finished flows); early_stop must be
/// unset — skipping flows would break the population aggregates.
/// Dispatch is chunked by construction (flows are many and cheap):
/// execution = kSerial forces the inline reference schedule, every other
/// policy runs grain-aligned chunks over the pool with one spec copy per
/// worker slot. grain = 0 picks a flow-count-derived default; any grain
/// yields bit-identical results.
class PopulationEngine {
 public:
  explicit PopulationEngine(const ExperimentBackend& backend = sim_backend(),
                            SweepOptions options = {});

  [[nodiscard]] PopulationResult run(const PopulationSpec& spec) const;

  /// Compute the chunk aggregates of a SUBSET of the (flows, grain)
  /// partition — the shard execution mode (core/shard_io). `chunk_ids`
  /// selects chunks (each < population_chunk_count, strictly ascending);
  /// slot i of the returned vector is chunk chunk_ids[i]. Every chunk is
  /// the identical pure function of (spec, chunk id) the full run
  /// computes, so reassembling all chunks of all shards and running the
  /// finalize once reproduces run() bit for bit. `on_chunk`, when set, is
  /// invoked under an internal lock — serialized, possibly out of chunk
  /// order — right after each chunk completes, with (chunk id, aggregate):
  /// the checkpoint hook a durable shard file hangs off.
  [[nodiscard]] std::vector<ChunkAggregate> run_chunks(
      const PopulationSpec& spec, const std::vector<std::size_t>& chunk_ids,
      const std::function<void(std::size_t, const ChunkAggregate&)>& on_chunk =
          {}) const;

  [[nodiscard]] const SweepOptions& options() const { return options_; }

 private:
  const ExperimentBackend* backend_;
  SweepOptions options_;
};

/// The order-sensitive tail of a population run: P² feeds, float sums,
/// min/max/worst-flow and the population-wide overhead fold over the merged
/// flow-order aggregate. Runs EXACTLY once per population — at the end of
/// PopulationEngine::run, or once in core::merge_shards after the last
/// shard is concatenated (running it per shard would feed the sketches
/// partial sequences). `all` must cover flows [0, flows) in order;
/// `mean_interval` is the padding policy's mean timer interval (converts
/// first_detection_n to observation time).
///
/// For a sampled run, pass a SampledFinalize: `flows` is then the executed
/// count m, execution slot i is real flow `sampled.flow_ids[i]` (worst_flow
/// reports real ids), and the result carries concentration-bound estimates
/// for the population of `sampled.population` flows.
struct SampledFinalize {
  std::size_t population = 0;          ///< deployed M behind the sample
  std::vector<std::size_t> flow_ids;   ///< executed ids, execution order
  double confidence = kDefaultEstimateConfidence;
};

/// The finalize view of a campaign of `flows` flows: nullopt when
/// exhaustive (sample_flows == 0), else stratum `sample_round` of
/// sample_flows flows under `seed`, at the default confidence.
[[nodiscard]] std::optional<SampledFinalize> sampled_finalize(
    std::size_t flows, std::size_t sample_flows, std::size_t sample_round,
    std::uint64_t seed);

[[nodiscard]] PopulationResult finalize_population(ChunkAggregate all,
                                                   std::size_t flows,
                                                   const std::vector<std::size_t>& sample_sizes,
                                                   double detection_threshold,
                                                   Seconds mean_interval,
                                                   const SampledFinalize* sampled = nullptr);

/// Run one population experiment on the default simulated backend.
PopulationResult run_population(const PopulationSpec& spec);

/// Adaptive sampling driver: add disjoint strata of `round_flows` flows
/// until the widest per-sample-size Wilson half-width on the detected
/// fraction reaches `target_half_width` (or the permutation runs out of
/// whole strata, or `max_rounds` caps the loop).
struct AdaptiveSamplingOptions {
  std::size_t round_flows = 256;
  double target_half_width = 0.05;
  double confidence = kDefaultEstimateConfidence;
  std::size_t max_rounds = 0;  ///< 0 ⇒ only stratum exhaustion stops growth
};

/// Runs spec.sampled(round_flows, r) for r = 0, 1, … — each round's chunks
/// computed by the normal chunked/threaded path — concatenating rounds via
/// the same ChunkAggregate/tree_reduce machinery and re-finalizing after
/// each, until the stopping rule fires. `spec` must be exhaustive (the
/// driver owns the sampling fields); requires round_flows ≤ spec.flows.
/// The result is bit-identical to a single spec.sampled(k·round_flows)-
/// style run over the same k strata at any thread count or grain.
[[nodiscard]] PopulationResult run_sampled_until(
    const PopulationSpec& spec, const AdaptiveSamplingOptions& adaptive,
    const ExperimentBackend& backend = sim_backend(), SweepOptions options = {});

/// Deterministic JSON rendering of a PopulationResult: every double carried
/// as its hex bit pattern (plus a human-readable echo derived from the same
/// bits), per-flow primary detection rates included when present. Two
/// bit-identical results render to byte-identical JSON — the CI shard-smoke
/// diff and the N-shard merge walls compare these bytes.
[[nodiscard]] std::string population_result_json(const PopulationResult& result);

}  // namespace linkpad::core
