#include "core/population.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/codec.hpp"
#include "stats/concentration.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::core {

Scenario PopulationSpec::loaded_scenario() const {
  const std::size_t others = effective_contention() - 1;
  if (others == 0) return experiment.scenario;
  const double per_flow_bps = flow_wire_rate_bps(
      experiment.scenario, derive_point_seed(seed, kCalibrationSalt));
  return with_population_load(experiment.scenario, others,
                              max_hop_utilization, per_flow_bps);
}

ExperimentSpec PopulationSpec::flow_spec(std::size_t flow_id) const {
  LINKPAD_EXPECTS(flow_id < flows);
  ExperimentSpec out = experiment;
  out.scenario = loaded_scenario();
  out.seed = derive_point_seed(seed, flow_id);
  return out;
}

const PopulationPoint& PopulationResult::at_sample_size(std::size_t n) const {
  // by_sample_size is ascending in n (spec.sample_sizes() order).
  const auto it = std::lower_bound(
      by_sample_size.begin(), by_sample_size.end(), n,
      [](const PopulationPoint& point, std::size_t key) {
        return point.sample_size < key;
      });
  if (it == by_sample_size.end() || it->sample_size != n) {
    // Merge-mismatch diagnostics hit this first: name what was asked AND
    // what the axis actually holds, so a shard merged against the wrong
    // spec is identifiable from the message alone.
    std::ostringstream msg;
    msg << "PopulationResult::at_sample_size: requested n = " << n
        << " is not on the axis; available sample sizes:";
    if (by_sample_size.empty()) {
      msg << " (none)";
    } else {
      for (const auto& point : by_sample_size) msg << ' ' << point.sample_size;
    }
    throw std::invalid_argument(msg.str());
  }
  return *it;
}

std::size_t resolved_flow_grain(std::size_t flows, std::size_t grain_option) {
  if (grain_option != 0) return grain_option;
  // Chunk size for the flow axis: large enough that chunk claims are
  // amortized against ~100 µs+ per-flow pipelines, small enough that
  // M = 1000 still load-balances across a wide machine. Derives from M
  // alone — the chunk partition is part of the determinism contract, so it
  // must not depend on the pool (or the shard count).
  return std::clamp<std::size_t>(flows / 128, 1, 32);
}

std::size_t population_chunk_count(std::size_t flows, std::size_t grain) {
  LINKPAD_EXPECTS(grain >= 1);
  return (flows + grain - 1) / grain;
}

namespace {

/// Salt separating the sampling permutation's key schedule from every flow
/// substream (flow ids and kCalibrationSalt both feed derive_point_seed on
/// the raw seed; the permutation keys derive from seed ^ salt).
constexpr std::uint64_t kSampleSalt = 0x73616d706c656431ULL;  // "sampled1"

}  // namespace

std::vector<std::size_t> sampled_flow_ids(std::size_t flows, std::size_t m,
                                          std::size_t round,
                                          std::uint64_t seed) {
  LINKPAD_EXPECTS(flows >= 1);
  LINKPAD_EXPECTS(m >= 1 && m <= flows);
  LINKPAD_EXPECTS(round <= (flows - m) / m);  // (round+1)·m ≤ flows, no overflow

  // Feistel domain: the smallest even-bit power of two covering `flows`
  // (even so the two halves are the same width). At most 4·flows, so the
  // cycle walk below terminates in ~4 expected steps.
  int bits = 2;
  while ((std::uint64_t{1} << bits) < flows) bits += 2;
  const int half_bits = bits / 2;
  const std::uint64_t mask = (std::uint64_t{1} << half_bits) - 1;

  std::uint64_t keys[4];
  for (std::uint64_t r = 0; r < 4; ++r) {
    keys[r] = derive_point_seed(seed ^ kSampleSalt, r);
  }
  const auto permute = [&](std::uint64_t x) {
    std::uint64_t left = x >> half_bits;
    std::uint64_t right = x & mask;
    for (const std::uint64_t key : keys) {
      const std::uint64_t next = left ^ (derive_point_seed(key, right) & mask);
      left = right;
      right = next;
    }
    return (left << half_bits) | right;
  };

  std::vector<std::size_t> ids;
  ids.reserve(m);
  for (std::size_t p = round * m; p < round * m + m; ++p) {
    // Cycle-walk: the permutation is a bijection on [0, 2^bits); following
    // the orbit from a position < flows must re-enter [0, flows) — and the
    // first re-entry point is itself a bijection of the position, so
    // distinct positions (hence distinct rounds) select distinct flows.
    std::uint64_t x = permute(p);
    while (x >= flows) x = permute(x);
    ids.push_back(static_cast<std::size_t>(x));
  }
  return ids;
}

namespace {

void validate_spec(const PopulationSpec& spec) {
  LINKPAD_EXPECTS(spec.flows >= 1);
  LINKPAD_EXPECTS(spec.contention_flows == 0 ||
                  spec.contention_flows >= spec.flows);
  LINKPAD_EXPECTS(spec.detection_threshold > 0.0 &&
                  spec.detection_threshold <= 1.0);
  if (spec.is_sampled()) {
    LINKPAD_EXPECTS(spec.sample_flows <= spec.flows);
    LINKPAD_EXPECTS(spec.sample_round <=
                    (spec.flows - spec.sample_flows) / spec.sample_flows);
  } else {
    LINKPAD_EXPECTS(spec.sample_round == 0);
  }
}

}  // namespace

PopulationEngine::PopulationEngine(const ExperimentBackend& backend,
                                   SweepOptions options)
    : backend_(&backend), options_(std::move(options)) {
  // Skipped flows would leave default-initialized holes in the population
  // aggregates; a run is all flows or nothing.
  LINKPAD_EXPECTS(!options_.early_stop);
}

std::vector<ChunkAggregate> PopulationEngine::run_chunks(
    const PopulationSpec& spec, const std::vector<std::size_t>& chunk_ids,
    const std::function<void(std::size_t, const ChunkAggregate&)>& on_chunk)
    const {
  validate_spec(spec);
  // Everything below runs in the EXECUTED index space: m slots when
  // sampled, M when exhaustive. The chunk partition, shard ownership and
  // progress totals all live there; only the per-flow seed (and the
  // contention model, which resolves from spec.flows regardless) sees the
  // real flow ids.
  const std::size_t flows = spec.executed_flows();
  const std::size_t grain = resolved_flow_grain(flows, options_.grain);
  const std::size_t total_chunks = population_chunk_count(flows, grain);
  std::vector<std::size_t> sampled_ids;
  if (spec.is_sampled()) {
    sampled_ids = sampled_flow_ids(spec.flows, spec.sample_flows,
                                   spec.sample_round, spec.seed);
  }
  for (std::size_t i = 0; i < chunk_ids.size(); ++i) {
    LINKPAD_EXPECTS(chunk_ids[i] < total_chunks);
    LINKPAD_EXPECTS(i == 0 || chunk_ids[i - 1] < chunk_ids[i]);
  }
  if (chunk_ids.empty()) return {};

  // The loaded scenario is flow-independent: resolve it ONCE (a reactive
  // policy's rate calibration runs a capture — per-flow recomputation
  // would re-simulate it M times) and stamp each flow's seed in-worker.
  // flow_spec(f) stays the contract: it resolves to exactly this spec.
  const Scenario loaded = spec.loaded_scenario();
  const auto ns = spec.experiment.sample_sizes();
  const std::size_t n_cpd = spec.experiment.plan.cpd_detectors.size();
  std::vector<classify::CpdKind> cpd_kinds;
  cpd_kinds.reserve(n_cpd);
  for (const auto& config : spec.experiment.plan.cpd_detectors) {
    cpd_kinds.push_back(config.kind);
  }
  const ExperimentEngine engine(*backend_, options_.batch_piats);

  std::size_t shard_flows = 0;  // flows this call executes (progress total)
  for (const std::size_t c : chunk_ids) {
    shard_flows += std::min(flows, (c + 1) * grain) - c * grain;
  }

  std::vector<ChunkAggregate> chunks(chunk_ids.size());
  std::atomic<std::size_t> done{0};
  std::mutex chunk_mutex;  // serializes on_chunk (checkpoint appends)

  // Per worker slot: ONE spec whose scenario (and its shared policy
  // prototype) is copied once per slot, then re-seeded per flow — instead
  // of a Scenario copy per flow whose shared_ptr refcounts ping-pong
  // between threads. Dispatch is over chunk-id slots (grain 1 in chunk
  // space): one atomic claim per chunk, exactly like the full run.
  std::vector<std::optional<ExperimentSpec>> slot_specs;
  auto body = [&](std::size_t slot, std::size_t chunk_begin,
                  std::size_t chunk_end) {
    if (!slot_specs[slot]) {
      slot_specs[slot] = spec.experiment;
      slot_specs[slot]->scenario = loaded;
    }
    ExperimentSpec& flow_spec = *slot_specs[slot];
    for (std::size_t slot_idx = chunk_begin; slot_idx < chunk_end;
         ++slot_idx) {
      const std::size_t chunk_id = chunk_ids[slot_idx];
      const std::size_t begin = chunk_id * grain;
      const std::size_t end = std::min(flows, begin + grain);
      ChunkAggregate& chunk = chunks[slot_idx];
      chunk.first_flow = begin;
      const std::size_t count = end - begin;
      chunk.rates.resize(ns.size());
      for (auto& r : chunk.rates) r.reserve(count);
      chunk.overhead.reserve(count);
      chunk.cpd_kinds = cpd_kinds;
      chunk.cpd.resize(n_cpd);
      for (auto& row : chunk.cpd) row.reserve(count);
      if (spec.keep_per_flow) chunk.per_flow.reserve(count);

      for (std::size_t f = begin; f < end; ++f) {
        const std::size_t flow_id = spec.is_sampled() ? sampled_ids[f] : f;
        flow_spec.seed = derive_point_seed(spec.seed, flow_id);
        ExperimentResult result = engine.run(flow_spec);
        LINKPAD_ENSURES(result.by_sample_size.size() == ns.size());
        LINKPAD_ENSURES(result.cpd.size() == n_cpd);
        for (std::size_t i = 0; i < ns.size(); ++i) {
          chunk.rates[i].push_back(
              result.by_sample_size[i].per_feature.front().detection_rate);
        }
        for (std::size_t j = 0; j < n_cpd; ++j) {
          const classify::CpdOutcome& out = result.cpd[j];
          chunk.cpd[j].push_back({out.ttd.detected, out.ttd.n_at_detection,
                                  out.ttd.false_alarms, out.threshold});
        }
        FlowOverhead oh;
        if (const auto padding = result.mean_padding_bps()) {
          oh.has_cost = true;
          oh.padding_bps = *padding;
          oh.wire_bps = result.mean_wire_bps().value_or(0.0);
          oh.dummy_fraction = result.mean_dummy_fraction().value_or(0.0);
        }
        if (const auto delay = result.worst_delay_p95()) {
          oh.has_delay = true;
          oh.delay_p95 = *delay;
        }
        chunk.overhead.push_back(oh);
        if (spec.keep_per_flow) chunk.per_flow.push_back(std::move(result));
        const std::size_t finished = done.fetch_add(1) + 1;
        if (options_.progress) options_.progress(finished, shard_flows);
      }
      if (on_chunk) {
        const std::lock_guard<std::mutex> lock(chunk_mutex);
        on_chunk(chunk_id, chunk);
      }
    }
  };

  const std::size_t n_chunks = chunk_ids.size();
  util::with_pool(options_.threads, [&](util::ThreadPool& pool) {
    slot_specs.resize(util::chunk_slots(pool, n_chunks, 1));
    util::parallel_for_chunks(pool, n_chunks, 1, body);
  });
  LINKPAD_ENSURES(done.load() == shard_flows);
  return chunks;
}

std::optional<SampledFinalize> sampled_finalize(std::size_t flows,
                                                std::size_t sample_flows,
                                                std::size_t sample_round,
                                                std::uint64_t seed) {
  if (sample_flows == 0) return std::nullopt;
  return SampledFinalize{
      flows, sampled_flow_ids(flows, sample_flows, sample_round, seed)};
}

PopulationResult finalize_population(ChunkAggregate all, std::size_t flows,
                                     const std::vector<std::size_t>& sample_sizes,
                                     double detection_threshold,
                                     Seconds mean_interval,
                                     const SampledFinalize* sampled) {
  LINKPAD_EXPECTS(flows >= 1);
  LINKPAD_EXPECTS(all.first_flow == 0);
  LINKPAD_EXPECTS(all.flow_count() == flows);
  LINKPAD_EXPECTS(all.rates.size() == sample_sizes.size());
  if (sampled != nullptr) {
    LINKPAD_EXPECTS(sampled->flow_ids.size() == flows);
    LINKPAD_EXPECTS(sampled->population >= flows);
  }

  PopulationResult result;
  result.flow_count = flows;
  result.per_flow = std::move(all.per_flow);
  if (sampled != nullptr) {
    result.sampled_from = sampled->population;
    result.sampled_ids = sampled->flow_ids;
  }

  // Finalize the order-sensitive aggregates over the merged flow-order
  // rates: P² marker state depends on feed order, so the fixed order is
  // what keeps population metrics bit-identical across thread counts.
  const double m = static_cast<double>(flows);
  result.by_sample_size.reserve(sample_sizes.size());
  for (std::size_t i = 0; i < sample_sizes.size(); ++i) {
    PopulationPoint point;
    point.sample_size = sample_sizes[i];
    stats::P2Quantile q05(0.05), q25(0.25), q50(0.5), q75(0.75), q95(0.95);
    double sum = 0.0;
    std::size_t detected = 0;
    for (std::size_t f = 0; f < flows; ++f) {
      const double rate = all.rates[i][f];
      q05.add(rate);
      q25.add(rate);
      q50.add(rate);
      q75.add(rate);
      q95.add(rate);
      sum += rate;
      if (rate >= detection_threshold) ++detected;
      if (rate < point.min_rate) point.min_rate = rate;
      if (rate > point.max_rate) {
        point.max_rate = rate;
        // worst_flow names the REAL flow id so a sampled campaign's worst
        // case is actionable against the deployed population.
        point.worst_flow = sampled != nullptr ? sampled->flow_ids[f] : f;
      }
    }
    point.detected_fraction = static_cast<double>(detected) / m;
    point.mean_rate = sum / m;
    point.quantiles = {q05.value(), q25.value(), q50.value(), q75.value(),
                       q95.value()};
    result.by_sample_size.push_back(point);

    if (sampled != nullptr) {
      SampledEstimates est;
      est.sample_size = sample_sizes[i];
      const stats::ConfidenceInterval det = stats::wilson_interval(
          detected, flows, sampled->confidence);
      est.detected_fraction = {det.point, det.lo, det.hi, flows,
                               sampled->population};
      const stats::ConfidenceInterval mean = stats::hoeffding_interval(
          point.mean_rate, flows, 0.0, 1.0, sampled->confidence);
      est.mean_rate = {mean.point, mean.lo, mean.hi, flows,
                       sampled->population};
      est.dkw_epsilon = stats::dkw_epsilon(flows, sampled->confidence);
      result.estimates.push_back(est);
    }

    if (!result.first_detection_n && detected > 0) {
      result.first_detection_n = sample_sizes[i];
      result.time_to_first_detection =
          static_cast<double>(sample_sizes[i]) * mean_interval;
    }
  }

  // Change-point aggregates: one fold per configured detector, flow-id
  // order (pure sums and min — but the fixed order keeps the float sums
  // bit-identical across thread counts and shard layouts too).
  result.cpd.reserve(all.cpd_kinds.size());
  for (std::size_t j = 0; j < all.cpd_kinds.size(); ++j) {
    LINKPAD_EXPECTS(all.cpd[j].size() == flows);
    CpdPopulationPoint point;
    point.kind = all.cpd_kinds[j];
    double threshold_sum = 0.0, alarm_sum = 0.0, n_sum = 0.0;
    std::size_t detected = 0;
    std::size_t min_n = std::numeric_limits<std::size_t>::max();
    for (std::size_t f = 0; f < flows; ++f) {
      const FlowCpd& fc = all.cpd[j][f];
      threshold_sum += fc.threshold;
      alarm_sum += static_cast<double>(fc.false_alarms);
      if (fc.detected) {
        ++detected;
        n_sum += static_cast<double>(fc.n_at_detection);
        if (fc.n_at_detection < min_n) {
          min_n = fc.n_at_detection;
          // The REAL flow id, so a sampled campaign's most exposed user is
          // actionable against the deployed population.
          point.first_exposed_flow =
              sampled != nullptr ? sampled->flow_ids[f] : f;
        }
      }
    }
    point.mean_threshold = threshold_sum / m;
    point.mean_false_alarms = alarm_sum / m;
    point.detected_fraction = static_cast<double>(detected) / m;
    if (detected > 0) {
      point.mean_n_at_detection = n_sum / static_cast<double>(detected);
      point.min_n_at_detection = min_n;
      point.min_time_to_detection =
          static_cast<double>(min_n) * mean_interval;
    }
    result.cpd.push_back(point);
  }

  // Population-wide overhead, folded in flow-id order for the same
  // bit-identity reason. All flows must have accounting for the means to
  // be meaningful (the simulated backend always accounts; live captures
  // never do).
  bool all_cost = true;
  bool all_delay = true;
  double padding_sum = 0.0, wire_sum = 0.0, dummy_sum = 0.0;
  Seconds worst_delay = -std::numeric_limits<double>::infinity();
  for (const FlowOverhead& oh : all.overhead) {
    all_cost = all_cost && oh.has_cost;
    all_delay = all_delay && oh.has_delay;
    padding_sum += oh.padding_bps;
    wire_sum += oh.wire_bps;
    dummy_sum += oh.dummy_fraction;
    if (oh.delay_p95 > worst_delay) worst_delay = oh.delay_p95;
  }
  if (all_cost) {
    result.mean_padding_bps = padding_sum / m;
    result.mean_wire_bps = wire_sum / m;
    result.mean_dummy_fraction = dummy_sum / m;
    if (sampled != nullptr) {
      // Empirical Bernstein needs the SAMPLE variance: second pass over the
      // per-flow dummy fractions (still flow-order, still deterministic).
      double ss = 0.0;
      for (const FlowOverhead& oh : all.overhead) {
        const double d = oh.dummy_fraction - *result.mean_dummy_fraction;
        ss += d * d;
      }
      const double variance = flows >= 2 ? ss / (m - 1.0) : 0.0;
      const stats::ConfidenceInterval dummy = stats::bernstein_interval(
          *result.mean_dummy_fraction, variance, flows, 0.0, 1.0,
          sampled->confidence);
      result.dummy_fraction_estimate = PopulationEstimate{
          dummy.point, dummy.lo, dummy.hi, flows, sampled->population};
    }
  }
  if (all_delay) result.worst_delay_p95 = worst_delay;

  return result;
}

PopulationResult PopulationEngine::run(const PopulationSpec& spec) const {
  validate_spec(spec);
  // A sharded worker must go through run_population_shard + merge_shards —
  // run() silently computing 1/Nth of the population would corrupt every
  // aggregate.
  LINKPAD_EXPECTS(options_.shard_count <= 1);
  const std::size_t executed = spec.executed_flows();
  const std::size_t grain = resolved_flow_grain(executed, options_.grain);
  std::vector<std::size_t> all_chunks(population_chunk_count(executed, grain));
  std::iota(all_chunks.begin(), all_chunks.end(), std::size_t{0});
  std::vector<ChunkAggregate> chunks = run_chunks(spec, all_chunks);

  // Fold the per-chunk partials in chunk order. Every merge is an ordered
  // concatenation, so the aggregate is the flow-id-ordered sequence no
  // matter how many threads ran.
  ChunkAggregate all = std::move(chunks.front());
  for (std::size_t i = 1; i < chunks.size(); ++i) all.merge(chunks[i]);

  const auto sampled =
      sampled_finalize(spec.flows, spec.sample_flows, spec.sample_round, spec.seed);
  return finalize_population(
      std::move(all), executed, spec.experiment.sample_sizes(),
      spec.detection_threshold,
      spec.experiment.scenario.base.policy->mean_interval(),
      sampled ? &*sampled : nullptr);
}

PopulationResult run_population(const PopulationSpec& spec) {
  return PopulationEngine().run(spec);
}

PopulationResult run_sampled_until(const PopulationSpec& spec,
                                   const AdaptiveSamplingOptions& adaptive,
                                   const ExperimentBackend& backend,
                                   SweepOptions options) {
  LINKPAD_EXPECTS(!spec.is_sampled());  // the driver owns the sampling fields
  LINKPAD_EXPECTS(adaptive.round_flows >= 1 &&
                  adaptive.round_flows <= spec.flows);
  LINKPAD_EXPECTS(adaptive.target_half_width > 0.0);
  LINKPAD_EXPECTS(options.shard_count <= 1);
  const PopulationEngine engine(backend, std::move(options));

  // Accumulated strata, rebased to permutation-position space: round r's
  // chunk at local first_flow x covers positions r·m + x, so consecutive
  // rounds concatenate into exactly the prefix a single (k·m)-flow sampled
  // run would execute — the aggregates are bit-identical to it.
  std::optional<ChunkAggregate> accumulated;
  SampledFinalize view;
  view.population = spec.flows;
  view.confidence = adaptive.confidence;

  const std::size_t available_rounds = spec.flows / adaptive.round_flows;
  PopulationResult result;
  for (std::size_t round = 0; round < available_rounds; ++round) {
    if (adaptive.max_rounds != 0 && round >= adaptive.max_rounds) break;
    const PopulationSpec round_spec =
        spec.sampled(adaptive.round_flows, round);
    const std::size_t grain =
        resolved_flow_grain(adaptive.round_flows, engine.options().grain);
    std::vector<std::size_t> chunk_ids(
        population_chunk_count(adaptive.round_flows, grain));
    std::iota(chunk_ids.begin(), chunk_ids.end(), std::size_t{0});
    std::vector<ChunkAggregate> chunks = engine.run_chunks(round_spec,
                                                           chunk_ids);
    for (ChunkAggregate& chunk : chunks) {
      chunk.first_flow += round * adaptive.round_flows;
      if (accumulated) {
        accumulated->merge(chunk);
      } else {
        accumulated = std::move(chunk);
      }
    }
    const std::vector<std::size_t> round_ids = sampled_flow_ids(
        spec.flows, adaptive.round_flows, round, spec.seed);
    view.flow_ids.insert(view.flow_ids.end(), round_ids.begin(),
                         round_ids.end());

    // Finalize a COPY: later rounds keep extending the accumulated
    // sequence, and finalize consumes its input.
    result = finalize_population(
        *accumulated, view.flow_ids.size(), spec.experiment.sample_sizes(),
        spec.detection_threshold,
        spec.experiment.scenario.base.policy->mean_interval(), &view);

    double worst_half_width = 0.0;
    for (const SampledEstimates& est : result.estimates) {
      worst_half_width =
          std::max(worst_half_width, est.detected_fraction.half_width());
    }
    if (worst_half_width <= adaptive.target_half_width) break;
  }
  return result;
}

// ------------------------------------------------------------- result JSON
//
// population_result_json: the pretty JsonWriter layout (core/codec.hpp) over
// the result's field lists. Empty estimate and cpd arrays render as null;
// per-flow primary rates render as bare hex bit patterns.

template <class V>
void visit_fields(V& v, const PopulationEstimate& e) {
  v("point", e.point);
  v("lo", e.lo);
  v("hi", e.hi);
  v("m", e.m);
  v("M", e.M);
}

template <class V>
void visit_fields(V& v, const SampledEstimates& e) {
  v("n", e.sample_size);
  v("detected_fraction", e.detected_fraction);
  v("mean_rate", e.mean_rate);
  v("dkw_epsilon", e.dkw_epsilon);
}

template <class V>
void visit_fields(V& v, const PopulationPoint& p) {
  v("n", p.sample_size);
  v("detected_fraction", p.detected_fraction);
  v("mean_rate", p.mean_rate);
  v("min_rate", p.min_rate);
  v("max_rate", p.max_rate);
  v("worst_flow", p.worst_flow);
  v("quantiles", std::tie(p.quantiles.p05, p.quantiles.p25, p.quantiles.median,
                          p.quantiles.p75, p.quantiles.p95));
}

template <class V>
void visit_fields(V& v, const CpdPopulationPoint& p) {
  v("kind", classify::cpd_kind_name(p.kind));
  v("mean_threshold", p.mean_threshold);
  v("detected_fraction", p.detected_fraction);
  v("mean_n_at_detection", p.mean_n_at_detection);
  v("min_n_at_detection", p.min_n_at_detection);
  v("first_exposed_flow", p.first_exposed_flow);
  v("min_time_to_detection", p.min_time_to_detection);
  v("mean_false_alarms", p.mean_false_alarms);
}

namespace {

template <class T>
std::optional<std::vector<T>> unless_empty(std::vector<T> items) {
  if (items.empty()) return std::nullopt;
  return items;
}

}  // namespace

template <class V>
void visit_fields(V& v, const PopulationResult& r) {
  std::vector<std::string> per_flow_rates;
  for (const auto& flow : r.per_flow) {
    per_flow_rates.push_back(encode_double(flow.detection_rate));
  }
  v("flows", r.flow_count);
  v("first_detection_n", r.first_detection_n);
  v("time_to_first_detection", r.time_to_first_detection);
  v("mean_padding_bps", r.mean_padding_bps);
  v("mean_wire_bps", r.mean_wire_bps);
  v("mean_dummy_fraction", r.mean_dummy_fraction);
  v("worst_delay_p95", r.worst_delay_p95);
  v("sampled_from", r.sampled_from);
  v("estimates", unless_empty(r.estimates));
  v("dummy_fraction_estimate", r.dummy_fraction_estimate);
  v("by_sample_size", r.by_sample_size);
  v("cpd", unless_empty(r.cpd));
  v("per_flow_rates", unless_empty(std::move(per_flow_rates)));
}

std::string population_result_json(const PopulationResult& result) {
  std::string out;
  JsonWriter(out, JsonWriter::Layout::kPretty).put(result);
  return out;
}

}  // namespace linkpad::core
