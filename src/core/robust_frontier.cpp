#include "core/robust_frontier.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "analysis/overhead.hpp"
#include "core/codec.hpp"
#include "util/check.hpp"

namespace linkpad::core {

namespace {

/// The candidate's evaluation spec: `plan` stripped to the candidate
/// alone. The engine requires a primary feature detector, so a sample-mean
/// probe at the candidate's own window size rides along (cheapest
/// accumulator; its verdict is never read) while the candidate itself
/// rides extra_detectors and its DetectorOutcome::attack_score is the only
/// number the tuner consumes. Matching the probe window to the candidate
/// sizes the capture exactly: train/test limits scale with the candidate's
/// window, so small-window candidates are not charged for large-window
/// captures.
ExperimentSpec candidate_spec(const Scenario& scenario,
                              const AdversaryPlan& plan,
                              const classify::DetectorSpec& candidate,
                              std::uint64_t seed, std::size_t train_windows,
                              std::size_t test_windows) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.plan = plan;
  spec.plan.extra_features.clear();
  spec.plan.cpd_detectors.clear();
  spec.plan.adversary = candidate.adversary;
  spec.plan.adversary.feature = classify::FeatureKind::kSampleMean;
  spec.plan.extra_detectors = {candidate};
  spec.plan.train_windows = train_windows;
  spec.plan.test_windows = test_windows;
  spec.seed = seed;
  return spec;
}

/// Fail fast when the backend cannot account padding cost (same probe as
/// run_frontier): reject a passive live tap BEFORE paying for tuning.
void require_overhead_accounting(const ExperimentBackend& backend,
                                 const ExperimentSpec& probe_spec,
                                 const char* who) {
  const auto source = backend.open(probe_spec.scenario, /*class_index=*/0,
                                   probe_spec.seed, /*salt=*/1);
  if (!source->overhead().has_value()) {
    throw std::invalid_argument(
        std::string(who) + ": backend '" + backend.name() +
        "' provides no padding-cost accounting (PiatSource::overhead) — "
        "the overhead/detectability frontier needs a gateway-visible "
        "backend such as the simulated testbed");
  }
}

}  // namespace

TuneResult tune_adversary(const Scenario& scenario, const AdversaryPlan& plan,
                          const classify::DetectorSearchSpace& space,
                          std::uint64_t seed, const ExperimentBackend& backend,
                          const TuneOptions& options) {
  LINKPAD_EXPECTS(options.exhaustive_limit >= 1);
  LINKPAD_EXPECTS(options.min_windows >= 2);
  LINKPAD_EXPECTS(plan.train_windows >= 2);
  LINKPAD_EXPECTS(plan.test_windows >= 1);
  if (options.sweep.early_stop) {
    throw std::invalid_argument(
        "tune_adversary: SweepOptions::early_stop must be unset — "
        "successive halving ranks every surviving candidate, and a partial "
        "round ranks nothing");
  }
  const auto candidates = space.expand();

  TuneResult result;
  // One round = one SweepRunner sweep over the survivors, every candidate
  // an independent point of the same (scenario, seed): identical captures,
  // so a round is a fair race, and the runner's determinism contract makes
  // the ranking bit-identical at any thread count.
  const auto evaluate = [&](const std::vector<std::size_t>& survivors,
                            std::size_t train_windows,
                            std::size_t test_windows) {
    const auto report =
        SweepRunner(backend, options.sweep)
            .run(survivors.size(), [&](std::size_t i) {
              return candidate_spec(scenario, plan, candidates[survivors[i]],
                                    seed, train_windows, test_windows);
            });
    LINKPAD_ENSURES(report.all_completed());
    std::vector<double> scores(survivors.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      scores[i] = report.results[i].per_detector.at(0).attack_score;
    }
    result.rounds += 1;
    result.evaluations += survivors.size();
    return scores;
  };

  std::vector<std::size_t> survivors(candidates.size());
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});

  // Halving rounds: budget doubles from min_windows, each round keeps the
  // better half. The prefix property makes the schedule cheap — a doubled
  // budget EXTENDS the previous round's capture (same scenario, same seed)
  // rather than re-rolling it, so survivors are re-scored on strictly more
  // of the same evidence, never on a different draw.
  std::size_t budget = options.min_windows;
  while (survivors.size() > options.exhaustive_limit &&
         budget < plan.train_windows) {
    const auto scores =
        evaluate(survivors, std::min(budget, plan.train_windows),
                 std::min(budget, plan.test_windows));
    std::vector<std::size_t> order(survivors.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // stable_sort on descending score + ascending survivors ⇒ ties break
    // toward the lower candidate index, deterministically.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    const std::size_t keep = (survivors.size() + 1) / 2;
    std::vector<std::size_t> next;
    next.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) next.push_back(survivors[order[i]]);
    std::sort(next.begin(), next.end());
    survivors = std::move(next);
    budget *= 2;
  }

  // Final round: the finalists (or, for small spaces, the whole grid) at
  // the plan's full budget.
  const auto final_scores =
      evaluate(survivors, plan.train_windows, plan.test_windows);
  std::size_t best = 0;
  for (std::size_t i = 1; i < survivors.size(); ++i) {
    if (final_scores[i] > final_scores[best]) best = i;
  }
  result.winner = survivors[best];
  result.winner_spec = candidates[result.winner];
  result.winner_label = classify::candidate_label(result.winner_spec);
  result.winner_score = final_scores[best];
  result.final_scores.reserve(survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    result.final_scores.push_back(
        {survivors[i], classify::candidate_label(candidates[survivors[i]]),
         final_scores[i]});
  }
  return result;
}

std::vector<std::size_t> RobustFrontierResult::front() const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].pareto_efficient) indices.push_back(i);
  }
  return indices;
}

RobustFrontierResult run_robust_frontier(const RobustFrontierSpec& spec,
                                         const ExperimentBackend& backend,
                                         SweepOptions options) {
  LINKPAD_EXPECTS(!spec.frontier.policies.empty());
  if (options.early_stop) {
    throw std::invalid_argument(
        "run_robust_frontier: SweepOptions::early_stop must be unset — the "
        "frontier needs every policy point completed, and a partial sweep "
        "would silently mark skipped points Pareto-efficient at zero cost");
  }
  require_overhead_accounting(backend, spec.frontier.point_spec(0),
                              "run_robust_frontier");

  const std::size_t count = spec.frontier.policies.size();

  // Stage 1 — selection: tune the attacker per policy point on the
  // held-out seed. Points run in sequence; each tuning round is itself a
  // sharded sweep, so the pool stays busy and the outer order carries no
  // nondeterminism.
  std::vector<TuneResult> tuned;
  tuned.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Scenario scenario = spec.frontier.scenario;
    scenario.base.policy = spec.frontier.policies[i];
    TuneOptions tune = spec.tune;
    tune.sweep = options;  // one sharding knob drives both stages
    tuned.push_back(tune_adversary(scenario, spec.frontier.plan, spec.space,
                                   spec.selection_seed(i), backend, tune));
  }

  // Stage 2 — scoring: one ordinary frontier sweep on run_frontier's
  // per-point seeds, each point's winner riding its bank. The fixed
  // detectors see streams bit-identical to run_frontier's (same seed, same
  // plan; the extra detector taps the capture without perturbing it), so
  // fixed_detection reproduces run_frontier exactly.
  const auto report = SweepRunner(backend, std::move(options))
                          .run(count, [&](std::size_t i) {
                            ExperimentSpec point = spec.frontier.point_spec(i);
                            point.plan.extra_detectors.push_back(
                                tuned[i].winner_spec);
                            return point;
                          });
  LINKPAD_ENSURES(report.all_completed());

  RobustFrontierResult result;
  result.points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const ExperimentResult& scored = report.results[i];
    RobustFrontierPoint point;
    point.policy = spec.frontier.policies[i]->name();
    for (const auto& outcome : scored.per_feature) {
      point.fixed_detection =
          std::max(point.fixed_detection, outcome.detection_rate);
    }
    // The tuned attacker keeps the fixed bank in hand: its rate is the
    // best of the fixed features AND the tuned detector, so the tuned
    // column is ≥ the fixed column by construction.
    point.tuned_detection = std::max(
        point.fixed_detection, scored.per_detector.back().attack_score);
    if (!scored.mean_padding_bps().has_value()) {
      throw std::invalid_argument(
          "run_robust_frontier: backend '" + backend.name() +
          "' stopped providing padding-cost accounting mid-sweep");
    }
    point.overhead_bps = *scored.mean_padding_bps();
    point.wire_bps = *scored.mean_wire_bps();
    point.dummy_fraction = *scored.mean_dummy_fraction();
    point.delay_p95 = *scored.worst_delay_p95();
    point.winner = tuned[i].winner;
    point.winner_label = tuned[i].winner_label;
    point.selection_score = tuned[i].winner_score;
    result.points.push_back(std::move(point));
  }

  // Re-mark Pareto efficiency on the (overhead, TUNED detection) plane —
  // the frontier the defender actually faces.
  std::vector<std::pair<double, double>> coords;
  coords.reserve(result.points.size());
  for (const auto& point : result.points) {
    coords.emplace_back(point.overhead_bps, point.tuned_detection);
  }
  for (const std::size_t i : analysis::pareto_front(coords)) {
    result.points[i].pareto_efficient = true;
  }
  return result;
}

template <class V>
void visit_fields(V& v, const RobustFrontierPoint& p) {
  v("policy", p.policy);
  v("overhead_bps", p.overhead_bps);
  v("wire_bps", p.wire_bps);
  v("dummy_fraction", p.dummy_fraction);
  v("delay_p95", p.delay_p95);
  v("fixed_detection", p.fixed_detection);
  v("tuned_detection", p.tuned_detection);
  v("winner", p.winner);
  v("winner_label", p.winner_label);
  v("selection_score", p.selection_score);
  v("pareto", p.pareto_efficient);
}

std::string robust_frontier_json(const RobustFrontierResult& result) {
  std::string out;
  JsonWriter writer(out);
  writer.object([&] {
    writer("version", std::uint64_t{1});
    writer("points", result.points);
    writer("front", result.front());
  });
  return out;
}

}  // namespace linkpad::core
