#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "analysis/theory.hpp"
#include "classify/detector_bank.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::core {

namespace {

std::optional<double> theory_prediction(classify::FeatureKind kind,
                                        double r_hat, double n) {
  switch (kind) {
    case classify::FeatureKind::kSampleMean:
      return analysis::detection_rate_mean_exact(r_hat);
    case classify::FeatureKind::kSampleVariance:
      return analysis::detection_rate_variance(r_hat, n);
    case classify::FeatureKind::kSampleEntropy:
      return analysis::detection_rate_entropy(r_hat, n);
    default:
      return std::nullopt;  // extension features: no closed form
  }
}

stats::ConfidenceInterval rate_ci(const classify::ConfusionMatrix& confusion) {
  const double rate = confusion.detection_rate();
  return stats::wilson_interval(
      static_cast<std::size_t>(
          std::llround(rate * static_cast<double>(confusion.total()))),
      confusion.total(), 0.95);
}

}  // namespace

std::vector<classify::FeatureKind> AdversaryPlan::features() const {
  std::vector<classify::FeatureKind> out;
  out.reserve(1 + extra_features.size());
  out.push_back(adversary.feature);
  for (const auto kind : extra_features) {
    if (std::find(out.begin(), out.end(), kind) == out.end()) {
      out.push_back(kind);
    }
  }
  return out;
}

void AdversaryPlan::set_features(
    const std::vector<classify::FeatureKind>& all) {
  LINKPAD_EXPECTS(!all.empty());
  adversary.feature = all.front();
  extra_features.assign(all.begin() + 1, all.end());
}

std::vector<std::size_t> ExperimentSpec::sample_sizes() const {
  std::vector<std::size_t> ns = sample_size_axis;
  if (ns.empty()) ns.push_back(plan.adversary.window_size);
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  LINKPAD_EXPECTS(ns.front() >= 2);
  return ns;
}

const FeatureOutcome& SampleSizePoint::outcome(
    classify::FeatureKind kind) const {
  for (const auto& o : per_feature) {
    if (o.feature == kind) return o;
  }
  throw std::invalid_argument("SampleSizePoint: feature not evaluated: " +
                              classify::feature_name(kind));
}

const FeatureOutcome& ExperimentResult::outcome(
    classify::FeatureKind kind) const {
  for (const auto& o : per_feature) {
    if (o.feature == kind) return o;
  }
  throw std::invalid_argument("ExperimentResult: feature not evaluated: " +
                              classify::feature_name(kind));
}

const SampleSizePoint& ExperimentResult::at_sample_size(std::size_t n) const {
  // by_sample_size is ascending in n (spec.sample_sizes() order).
  const auto it = std::lower_bound(
      by_sample_size.begin(), by_sample_size.end(), n,
      [](const SampleSizePoint& point, std::size_t key) {
        return point.sample_size < key;
      });
  if (it == by_sample_size.end() || it->sample_size != n) {
    // First stop of a shard/merge axis mismatch: say what was requested AND
    // what the result actually carries, not just that the lookup failed.
    std::ostringstream msg;
    msg << "ExperimentResult::at_sample_size: requested n = " << n
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

namespace {

/// Mean of one StreamOverhead field across classes (equal priors).
template <typename Fn>
std::optional<double> mean_over_classes(
    const std::vector<StreamOverhead>& per_class, Fn&& field) {
  if (per_class.empty()) return std::nullopt;
  double sum = 0.0;
  for (const auto& oh : per_class) sum += field(oh);
  return sum / static_cast<double>(per_class.size());
}

}  // namespace

std::optional<double> ExperimentResult::mean_padding_bps() const {
  return mean_over_classes(overhead_per_class,
                           [](const StreamOverhead& oh) { return oh.padding_bps; });
}

std::optional<double> ExperimentResult::mean_wire_bps() const {
  return mean_over_classes(overhead_per_class,
                           [](const StreamOverhead& oh) { return oh.wire_bps; });
}

std::optional<double> ExperimentResult::mean_dummy_fraction() const {
  return mean_over_classes(
      overhead_per_class,
      [](const StreamOverhead& oh) { return oh.dummy_fraction; });
}

std::optional<Seconds> ExperimentResult::worst_delay_p95() const {
  if (overhead_per_class.empty()) return std::nullopt;
  Seconds worst = 0.0;
  for (const auto& oh : overhead_per_class) {
    worst = std::max(worst, oh.delay_p95);
  }
  return worst;
}

// --------------------------------------------------------- ExperimentEngine

ExperimentEngine::ExperimentEngine(const ExperimentBackend& backend,
                                   std::size_t batch_piats)
    : backend_(&backend), batch_piats_(std::max<std::size_t>(batch_piats, 1)) {}

std::vector<double> ExperimentEngine::class_stream(
    const ExperimentSpec& spec, std::size_t class_index, std::size_t piats,
    std::uint64_t stream_salt) const {
  return pull_stream(*backend_, spec.scenario, class_index, spec.seed,
                     stream_salt, piats, batch_piats_);
}

namespace {

/// One sample-size point's streaming state inside ExperimentEngine::run:
/// its bank, its per-class prefix budgets, and its training moments.
struct PrefixPoint {
  std::size_t n = 0;
  std::size_t train_windows = 0;
  std::size_t test_windows = 0;
  std::size_t train_limit = 0;  ///< per-class training PIAT budget
  std::size_t test_limit = 0;   ///< per-class test PIAT budget
  std::vector<stats::RunningStats> train_stats;  ///< per class, over prefix
};

/// The part of `batch` (starting at stream offset `offset`) that falls
/// inside a point's prefix budget `limit`.
std::span<const double> clip_to_limit(std::span<const double> batch,
                                      std::size_t offset, std::size_t limit) {
  if (offset >= limit) return {};
  return batch.first(std::min(batch.size(), limit - offset));
}

}  // namespace

ExperimentResult ExperimentEngine::run(const ExperimentSpec& spec) const {
  const std::size_t num_classes = spec.scenario.payload_rates.size();
  LINKPAD_EXPECTS(num_classes >= 2);
  LINKPAD_EXPECTS(spec.plan.train_windows >= 2 && spec.plan.test_windows >= 1);

  // Prefix-replay setup (DESIGN.md §2.6): the capture is sized by the
  // LARGEST sample size; every axis entry n gets its own DetectorBank with
  // window size n and consumes floor(windows·n_max/n)·n PIATs — a prefix
  // of the shared capture, so each point is bit-identical to running the
  // engine at that window size alone. A single-entry axis (the default) is
  // exactly the pre-axis pipeline.
  const auto ns = spec.sample_sizes();
  const std::size_t k = ns.size();
  const std::size_t n_max = ns.back();
  const auto features = spec.features();

  std::vector<PrefixPoint> points(k);
  std::vector<classify::DetectorBank> banks;
  banks.reserve(k);
  const std::size_t window_cap = spec.max_windows_per_point == 0
                                     ? static_cast<std::size_t>(-1)
                                     : spec.max_windows_per_point;
  std::size_t train_capacity = 0;  // longest prefix any point consumes
  std::size_t test_capacity = 0;
  for (std::size_t i = 0; i < k; ++i) {
    PrefixPoint& p = points[i];
    p.n = ns[i];
    p.train_windows =
        std::min(spec.plan.train_windows * n_max / p.n, window_cap);
    p.test_windows = std::min(spec.plan.test_windows * n_max / p.n, window_cap);
    p.train_limit = p.train_windows * p.n;
    p.test_limit = p.test_windows * p.n;
    train_capacity = std::max(train_capacity, p.train_limit);
    test_capacity = std::max(test_capacity, p.test_limit);
    p.train_stats.resize(num_classes);
    classify::AdversaryConfig adversary = spec.plan.adversary;
    adversary.window_size = p.n;
    // Feature detectors first (detector f == features()[f], the indexing
    // the result assembly relies on), then the change-point detectors
    // appended after. Each CPD config gets its calibration seed derived
    // here — salts 1 and 2 are the training/test streams, so 3 + j can
    // never collide with a capture stream.
    std::vector<classify::DetectorSpec> detector_specs;
    detector_specs.reserve(features.size() + spec.plan.cpd_detectors.size() +
                           spec.plan.extra_detectors.size());
    for (const auto kind : features) {
      classify::DetectorSpec ds;
      ds.adversary = adversary;
      ds.adversary.feature = kind;
      detector_specs.push_back(std::move(ds));
    }
    for (std::size_t j = 0; j < spec.plan.cpd_detectors.size(); ++j) {
      LINKPAD_EXPECTS(num_classes == 2);
      classify::DetectorSpec ds;
      ds.adversary = adversary;
      ds.cpd = spec.plan.cpd_detectors[j];
      ds.cpd->calibration_seed = derive_point_seed(spec.seed, 3 + j);
      detector_specs.push_back(std::move(ds));
    }
    // Fully-specified extra detectors (each with its OWN window size /
    // quantile / EDF / CPD config) ride ONLY the largest-sample-size bank:
    // they do not re-window along the axis, so smaller points stay exactly
    // what an extra-detector-free run would compute. Their calibration
    // seeds continue the 3 + j ladder after the cpd_detectors.
    if (i + 1 == k) {
      for (std::size_t j = 0; j < spec.plan.extra_detectors.size(); ++j) {
        classify::DetectorSpec ds = spec.plan.extra_detectors[j];
        if (ds.cpd) {
          LINKPAD_EXPECTS(num_classes == 2);
          ds.cpd->calibration_seed = derive_point_seed(
              spec.seed, 3 + spec.plan.cpd_detectors.size() + j);
        } else {
          // A window detector needs ≥ 2 training windows and ≥ 1 test
          // window of ITS size inside the shared capture budget.
          LINKPAD_EXPECTS(p.train_limit >= 2 * ds.adversary.window_size);
          LINKPAD_EXPECTS(p.test_limit >= ds.adversary.window_size);
        }
        detector_specs.push_back(std::move(ds));
      }
    }
    banks.emplace_back(std::move(detector_specs), num_classes);
  }

  // Training feed for one class: every bank gets its clipped share of the
  // batch, and the shared Welford moments are forked at each point's
  // prefix boundary — the snapshot IS that point's training moments, with
  // the exact adds an independent run would have performed.
  std::vector<std::size_t> train_got(num_classes, 0);
  auto feed_training = [&](std::size_t c, auto&& for_each_batch) {
    stats::RunningStats running;
    std::size_t offset = 0;
    std::size_t snapshots_taken = 0;  // points are ascending in n, so their
                                      // train limits are NOT sorted; track
                                      // crossings per point instead.
    std::vector<std::uint8_t> crossed(k, 0);
    const std::size_t got = for_each_batch([&](std::span<const double> batch) {
      for (std::size_t i = 0; i < k; ++i) {
        const auto piece = clip_to_limit(batch, offset, points[i].train_limit);
        if (!piece.empty()) banks[i].consume_training(c, piece);
      }
      // Advance the shared moments, snapshotting exactly at boundaries.
      std::span<const double> rest = batch;
      while (!rest.empty()) {
        std::size_t next_boundary = static_cast<std::size_t>(-1);
        for (std::size_t i = 0; i < k; ++i) {
          if (!crossed[i] && points[i].train_limit > offset) {
            next_boundary = std::min(next_boundary, points[i].train_limit);
          }
        }
        const std::size_t take =
            std::min(rest.size(), next_boundary - offset);
        for (const double x : rest.first(take)) running.add(x);
        offset += take;
        rest = rest.subspan(take);
        for (std::size_t i = 0; i < k; ++i) {
          if (!crossed[i] && points[i].train_limit <= offset) {
            points[i].train_stats[c] = running.fork();
            crossed[i] = 1;
            ++snapshots_taken;
          }
        }
      }
      return offset;
    });
    train_got[c] = got;
    // A finite (live) backend may exhaust before a boundary: the prefix a
    // fresh run would see is everything delivered, i.e. the current state.
    if (snapshots_taken < k) {
      for (std::size_t i = 0; i < k; ++i) {
        if (!crossed[i]) points[i].train_stats[c] = running.fork();
      }
    }
  };

  // Off-line phase: the adversary replicates the system per class and
  // streams HIS replica through the banks in bounded batches. An entropy
  // detector without an explicit Δh first needs the pooled training
  // moments of ITS prefix (Scott's rule), which costs one extra pass:
  // a single-point replayable run simply re-opens the identical streams;
  // a live capture cannot be replayed, and a multi-point axis would
  // re-simulate the whole capture, so both materialize the training
  // capture once and run the two passes from memory.
  // Any bank may need the pooled-Δh prepass: the banks share a feature set,
  // but extra detectors ride only the top bank, so probe all of them.
  bool prepass = false;
  for (const auto& bank : banks) prepass = prepass || bank.needs_prepass();
  if (prepass && (!backend_->replayable() || k > 1)) {
    std::vector<std::vector<double>> train(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
      train[c] = class_stream(spec, c, train_capacity, /*salt=*/1);
    }
    // Pooled prepass moments per DISTINCT prefix budget: the first class
    // is one shared Welford stream forked at each budget boundary; later
    // classes resume each fork with their clipped adds. Bit-identical to
    // k independent clipped streams — banks sharing a budget share the
    // whole pooled state.
    std::vector<std::size_t> budgets;
    budgets.reserve(k);
    for (const PrefixPoint& p : points) budgets.push_back(p.train_limit);
    std::sort(budgets.begin(), budgets.end());
    budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());

    std::vector<stats::RunningStats> pooled(budgets.size());
    {
      stats::RunningStats running;
      std::size_t consumed = 0;
      std::size_t next = 0;
      for (const double x : train[0]) {
        running.add(x);
        ++consumed;
        while (next < budgets.size() && budgets[next] == consumed) {
          pooled[next++] = running.fork();
        }
      }
      while (next < budgets.size()) pooled[next++] = running.fork();
    }
    for (std::size_t c = 1; c < num_classes; ++c) {
      for (std::size_t b = 0; b < budgets.size(); ++b) {
        for (const double x : clip_to_limit(std::span<const double>(train[c]),
                                            0, budgets[b])) {
          pooled[b].add(x);
        }
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      const auto it = std::find(budgets.begin(), budgets.end(),
                                points[i].train_limit);
      banks[i].finish_prepass(
          pooled[static_cast<std::size_t>(std::distance(budgets.begin(), it))]);
    }
    for (std::size_t c = 0; c < num_classes; ++c) {
      feed_training(c, [&](auto&& sink) {
        sink(std::span<const double>(train[c]));
        return train[c].size();
      });
    }
  } else {
    if (prepass) {  // single point, replayable: stream both passes
      for (std::size_t c = 0; c < num_classes; ++c) {
        stream_batches(*backend_, spec.scenario, c, spec.seed, /*salt=*/1,
                       train_capacity, batch_piats_,
                       [&](std::span<const double> batch) {
                         banks.front().consume_prepass(batch);
                       });
      }
      for (auto& bank : banks) bank.finish_prepass();
    }
    for (std::size_t c = 0; c < num_classes; ++c) {
      feed_training(c, [&](auto&& sink) {
        return stream_batches(*backend_, spec.scenario, c, spec.seed,
                              /*salt=*/1, train_capacity, batch_piats_, sink);
      });
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    // A finite backend (live capture) may come up short; the adversary
    // still needs at least two training windows per class at every point.
    for (const PrefixPoint& p : points) {
      LINKPAD_ENSURES(std::min(train_got[c], p.train_limit) >= 2 * p.n);
    }
  }
  for (auto& bank : banks) bank.train();

  // Run-time phase: observe the live system (fresh randomness, salt 2) and
  // classify its windows with every detector of every point as the batches
  // arrive — the axis shares this single observed capture too. The source
  // is held open past the stream so its padding-cost accounting (the
  // overhead half of the defense frontier) can be read off afterwards.
  std::vector<StreamOverhead> overheads;
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::size_t offset = 0;
    auto source = backend_->open(spec.scenario, c, spec.seed, /*salt=*/2);
    const std::size_t got = stream_batches(
        *source, test_capacity, batch_piats_,
        [&](std::span<const double> batch) {
          for (std::size_t i = 0; i < k; ++i) {
            const auto piece =
                clip_to_limit(batch, offset, points[i].test_limit);
            if (!piece.empty()) banks[i].consume_test(c, piece);
          }
          offset += batch.size();
        });
    for (const PrefixPoint& p : points) {
      LINKPAD_ENSURES(std::min(got, p.test_limit) >= p.n);
    }
    if (const auto oh = source->overhead()) overheads.push_back(*oh);
  }

  ExperimentResult result;
  if (overheads.size() == num_classes) {
    result.overhead_per_class = std::move(overheads);
  }
  const PrefixPoint& top = points.back();  // n_max: the full capture
  result.piat_mean_low = top.train_stats.front().mean();
  result.piat_mean_high = top.train_stats.back().mean();
  result.piat_var_low = top.train_stats.front().variance();
  result.piat_var_high = top.train_stats.back().variance();

  result.by_sample_size.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    SampleSizePoint sp;
    sp.sample_size = points[i].n;
    sp.train_windows = points[i].train_windows;
    sp.test_windows = points[i].test_windows;
    if (num_classes == 2) {
      sp.r_hat = analysis::variance_ratio(points[i].train_stats[0].variance(),
                                          points[i].train_stats[1].variance());
    }
    sp.per_feature.reserve(features.size());
    for (std::size_t f = 0; f < features.size(); ++f) {
      FeatureOutcome out;
      out.feature = features[f];
      out.confusion = banks[i].detector(f).confusion();
      out.detection_rate = out.confusion.detection_rate();
      out.ci = rate_ci(out.confusion);
      if (num_classes == 2) {
        out.predicted = theory_prediction(features[f], sp.r_hat,
                                          static_cast<double>(points[i].n));
      }
      sp.per_feature.push_back(std::move(out));
    }
    sp.cpd.reserve(spec.plan.cpd_detectors.size());
    for (std::size_t j = 0; j < spec.plan.cpd_detectors.size(); ++j) {
      sp.cpd.push_back(
          banks[i].detector(features.size() + j).cpd_outcome());
    }
    result.by_sample_size.push_back(std::move(sp));
  }

  // Extra detectors live only in the top (n_max) bank, after the feature
  // and cpd detectors. attack_score: confusion detection rate for window
  // detectors, the chance-floor binary mapping for CPD (see DetectorOutcome).
  result.per_detector.reserve(spec.plan.extra_detectors.size());
  for (std::size_t j = 0; j < spec.plan.extra_detectors.size(); ++j) {
    const classify::Detector& det = banks.back().detector(
        features.size() + spec.plan.cpd_detectors.size() + j);
    DetectorOutcome out;
    out.name = det.name();
    if (det.is_cpd()) {
      out.cpd = det.cpd_outcome();
      out.attack_score = out.cpd->ttd.detected ? 1.0 : 0.5;
    } else {
      out.confusion = det.confusion();
      out.attack_score = out.confusion.detection_rate();
    }
    result.per_detector.push_back(std::move(out));
  }

  const SampleSizePoint& top_point = result.by_sample_size.back();
  result.r_hat = top_point.r_hat;
  result.per_feature = top_point.per_feature;
  result.cpd = top_point.cpd;
  const FeatureOutcome& primary = result.per_feature.front();
  result.detection_rate = primary.detection_rate;
  result.ci = primary.ci;
  result.confusion = primary.confusion;
  result.predicted = primary.predicted;
  return result;
}

// -------------------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(const ExperimentBackend& backend, SweepOptions options)
    : backend_(&backend), options_(std::move(options)) {}

SweepReport SweepRunner::run(const std::vector<ExperimentSpec>& specs) const {
  return run(specs.size(), [&](std::size_t i) { return specs[i]; });
}

SweepReport SweepRunner::run(
    std::size_t count,
    const std::function<ExperimentSpec(std::size_t)>& spec_for) const {
  SweepReport report;
  report.results.resize(count);
  report.completed.assign(count, 0);
  if (count == 0) return report;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> done{0};
  std::mutex callback_mutex;

  // Runs point i on `engine`. early_stop stays serialized (its contract);
  // progress is invoked OUTSIDE the lock with its own snapshot of the done
  // count, so a slow observer never serializes the workers.
  auto run_point = [&](const ExperimentEngine& engine, std::size_t i) {
    if (stop.load(std::memory_order_relaxed)) return;  // early-stopped
    report.results[i] = engine.run(spec_for(i));
    report.completed[i] = 1;
    const std::size_t finished = done.fetch_add(1) + 1;
    if (options_.early_stop) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      if (options_.early_stop(i, report.results[i])) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
    if (options_.progress) options_.progress(finished, count);
  };

  // One engine per worker slot, alive across every chunk the slot drains —
  // the scratch-reuse shape PopulationEngine builds on.
  const std::size_t grain = std::max<std::size_t>(options_.grain, 1);
  util::with_pool(options_.threads, [&](util::ThreadPool& pool) {
    std::vector<ExperimentEngine> engines(
        util::chunk_slots(pool, count, grain),
        ExperimentEngine(*backend_, options_.batch_piats));
    util::parallel_for_chunks(
        pool, count, grain,
        [&](std::size_t slot, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            run_point(engines[slot], i);
          }
        });
  });

  report.completed_count = done.load();
  return report;
}

// ---------------------------------------------------------------- SweepGrid

namespace {

/// The environment axis that actually varies for a grid's environment kind.
std::vector<double> environment_axis(const SweepGrid& grid) {
  switch (grid.environment) {
    case SweepGrid::Environment::kLabCrossTraffic:
      return grid.utilizations.empty() ? std::vector<double>{0.25}
                                       : grid.utilizations;
    case SweepGrid::Environment::kCampus:
    case SweepGrid::Environment::kWan:
      return grid.hours.empty() ? std::vector<double>{12.0} : grid.hours;
    case SweepGrid::Environment::kLabZeroCross:
      break;
  }
  return {0.0};  // zero-cross lab has no environment axis
}

Scenario make_scenario(SweepGrid::Environment environment,
                       std::shared_ptr<const sim::TimerPolicy> policy,
                       double axis_value) {
  switch (environment) {
    case SweepGrid::Environment::kLabCrossTraffic:
      return lab_cross_traffic(std::move(policy), axis_value);
    case SweepGrid::Environment::kCampus:
      return campus(std::move(policy), axis_value);
    case SweepGrid::Environment::kWan:
      return wan(std::move(policy), axis_value);
    case SweepGrid::Environment::kLabZeroCross:
      break;
  }
  return lab_zero_cross(std::move(policy));
}

/// The grid's policy axis: explicit prototypes when given, otherwise the
/// paper's σ_T parameterization (0 ⇒ CIT, σ > 0 ⇒ VIT-normal).
std::vector<std::shared_ptr<const sim::TimerPolicy>> policy_axis(
    const SweepGrid& grid) {
  if (!grid.policies.empty()) return grid.policies;
  std::vector<std::shared_ptr<const sim::TimerPolicy>> axis;
  axis.reserve(grid.sigma_timers.size());
  for (const Seconds sigma : grid.sigma_timers) {
    axis.push_back(sigma > 0.0 ? make_vit(sigma) : make_cit());
  }
  return axis;
}

}  // namespace

std::size_t SweepGrid::size() const {
  // The feature axis rides each point's DetectorBank instead of expanding
  // into extra points (and extra simulations).
  const std::size_t taps = tap_hops.empty() ? 1 : tap_hops.size();
  const std::size_t policy_points =
      policies.empty() ? sigma_timers.size() : policies.size();
  return policy_points * environment_axis(*this).size() * taps;
}

std::vector<ExperimentSpec> SweepGrid::expand() const {
  LINKPAD_EXPECTS(!sigma_timers.empty() || !policies.empty());

  const auto axis = environment_axis(*this);
  // One sentinel keeps the loop structure uniform; it is never read when
  // tap_hops is empty.
  const std::vector<std::size_t> taps =
      tap_hops.empty() ? std::vector<std::size_t>{static_cast<std::size_t>(-1)}
                       : tap_hops;

  std::vector<ExperimentSpec> specs;
  specs.reserve(size());
  for (const auto& policy : policy_axis(*this)) {
    LINKPAD_EXPECTS(policy != nullptr);
    for (const double axis_value : axis) {
      Scenario scenario = make_scenario(environment, policy, axis_value);
      for (const std::size_t tap : taps) {
        ExperimentSpec spec;
        spec.scenario = scenario;
        if (tap != static_cast<std::size_t>(-1)) {
          auto& hops = spec.scenario.base.hops_before_tap;
          hops.resize(std::min(tap, hops.size()));
        }
        // All of plan.features() share this point's single simulation: the
        // first is the primary, the rest ride the DetectorBank pass — and
        // so does the whole sample-size axis (prefix replay, one capture).
        spec.plan = plan;
        if (!sample_sizes.empty()) {
          spec.plan.adversary.window_size =
              *std::max_element(sample_sizes.begin(), sample_sizes.end());
        }
        spec.sample_size_axis = sample_sizes;
        // Per-point seed: streams never collide across grid points, and
        // the mapping depends only on (root seed, point index).
        spec.seed = derive_point_seed(seed, specs.size());
        specs.push_back(spec);
      }
    }
  }
  LINKPAD_ENSURES(specs.size() == size());
  return specs;
}

}  // namespace linkpad::core
