// population_study: the paper's Sec 6 deployment guidelines at population
// scale. A provider pads M user flows onto one shared lab path; the
// adversary taps EVERY flow and runs the strongest single-flow attack on
// each. Single-flow curves answer "can flow X be detected" — a deployment
// review needs the population answer: what fraction of users leak at a
// given capture budget, how bad is the worst flow, and how long until the
// FIRST user is exposed.
//
// Built on core::PopulationEngine: flows shard across the thread pool,
// every flow gets its own DetectorBank pipeline, and the whole
// detection-vs-n axis rides each flow's single capture (prefix replay).
//
// --sample m adds the sampled-mode comparison (DESIGN.md §2.11): an
// adaptive run_sampled_until campaign taps strata of m flows out of the
// same M until the detected-fraction error bar closes to --half-width,
// printed against the exhaustive truth — the intervals contain it.
//
// Run: ./population_study [--flows 100] [--windows 10] [--sigma 500]
//                         [--sample 25 --half-width 0.15]
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/population.hpp"
#include "core/scenarios.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace linkpad;

namespace {

core::PopulationSpec study_spec(std::shared_ptr<const sim::TimerPolicy> policy,
                                std::size_t flows, std::size_t windows,
                                std::uint64_t seed);

core::PopulationResult run_study(std::shared_ptr<const sim::TimerPolicy> policy,
                                 std::size_t flows, std::size_t windows,
                                 std::uint64_t seed) {
  const core::PopulationSpec spec =
      study_spec(std::move(policy), flows, windows, seed);

  core::SweepOptions options;
  options.progress = [](std::size_t done, std::size_t total) {
    if (done % 25 == 0 || done == total) {
      std::fprintf(stderr, "\r  %zu/%zu flows...", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    }
  };
  return core::PopulationEngine(core::sim_backend(), options).run(spec);
}

void print_population(const char* title, const core::PopulationResult& result,
                      double threshold) {
  std::printf("%s (%zu flows, detection threshold %.2f):\n\n", title,
              result.flows(), threshold);
  util::TextTable table({"n", "detected", "mean", "median", "p95", "worst flow",
                         "worst rate"});
  for (const auto& point : result.by_sample_size) {
    table.add_row({std::to_string(point.sample_size),
                   util::fmt(point.detected_fraction, 3),
                   util::fmt(point.mean_rate, 4),
                   util::fmt(point.quantiles.median, 4),
                   util::fmt(point.quantiles.p95, 4),
                   std::to_string(point.worst_flow),
                   util::fmt(point.max_rate, 4)});
  }
  std::cout << table.to_string();
  if (result.first_detection_n) {
    std::printf("first user exposed at n = %zu (%.1f s of capture)\n\n",
                *result.first_detection_n, *result.time_to_first_detection);
  } else {
    std::printf("no user reaches the threshold on this axis\n\n");
  }
}

core::PopulationSpec study_spec(std::shared_ptr<const sim::TimerPolicy> policy,
                                std::size_t flows, std::size_t windows,
                                std::uint64_t seed) {
  core::PopulationSpec spec;
  spec.experiment.scenario = core::lab_cross_traffic(std::move(policy), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.extra_features = {classify::FeatureKind::kSampleEntropy};
  spec.experiment.sample_size_axis = {100, 300, 1000};
  spec.experiment.plan.adversary.window_size = 1000;
  spec.experiment.plan.train_windows = windows;
  spec.experiment.plan.test_windows = windows;
  spec.flows = flows;
  spec.seed = seed;
  return spec;
}

/// Sampled vs exhaustive: the adaptive driver's Wilson intervals printed
/// against the exhaustive truth at the same contention. A 95% interval
/// misses ~1 row in 20 by design (an unlucky stratum is a property of the
/// seed, not a bug); the coverage guarantee is over seeds, and the
/// 200-trial harness in tests/core/sampling_test.cpp checks it.
void print_sampled_comparison(const core::PopulationResult& exhaustive,
                              const core::PopulationResult& sampled) {
  std::printf("sampled campaign: %zu of %zu flows simulated (%.0f%% of the "
              "work):\n\n",
              sampled.flows(), sampled.sampled_from,
              100.0 * static_cast<double>(sampled.flows()) /
                  static_cast<double>(sampled.sampled_from));
  util::TextTable table({"n", "detected (sampled)", "95% interval",
                         "detected (exact)", "covered"});
  for (std::size_t i = 0; i < sampled.estimates.size(); ++i) {
    const auto& est = sampled.estimates[i].detected_fraction;
    const double exact = exhaustive.by_sample_size[i].detected_fraction;
    const bool covered = est.lo <= exact && exact <= est.hi;
    table.add_row({std::to_string(sampled.estimates[i].sample_size),
                   util::fmt(est.point, 3),
                   "[" + util::fmt(est.lo, 3) + ", " + util::fmt(est.hi, 3) +
                       "]",
                   util::fmt(exact, 3), covered ? "yes" : "NO"});
  }
  std::cout << table.to_string();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("population_study",
                       "padding a user population: who leaks, and how fast");
  args.add_count("--flows", 100, "concurrent padded flows M", 1);
  args.add_count("--windows", 10, "train/test windows per class at n_max", 2);
  args.add_num("--sigma", 500, "VIT timer std-dev in microseconds",
               {.lo = 0.0, .open = true});
  args.add_int("--seed", 31, "root RNG seed");
  args.add_count("--sample", 0,
                 "sampled-mode stratum size m (0 = skip the sampled demo)");
  args.add_num("--half-width", 0.15,
               "target detected-fraction half-width for the sampled demo",
               {.lo = 0.0, .open = true});
  if (!args.parse(argc, argv)) return 1;

  const auto flows = args.count("--flows");
  const auto windows = args.count("--windows");
  const double sigma = args.num("--sigma") * 1e-6;
  const auto seed = static_cast<std::uint64_t>(args.integer("--seed"));

  // One naming accessor for every surface: tables, benches and JSON records
  // all label a policy by TimerPolicy::name(), never by an ad-hoc string.
  const auto cit_policy = core::make_cit();
  const auto vit_policy = core::make_vit(sigma);
  std::fprintf(stderr, "%s population:\n", cit_policy->name().c_str());
  const auto cit = run_study(cit_policy, flows, windows,
                             core::derive_point_seed(seed, 0));
  std::fprintf(stderr, "%s population:\n", vit_policy->name().c_str());
  const auto vit = run_study(vit_policy, flows, windows,
                             core::derive_point_seed(seed, 1));

  print_population(cit_policy->name().c_str(), cit,
                   core::PopulationSpec{}.detection_threshold);
  print_population(vit_policy->name().c_str(), vit,
                   core::PopulationSpec{}.detection_threshold);

  const auto sample = args.count("--sample");
  if (sample > 0 && sample <= flows) {
    core::AdaptiveSamplingOptions adaptive;
    adaptive.round_flows = sample;
    adaptive.target_half_width = args.num("--half-width");
    const auto sampled = core::run_sampled_until(
        study_spec(cit_policy, flows, windows,
                   core::derive_point_seed(seed, 0)),
        adaptive);
    print_sampled_comparison(cit, sampled);
  }

  std::printf("Security is a worst-case business at population scale too: a\n"
              "deployment is only as private as its WORST flow. CIT exposes\n"
              "a first user within seconds of capture; VIT (sigma = %.0f us)\n"
              "buys every flow far more time at identical bandwidth, and a\n"
              "larger --sigma pushes first exposure off the axis entirely\n"
              "(the paper's Sec 6 design rule, population form).\n",
              sigma * 1e6);
  return 0;
}
