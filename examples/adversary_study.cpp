// adversary_study: a walkthrough of the attack of paper Sec 3.3, showing
// each intermediate artifact the adversary produces — now as ONE streaming
// pass of the capture through a multi-feature DetectorBank:
//   1. off-line training — replicate the system, stream PIATs per rate into
//      every feature's window accumulator, fit Gaussian-KDE densities;
//   2. the decision rule — print the fitted f(s|omega_l), f(s|omega_h)
//      around the threshold d of Fig 2 for the selected feature;
//   3. run-time classification — per-feature confusion matrices and
//      detection rates from the same single capture, against the
//      closed-form predictions.
//
// Run: ./adversary_study [--feature variance|entropy|mean|mad|iqr] [--n 1000]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/theory.hpp"
#include "classify/detector_bank.hpp"
#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "stats/descriptive.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"

using namespace linkpad;

namespace {

/// The --feature choices and the feature each names, in detector order.
constexpr std::pair<const char*, classify::FeatureKind> kFeatures[] = {
    {"mean", classify::FeatureKind::kSampleMean},
    {"variance", classify::FeatureKind::kSampleVariance},
    {"entropy", classify::FeatureKind::kSampleEntropy},
    {"mad", classify::FeatureKind::kMedianAbsDeviation},
    {"iqr", classify::FeatureKind::kInterquartileRange},
};

/// The feature `name` names; parse() has already checked it is a choice.
classify::FeatureKind parse_feature(const std::string& name) {
  const auto key = [](const auto& entry) {
    return std::string_view(entry.first);
  };
  return std::ranges::find(kFeatures, std::string_view(name), key)->second;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("adversary_study",
                       "step-by-step Bayes traffic-analysis attack");
  std::vector<std::string> feature_names;
  for (const auto& [name, kind] : kFeatures) feature_names.emplace_back(name);
  args.add_choice("--feature", "variance", std::move(feature_names),
                  "density plot focus");
  args.add_count("--n", 1000, "PIAT window size", 2);
  args.add_count("--windows", 150, "training/test windows per class", 2);
  args.add_int("--seed", 42, "root RNG seed");
  if (!args.parse(argc, argv)) return 1;

  const auto focus = parse_feature(args.str("--feature"));
  const auto n = args.count("--n");
  const auto windows = args.count("--windows");
  const auto seed = static_cast<std::uint64_t>(args.integer("--seed"));

  const auto scenario = core::lab_zero_cross(core::make_cit());
  const auto& backend = core::sim_backend();
  const std::size_t piats = windows * n;
  constexpr std::size_t kBatch = 8192;

  // Focus feature first, every other statistic rides the same pass.
  std::vector<classify::FeatureKind> features = {focus};
  for (const auto& [name, kind] : kFeatures) {
    if (kind != focus) features.push_back(kind);
  }

  classify::AdversaryConfig base;
  base.window_size = n;

  // Feature detectors first, then the two streaming change-point
  // detectors (CUSUM + adaptive-EWMA) riding the SAME capture pass. Both
  // calibrate their thresholds to a 5% false-alarm rate by Monte-Carlo
  // ARL0 replay of their training pools.
  std::vector<classify::DetectorSpec> specs;
  for (const auto kind : features) {
    classify::DetectorSpec ds;
    ds.adversary = base;
    ds.adversary.feature = kind;
    specs.push_back(std::move(ds));
  }
  for (const auto kind :
       {classify::CpdKind::kCusum, classify::CpdKind::kAdaptiveEwma}) {
    classify::DetectorSpec ds;
    ds.adversary = base;
    ds.cpd.emplace();
    ds.cpd->kind = kind;
    ds.cpd->target_far = 0.05;
    ds.cpd->horizon = 2000;
    ds.cpd->trials = 200;
    ds.cpd->calibration_seed = core::derive_point_seed(seed, 3);
    specs.push_back(std::move(ds));
  }
  classify::DetectorBank bank(std::move(specs), /*num_classes=*/2);

  std::printf("=== Off-line training ===\n");
  std::printf("Replicating the padded system at 10 pps and 40 pps,\n");
  std::printf("streaming %zu windows x %zu PIATs per class through %zu "
              "detectors...\n\n",
              windows, n, bank.size());

  // The entropy detector selects its bin width from pooled training
  // moments, so the (replayable) training streams are walked twice; no
  // pass ever materializes more than one batch.
  if (bank.needs_prepass()) {
    for (std::size_t c = 0; c < 2; ++c) {
      core::stream_batches(backend, scenario, c, seed, /*salt=*/1, piats,
                           kBatch, [&](std::span<const double> batch) {
                             bank.consume_prepass(batch);
                           });
    }
    bank.finish_prepass();
  }
  stats::RunningStats train_stats[2];
  for (std::size_t c = 0; c < 2; ++c) {
    core::stream_batches(backend, scenario, c, seed, /*salt=*/1, piats, kBatch,
                         [&](std::span<const double> batch) {
                           bank.consume_training(c, batch);
                           for (double x : batch) train_stats[c].add(x);
                         });
  }
  bank.train();

  // Show the fitted class-conditional feature densities (Fig 2) for the
  // focus feature (detector 0).
  const auto& detector = bank.detector(0);
  const auto sum_low = stats::summarize(detector.training_features()[0]);
  const auto sum_high = stats::summarize(detector.training_features()[1]);
  std::printf("feature '%s' over windows of n = %zu:\n",
              detector.name().c_str(), n);
  std::printf("  class omega_l (10 pps): mean %.6g  std %.4g\n", sum_low.mean,
              sum_low.stddev);
  std::printf("  class omega_h (40 pps): mean %.6g  std %.4g\n", sum_high.mean,
              sum_high.stddev);

  const double lo = std::min(sum_low.min, sum_high.min);
  const double hi = std::max(sum_low.max, sum_high.max);
  std::vector<double> grid, pdf_l, pdf_h;
  for (int i = 0; i <= 80; ++i) {
    const double s = lo + (hi - lo) * i / 80.0;
    grid.push_back(s);
    pdf_l.push_back(detector.classifier().density(0).pdf(s));
    pdf_h.push_back(detector.classifier().density(1).pdf(s));
  }
  util::PlotOptions plot;
  plot.y_label = "f(s|omega) — KDE-fitted class-conditional densities (Fig 2)";
  plot.x_label = "feature value s";
  std::cout << '\n'
            << util::render_plot({util::Series{"omega_l", grid, pdf_l},
                                  util::Series{"omega_h", grid, pdf_h}},
                                 plot);

  if (const auto d = detector.classifier().decision_threshold()) {
    std::printf("\nBayes decision threshold d = %.6g  (s <= d -> omega_l)\n",
                *d);
  } else {
    std::printf("\n(no single decision threshold — densities cross twice)\n");
  }

  std::printf("\n=== Run-time classification ===\n");
  // Checkpoints: the single test pass below also answers "how long must
  // the adversary watch" — outcomes at geometric observation budgets are
  // snapshotted as the capture streams through (prefix replay at the
  // detector level; no re-capture, no re-classification).
  std::vector<std::size_t> budgets;
  for (std::size_t budget = n; budget < piats; budget *= 4) {
    budgets.push_back(budget);
  }
  budgets.push_back(piats);
  bank.arm_checkpoints(budgets);
  for (std::size_t c = 0; c < 2; ++c) {
    core::stream_batches(backend, scenario, c, seed, /*salt=*/2, piats, kBatch,
                         [&](std::span<const double> batch) {
                           bank.consume_test(c, batch);
                         });
  }
  std::cout << detector.confusion().to_string();

  std::printf("\ndetection rate vs observed PIATs per class (feature '%s'):\n",
              detector.name().c_str());
  std::printf("  %12s %10s %10s\n", "PIATs", "windows", "rate");
  for (const std::size_t budget : budgets) {
    const auto confusion = bank.evaluate_at(budget).front();
    std::printf("  %12zu %10llu %10.4f\n", budget,
                static_cast<unsigned long long>(confusion.total()),
                confusion.detection_rate());
  }

  const double r_hat = analysis::variance_ratio(train_stats[0].variance(),
                                                train_stats[1].variance());
  std::printf("\nall detectors, one capture (r_hat = %.4f):\n", r_hat);
  std::printf("  %-16s %10s %10s\n", "feature", "empirical", "theory");
  for (std::size_t i = 0; i < features.size(); ++i) {
    const auto& det = bank.detector(i);
    double theory = 0.0;
    bool has_theory = true;
    switch (det.spec().adversary.feature) {
      case classify::FeatureKind::kSampleMean:
        theory = analysis::detection_rate_mean_exact(r_hat);
        break;
      case classify::FeatureKind::kSampleVariance:
        theory = analysis::detection_rate_variance(r_hat, double(n));
        break;
      case classify::FeatureKind::kSampleEntropy:
        theory = analysis::detection_rate_entropy(r_hat, double(n));
        break;
      default:
        has_theory = false;  // extension features: no closed form
        break;
    }
    if (has_theory) {
      std::printf("  %-16s %10.4f %10.4f\n", det.name().c_str(),
                  det.detection_rate(), theory);
    } else {
      std::printf("  %-16s %10.4f %10s\n", det.name().c_str(),
                  det.detection_rate(), "-");
    }
  }

  std::printf("\n=== Streaming change-point detectors ===\n");
  std::printf("Per-PIAT sequential attack on the same capture: each scheme\n");
  std::printf("scores every packet and alarms when its statistic crosses the\n");
  std::printf("ARL0-calibrated threshold (target 5%% false-alarm rate).\n\n");
  std::printf("  %-14s %10s %9s %12s %12s\n", "scheme", "threshold",
              "detected", "n@detect", "false alarms");
  for (std::size_t j = features.size(); j < bank.size(); ++j) {
    const auto out = bank.detector(j).cpd_outcome();
    std::printf("  %-14s %10.4f %9s %12zu %12zu\n",
                classify::cpd_kind_name(out.kind).c_str(), out.threshold,
                out.ttd.detected ? "yes" : "no", out.ttd.n_at_detection,
                out.ttd.false_alarms);
  }

  std::printf("\ntime-to-detection vs observed PIATs per class:\n");
  std::printf("  %12s", "PIATs");
  for (std::size_t j = features.size(); j < bank.size(); ++j) {
    std::printf(" %14s",
                bank.detector(j).name().c_str());
  }
  std::printf("\n");
  for (const std::size_t budget : budgets) {
    std::printf("  %12zu", budget);
    for (std::size_t j = features.size(); j < bank.size(); ++j) {
      const auto out = bank.detector(j).cpd_outcome_at(budget);
      if (out.ttd.detected) {
        std::printf(" %14zu", out.ttd.n_at_detection);
      } else {
        std::printf(" %14s", "-");
      }
    }
    std::printf("\n");
  }
  return 0;
}
