// Ablation: does the SHAPE of the VIT interval distribution matter, or only
// its variance sigma_T^2?
//
// Theorems 1-3 model everything as normal, so they predict shape doesn't
// matter. The measurement is sharper: for the VARIANCE feature the three
// distributions indeed coincide at matched sigma_T^2 — but for the ENTROPY
// feature, normal VIT protects clearly better than uniform or shifted-
// exponential VIT. The mechanism: the normal maximizes differential entropy
// at fixed variance, so convolving it with the (rate-dependent) gateway
// jitter changes its entropy the least; lower-entropy interval laws leave
// the entropy feature more headroom to move between payload rates. Pick
// NORMAL interval distributions when deploying VIT.
#include <cmath>
#include <iostream>

#include "common.hpp"
#include "core/experiment.hpp"
#include "sim/timer_policy.hpp"

using namespace linkpad;

namespace {

double attack(std::shared_ptr<const sim::TimerPolicy> policy,
              classify::FeatureKind feature, double effort,
              std::uint64_t seed) {
  core::ExperimentSpec spec;
  spec.scenario = core::lab_zero_cross(std::move(policy));
  spec.plan.adversary.feature = feature;
  spec.plan.adversary.window_size = 2000;
  spec.plan.train_windows = std::max<std::size_t>(
      10, static_cast<std::size_t>(120 * effort));
  spec.plan.test_windows = spec.plan.train_windows;
  spec.seed = seed;
  return core::ExperimentEngine().run(spec).detection_rate;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::make_figure_parser(
      "abl_vit_distributions",
      "Ablation: VIT interval distribution shape at matched variance");
  if (!args.parse(argc, argv)) return 1;
  const auto opts = bench::figure_options(args);

  using namespace units;
  const double tau = core::constants::kTau;
  const std::vector<Seconds> sigmas = {5.0_us, 20.0_us, 100.0_us};

  util::TextTable table({"sigma_T (us)", "feature", "VIT-normal",
                         "VIT-uniform", "VIT-shifted-exp"});

  std::uint64_t salt = 0;
  for (const Seconds s : sigmas) {
    for (const auto feature : {classify::FeatureKind::kSampleVariance,
                               classify::FeatureKind::kSampleEntropy}) {
      const double v_norm =
          attack(std::make_shared<sim::NormalIntervalTimer>(tau, s), feature,
                 opts.effort, core::derive_point_seed(opts.seed, salt++));
      const double v_unif = attack(
          std::make_shared<sim::UniformIntervalTimer>(tau, s * std::sqrt(3.0)),
          feature, opts.effort, core::derive_point_seed(opts.seed, salt++));
      const double v_sexp =
          attack(std::make_shared<sim::ShiftedExponentialTimer>(tau - s, s),
                 feature, opts.effort, core::derive_point_seed(opts.seed, salt++));
      table.add_row({util::fmt(units::to_us(s), 1),
                     classify::feature_name(feature), util::fmt(v_norm, 4),
                     util::fmt(v_unif, 4), util::fmt(v_sexp, 4)});
    }
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
  } else {
    std::cout << "== Ablation: VIT distribution shape at matched sigma_T^2 "
                 "(n = 2000) ==\n\n"
              << table.to_string()
              << "\nReading: the VARIANCE feature only sees sigma_T^2 — the "
                 "three columns agree.\nThe ENTROPY feature punishes non-"
                 "normal interval laws (lower differential\nentropy at the "
                 "same variance leaves it more signal). Deploy VIT with "
                 "NORMAL\nintervals — which is exactly the law the paper's "
                 "analysis assumes.\n";
  }
  return 0;
}
