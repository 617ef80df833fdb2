// Extension: the SEQUENTIAL adversary (Wald SPRT). The paper's Fig 5(b)
// security argument counts fixed-sample sizes; a sequential attacker stops
// as soon as the evidence crosses Wald's thresholds, spending far fewer
// packets on average for the same error rates. This bench measures the
// average sample cost of the SPRT at 1% errors across padding strengths
// and compares it with the fixed-sample attack two ways:
//  * analytically — n(99%) from Theorem 2, and
//  * empirically — a checkpointed DetectorBank evaluates the fixed-sample
//    detection rate at the SPRT's average budget AND at the full capture
//    from ONE test pass (DetectorBank::arm_checkpoints / evaluate_at), so
//    the comparison costs no extra simulation.
#include <cmath>
#include <iostream>

#include "analysis/theory.hpp"
#include "classify/detector_bank.hpp"
#include "classify/sequential.hpp"
#include "common.hpp"
#include "core/experiment.hpp"

using namespace linkpad;

int main(int argc, char** argv) {
  auto args = bench::make_figure_parser(
      "abl_sequential", "Extension: SPRT adversary vs fixed-sample attack");
  if (!args.parse(argc, argv)) return 1;
  const auto opts = bench::figure_options(args);

  const std::size_t batch = 100;
  const std::size_t train_windows = std::max<std::size_t>(
      30, static_cast<std::size_t>(250 * opts.effort));
  const std::size_t test_windows = std::max<std::size_t>(
      30, static_cast<std::size_t>(250 * opts.effort));
  const int trials = std::max(10, static_cast<int>(30 * opts.effort));

  util::TextTable table({"sigma_T (us)", "r_hat", "SPRT mean PIATs",
                         "SPRT accuracy", "fixed @ SPRT budget",
                         "fixed @ full capture", "fixed-n(99%) (Thm 2)"});

  const core::ExperimentEngine engine;
  const double sigmas[] = {0.0, 5.0, 10.0};
  for (std::size_t s = 0; s < 3; ++s) {
    const double sigma_us = sigmas[s];
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(
        sigma_us > 0.0 ? core::make_vit(sigma_us * 1e-6) : core::make_cit());
    spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
    spec.plan.adversary.window_size = batch;
    spec.seed = core::derive_point_seed(opts.seed, s);

    std::vector<std::vector<double>> train = {
        engine.class_stream(spec, 0, train_windows * batch, 1),
        engine.class_stream(spec, 1, train_windows * batch, 1)};
    classify::Adversary adversary(spec.plan.adversary);
    adversary.train(train);
    const double r_hat = analysis::estimate_variance_ratio(train[0], train[1]);

    // The fixed-sample counterpart rides the SAME training capture: a
    // one-detector bank (variance over `batch`-sized windows).
    classify::DetectorBank bank(spec.plan.adversary, {spec.plan.adversary.feature}, 2);
    for (std::size_t c = 0; c < 2; ++c) bank.consume_training(c, train[c]);
    bank.train();

    classify::SequentialConfig scfg;
    scfg.batch_size = batch;
    classify::SequentialDetector detector(adversary, scfg);

    double total_piats = 0.0;
    int correct = 0, decided = 0;
    for (int t = 0; t < trials; ++t) {
      const std::size_t truth = static_cast<std::size_t>(t % 2);
      const auto stream =
          engine.class_stream(spec, truth, batch * 3000, 10 + t);
      const auto out = detector.decide(stream);
      total_piats += static_cast<double>(out.piats_used);
      if (out.decided) {
        ++decided;
        if (static_cast<std::size_t>(out.decision) == truth) ++correct;
      }
    }
    const double sprt_budget = total_piats / trials;

    // One checkpointed test pass: detection after the SPRT's average
    // budget (rounded down to whole windows, floored at one window) and
    // after the full capture.
    const std::size_t capture = test_windows * batch;
    const std::size_t budget = std::min(
        capture,
        std::max(batch, static_cast<std::size_t>(sprt_budget) / batch * batch));
    bank.arm_checkpoints({budget, capture});
    for (std::size_t c = 0; c < 2; ++c) {
      const auto test = engine.class_stream(spec, c, capture, 2);
      bank.consume_test(c, test);
    }
    const double fixed_at_budget =
        bank.evaluate_at(budget).front().detection_rate();
    const double fixed_at_full =
        bank.evaluate_at(capture).front().detection_rate();

    const double fixed_n = analysis::sample_size_for_detection(
        classify::FeatureKind::kSampleVariance, r_hat, 0.99);
    table.add_row(
        {util::fmt(sigma_us, 1), util::fmt(r_hat, 4),
         util::fmt(sprt_budget, 0),
         decided > 0 ? util::fmt(double(correct) / decided, 3) : "n/a",
         util::fmt(fixed_at_budget, 3) + " (n=" + std::to_string(budget) + ")",
         util::fmt(fixed_at_full, 3),
         std::isfinite(fixed_n) ? util::fmt_sci(fixed_n, 2) : "inf"});
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
  } else {
    std::cout << "== Extension: sequential (SPRT) adversary at 1% error "
                 "targets ==\n\n"
              << table.to_string()
              << "\nReading: the SPRT reaches 99%-grade decisions with a "
                 "fraction of the\nfixed-sample cost — the checkpointed "
                 "fixed-sample attack, granted the SAME\naverage budget, "
                 "stays well below the SPRT's accuracy. Its cost grows the\n"
                 "same way as sigma_T rises: VIT still wins, but the "
                 "defender's 'sample\nbudget' margin is thinner than the "
                 "fixed-n analysis suggests.\n";
  }
  return 0;
}
