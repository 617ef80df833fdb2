// Validation: analytic (Pollaczek–Khinchine hop channels) vs fully
// packet-level simulation. Runs the identical lab-with-cross-traffic
// experiment on both engines and compares PIAT moments, measured variance
// ratio and the entropy-adversary detection rate — plus the event-count
// ratio that justifies using the analytic engine for the day-long figures.
// The analytic engine spends one event per timer fire and one per payload
// arrival (wire packets ride the fire that releases them); the packet-level
// engine adds one per wire-packet delivery, router service and cross packet.
#include <cmath>
#include <iostream>
#include <string>
#include <type_traits>

#include "analysis/theory.hpp"
#include "classify/adversary.hpp"
#include "common.hpp"
#include "core/scenarios.hpp"
#include "sim/packet_path.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

using namespace linkpad;

namespace {

struct EngineRun {
  double piat_mean = 0.0;
  double piat_var = 0.0;
  double r_hat = 1.0;
  double detection = 0.5;
  std::uint64_t events = 0;
};

template <typename Bed>
EngineRun run_engine(const core::Scenario& scenario, std::size_t n,
                     std::size_t windows, std::uint64_t seed) {
  const util::RngFactory factory(seed);
  std::vector<std::vector<double>> train(2), test(2);
  std::uint64_t events = 0;
  for (std::size_t c = 0; c < 2; ++c) {
    auto rng_train = factory.make(1, c);
    Bed bed_train(scenario.config_for(c), rng_train);
    train[c] = bed_train.collect_piats(windows * n);
    auto rng_test = factory.make(2, c);
    Bed bed_test(scenario.config_for(c), rng_test);
    test[c] = bed_test.collect_piats(windows * n);
    if constexpr (std::is_same_v<Bed, sim::PacketLevelTestbed>) {
      events += bed_train.events_processed() + bed_test.events_processed();
    } else {
      events += bed_train.simulation().events_processed() +
                bed_test.simulation().events_processed();
    }
  }

  EngineRun run;
  run.events = events;
  run.piat_mean = stats::mean(train[0]);
  run.piat_var = stats::sample_variance(train[0]);
  run.r_hat = analysis::estimate_variance_ratio(train[0], train[1]);

  classify::AdversaryConfig cfg;
  cfg.feature = classify::FeatureKind::kSampleEntropy;
  cfg.window_size = n;
  classify::Adversary adversary(cfg);
  adversary.train(train);
  run.detection = adversary.detection_rate(test);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::make_figure_parser(
      "abl_engine_fidelity",
      "Validation: analytic M/G/1 channels vs packet-level simulation");
  if (!args.parse(argc, argv)) return 1;
  const auto opts = bench::figure_options(args);

  const std::size_t n = 1000;
  const std::size_t windows = std::max<std::size_t>(
      10, static_cast<std::size_t>(60 * opts.effort));

  util::TextTable table({"engine", "rho", "PIAT mean (ms)", "PIAT std (us)",
                         "r_hat", "entropy detection", "DES events"});

  for (double rho : {0.15, 0.4}) {
    const auto scenario = core::lab_cross_traffic(core::make_cit(), rho);
    const auto analytic =
        run_engine<sim::Testbed>(scenario, n, windows, opts.seed);
    const auto packet =
        run_engine<sim::PacketLevelTestbed>(scenario, n, windows, opts.seed);
    auto emit = [&](const std::string& name, const EngineRun& run) {
      table.add_row({name, util::fmt(rho, 2),
                     util::fmt(run.piat_mean * 1e3, 5),
                     util::fmt(std::sqrt(run.piat_var) * 1e6, 2),
                     util::fmt(run.r_hat, 4), util::fmt(run.detection, 4),
                     std::to_string(run.events)});
    };
    emit("analytic", analytic);
    emit("packet-level", packet);
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
  } else {
    std::cout << "== Validation: engine fidelity (CIT + cross traffic, "
                 "n = 1000) ==\n\n"
              << table.to_string()
              << "\nReading: both engines agree on every statistic the "
                 "adversary can use,\nwhile the analytic engine processes "
                 "orders of magnitude fewer events —\nthat gap is what makes "
                 "the 24-hour WAN figures affordable.\n";
  }
  return 0;
}
