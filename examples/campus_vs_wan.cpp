// campus_vs_wan: where may I still deploy CIT? A deployment study over a
// simulated day on both of the paper's remote environments (Sec 5.3),
// reporting detection rate per time slot plus the day's worst case — the
// number a security engineer actually cares about.
//
// Built on the engine layer: each environment is one SweepGrid over the
// diurnal-phase axis, sharded across the thread pool by SweepRunner with
// live progress reporting.
//
// Run: ./campus_vs_wan [--slots 8] [--windows 100]
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace linkpad;

namespace {

std::vector<double> day_slots(std::size_t slots) {
  std::vector<double> hours;
  for (std::size_t i = 0; i < slots; ++i) {
    hours.push_back(24.0 * static_cast<double>(i) / static_cast<double>(slots));
  }
  return hours;
}

std::vector<double> detection_over_day(
    core::SweepGrid::Environment env,
    std::shared_ptr<const sim::TimerPolicy> policy,
    const std::vector<double>& hours, std::size_t windows,
    std::uint64_t seed) {
  core::SweepGrid grid;
  grid.environment = env;
  grid.policies = {std::move(policy)};
  grid.hours = hours;
  grid.plan.set_features({classify::FeatureKind::kSampleEntropy});
  grid.plan.adversary.window_size = 1000;
  grid.plan.train_windows = windows;
  grid.plan.test_windows = windows;
  grid.seed = seed;

  core::SweepOptions options;
  options.progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r  %zu/%zu time slots...", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };

  const auto report =
      core::SweepRunner(core::sim_backend(), options).run(grid.expand());
  std::vector<double> rates;
  for (const auto& r : report.results) rates.push_back(r.detection_rate);
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("campus_vs_wan",
                       "CIT exposure across a day: campus vs WAN tap");
  args.add_count("--slots", 8, "time slots across the 24h day", 1);
  args.add_count("--windows", 100, "train/test windows per class", 2);
  args.add_int("--seed", 23, "root RNG seed");
  if (!args.parse(argc, argv)) return 1;

  const auto slots = args.count("--slots");
  const auto windows = args.count("--windows");
  const auto seed = static_cast<std::uint64_t>(args.integer("--seed"));

  const auto hours = day_slots(slots);
  // The deployed defense under study; its name() labels every output below
  // (the one naming accessor all surfaces share).
  const auto policy = core::make_cit();
  // Each environment's sweep is its own point of the root seed: derive,
  // never offset (naive `seed + k` collides streams across sweeps once
  // their grids interleave — see core::derive_point_seed).
  std::fprintf(stderr, "campus sweep:\n");
  const auto campus_v =
      detection_over_day(core::SweepGrid::Environment::kCampus, policy, hours,
                         windows, core::derive_point_seed(seed, 0));
  std::fprintf(stderr, "wan sweep:\n");
  const auto wan_v =
      detection_over_day(core::SweepGrid::Environment::kWan, policy, hours,
                         windows, core::derive_point_seed(seed, 1));

  util::TextTable table({"hour", "campus util", "campus detection",
                         "wan util", "wan detection"});
  double campus_worst = 0.0, wan_worst = 0.0;
  for (std::size_t i = 0; i < hours.size(); ++i) {
    campus_worst = std::max(campus_worst, campus_v[i]);
    wan_worst = std::max(wan_worst, wan_v[i]);
    table.add_row({util::fmt(hours[i], 1),
                   util::fmt(core::campus_profile().utilization_at(hours[i]), 3),
                   util::fmt(campus_v[i], 4),
                   util::fmt(core::wan_profile().utilization_at(hours[i]), 3),
                   util::fmt(wan_v[i], 4)});
  }

  std::printf("%s padding, entropy adversary at n = 1000, across a day:\n\n",
              policy->name().c_str());
  std::cout << table.to_string() << '\n';

  util::PlotOptions plot;
  plot.x_label = "hour of day";
  plot.y_label = "detection rate";
  plot.y_fixed = true;
  plot.y_min = 0.4;
  plot.y_max = 1.0;
  std::cout << util::render_plot({util::Series{"campus", hours, campus_v},
                                  util::Series{"wan", hours, wan_v}},
                                 plot);

  std::printf("\nWorst-case over the day: campus %.3f, wan %.3f.\n",
              campus_worst, wan_worst);
  std::printf("Security is a worst-case business: both exceed coin-flipping,\n"
              "so CIT is unsafe in either deployment — the quiet 2 AM Internet\n"
              "is exactly when the remote adversary does best (paper Sec 5.3).\n");
  return 0;
}
