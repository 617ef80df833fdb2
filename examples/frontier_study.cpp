// frontier_study: which defense should I deploy, and what does it cost?
// The paper evaluates two countermeasure points (CIT, VIT); real
// deployments pick from a FRONTIER — full padding, budgeted padding under a
// hard overhead cap, idle-stop (on/off) padding, and adaptive-gap padding
// that reacts to the gateway queue. This study runs every operating point
// through the full attack pipeline (one simulation per point, sharded) and
// prints the measured overhead-vs-detectability Pareto table, with the
// budget ladder's monotonicity checked: a larger padding budget must never
// make the adversary's job easier.
//
// Run: ./frontier_study [--n 400] [--windows 40] [--seed 20030324]
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/frontier.hpp"
#include "core/scenarios.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace linkpad;

namespace {

/// The study's operating points: the paper's two defenses plus the
/// payload-reactive frontier policies. The budget ladder's position inside
/// the list is returned so the monotone check can slice it back out.
struct StudyPolicies {
  std::vector<std::shared_ptr<const sim::TimerPolicy>> all;
  std::size_t ladder_begin = 0;
  std::size_t ladder_size = 0;
};

StudyPolicies study_policies() {
  StudyPolicies p;
  p.all.push_back(core::make_cit());
  p.all.push_back(core::make_vit(500e-6));
  p.ladder_begin = p.all.size();
  // Peak payload is 40 pps against a 100 pps timer: budgets below ~90
  // dummies/sec cannot cover the low-rate class, the last rung is full
  // padding.
  for (const auto& policy : core::budget_ladder({0.0, 40.0, 70.0, 85.0, 100.0})) {
    p.all.push_back(policy);
  }
  p.ladder_size = p.all.size() - p.ladder_begin;
  p.all.push_back(core::make_onoff(/*hangover=*/20e-3));
  p.all.push_back(core::make_onoff(/*hangover=*/200e-3));
  p.all.push_back(core::make_adaptive(/*base_gap=*/25e-3, /*gain=*/1.0,
                                      /*min_gap=*/2.5e-3));
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("frontier_study",
                       "overhead vs detectability across defense policies");
  args.add_count("--n", 400, "adversary window size (PIATs per window)", 2);
  args.add_count("--windows", 40, "train/test windows per class", 2);
  args.add_int("--seed", 20030324, "root RNG seed");
  if (!args.parse(argc, argv)) return 1;

  const auto policies = study_policies();

  core::FrontierSpec spec;
  spec.scenario = core::lab_zero_cross(core::make_cit());
  spec.policies = policies.all;
  spec.plan.adversary.window_size = args.count("--n");
  spec.plan.train_windows = args.count("--windows");
  spec.plan.test_windows = spec.plan.train_windows;
  spec.seed = static_cast<std::uint64_t>(args.integer("--seed"));

  core::SweepOptions options;
  options.progress = [](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\r  %zu/%zu policies...", done, total);
    if (done == total) std::fprintf(stderr, "\n");
  };
  const auto frontier = core::run_frontier(spec, core::sim_backend(), options);

  std::printf("defense frontier, lab zero-cross, n = %zu, %zu windows:\n\n",
              spec.plan.adversary.window_size, spec.plan.train_windows);
  util::TextTable table({"policy", "wire kbps", "overhead kbps", "dummy %",
                         "delay p95 ms", "detection", "pareto"});
  for (const auto& point : frontier.points) {
    table.add_row({point.policy, util::fmt(point.wire_bps / 1e3, 1),
                   util::fmt(point.overhead_bps / 1e3, 1),
                   util::fmt(100.0 * point.dummy_fraction, 1),
                   util::fmt(1e3 * point.delay_p95, 2),
                   util::fmt(point.detection_rate, 4),
                   point.pareto_efficient ? "*" : ""});
  }
  std::cout << table.to_string() << '\n';

  // The budget ladder's contract: detection never rises with budget.
  std::vector<core::FrontierPoint> ladder(
      frontier.points.begin() +
          static_cast<std::ptrdiff_t>(policies.ladder_begin),
      frontier.points.begin() +
          static_cast<std::ptrdiff_t>(policies.ladder_begin +
                                      policies.ladder_size));
  // Tolerance of two test-window flips: the rates are Monte-Carlo
  // estimates over 2 · test_windows windows each.
  const double tolerance = 1.0 / static_cast<double>(spec.plan.test_windows);
  const bool monotone =
      core::detection_monotone_nonincreasing(ladder, tolerance);
  std::printf("budget ladder monotone (detection non-increasing in budget, "
              "tolerance %.4f): %s\n",
              tolerance, monotone ? "yes" : "VIOLATED");

  std::printf(
      "\nReading the frontier: every partial budget below full coverage\n"
      "leaves the adversary at or near certainty — the wire rate itself\n"
      "betrays the payload class — while full padding only shrinks the\n"
      "leak to the paper's timing channel. Idle-stop padding buys large\n"
      "overhead savings but detection stays trivial, and the adaptive gap\n"
      "trades a bounded queue for a payload-correlated gap process. The\n"
      "Pareto column marks the points a deployment should choose from.\n");
  return monotone ? 0 : 1;
}
