// trace_workflow: capture once, analyze offline — the workflow the paper's
// Agilent analyzer dumps supported. Records padded-stream PIAT traces from
// the simulated testbed to disk (CSV + binary), reloads them in a separate
// "analysis" phase, and runs the adversary on the reloaded data. Useful
// when the capture is expensive (long WAN runs) and the analysis is
// iterated many times.
//
// Run: ./trace_workflow [--dir /tmp] [--piats 60000]
#include <cstdio>
#include <filesystem>

#include "classify/adversary.hpp"
#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "core/trace_io.hpp"
#include "util/cli.hpp"

using namespace linkpad;

namespace {
/// The offline adversary's window: it trains on the front half of each
/// trace, which must hold at least two windows.
constexpr std::size_t kWindow = 1000;
}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("trace_workflow",
                       "capture PIAT traces to disk, analyze offline");
  args.add_option("--dir", "/tmp/linkpad_traces", "output directory");
  args.add_count("--piats", 60000, "PIATs captured per class", 4 * kWindow);
  args.add_int("--seed", 31, "root RNG seed");
  if (!args.parse(argc, argv)) return 1;

  const std::string dir = args.str("--dir");
  const auto piats = args.count("--piats");
  std::filesystem::create_directories(dir);

  // --- Capture phase: dump one trace per payload rate.
  std::printf("[capture] zero-cross lab, CIT, %zu PIATs per class -> %s\n",
              piats, dir.c_str());
  core::ExperimentSpec spec;
  spec.scenario = core::lab_zero_cross(core::make_cit());
  spec.seed = static_cast<std::uint64_t>(args.integer("--seed"));

  const std::vector<std::string> names = {"rate10pps", "rate40pps"};
  for (std::size_t c = 0; c < 2; ++c) {
    core::Trace trace;
    trace.description = spec.scenario.name + " class " + names[c];
    trace.piats = core::ExperimentEngine().class_stream(spec, c, piats, 1);
    core::save_trace_binary(dir + "/" + names[c] + ".lpt", trace);
    core::save_trace_csv(dir + "/" + names[c] + ".csv", trace);
    std::printf("[capture]   %s: %zu PIATs (%s)\n", names[c].c_str(),
                trace.piats.size(), trace.description.c_str());
  }

  // --- Analysis phase: pretend this is a different process/day.
  std::printf("\n[analyze] reloading binary traces and training the adversary\n");
  std::vector<std::vector<double>> streams;
  for (const auto& name : names) {
    auto trace = core::load_trace_binary(dir + "/" + name + ".lpt");
    std::printf("[analyze]   %s: %zu PIATs, \"%s\"\n", name.c_str(),
                trace.piats.size(), trace.description.c_str());
    streams.push_back(std::move(trace.piats));
  }

  // Split each reloaded stream in half: train on the front, test the back.
  std::vector<std::vector<double>> train, test;
  for (auto& s : streams) {
    const std::size_t half = s.size() / 2;
    train.emplace_back(s.begin(), s.begin() + half);
    test.emplace_back(s.begin() + half, s.end());
  }

  classify::AdversaryConfig cfg;
  cfg.feature = classify::FeatureKind::kSampleEntropy;
  cfg.window_size = kWindow;
  classify::Adversary adversary(cfg);
  adversary.train(train);
  std::printf("\n[analyze] entropy adversary at n = %zu: detection rate %.4f\n",
              cfg.window_size, adversary.detection_rate(test));
  std::printf("Traces remain under %s for further offline runs.\n", dir.c_str());
  return 0;
}
