// population_shard: one population campaign split across PROCESSES.
//
// The thread-pool engine scales a population run to the cores of one
// machine; this driver scales it to N independent worker processes (same
// box or N boxes sharing a filesystem) without giving up a single bit of
// determinism. Worker i computes the chunks with id ≡ i (mod N) of the
// (flows, grain) partition, checkpoints each completed chunk to its shard
// file (atomic rewrite, so SIGKILL at any instant loses at most the chunk
// in flight), and the merge step reassembles all shards and finalizes —
// byte-for-byte the result the single-process run prints.
//
// Worker:    ./population_shard --shard 2/8 --emit-shard s2.shard [--resume]
// Merge:     ./population_shard --merge s0.shard,...,s7.shard --out merged.json
// Reference: ./population_shard --run --out single.json
//
// Sampled campaigns (DESIGN.md §2.11): --sample m executes only stratum
// --round of a seed-derived m-of-M subset while contention stays at the
// full --flows; the JSON then carries concentration-bound estimates. The
// sampled fields are part of the campaign identity, so every worker and
// the merge must agree on them like any other spec knob.
//
// The spec knobs (--flows/--windows/--sigma/--seed/--grain/--sample/
// --round) must be identical across every worker and the merge is
// self-checking beyond that: shard headers carry the campaign parameters,
// and merging shards of different campaigns or an incomplete chunk cover
// is an error, not a quietly wrong number.
//
// --progress emits heartbeat lines on stderr — machine-parseable, at most
// ~1/second — from the flow-level progress callback, which the engine
// invokes OUTSIDE every lock (the chunk counters are atomics bumped under
// the checkpoint lock; the formatting and write happen lock-free):
//   population_shard: progress shard=0/2 chunks=3/11 flows=96/334 eta_s=12.4
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/population.hpp"
#include "core/scenarios.hpp"
#include "core/shard_io.hpp"
#include "util/cli.hpp"

using namespace linkpad;

namespace {

core::PopulationSpec make_spec(const util::ArgParser& args) {
  const auto windows = args.count("--windows");
  const double sigma = args.num("--sigma") * 1e-6;

  core::PopulationSpec spec;
  spec.experiment.scenario = core::lab_cross_traffic(
      sigma > 0 ? core::make_vit(sigma) : core::make_cit(), 0.1);
  spec.experiment.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.experiment.plan.adversary.window_size = 400;
  spec.experiment.sample_size_axis = {100, 400};
  spec.experiment.plan.train_windows = windows;
  spec.experiment.plan.test_windows = windows;
  spec.flows = args.count("--flows");
  spec.sample_flows = args.count("--sample");
  spec.sample_round = args.count("--round");
  spec.seed = static_cast<std::uint64_t>(args.integer("--seed"));
  spec.keep_per_flow = !args.flag("--drop-per-flow");
  return spec;
}

core::SweepOptions make_options(const util::ArgParser& args) {
  core::SweepOptions options;
  options.threads = args.count("--threads");
  options.grain = args.count("--grain");
  return options;
}

/// Throttled stderr heartbeats for multi-hour campaigns. The chunk
/// counters are written under the engine's chunk lock (cheap atomic
/// stores); emit() runs from SweepOptions::progress — outside every lock —
/// so a slow pipe can never stall a checkpoint.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t shard_index, std::size_t shard_count)
      : shard_index_(shard_index),
        shard_count_(shard_count),
        start_(std::chrono::steady_clock::now()) {}

  void set_chunks(std::size_t done, std::size_t total) {
    chunks_done_.store(done, std::memory_order_relaxed);
    chunks_total_.store(total, std::memory_order_relaxed);
  }

  void emit(std::size_t flows_done, std::size_t flows_total) {
    using namespace std::chrono;
    const auto now = steady_clock::now();
    const long long ms = duration_cast<milliseconds>(now - start_).count();
    long long last = last_emit_ms_.load(std::memory_order_relaxed);
    const bool final_flow = flows_done == flows_total;
    if (!final_flow && ms - last < 1000) return;  // ≤ ~1 line/second
    if (!last_emit_ms_.compare_exchange_strong(last, ms)) return;
    const double elapsed_s = static_cast<double>(ms) / 1000.0;
    const double eta_s =
        flows_done == 0
            ? 0.0
            : elapsed_s * static_cast<double>(flows_total - flows_done) /
                  static_cast<double>(flows_done);
    std::fprintf(stderr,
                 "population_shard: progress shard=%zu/%zu chunks=%zu/%zu "
                 "flows=%zu/%zu eta_s=%.1f\n",
                 shard_index_, shard_count_,
                 chunks_done_.load(std::memory_order_relaxed),
                 chunks_total_.load(std::memory_order_relaxed), flows_done,
                 flows_total, eta_s);
    std::fflush(stderr);
  }

 private:
  std::size_t shard_index_;
  std::size_t shard_count_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::size_t> chunks_done_{0};
  std::atomic<std::size_t> chunks_total_{0};
  std::atomic<long long> last_emit_ms_{-1000000};
};

bool write_text_file(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "population_shard: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> split_paths(const std::string& list) {
  std::vector<std::string> paths;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) paths.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("population_shard",
                       "sharded population campaign: worker / merge / reference");
  args.add_option("--shard", "",
                  "worker mode: this worker's share as i/N (e.g. 2/8)");
  args.add_option("--emit-shard", "",
                  "worker mode: shard checkpoint file (atomically rewritten "
                  "after every completed chunk)");
  args.add_flag("--resume",
                "worker mode: reuse completed chunks already in --emit-shard");
  args.add_option("--merge", "",
                  "merge mode: comma-separated shard files to finalize");
  args.add_flag("--run", "reference mode: single-process run of the campaign");
  args.add_option("--out", "-",
                  "result JSON destination for --merge/--run (- = stdout)");
  args.add_count("--flows", 64, "concurrent padded flows M");
  args.add_count("--sample", 0,
                 "sampled mode: simulate only m seed-derived flows of M "
                 "(0 = exhaustive); contention stays at M");
  args.add_count("--round", 0,
                 "sampled mode: which disjoint stratum of the permutation");
  args.add_count("--windows", 4, "train/test windows per class at n_max");
  args.add_num("--sigma", 0,
                  "VIT timer std-dev in microseconds (0 = CIT)");
  args.add_int("--seed", 7, "root RNG seed");
  args.add_count("--grain", 0, "chunk grain (0 = flow-count default)");
  args.add_count("--threads", 0, "worker threads (0 = hardware)");
  args.add_flag("--drop-per-flow",
                "aggregate-only run (omits per-flow rates from the JSON)");
  args.add_flag("--progress",
                "heartbeat lines on stderr (chunks done/total, ETA)");
  if (!args.parse(argc, argv)) return 1;

  try {
    const std::string merge_list = args.str("--merge");
    if (!merge_list.empty()) {
      const auto paths = split_paths(merge_list);
      const core::PopulationResult merged = core::merge_shard_files(paths);
      return write_text_file(args.str("--out"),
                             core::population_result_json(merged))
                 ? 0
                 : 1;
    }

    const std::string shard_arg = args.str("--shard");
    if (!shard_arg.empty()) {
      std::size_t index = 0;
      std::size_t count = 0;
      if (std::sscanf(shard_arg.c_str(), "%zu/%zu", &index, &count) != 2 ||
          count == 0 || index >= count) {
        std::fprintf(stderr,
                     "population_shard: --shard wants i/N with i < N, got %s\n",
                     shard_arg.c_str());
        return 1;
      }
      const std::string emit = args.str("--emit-shard");
      if (emit.empty()) {
        std::fprintf(stderr, "population_shard: worker mode needs --emit-shard\n");
        return 1;
      }
      core::SweepOptions options = make_options(args);
      options.shard_index = index;
      options.shard_count = count;
      core::ShardRunOptions durability;
      durability.checkpoint_path = emit;
      durability.resume = args.flag("--resume");
      ProgressMeter meter(index, count);
      if (args.flag("--progress")) {
        durability.chunk_progress = [&meter](std::size_t done,
                                             std::size_t total) {
          meter.set_chunks(done, total);
        };
        options.progress = [&meter](std::size_t done, std::size_t total) {
          meter.emit(done, total);
        };
      }
      const core::PopulationShard shard = core::run_population_shard(
          make_spec(args), core::sim_backend(), options, durability);
      std::fprintf(stderr, "population_shard: shard %zu/%zu done (%zu chunks) -> %s\n",
                   index, count, shard.chunks.size(), emit.c_str());
      return 0;
    }

    if (args.flag("--run")) {
      core::SweepOptions options = make_options(args);
      ProgressMeter meter(0, 1);
      if (args.flag("--progress")) {
        options.progress = [&meter](std::size_t done, std::size_t total) {
          meter.emit(done, total);
        };
      }
      core::PopulationEngine engine(core::sim_backend(), options);
      const core::PopulationResult result = engine.run(make_spec(args));
      return write_text_file(args.str("--out"),
                             core::population_result_json(result))
                 ? 0
                 : 1;
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "population_shard: %s\n", err.what());
    return 1;
  }

  std::fprintf(stderr, "population_shard: pick a mode: --shard i/N, --merge, or --run\n%s",
               args.help().c_str());
  return 1;
}
