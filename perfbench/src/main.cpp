// perfbench: the repository's campaign benchmark.
//
//   perfbench --workload population|robust_frontier|sharded_campaign
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--revision REV] [--source-digest HEX]
//
// Untraced (--trace 0): submit campaigns back to back for S seconds, each
// after its set-up and a host control loop, through the library's plain
// entry point on the plain simulated backend, and report host-adjusted
// end-to-end metrics. Traced (--trace 1):
// alternate an untraced campaign with the same campaign split into its
// layers' entry points on the TracingBackend, and report per-layer
// metrics. Both modes check every output against the library's documented
// contracts. The last stdout line is the result object; the line before it
// is the full record with provenance.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/experiment.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench";
  std::string revision = "unknown";
  std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else if (key == "--revision") {
        args.revision = value;
      } else if (key == "--source-digest") {
        args.source_digest = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  const auto& names = pb::workload_names();
  return argc % 2 == 1 && have_seed && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1) &&
         std::find(names.begin(), names.end(), args.workload) != names.end();
}

// ------------------------------------------------------------ provenance

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s.empty() ? "unknown" : s;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host control: a fixed single-thread arithmetic loop. Its time moves
/// with the host, never with the code under test.
double control_loop_s() {
  const std::int64_t t0 = pb::wall_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  volatile double sink = acc;
  (void)sink;
  return static_cast<double>(pb::wall_ns() - t0) * 1e-9;
}

// ------------------------------------------------------------ json output

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool in_result = true;  ///< listed in BENCHMARK.json for this mode
  pb::Summary summary{};  ///< the samples behind `value`, when a timing
};

std::string metrics_object(const std::vector<Metric>& metrics, bool result_only) {
  std::string out = "{";
  bool first = true;
  for (const auto& m : metrics) {
    if (result_only && !m.in_result) continue;
    if (!first) out += ", ";
    first = false;
    out += json_str(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + json_str(m.unit);
    if (!result_only && m.summary.count > 0) {
      out += ", \"median\": " + num(m.summary.median) +
             ", \"tail\": " + num(m.summary.tail) +
             ", \"tail_percentile\": " + std::to_string(m.summary.tail_percentile) +
             ", \"samples\": " + std::to_string(m.summary.count);
    }
    out += "}";
  }
  return out + "}";
}

Metric timing(const std::string& name, const std::string& unit,
              const std::vector<double>& samples) {
  Metric m{name, unit};
  m.summary = pb::summarize(samples);
  m.value = m.summary.median;
  return m;
}

// -------------------------------------------------------- layer metrics

/// Per-layer numbers of one traced campaign.
struct LayerSample {
  std::map<std::string, double> counts;  ///< must repeat exactly
  std::map<std::string, double> timers;
  double sim_cpu_share = 0.0;
};

LayerSample layer_sample(const std::vector<pb::Span>& spans,
                         const pb::CampaignStamps& stamps, std::size_t threads,
                         double flows) {
  LayerSample out;
  const pb::Span* campaign = nullptr;
  std::set<std::uint64_t> tune_points;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, "campaign") == 0) campaign = &s;
    if (std::strcmp(s.name, "tune.point") == 0) tune_points.insert(s.id);
  }
  if (campaign == nullptr) throw pb::CheckFailed("traced campaign recorded no root span");

  double streams = 0, piats = 0, tune_piats = 0;
  double open_cpu = 0, collect_cpu = 0, collect_wall = 0, accounted_cpu = 0;
  std::map<std::uint64_t, double> stream_cpu;
  std::map<std::string, double> span_wall;
  double tune_point_max = 0.0;
  for (const auto& s : spans) {
    const double wall = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double cpu = static_cast<double>(s.cpu_ns) * 1e-9;
    span_wall[s.name] += wall;
    if (std::strcmp(s.name, "sim.open") == 0) {
      stream_cpu[s.stream] += cpu;
      streams += 1;
      open_cpu += cpu;
      continue;
    }
    if (std::strcmp(s.name, "sim.collect") == 0) {
      stream_cpu[s.stream] += cpu;
      piats += static_cast<double>(s.piats);
      collect_cpu += cpu;
      collect_wall += wall;
      if (tune_points.count(s.parent) != 0) tune_piats += static_cast<double>(s.piats);
      continue;
    }
    if (std::strcmp(s.name, "tune.point") == 0) tune_point_max = std::max(tune_point_max, wall);
    // Non-sim layer spans inside the campaign region (shard I/O, merge,
    // finalize) leave the engine's remainder; shard.run and tune.point
    // only contain other layers' work.
    const bool inside = s.start_ns >= campaign->start_ns && s.end_ns <= campaign->end_ns;
    const std::string name = s.name;
    if (inside && (name == "shard.checkpoint" || name == "shard.merge" ||
                   name == "population.merge" || name == "population.finalize")) {
      accounted_cpu += cpu;
    }
  }
  std::vector<double> per_stream_ms;
  per_stream_ms.reserve(stream_cpu.size());
  for (const auto& [stream, cpu] : stream_cpu) per_stream_ms.push_back(cpu * 1e3);

  const double sim_cpu = open_cpu + collect_cpu;
  const double other_cpu = stamps.cpu_s - sim_cpu - accounted_cpu;
  const double evals = static_cast<double>(stamps.tune_evaluations);
  out.counts = {
      {"sim.streams", streams},
      {"sim.piats", piats},
      {"population.chunks", static_cast<double>(stamps.chunks)},
      {"tune.rounds", static_cast<double>(stamps.tune_rounds)},
      {"tune.evaluations", evals},
      {"tune.piats_per_eval", evals > 0 ? tune_piats / evals : 0.0},
      {"shard.bytes", static_cast<double>(stamps.shard_bytes)},
      {"shard.bytes_per_flow",
       stamps.shard_bytes > 0 ? static_cast<double>(stamps.shard_bytes) / flows : 0.0},
      {"shard.checkpoint_writes", static_cast<double>(stamps.checkpoint_writes)},
      {"shard.checkpoint_bytes", static_cast<double>(stamps.checkpoint_bytes)},
  };
  out.timers = {
      {"campaign_wall_s", stamps.wall_s},
      {"campaign_cpu_s", stamps.cpu_s},
      {"sim.open_cpu_s", open_cpu},
      {"sim.collect_cpu_s", collect_cpu},
      {"sim.collect_wait_s", collect_wall - collect_cpu},
      {"sim.ns_per_piat", piats > 0 ? sim_cpu / piats * 1e9 : 0.0},
      {"sim.stream_ms_p50", pb::quantile(per_stream_ms, 0.50)},
      {"sim.stream_ms_p99", pb::quantile(per_stream_ms, 0.99)},
      {"pipeline.other_cpu_s", other_cpu},
      {"pipeline.other_ns_per_piat", piats > 0 ? other_cpu / piats * 1e9 : 0.0},
      {"dispatch.parallel_efficiency",
       stamps.cpu_s / (static_cast<double>(threads) * stamps.wall_s)},
      {"population.merge_s", span_wall["population.merge"]},
      {"population.finalize_s", span_wall["population.finalize"]},
      {"tune.wall_s", span_wall["tune.point"]},
      {"tune.point_s_max", tune_point_max},
      {"score.wall_s", span_wall["score"]},
      {"shard.checkpoint_s", span_wall["shard.checkpoint"]},
      {"shard.serialize_s", span_wall["shard.serialize"]},
      {"shard.parse_s", span_wall["shard.parse"]},
      {"shard.merge_s", span_wall["shard.merge"]},
  };
  out.sim_cpu_share = stamps.cpu_s > 0 ? sim_cpu / stamps.cpu_s : 0.0;
  return out;
}

/// Every per-layer metric a traced run prints. `in_result` marks the ones
/// BENCHMARK.json lists, by one rule: a metric is listed only if all three
/// workloads measure it and it is positive on every run. Counts and timers
/// of a layer that only one or two workloads enter (population.*, tune.*,
/// score.*, shard.*) would read exactly 0 on the others, and the differences
/// sim.collect_wait_s and trace.overhead_s straddle 0 on a quiet host, so
/// those are printed in the record only.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  bool in_result;
};

const std::vector<LayerMetricDef>& layer_metrics() {
  static const std::vector<LayerMetricDef> list = {
      {"sim.streams", "count", true},
      {"sim.piats", "count", true},
      {"sim.open_cpu_s", "s", true},
      {"sim.collect_cpu_s", "s", true},
      {"sim.collect_wait_s", "s", false},
      {"sim.ns_per_piat", "ns", true},
      {"sim.stream_ms_p50", "ms", true},
      {"sim.stream_ms_p99", "ms", true},
      {"pipeline.other_cpu_s", "s", true},
      {"pipeline.other_ns_per_piat", "ns", true},
      {"dispatch.parallel_efficiency", "ratio", true},
      {"population.chunks", "count", false},
      {"tune.rounds", "count", false},
      {"tune.evaluations", "count", false},
      {"tune.piats_per_eval", "piats", false},
      {"shard.bytes", "bytes", false},
      {"shard.bytes_per_flow", "bytes", false},
      {"shard.checkpoint_writes", "count", false},
      {"shard.checkpoint_bytes", "bytes", false},
      {"host.control_s", "s", true},
      {"host.cpu_per_wall", "ratio", true},
      {"trace.overhead_s", "s", false},
      {"campaign_wall_s", "s", false},
      {"campaign_cpu_s", "s", false},
      {"population.merge_s", "s", false},
      {"population.finalize_s", "s", false},
      {"tune.wall_s", "s", false},
      {"tune.point_s_max", "s", false},
      {"score.wall_s", "s", false},
      {"shard.checkpoint_s", "s", false},
      {"shard.serialize_s", "s", false},
      {"shard.parse_s", "s", false},
      {"shard.merge_s", "s", false},
  };
  return list;
}

// ----------------------------------------------------------------- runs

/// Input seed of campaign `index` of a run. Untraced runs give every
/// campaign fresh inputs, so a run's median is taken over the spread of
/// input shapes its seed generates (the tuner's survivors, and with them
/// the frontier's cost, depend on the data) rather than over one shape.
/// Traced runs repeat campaign 0, so their counts are exact.
std::uint64_t campaign_seed(std::uint64_t seed, std::size_t index) {
  return linkpad::core::derive_point_seed(seed, index);
}

struct RunOutcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  double campaign_cpu = 0.0;   ///< process CPU over every campaign
  double campaign_wall = 0.0;  ///< wall over every campaign
  std::vector<double> control; ///< host control loop, before each campaign
  std::vector<std::string> report;  ///< human-readable lines

  [[nodiscard]] double cpu_per_wall() const {
    return campaign_wall > 0 ? campaign_cpu / campaign_wall : 0.0;
  }
};

/// The control loop's time on the development host in its usual state.
/// That host switches between speed states for minutes at a time (the
/// control reads 7.0 ms in one, 9.5–10.3 ms in the others) and every
/// single-thread timing follows it. So untraced timings are reported
/// host-adjusted: each campaign's times, and the set-ups timed just before
/// it, are scaled by kReferenceControlS over the control timed just before
/// the campaign on the same thread. The numbers then compare commits, not
/// host states; the raw values stay in the record.
constexpr double kReferenceControlS = 0.010;

/// Set-up costs microseconds, so it is timed kSetupReps times before every
/// campaign and reported as the median over the whole run. The last
/// repetition stays in effect.
constexpr int kSetupReps = 11;

/// Untraced: every end-to-end metric, host-adjusted, plus the raw values
/// for the record.
void run_untraced(pb::Workload& w, const Args& args, RunOutcome& out) {
  std::vector<double> walls, cpus, rates, setups;
  std::vector<double> raw_walls, raw_cpus, raw_setups;
  const std::int64_t start = pb::wall_ns();
  while (walls.size() < 3 ||
         static_cast<double>(pb::wall_ns() - start) * 1e-9 < args.seconds) {
    std::vector<double> setup_batch;
    for (int i = 0; i < kSetupReps; ++i) {
      const std::int64_t t0 = pb::wall_ns();
      w.setup();
      setup_batch.push_back(static_cast<double>(pb::wall_ns() - t0) * 1e-9);
    }
    const double control = control_loop_s();
    out.control.push_back(control);
    const double scale = kReferenceControlS / control;

    const std::uint64_t input_seed = campaign_seed(args.seed, walls.size());
    const std::int64_t t0 = pb::wall_ns();
    const double c0 = pb::process_cpu_s();
    w.run(input_seed);
    const double cpu = pb::process_cpu_s() - c0;
    const double wall = static_cast<double>(pb::wall_ns() - t0) * 1e-9;
    ++out.attempted;
    out.campaign_cpu += cpu;
    out.campaign_wall += wall;
    raw_walls.push_back(wall);
    raw_cpus.push_back(cpu);
    walls.push_back(wall * scale);
    cpus.push_back(cpu * scale);
    rates.push_back(w.items() / (wall * scale));
    for (const double s : setup_batch) {
      raw_setups.push_back(s);
      setups.push_back(s * scale);
    }
    w.check_result();
  }
  // The peak of the timed campaigns alone: the decomposed check below holds
  // several copies of a campaign's output at once.
  const double peak_mb = peak_rss_mb();
  ++out.attempted;
  (void)w.run_decomposed(linkpad::core::sim_backend());

  out.metrics.push_back(timing("items_per_s", "items/s", rates));
  out.metrics.push_back(timing("campaign_s", "s", walls));
  out.metrics.push_back(timing("cpu_s", "s", cpus));
  out.metrics.push_back(timing("setup_s", "s", setups));
  out.metrics.push_back({"peak_rss_mb", "MB", peak_mb});
  std::vector<double> raw_rates;
  for (const double wall : raw_walls) raw_rates.push_back(w.items() / wall);
  for (Metric m : {timing("raw.items_per_s", "items/s", raw_rates),
                   timing("raw.campaign_s", "s", raw_walls),
                   timing("raw.cpu_s", "s", raw_cpus),
                   timing("raw.setup_s", "s", raw_setups)}) {
    m.in_result = false;
    out.metrics.push_back(m);
  }
}

/// Traced: every per-layer metric, plus the report-only layer timers.
void run_traced(pb::Workload& w, const Args& args, RunOutcome& out) {
  const pb::TracingBackend traced(linkpad::core::sim_backend());
  std::vector<double> untraced_walls;
  std::vector<LayerSample> samples;
  std::vector<pb::Span> first_spans;  // of the first traced campaign
  const std::int64_t start = pb::wall_ns();
  while (samples.size() < 2 ||
         static_cast<double>(pb::wall_ns() - start) * 1e-9 < args.seconds) {
    out.control.push_back(control_loop_s());
    const std::int64_t t0 = pb::wall_ns();
    const double c0 = pb::process_cpu_s();
    w.run(campaign_seed(args.seed, 0));
    const double wall = static_cast<double>(pb::wall_ns() - t0) * 1e-9;
    out.campaign_cpu += pb::process_cpu_s() - c0;
    out.campaign_wall += wall;
    w.check_result();
    untraced_walls.push_back(wall);
    ++out.attempted;

    out.control.push_back(control_loop_s());
    pb::reset_spans();
    const pb::CampaignStamps stamps = w.run_decomposed(traced);
    ++out.attempted;
    std::vector<pb::Span> spans = pb::recorded_spans();
    out.campaign_cpu += stamps.cpu_s;
    out.campaign_wall += stamps.wall_s;
    samples.push_back(layer_sample(spans, stamps, w.threads(), w.items()));
    if (samples.back().counts != samples.front().counts) {
      throw pb::CheckFailed("a per-layer count changed between identical campaigns");
    }
    if (samples.size() == 1) first_spans = std::move(spans);
  }
  pb::reset_spans();

  std::map<std::string, std::vector<double>> timer_samples;
  for (const auto& s : samples) {
    for (const auto& [name, v] : s.timers) timer_samples[name].push_back(v);
  }
  const double traced_wall = pb::quantile(timer_samples["campaign_wall_s"], 0.5);
  const double untraced_wall = pb::quantile(untraced_walls, 0.5);

  std::map<std::string, Metric> by_name;
  for (const auto& [name, v] : samples.front().counts) by_name[name].value = v;
  for (const auto& [name, v] : timer_samples) by_name[name] = timing(name, "", v);
  by_name["trace.overhead_s"].value = traced_wall - untraced_wall;
  by_name["host.control_s"] = timing("", "", out.control);
  by_name["host.cpu_per_wall"].value = out.cpu_per_wall();
  for (const auto& def : layer_metrics()) {
    Metric m = by_name.at(def.name);
    m.name = def.name;
    m.unit = def.unit;
    m.in_result = def.in_result;
    out.metrics.push_back(m);
  }

  std::filesystem::create_directories(args.out_dir);
  pb::write_spans(args.out_dir + "/spans-" + args.workload + ".tsv", first_spans);

  // Attribution of the first traced campaign, for the report.
  const LayerSample& first = samples.front();
  char line[256];
  std::snprintf(line, sizeof(line),
                "attribution: sim %.1f%% of process CPU; tracing overhead %.4f s "
                "on a %.4f s untraced campaign (%+.1f%%)",
                100.0 * first.sim_cpu_share, traced_wall - untraced_wall,
                untraced_wall, 100.0 * (traced_wall - untraced_wall) / untraced_wall);
  out.report.push_back(line);
  for (const auto& [name, t] : pb::self_times(first_spans)) {
    std::snprintf(line, sizeof(line),
                  "layer %-22s spans %8zu  wall %9.4f s  self wall %9.4f s  "
                  "cpu %9.4f s  self cpu %9.4f s",
                  name.c_str(), t.spans, t.wall_s, t.self_wall_s, t.cpu_s, t.self_cpu_s);
    out.report.push_back(line);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload population|robust_frontier|"
                 "sharded_campaign --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--revision REV] [--source-digest HEX]\n");
    return 2;
  }
  const std::size_t cpus = usable_cpus();
  RunOutcome out;
  std::size_t threads = 0;
  bool correct = true;
  std::string error;
  const std::int64_t run_start = pb::wall_ns();
  try {
    const auto w = pb::make_workload(
        args.workload,
        args.out_dir + "/scratch-" + args.workload + "-" + std::to_string(::getpid()));
    threads = w->threads();
    if (args.trace == 0) {
      run_untraced(*w, args, out);
    } else {
      w->setup();
      run_traced(*w, args, out);
    }
    char head[160];
    std::snprintf(head, sizeof(head), "workload %s: %.0f %s per campaign, %zu threads",
                  args.workload.c_str(), w->items(), w->item(), threads);
    out.report.insert(out.report.begin(), head);
  } catch (const std::exception& e) {
    correct = false;
    error = e.what();
    if (out.attempted == 0) out.attempted = 1;
  }

  const double cpu_per_wall = out.cpu_per_wall();
  const bool starved = correct && threads > 0 && pb::starved(cpu_per_wall, threads);
  const std::size_t failed = correct ? 0 : out.attempted;

  for (const auto& line : out.report) std::printf("# %s\n", line.c_str());
  if (starved) {
    std::printf("# STARVED: %.2f CPU-seconds per wall second on %zu threads; "
                "these numbers describe the host, not the code\n",
                cpu_per_wall, threads);
  }
  if (!correct) std::printf("# FAILED: %s\n", error.c_str());

  std::string record = "{\"record\": \"perfbench\", \"workload\": " + json_str(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + std::to_string(args.trace) +
      ", \"seconds\": " + num(args.seconds) +
      ", \"run_wall_s\": " + num(static_cast<double>(pb::wall_ns() - run_start) * 1e-9) +
      ", \"provenance\": {\"compiler\": " + json_str(PERFBENCH_COMPILER) +
      ", \"flags\": " + json_str(PERFBENCH_FLAGS) +
      ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
      ", \"revision\": " + json_str(args.revision) +
      ", \"source_digest\": " + json_str(args.source_digest) +
      ", \"nproc\": " + std::to_string(cpus) +
      ", \"cpu_model\": " + json_str(cpu_model()) +
      ", \"threads\": " + std::to_string(threads) + "}" +
      ", \"campaign_cpu_s\": " + num(out.campaign_cpu) +
      ", \"campaign_wall_s\": " + num(out.campaign_wall) +
      ", \"host_cpu_per_wall\": " + num(cpu_per_wall) +
      ", \"host_control_s\": " + num(pb::quantile(out.control, 0.5)) +
      ", \"starved\": " + (starved ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"error_rate\": " + num(static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, out.attempted))) +
      (correct ? std::string() : ", \"error\": " + json_str(error)) +
      ", \"metrics\": " + metrics_object(out.metrics, false) + "}";
  std::printf("%s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted, failed,
              metrics_object(out.metrics, true).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
