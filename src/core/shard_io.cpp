#include "core/shard_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace linkpad::core {

// ------------------------------------------------------ shard field lists
// One list per record, in wire order. Any change to a list is a format
// change (bump kShardFormatVersion).

template <class V, RecordOf<stats::ConfidenceInterval> R>
void visit_fields(V& v, R& ci) {
  v("estimate", ci.point);
  v("lo", ci.lo);
  v("hi", ci.hi);
}

template <class V, RecordOf<FeatureOutcome> R>
void visit_fields(V& v, R& f) {
  v("feature", f.feature);
  v("rate", f.detection_rate);
  v("ci", f.ci);
  v("confusion", f.confusion);
  v("predicted", f.predicted);
}

template <class V, RecordOf<classify::CpdOutcome> R>
void visit_fields(V& v, R& c) {
  v("kind", c.kind);
  v("threshold", c.threshold);
  v("detected", c.ttd.detected);
  v("n_at_detection", c.ttd.n_at_detection);
  v("false_alarms", c.ttd.false_alarms);
}

template <class V, RecordOf<SampleSizePoint> R>
void visit_fields(V& v, R& p) {
  v("n", p.sample_size);
  v("train", p.train_windows);
  v("test", p.test_windows);
  v("r_hat", p.r_hat);
  v("per_feature", p.per_feature);
  v("cpd", p.cpd);
}

template <class V, RecordOf<StreamOverhead> R>
void visit_fields(V& v, R& o) {
  v("payload", o.payload_packets);
  v("dummy", o.dummy_packets);
  v("suppressed", o.suppressed_fires);
  v("wire_bps", o.wire_bps);
  v("padding_bps", o.padding_bps);
  v("dummy_fraction", o.dummy_fraction);
  v("delay_mean", o.delay_mean);
  v("delay_p50", o.delay_p50);
  v("delay_p95", o.delay_p95);
  v("delay_p99", o.delay_p99);
}

/// per_detector is not part of the format (it reads back empty).
template <class V, RecordOf<ExperimentResult> R>
void visit_fields(V& v, R& r) {
  v("rate", r.detection_rate);
  v("ci", r.ci);
  v("confusion", r.confusion);
  v("r_hat", r.r_hat);
  v("predicted", r.predicted);
  v("piat", std::tie(r.piat_mean_low, r.piat_mean_high, r.piat_var_low,
                     r.piat_var_high));
  v("per_feature", r.per_feature);
  v("cpd", r.cpd);
  v("by_sample_size", r.by_sample_size);
  v("overhead_per_class", r.overhead_per_class);
}

template <class V, RecordOf<FlowOverhead> R>
void visit_fields(V& v, R& o) {
  v("has_cost", o.has_cost);
  v("padding_bps", o.padding_bps);
  v("wire_bps", o.wire_bps);
  v("dummy_fraction", o.dummy_fraction);
  v("has_delay", o.has_delay);
  v("delay_p95", o.delay_p95);
}

template <class V, RecordOf<FlowCpd> R>
void visit_fields(V& v, R& c) {
  v("detected", c.detected);
  v("n_at_detection", c.n_at_detection);
  v("false_alarms", c.false_alarms);
  v("threshold", c.threshold);
}

/// A chunk line is {"chunk": <chunk id>, <these fields>}.
template <class V, RecordOf<ChunkAggregate> R>
void visit_fields(V& v, R& c) {
  v("first_flow", c.first_flow);
  v("rates", c.rates);
  v("overhead", c.overhead);
  v("cpd_kinds", c.cpd_kinds);
  v("cpd", c.cpd);
  v("per_flow", c.per_flow);
}

/// The header line: every PopulationShard field but the chunks.
template <class V, RecordOf<PopulationShard> R>
void visit_fields(V& v, R& s) {
  v("linkpad_shard", s.version);
  v("shard_index", s.shard_index);
  v("shard_count", s.shard_count);
  v("flows", s.flows);
  v("grain", s.grain);
  v("sample_flows", s.sample_flows);
  v("sample_round", s.sample_round);
  v("sample_sizes", s.sample_sizes);
  v("detection_threshold", s.detection_threshold);
  v("mean_interval", s.mean_interval);
  v("seed", s.seed);
  v("keep_per_flow", s.keep_per_flow);
}

namespace {

constexpr auto last_enumerator(classify::FeatureKind) {
  return classify::FeatureKind::kInterquartileRange;
}
constexpr auto last_enumerator(classify::CpdKind) {
  return classify::CpdKind::kAdaptiveEwma;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("shard_io: ") + what);
}

// ----------------------------------------------------------- shard reader
// Reads one line straight into the records, with no document in between.
// Each key must be the next one of its record's list: a missing, extra,
// duplicate or reordered key is a shard_io: error, as is whitespace, a
// decimal float or an unknown enumerator.

class ShardReader {
 public:
  explicit ShardReader(std::string_view line) : s_(line) {}

  template <class T>
  void operator()(std::string_view key, T&& value) {
    if (!first_) expect(',');
    first_ = false;
    if (!literal("\"") || !literal(key) || !literal("\":")) {
      fail("expected key \"" + std::string(key) + "\"");
    }
    get(value);
  }

  template <class F>
  void object(F&& members) {
    expect('{');
    const bool outer = std::exchange(first_, true);
    members();
    expect('}');
    first_ = outer;
  }

  void finish() const {
    if (i_ != s_.size()) fail("trailing characters");
  }

  void get(bool& b) {
    b = literal("true");
    if (!b && !literal("false")) fail("expected true or false");
  }

  void get(std::uint64_t& n) {
    const auto [end, ec] = std::from_chars(s_.data() + i_, s_.data() + s_.size(), n);
    if (ec != std::errc()) fail("expected an unsigned integer");
    i_ = static_cast<std::size_t>(end - s_.data());
  }

  void get(double& x) {
    if (s_.size() - i_ < 18 || s_[i_] != '"' || s_[i_ + 17] != '"') {
      fail("expected a quoted hex double");
    }
    x = decode_double(s_.substr(i_ + 1, 16));
    i_ += 18;
  }

  template <class E>
    requires std::is_enum_v<E>
  void get(E& e) {
    std::uint64_t n = 0;
    get(n);
    if (n > static_cast<std::uint64_t>(last_enumerator(E{}))) fail("unknown enumerator");
    e = static_cast<E>(n);
  }

  template <class T>
  void get(std::optional<T>& x) {
    if (literal("null")) return x.reset();
    get(x.emplace());
  }

  template <class T>
  void get(std::vector<T>& items) {
    items.clear();
    expect('[');
    if (literal("]")) return;
    do {
      get(items.emplace_back());
    } while (literal(","));
    expect(']');
  }

  template <class T0, class... T>
  void get(const std::tuple<T0&, T&...>& items) {
    std::apply([this](auto& first, auto&... rest) {
      expect('[');
      get(first);
      ((expect(','), get(rest)), ...);
      expect(']');
    }, items);
  }

  void get(classify::ConfusionMatrix& cm) {
    ConfusionFields fields;
    get(fields);
    // Checked before the matrix exists: its constructor asserts n ≥ 2, and
    // n² must not wrap around to the length of a short counts array.
    const std::uint64_t n = fields.classes;
    if (n < 2 || n > fields.counts.size() / n || n * n != fields.counts.size()) {
      fail("confusion matrix needs classes >= 2 and classes^2 counts");
    }
    cm = classify::ConfusionMatrix::from_counts(n, std::move(fields.counts));
  }

  template <Record R>
  void get(R& r) {
    object([&] { visit_fields(*this, r); });
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("shard_io: " + what + " at offset " + std::to_string(i_));
  }

  void expect(char c) {
    if (i_ >= s_.size() || s_[i_] != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  bool literal(std::string_view text) {
    if (s_.compare(i_, text.size(), text) != 0) return false;
    i_ += text.size();
    return true;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  bool first_ = true;
};

void append_chunk_line(std::string& out, std::size_t chunk_id,
                       const ChunkAggregate& chunk) {
  JsonWriter writer(out);
  writer.object([&] {
    writer("chunk", chunk_id);
    visit_fields(writer, chunk);
  });
}

// Check one chunk against the header's (executed_flows, grain) partition
// (`chunk_id` must be the slot its first_flow implies; a sampled campaign
// partitions the m executed slots), its axis, and the value domains.
void validate_chunk(const PopulationShard& header, std::size_t chunk_id,
                    const ChunkAggregate& chunk) {
  const std::size_t executed = header.executed_flows();
  require(chunk_id < population_chunk_count(executed, header.grain),
          "chunk id beyond partition");
  const std::size_t begin = chunk_id * header.grain;
  const std::size_t flows = chunk.flow_count();
  require(chunk.first_flow == begin &&
              flows == std::min(executed, begin + header.grain) - begin,
          "chunk does not match the (flows, grain) partition");
  require(chunk.rates.size() == header.sample_sizes.size(),
          "chunk rates axis mismatch");
  for (const auto& row : chunk.rates) {
    require(row.size() == flows, "chunk rates row size mismatch");
    for (const double rate : row) {
      require(rate >= 0.0 && rate <= 1.0, "chunk detection rate outside [0, 1]");
    }
  }
  require(chunk.cpd.size() == chunk.cpd_kinds.size(),
          "chunk cpd rows do not match cpd_kinds");
  for (const auto& row : chunk.cpd) {
    require(row.size() == flows, "chunk cpd row size mismatch");
  }
  require(chunk.per_flow.size() == (header.keep_per_flow ? flows : 0),
          "chunk per_flow size disagrees with the header's keep_per_flow");
}

PopulationShard parse_shard_header_line(std::string_view line) {
  PopulationShard shard;
  ShardReader reader(line);
  try {
    reader.get(shard);
    reader.finish();
  } catch (const std::invalid_argument&) {
    // The version is the first key: another format version fails on it.
    if (shard.version == kShardFormatVersion) throw;
  }
  if (shard.version != kShardFormatVersion) {
    throw std::invalid_argument("shard_io: shard format version " + std::to_string(shard.version) +
                                " is not the supported version " +
                                std::to_string(kShardFormatVersion));
  }
  require(shard.shard_count != 0 && shard.shard_index < shard.shard_count,
          "bad shard coordinates in header");
  require(shard.flows != 0 && shard.grain != 0,
          "bad partition parameters in header");
  require(shard.sample_flows == 0
              ? shard.sample_round == 0
              : shard.sample_flows <= shard.flows &&
                    shard.sample_round <=
                        (shard.flows - shard.sample_flows) / shard.sample_flows,
          "bad sampled-subset fields in header");
  return shard;
}

// Atomically replace `path` with `text`: write `path`.tmp, then rename it
// over the target. The rename is the commit point, so a reader (or a resume
// after SIGKILL) sees the previous complete file or the new one, never a mix.
void atomic_write_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) throw std::runtime_error("shard_io: cannot write " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("shard_io: rename " + tmp + " -> " + path + " failed");
  }
}

// Every header field but shard_index, in list order: two shards belong to
// one campaign iff these bytes agree (doubles compare by bit pattern).
std::string campaign_key(const PopulationShard& shard) {
  std::string out;
  JsonWriter writer(out);
  const auto all_but_index = [&writer](std::string_view key, const auto& value) {
    if (key != "shard_index") writer(key, value);
  };
  visit_fields(all_but_index, shard);
  return out;
}

PopulationShard make_shard_header(const PopulationSpec& spec,
                                  const SweepOptions& options) {
  LINKPAD_EXPECTS(options.shard_count >= 1);
  LINKPAD_EXPECTS(options.shard_index < options.shard_count);
  PopulationShard shard;
  shard.shard_index = options.shard_index;
  shard.shard_count = options.shard_count;
  shard.flows = spec.flows;
  shard.grain = resolved_flow_grain(spec.executed_flows(), options.grain);
  shard.sample_flows = spec.sample_flows;
  shard.sample_round = spec.sample_round;
  shard.sample_sizes = spec.experiment.sample_sizes();
  shard.detection_threshold = spec.detection_threshold;
  shard.mean_interval = spec.experiment.scenario.base.policy->mean_interval();
  shard.seed = spec.seed;
  shard.keep_per_flow = spec.keep_per_flow;
  return shard;
}

}  // namespace

// ------------------------------------------------------------- shard model

std::vector<std::size_t> PopulationShard::owned_chunk_ids() const {
  const std::size_t total = population_chunk_count(executed_flows(), grain);
  std::vector<std::size_t> ids;
  for (std::size_t c = shard_index; c < total; c += shard_count) ids.push_back(c);
  return ids;
}

bool PopulationShard::same_campaign(const PopulationShard& other) const {
  return campaign_key(*this) == campaign_key(other);
}

// ---------------------------------------------------------- serialization

std::string serialize_shard(const PopulationShard& shard) {
  std::string out;
  JsonWriter(out).put(shard);
  out.push_back('\n');
  for (const auto& chunk : shard.chunks) {
    append_chunk_line(out, chunk.first_flow / shard.grain, chunk);
    out.push_back('\n');
  }
  return out;
}

PopulationShard parse_shard(const std::string& text, bool tolerate_partial_tail) {
  // Split into lines; a file killed mid-append may lack the final newline.
  std::vector<std::string_view> lines;
  for (std::string_view rest = text; !rest.empty();) {
    const std::size_t nl = std::min(rest.find('\n'), rest.size());
    lines.push_back(rest.substr(0, nl));
    rest.remove_prefix(std::min(nl + 1, rest.size()));
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  require(!lines.empty(), "empty shard file");

  PopulationShard shard = parse_shard_header_line(lines.front());
  for (std::size_t i = 1, next_id = 0; i < lines.size(); ++i) {
    std::size_t chunk_id = 0;
    ChunkAggregate chunk;
    try {
      ShardReader reader(lines[i]);
      reader.object([&] {
        reader("chunk", chunk_id);
        visit_fields(reader, chunk);
      });
      reader.finish();
      validate_chunk(shard, chunk_id, chunk);
    } catch (const std::invalid_argument&) {
      // The torn tail of a killed worker.
      if (tolerate_partial_tail && i + 1 == lines.size()) break;
      throw;
    }
    require(chunk_id % shard.shard_count == shard.shard_index,
            "chunk does not belong to this shard");
    require(chunk_id >= next_id, "chunk lines out of chunk-id order or duplicated");
    require(shard.chunks.empty() || chunk.cpd_kinds == shard.chunks.front().cpd_kinds,
            "chunks of one shard disagree on cpd_kinds");
    next_id = chunk_id + 1;
    shard.chunks.push_back(std::move(chunk));
  }
  return shard;
}

PopulationShard read_shard_file(const std::string& path,
                                bool tolerate_partial_tail) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("shard_io: cannot open shard file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_shard(buf.str(), tolerate_partial_tail);
}

// -------------------------------------------------------------- execution

PopulationShard run_population_shard(const PopulationSpec& spec,
                                     const ExperimentBackend& backend,
                                     const SweepOptions& options,
                                     const ShardRunOptions& durability) {
  PopulationShard shard = make_shard_header(spec, options);
  const std::string& path = durability.checkpoint_path;

  // Chunks already durable from a previous (possibly killed) run, plus
  // their serialized lines so checkpoint rewrites reuse identical bytes.
  std::map<std::size_t, ChunkAggregate> completed;
  std::map<std::size_t, std::string> lines;
  if (durability.resume && !path.empty() && std::ifstream(path)) {
    PopulationShard prev = read_shard_file(path, /*tolerate_partial_tail=*/true);
    require(prev.same_campaign(shard) && prev.shard_index == shard.shard_index,
            "checkpoint belongs to a different campaign or shard — refusing to resume");
    for (auto& chunk : prev.chunks) {
      const std::size_t id = chunk.first_flow / shard.grain;
      append_chunk_line(lines[id], id, chunk);
      completed.emplace(id, std::move(chunk));
    }
  }

  const std::vector<std::size_t> owned = shard.owned_chunk_ids();
  std::vector<std::size_t> missing;
  std::ranges::copy_if(owned, std::back_inserter(missing),
                       [&](std::size_t id) { return !completed.contains(id); });

  const std::string header = serialize_shard(shard);  // no chunks yet: line 1
  std::size_t chunks_done = completed.size();  // resumed chunks count as done
  // run_chunks serializes on_chunk invocations, so the maps need no lock.
  // Rewriting the whole file per chunk keeps the on-disk bytes a pure
  // function of the completed set: sorted by chunk id, independent of
  // completion order, so kill + resume converges to the uninterrupted file
  // byte for byte. chunk_progress fires AFTER the checkpoint commit, so a
  // reported count is always durable.
  const auto on_chunk = [&](std::size_t id, const ChunkAggregate& chunk) {
    if (!path.empty()) {
      append_chunk_line(lines[id], id, chunk);
      std::string text = header;
      for (const auto& entry : lines) {
        text += entry.second;
        text.push_back('\n');
      }
      atomic_write_file(path, text);
    }
    ++chunks_done;
    if (durability.chunk_progress) durability.chunk_progress(chunks_done, owned.size());
  };
  if (durability.chunk_progress) {
    // Report the resumed baseline immediately so a restarted worker is
    // never silent before its first fresh chunk.
    durability.chunk_progress(chunks_done, owned.size());
  }

  SweepOptions engine_options = options;
  engine_options.shard_index = 0;  // run_chunks takes explicit ids
  engine_options.shard_count = 1;
  PopulationEngine engine(backend, std::move(engine_options));
  std::vector<ChunkAggregate> fresh = engine.run_chunks(spec, missing, on_chunk);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    completed.emplace(missing[i], std::move(fresh[i]));
  }

  shard.chunks.reserve(completed.size());
  for (auto& entry : completed) shard.chunks.push_back(std::move(entry.second));
  if (!path.empty()) {
    // Cover the nothing-missing path (pure resume) and guarantee the final
    // file exists even for a shard that owns zero chunks.
    atomic_write_file(path, serialize_shard(shard));
  }
  return shard;
}

// ------------------------------------------------------------------ merge

PopulationResult merge_shards(std::vector<PopulationShard> shards) {
  LINKPAD_EXPECTS(!shards.empty());
  const PopulationShard& head = shards.front();
  for (const auto& shard : shards) {
    require(shard.same_campaign(head),
            "shards describe different campaigns — refusing to merge");
  }

  // Reassemble the full chunk sequence in execution order and check it
  // covers the (executed_flows, grain) partition exactly once, with one
  // change-point detector layout (same_campaign compares headers only).
  std::vector<ChunkAggregate> chunks;
  for (auto& shard : shards) {
    for (auto& chunk : shard.chunks) chunks.push_back(std::move(chunk));
  }
  std::ranges::sort(chunks, {}, &ChunkAggregate::first_flow);
  const std::size_t executed = head.executed_flows();
  std::size_t covered = 0, used = 0;
  for (; used < chunks.size() && chunks[used].first_flow == covered; ++used) {
    require(chunks[used].cpd_kinds == chunks.front().cpd_kinds,
            "shards disagree on their change-point detectors (cpd_kinds) — "
            "refusing to merge");
    covered += chunks[used].flow_count();
  }
  if (used != chunks.size() || covered != executed) {
    std::ostringstream msg;
    msg << "shard_io: merged chunks cover flows [0, " << covered << ") of "
        << executed << " with " << chunks.size() - used
        << " chunk(s) left over — a shard is missing or incomplete";
    throw std::invalid_argument(msg.str());
  }

  // Same in-order fold + single finalize as the 1-process run.
  LINKPAD_EXPECTS(!chunks.empty());
  ChunkAggregate all = std::move(chunks.front());
  for (std::size_t i = 1; i < chunks.size(); ++i) all.merge(chunks[i]);
  const auto sampled =
      sampled_finalize(head.flows, head.sample_flows, head.sample_round, head.seed);
  return finalize_population(std::move(all), executed, head.sample_sizes,
                             head.detection_threshold, head.mean_interval,
                             sampled ? &*sampled : nullptr);
}

PopulationResult merge_shard_files(const std::vector<std::string>& paths) {
  std::vector<PopulationShard> shards;
  shards.reserve(paths.size());
  for (const auto& path : paths) shards.push_back(read_shard_file(path));
  return merge_shards(std::move(shards));
}

}  // namespace linkpad::core
