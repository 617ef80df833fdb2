// Process sharding for population campaigns (DESIGN.md §2.10).
//
// The population reduction is a fold over mergeable ChunkAggregates whose
// merge is ordered concatenation — exact, associative, and a pure function
// of the (flows, grain) chunk partition. That turns process-level scale-out
// into a serialization problem: a shard worker computes the chunks with
// id ≡ shard_index (mod shard_count), writes them to a durable shard file,
// and core::merge_shards reassembles ALL chunks in flow order and runs the
// order-sensitive finalize exactly once — bit-identical to the
// single-process run at any thread count, grain, or shard count.
//
// Shard file format (versioned, line-oriented so a killed worker's file is
// recoverable up to the last complete line):
//   line 1:  header object — format version, shard coordinates, the
//            partition parameters (flows, grain), and everything the merge
//            finalize needs (sample-size axis, detection threshold, the
//            policy's mean timer interval, seed, keep_per_flow);
//   line 2+: one object per completed ChunkAggregate, in chunk-id order.
// Each line is compact JSON written from the records' field lists
// (core/codec.hpp, lists in shard_io.cpp) and read back by a strict
// streaming reader: keys must appear exactly in list order, with no
// whitespace, so a missing, extra, duplicate or reordered key is an error.
// EVERY double crosses the file as the 16-hex-digit IEEE-754 bit pattern
// of its value (never printf'd as decimal), so parse(serialize(x)) is
// bitwise == x — including ±inf fold identities and signed zeros. On parse,
// every chunk detection rate must lie in [0, 1], and every corrupt input
// ends in a std::invalid_argument whose message starts with "shard_io:".
// The file is only ever replaced atomically (write temp, flush, rename): a
// reader sees the previous complete file or the new complete file, never
// a torn one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/codec.hpp"
#include "core/population.hpp"

namespace linkpad::core {

/// Version stamp of the shard serialization format. Bump on ANY change to
/// the schema below; merge and resume refuse mismatched versions instead
/// of guessing. v2 added the sampled-subset fields (sample_flows,
/// sample_round) to the header; v3 added the change-point fields to chunk
/// lines (cpd_kinds + per-flow FlowCpd rows) and the `cpd` array to
/// serialized ExperimentResults / SampleSizePoints; v4 dropped the median
/// and 99th-percentile payload delays from each StreamOverhead.
inline constexpr std::uint64_t kShardFormatVersion = 4;

// ------------------------------------------------------------- shard model

/// One worker's share of a population campaign: the shard coordinates, the
/// partition parameters, the finalize parameters, and the completed chunk
/// aggregates (ascending chunk id). A shard file deserializes to exactly
/// this struct.
struct PopulationShard {
  std::uint64_t version = kShardFormatVersion;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::size_t flows = 0;
  std::size_t grain = 1;
  /// Sampled-subset coordinates (PopulationSpec::sample_flows /
  /// sample_round): 0/0 for an exhaustive campaign. Part of the campaign
  /// identity — a sampled shard never merges with an exhaustive one.
  std::size_t sample_flows = 0;
  std::size_t sample_round = 0;
  std::vector<std::size_t> sample_sizes;
  double detection_threshold = 0.75;
  Seconds mean_interval = 0.0;
  std::uint64_t seed = 0;
  bool keep_per_flow = true;
  std::vector<ChunkAggregate> chunks;

  /// Flows the campaign executes — the index space of the chunk partition:
  /// sample_flows when sampled, flows when exhaustive.
  [[nodiscard]] std::size_t executed_flows() const {
    return sample_flows == 0 ? flows : sample_flows;
  }

  /// Chunk ids this shard is responsible for: {c : c ≡ shard_index (mod
  /// shard_count)} over the (executed_flows, grain) partition, ascending.
  [[nodiscard]] std::vector<std::size_t> owned_chunk_ids() const;

  /// True when `other` describes the same campaign — every field of the
  /// header's field list except shard_index is equal (doubles bitwise) —
  /// the merge compatibility check. A new header field joins it by being
  /// added to the list.
  [[nodiscard]] bool same_campaign(const PopulationShard& other) const;
};

// ---------------------------------------------------------- serialization

/// Whole shard file body: header line + chunk lines (ascending chunk id) +
/// trailing newline. Byte-deterministic: a pure function of the shard's
/// contents, never of completion order or wall clock.
[[nodiscard]] std::string serialize_shard(const PopulationShard& shard);

/// Parse a whole shard file body (header line + chunk lines in ascending
/// chunk-id order). With `tolerate_partial_tail`, a final line that does
/// not parse — the torn write of a killed worker — is dropped instead of
/// raising; every complete line before it is kept. Any other defect throws
/// std::invalid_argument with a message starting "shard_io:".
[[nodiscard]] PopulationShard parse_shard(const std::string& text,
                                          bool tolerate_partial_tail = false);

/// Read + parse a shard file. See parse_shard for `tolerate_partial_tail`.
[[nodiscard]] PopulationShard read_shard_file(const std::string& path,
                                              bool tolerate_partial_tail = false);

// -------------------------------------------------------------- execution

/// Durability knobs for a shard worker.
struct ShardRunOptions {
  /// When non-empty, completed chunks are checkpointed here: after each
  /// chunk the file is atomically rewritten as header + all completed
  /// chunks in chunk-id order, so the on-disk bytes are a deterministic
  /// function of the completed set (a resumed file converges to the
  /// uninterrupted file bit for bit).
  std::string checkpoint_path;
  /// Reuse completed chunks already in checkpoint_path (tolerating a torn
  /// tail) instead of recomputing them. The existing header must describe
  /// the same campaign + shard coordinates; a mismatch throws rather than
  /// silently merging foreign chunks.
  bool resume = false;
  /// Invoked after each chunk completes (and, when checkpointing, after its
  /// checkpoint committed) with (chunks done, chunks owned by this shard) —
  /// resumed chunks count as done from the start, so a restarted worker
  /// reports where it really is. Runs UNDER the internal chunk lock; keep
  /// it to counter updates and emit heartbeat lines from
  /// SweepOptions::progress, which runs outside every lock.
  std::function<void(std::size_t, std::size_t)> chunk_progress;
};

/// Run shard (options.shard_index / options.shard_count) of the population:
/// computes this shard's chunks (all of them, minus checkpointed ones under
/// resume) with the usual thread-level parallelism inside the process, and
/// returns the complete shard. Chunk c of shard runs is the identical pure
/// function of (spec, c) that PopulationEngine::run computes, so shards
/// never perturb results — they only split the chunk list.
[[nodiscard]] PopulationShard run_population_shard(
    const PopulationSpec& spec, const ExperimentBackend& backend,
    const SweepOptions& options, const ShardRunOptions& durability = {});

// ------------------------------------------------------------------ merge

/// Merge N shards of one campaign into the final PopulationResult: verify
/// the headers agree and the chunk union covers the (executed_flows, grain)
/// partition exactly once with one change-point detector layout
/// (cpd_kinds), fold the deserialized ChunkAggregates in chunk order
/// (ordered concatenation — the same fold the single-process run uses),
/// and run the order-sensitive finalize exactly
/// once (with the sampled-estimate view when the campaign is sampled).
/// Bit-identical to PopulationEngine::run of the same spec. A disagreement
/// throws std::invalid_argument with a message starting "shard_io:".
[[nodiscard]] PopulationResult merge_shards(std::vector<PopulationShard> shards);

/// read_shard_file over every path, then merge_shards.
[[nodiscard]] PopulationResult merge_shard_files(
    const std::vector<std::string>& paths);

}  // namespace linkpad::core
