// Outside-in tracing: spans recorded by the benchmark around calls into the
// library's public entry points, never inside src/. Spans live in
// per-thread memory buffers and are drained once the traced campaign has
// joined its workers.
//
// The main seam is TracingBackend, an ExperimentBackend decorator around
// core::sim_backend(): every engine, sweep, population, frontier and shard
// entry point takes a backend, so timing open() and PiatSource::collect()
// splits simulation time from everything else with no program change.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/piat_source.hpp"
#include "stats.hpp"

namespace perfbench {

/// Monotonic wall clock and calling-thread CPU clock, in nanoseconds.
std::int64_t wall_ns();
std::int64_t thread_cpu_ns();
/// CPU seconds of the whole process, every thread so far included.
double process_cpu_s();

// Process-wide span store. A span opened on a thread with no open span of
// its own (a pool worker) takes as parent the innermost span open on the
// owner thread — the thread that last called reset_spans().

/// Drop every span and make the calling thread the owner. Call only while
/// no traced work runs.
void reset_spans();

/// Every span recorded since reset_spans(), in no particular order. Call
/// only while no traced work runs.
[[nodiscard]] std::vector<Span> recorded_spans();

/// Record an already-closed span (assembled from callback stamps).
void record_span(Span span);

/// A fresh span id (never 0).
[[nodiscard]] std::uint64_t next_span_id();

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t stream = 0,
                      std::uint64_t key = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void add_piats(std::uint64_t n) { span_.piats += n; }
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  const ScopedSpan* enclosing_ = nullptr;
  bool on_owner_ = false;
  std::uint64_t owner_prev_ = 0;
};

/// The innermost open span of the calling thread, else the owner's, else 0.
std::uint64_t current_parent();

/// ExperimentBackend decorator: spans "sim.open" around open() and
/// "sim.collect" around every PiatSource::collect of the returned source.
/// Streams are bit-identical to the inner backend's.
class TracingBackend final : public linkpad::core::ExperimentBackend {
 public:
  explicit TracingBackend(const linkpad::core::ExperimentBackend& inner)
      : inner_(inner) {}

  [[nodiscard]] std::unique_ptr<linkpad::core::PiatSource> open(
      const linkpad::core::Scenario& scenario, std::size_t class_index,
      std::uint64_t seed, std::uint64_t salt) const override;
  [[nodiscard]] bool replayable() const override { return inner_.replayable(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const linkpad::core::ExperimentBackend& inner_;
  mutable std::atomic<std::uint64_t> streams_{0};
};

/// Write spans as tab-separated lines (header first) to `path`.
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
