#include "core/piat_source.hpp"

#include <algorithm>

#include "sim/testbed.hpp"
#include "util/rng.hpp"

namespace linkpad::core {

namespace {

/// Thin adapter: one sim::Testbed streaming PIATs contiguously. The engine
/// owns the RNG so the testbed's reference stays valid for its lifetime.
class SimPiatSource final : public PiatSource {
 public:
  SimPiatSource(const sim::TestbedConfig& config, util::Rng rng)
      : rng_(rng), testbed_(config, rng_) {}

  std::size_t collect(std::size_t count, std::vector<double>& out) override {
    if (count == 0) return 0;
    return testbed_.collect_piats(count, out);
  }

  [[nodiscard]] std::optional<StreamOverhead> overhead() const override {
    const sim::GatewayStats& gs = testbed_.gateway_stats();
    StreamOverhead oh;
    oh.payload_packets = gs.payload_out;
    oh.dummy_packets = gs.dummy_out;
    oh.suppressed_fires = gs.suppressed_fires;
    oh.wire_bps = testbed_.measured_wire_bps();
    const std::uint64_t wire_packets = gs.payload_out + gs.dummy_out;
    if (wire_packets > 0) {
      oh.dummy_fraction =
          static_cast<double>(gs.dummy_out) / static_cast<double>(wire_packets);
      oh.padding_bps = oh.wire_bps * static_cast<double>(gs.padding_bytes) /
                       static_cast<double>(gs.payload_bytes + gs.padding_bytes);
    }
    if (gs.queueing_delay.count() > 0) {
      oh.delay_mean = gs.queueing_delay.mean();
      oh.delay_p95 = gs.delay_p95.value();
    }
    return oh;
  }

  [[nodiscard]] std::string name() const override { return "sim"; }

 private:
  util::Rng rng_;
  sim::Testbed testbed_;
};

class SimBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    const util::RngFactory factory(seed);
    return std::make_unique<SimPiatSource>(scenario.config_for(class_index),
                                           factory.make(salt, class_index));
  }

  [[nodiscard]] std::string name() const override { return "sim"; }
};

}  // namespace

std::vector<double> pull_stream(const ExperimentBackend& backend,
                                const Scenario& scenario,
                                std::size_t class_index, std::uint64_t seed,
                                std::uint64_t salt, std::size_t count,
                                std::size_t batch_piats) {
  batch_piats = std::max<std::size_t>(batch_piats, 1);
  std::vector<double> out;
  out.reserve(count);
  auto source = backend.open(scenario, class_index, seed, salt);
  while (out.size() < count) {
    const std::size_t want = std::min(batch_piats, count - out.size());
    if (source->collect(want, out) < want) break;  // backend exhausted
  }
  return out;
}

std::size_t stream_batches(
    const ExperimentBackend& backend, const Scenario& scenario,
    std::size_t class_index, std::uint64_t seed, std::uint64_t salt,
    std::size_t count, std::size_t batch_piats,
    const std::function<void(std::span<const double>)>& sink) {
  auto source = backend.open(scenario, class_index, seed, salt);
  return stream_batches(*source, count, batch_piats, sink);
}

std::size_t stream_batches(
    PiatSource& source, std::size_t count, std::size_t batch_piats,
    const std::function<void(std::span<const double>)>& sink) {
  batch_piats = std::max<std::size_t>(batch_piats, 1);
  std::vector<double> buffer;
  buffer.reserve(std::min(batch_piats, count));
  std::size_t delivered = 0;
  while (delivered < count) {
    buffer.clear();
    const std::size_t want = std::min(batch_piats, count - delivered);
    const std::size_t got = source.collect(want, buffer);
    if (got > 0) {
      sink(std::span<const double>(buffer.data(), got));
      delivered += got;
    }
    if (got < want) break;  // backend exhausted
  }
  return delivered;
}

const ExperimentBackend& sim_backend() {
  static const SimBackend backend;
  return backend;
}

std::unique_ptr<ExperimentBackend> make_sim_backend() {
  return std::make_unique<SimBackend>();
}

}  // namespace linkpad::core
