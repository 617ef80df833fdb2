// The three campaign workloads. Each is a closed-loop batch: one thread
// submits one campaign through the library's public entry point and waits
// for its result before submitting the next.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/piat_source.hpp"

namespace perfbench {

/// An output broke the contract the library documents for it.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What one decomposed campaign observed through callback stamps. Timings
/// of single layers come from the spans recorded meanwhile.
struct CampaignStamps {
  double wall_s = 0.0;  ///< the part equivalent to one untraced campaign
  double cpu_s = 0.0;   ///< process CPU over the same interval
  std::uint64_t chunks = 0;            ///< run_chunks on_chunk stamps
  std::uint64_t tune_rounds = 0;
  std::uint64_t tune_evaluations = 0;
  std::uint64_t shard_bytes = 0;       ///< final shard texts, summed
  std::uint64_t checkpoint_writes = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< file size at each commit, summed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Pool width the campaign runs at.
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// What one unit of work is ("flows", "points") and how many a campaign
  /// completes.
  [[nodiscard]] virtual const char* item() const = 0;
  [[nodiscard]] virtual double items() const = 0;

  /// Everything before the timed region. Idempotent, so it can be timed
  /// several times.
  virtual void setup() = 0;
  /// One campaign on the inputs generated from `input_seed`: the timed
  /// region of an untraced run.
  virtual void run(std::uint64_t input_seed) = 0;
  /// The checks on the last run()'s result that need no second campaign.
  /// Throws CheckFailed on a broken contract.
  virtual void check_result() const = 0;
  /// The same campaign split into its layers' public entry points, on
  /// `backend`, followed by every output check against the last run().
  /// Throws CheckFailed on a broken contract.
  virtual CampaignStamps run_decomposed(
      const linkpad::core::ExperimentBackend& backend) = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The workload `name`; `scratch_dir` holds its shard files.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch_dir);

}  // namespace perfbench
