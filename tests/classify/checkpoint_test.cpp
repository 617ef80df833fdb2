// Checkpoint contract of the detector bank (DESIGN.md §2.6):
//
//  * evaluate_at(n) after one ragged-batch test pass equals a fresh,
//    identically-trained bank fed ONLY the first n test PIATs per class —
//    for every FeatureKind and both EDF distances, at the boundary cases
//    n ∈ {1, window, window+1, whole stream};
//  * checkpoint() forks the full mid-stream state: the fork and the
//    original evolve independently and a resumed fork matches an
//    uninterrupted bank exactly;
//  * outcomes are identical no matter which thread pool evaluates them.
#include "classify/detector_bank.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::classify {
namespace {

constexpr std::size_t kWindow = 25;
constexpr std::size_t kTrainPerClass = 40 * kWindow;
constexpr std::size_t kTestPerClass = 80 * kWindow;

std::vector<double> synthetic_stream(double sigma, std::uint64_t seed,
                                     std::size_t count) {
  util::Rng rng(seed);
  const stats::Normal dist(1.0, sigma);
  std::vector<double> out(count);
  for (auto& x : out) x = dist.sample(rng);
  return out;
}

struct Capture {
  std::vector<std::vector<double>> train;  // per class
  std::vector<std::vector<double>> test;
};

const Capture& capture() {
  static const Capture c = [] {
    Capture out;
    out.train = {synthetic_stream(0.10, 1, kTrainPerClass),
                 synthetic_stream(0.14, 2, kTrainPerClass)};
    out.test = {synthetic_stream(0.10, 3, kTestPerClass),
                synthetic_stream(0.14, 4, kTestPerClass)};
    return out;
  }();
  return c;
}

/// Every detector flavour: the five features plus both EDF distances.
std::vector<DetectorSpec> all_detector_specs() {
  std::vector<DetectorSpec> specs;
  for (const auto kind :
       {FeatureKind::kSampleMean, FeatureKind::kSampleVariance,
        FeatureKind::kSampleEntropy, FeatureKind::kMedianAbsDeviation,
        FeatureKind::kInterquartileRange}) {
    DetectorSpec spec;
    spec.adversary.feature = kind;
    spec.adversary.window_size = kWindow;
    spec.adversary.entropy_bin_width = 0.02;
    specs.push_back(spec);
  }
  for (const auto distance :
       {EdfDistance::kKolmogorovSmirnov, EdfDistance::kCramerVonMises}) {
    DetectorSpec spec;
    spec.adversary.window_size = kWindow;
    spec.edf = distance;
    specs.push_back(spec);
  }
  return specs;
}

DetectorBank trained_bank() {
  DetectorBank bank(all_detector_specs(), 2);
  for (std::size_t c = 0; c < 2; ++c) {
    bank.consume_training(c, capture().train[c]);
  }
  bank.train();
  return bank;
}

void expect_same_confusion(const ConfusionMatrix& a, const ConfusionMatrix& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_classes(), b.num_classes()) << label;
  for (std::size_t i = 0; i < a.num_classes(); ++i) {
    for (std::size_t j = 0; j < a.num_classes(); ++j) {
      EXPECT_EQ(a.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)),
                b.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)))
          << label << " cell (" << i << "," << j << ")";
    }
  }
}

/// Feed `bank` the first `prefix` test PIATs per class, in one span.
void feed_test_prefix(DetectorBank& bank, std::size_t prefix) {
  for (std::size_t c = 0; c < 2; ++c) {
    bank.consume_test(
        c, std::span<const double>(capture().test[c]).first(prefix));
  }
}

/// The armed prefixes of the satellite contract: 1, one window, one window
/// plus one partial sample, and the whole stream.
const std::vector<std::size_t> kPrefixes = {1, kWindow, kWindow + 1,
                                            kTestPerClass};

TEST(BankCheckpoints, EvaluateAtMatchesFreshBankFedPrefix) {
  DetectorBank bank = trained_bank();
  bank.arm_checkpoints(kPrefixes);
  // Ragged batches: checkpoint boundaries must not depend on batching.
  for (std::size_t c = 0; c < 2; ++c) {
    std::span<const double> stream(capture().test[c]);
    for (const std::size_t piece : {7ul, 1ul, 24ul, 999ul}) {
      bank.consume_test(c, stream.first(piece));
      stream = stream.subspan(piece);
    }
    bank.consume_test(c, stream);
  }

  for (const std::size_t prefix : kPrefixes) {
    DetectorBank reference = trained_bank();
    feed_test_prefix(reference, prefix);
    const auto at = bank.evaluate_at(prefix);
    ASSERT_EQ(at.size(), bank.size());
    for (std::size_t d = 0; d < bank.size(); ++d) {
      expect_same_confusion(at[d], reference.detector(d).confusion(),
                            bank.detector(d).name() + " prefix " +
                                std::to_string(prefix));
    }
  }
  // The final checkpoint is the live confusion itself.
  const auto whole = bank.evaluate_at(kTestPerClass);
  for (std::size_t d = 0; d < bank.size(); ++d) {
    expect_same_confusion(whole[d], bank.detector(d).confusion(), "whole");
  }
}

TEST(BankCheckpoints, UnreachedCheckpointReportsCurrentCounts) {
  DetectorBank bank = trained_bank();
  bank.arm_checkpoints({kWindow, 10 * kTestPerClass});  // never reached
  feed_test_prefix(bank, 3 * kWindow);
  const auto at = bank.evaluate_at(10 * kTestPerClass);
  for (std::size_t d = 0; d < bank.size(); ++d) {
    expect_same_confusion(at[d], bank.detector(d).confusion(), "short stream");
  }
}

TEST(BankCheckpoints, ForkedBankResumesAndDivergesIndependently) {
  DetectorBank original = trained_bank();
  feed_test_prefix(original, kWindow + 3);  // mid-window state

  DetectorBank fork = original.checkpoint();
  // Resume both with the same continuation: they stay identical.
  for (std::size_t c = 0; c < 2; ++c) {
    const std::span<const double> rest =
        std::span<const double>(capture().test[c]).subspan(kWindow + 3);
    original.consume_test(c, rest);
    fork.consume_test(c, rest);
  }
  for (std::size_t d = 0; d < original.size(); ++d) {
    expect_same_confusion(fork.detector(d).confusion(),
                          original.detector(d).confusion(), "resumed fork");
  }

  // An uninterrupted bank fed the identical stream agrees too (the fork
  // preserved partially-filled windows, not just completed ones).
  DetectorBank uninterrupted = trained_bank();
  feed_test_prefix(uninterrupted, kTestPerClass);
  for (std::size_t d = 0; d < original.size(); ++d) {
    expect_same_confusion(original.detector(d).confusion(),
                          uninterrupted.detector(d).confusion(),
                          "uninterrupted");
  }

  // Diverging continuations do not leak into each other.
  DetectorBank diverged = uninterrupted.checkpoint();
  diverged.consume_test(0, capture().test[1]);  // deliberately mislabeled
  EXPECT_NE(diverged.detector(0).confusion().total(),
            uninterrupted.detector(0).confusion().total());
}

TEST(BankCheckpoints, OutcomesIdenticalAcrossThreadPools) {
  // Reference outcomes, computed serially.
  DetectorBank reference = trained_bank();
  reference.arm_checkpoints(kPrefixes);
  feed_test_prefix(reference, kTestPerClass);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{16}}) {
    util::ThreadPool pool(threads);
    constexpr std::size_t kReplicas = 8;
    std::vector<std::vector<std::vector<ConfusionMatrix>>> outcomes(kReplicas);
    util::parallel_for_chunks(
        pool, kReplicas, 1,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) {
            DetectorBank bank = trained_bank();
            bank.arm_checkpoints(kPrefixes);
            feed_test_prefix(bank, kTestPerClass);
            for (const std::size_t prefix : kPrefixes) {
              outcomes[r].push_back(bank.evaluate_at(prefix));
            }
          }
        });
    for (std::size_t r = 0; r < kReplicas; ++r) {
      for (std::size_t p = 0; p < kPrefixes.size(); ++p) {
        const auto want = reference.evaluate_at(kPrefixes[p]);
        for (std::size_t d = 0; d < want.size(); ++d) {
          expect_same_confusion(outcomes[r][p][d], want[d],
                                "pool " + std::to_string(threads));
        }
      }
    }
  }
}

TEST(BankCheckpoints, ArmRejectsMisuse) {
  DetectorBank late = trained_bank();
  feed_test_prefix(late, kWindow);
  EXPECT_THROW(late.arm_checkpoints({kWindow}), linkpad::ContractViolation);

  DetectorBank bank = trained_bank();
  EXPECT_THROW(bank.arm_checkpoints({0}), linkpad::ContractViolation);

  DetectorBank unarmed = trained_bank();
  feed_test_prefix(unarmed, kWindow);
  EXPECT_THROW((void)unarmed.evaluate_at(kWindow), linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::classify
