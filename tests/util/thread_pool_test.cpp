#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace linkpad::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

// ------------------------------------------------------ chunked dispatch

TEST(ParallelForChunks, CoversEveryIndexOnceAtAnyGrain) {
  ThreadPool pool(3);
  // Grain boundaries: grain 1, a grain that divides n, one that leaves a
  // ragged tail, one equal to n, and one past it.
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                              std::size_t{65}}) {
    for (const std::size_t grain :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}, n, n + 9}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for_chunks(pool, n, grain,
                          [&](std::size_t, std::size_t begin, std::size_t end) {
                            ASSERT_LE(end, n);
                            // Chunks are grain-aligned: the partition derives
                            // from (n, grain) alone, never the pool.
                            EXPECT_EQ(begin % grain, 0u);
                            for (std::size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelForChunks, SlotIdsStayBelowChunkSlots) {
  ThreadPool pool(4);
  const std::size_t n = 100, grain = 7;
  const std::size_t slots = chunk_slots(pool, n, grain);
  std::atomic<std::size_t> max_slot{0};
  parallel_for_chunks(pool, n, grain,
                      [&](std::size_t slot, std::size_t, std::size_t) {
                        std::size_t seen = max_slot.load();
                        while (slot > seen &&
                               !max_slot.compare_exchange_weak(seen, slot)) {
                        }
                      });
  EXPECT_LT(max_slot.load(), slots);
}

TEST(ParallelForChunks, PerSlotScratchSurvivesAcrossChunks) {
  // The point of the chunked shape: slot-indexed scratch is touched by one
  // task only, so per-chunk partial sums need no synchronization and their
  // total is exact.
  ThreadPool pool(4);
  const std::size_t n = 1000, grain = 9;
  std::vector<std::uint64_t> partial(chunk_slots(pool, n, grain), 0);
  parallel_for_chunks(pool, n, grain,
                      [&](std::size_t slot, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          partial[slot] += i;
                        }
                      });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), std::uint64_t{0}),
            static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelForChunks, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_for_chunks(pool, 100, 4,
                          [](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 56) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

TEST(ParallelForChunks, NestedDispatchRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(60);
  parallel_for_chunks(pool, 3, 1, [&](std::size_t, std::size_t outer,
                                      std::size_t) {
    parallel_for_chunks(pool, 20, 4,
                        [&](std::size_t slot, std::size_t begin,
                            std::size_t end) {
                          EXPECT_EQ(slot, 0u);  // inline fallback: one slot
                          for (std::size_t i = begin; i < end; ++i) {
                            hits[outer * 20 + i].fetch_add(1);
                          }
                        });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForChunks, HandlesZeroItems) {
  ThreadPool pool(2);
  parallel_for_chunks(pool, 0, 8,
                      [](std::size_t, std::size_t, std::size_t) {
                        FAIL() << "body must not run";
                      });
}

}  // namespace
}  // namespace linkpad::util
