// Self-test of the benchmark's own arithmetic on synthetic data: order
// statistics with their sample counts, the starved-host flag, self time
// from nested spans across threads, and the tracer's parent links.
// Prints one line per failed check; exits 1 if any failed.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1 + std::fabs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void test_quantiles() {
  check(near(pb::quantile({3, 1, 2}, 0.5), 2.0), "odd median");
  check(near(pb::quantile({4, 1, 3, 2}, 0.5), 2.5), "even median interpolates");
  check(near(pb::quantile(ramp(11), 0.9), 10.0), "p90 of 1..11");
  check(near(pb::quantile({7}, 0.99), 7.0), "single sample");
  check(std::isnan(pb::quantile({}, 0.5)), "empty sample is NaN");

  // The tail is the highest fixed percentile with >= 10 samples beyond it.
  const auto s9 = pb::summarize(ramp(9));
  check(s9.count == 9 && s9.tail_percentile == 0 && near(s9.tail, s9.median),
        "9 samples back no percentile");
  const auto s20 = pb::summarize(ramp(20));
  check(s20.tail_percentile == 50 && near(s20.median, 10.5), "20 samples back p50");
  const auto s40 = pb::summarize(ramp(40));
  check(s40.tail_percentile == 75 && near(s40.tail, pb::quantile(ramp(40), 0.75)),
        "40 samples back p75");
  check(pb::summarize(ramp(100)).tail_percentile == 90, "100 samples back p90");
  check(pb::summarize(ramp(199)).tail_percentile == 90, "199 samples do not back p95");
  check(pb::summarize(ramp(200)).tail_percentile == 95, "200 samples back p95");
  check(pb::summarize(ramp(1000)).tail_percentile == 99, "1000 samples back p99");
}

void test_starved() {
  check(!pb::starved(3.9, 4), "3.9 cores of 4 is not starved");
  check(!pb::starved(2.7, 4), "a parallel tail (2.7 of 4) is not starved");
  check(pb::starved(1.0, 4), "1 core of 4 is starved");
  check(!pb::starved(0.95, 1), "a single thread at 0.95 is not starved");
  check(pb::starved(0.3, 1), "a single thread at 0.3 is starved");
}

pb::Span span(std::uint64_t id, std::uint64_t parent, const char* name,
              std::uint32_t thread, std::int64_t a, std::int64_t b,
              std::int64_t cpu) {
  pb::Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.start_ns = a;
  s.end_ns = b;
  s.cpu_ns = cpu;
  return s;
}

void test_self_time() {
  // Root on thread 0 from 0 to 100 ns (CPU 30), with:
  //  - child A on thread 0 [10, 30), CPU 20 — same thread: its CPU leaves
  //    the root's self CPU;
  //  - children B [20, 60) and C [50, 70) on threads 1 and 2 — overlapping
  //    across threads: they cover [10, 70) together with A; their CPU never
  //    was the root's;
  //  - child D on thread 1 [90, 120) sticks out of the root: only [90, 100)
  //    counts as covered, which leaves the root 30 ns of self wall.
  // B has a grandchild E on thread 1 [25, 35), CPU 10.
  const std::vector<pb::Span> spans = {
      span(1, 0, "root", 0, 0, 100, 30),  span(2, 1, "a", 0, 10, 30, 20),
      span(3, 1, "b", 1, 20, 60, 40),     span(4, 1, "c", 2, 50, 70, 20),
      span(5, 1, "d", 1, 90, 120, 30),    span(6, 3, "e", 1, 25, 35, 10),
  };
  const auto self = pb::self_times(spans);
  const auto& root = self.at("root");
  check(near(root.wall_s, 100e-9), "root wall");
  check(near(root.self_wall_s, (100 - 60 - 10) * 1e-9), "root self wall: union of children");
  check(near(root.self_cpu_s, 10e-9), "root self CPU: same-thread children only");
  check(near(self.at("b").self_wall_s, 30e-9) && near(self.at("b").self_cpu_s, 30e-9),
        "b minus its grandchild");
  check(near(self.at("e").self_wall_s, 10e-9), "leaf self = whole span");
  check(self.at("a").spans == 1 && self.size() == 6, "one entry per name");
}

void test_tracer_parents() {
  // A worker thread's span with no open span of its own hangs off the
  // owner thread's innermost open span.
  pb::reset_spans();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    pb::ScopedSpan outer("outer");
    outer_id = outer.id();
    {
      pb::ScopedSpan inner("inner");
      inner_id = inner.id();
      std::thread worker([] { pb::ScopedSpan w("worker"); });
      worker.join();
    }
    std::thread late([] { pb::ScopedSpan w("late"); });
    late.join();
  }
  std::map<std::string, pb::Span> by_name;
  for (const auto& s : pb::recorded_spans()) by_name[s.name] = s;
  check(by_name.size() == 4, "four spans recorded");
  check(by_name["outer"].parent == 0, "outer is a root");
  check(by_name["inner"].parent == outer_id, "inner nests in outer");
  check(by_name["worker"].parent == inner_id,
        "worker hangs off the owner's innermost span");
  check(by_name["worker"].thread != by_name["inner"].thread,
        "worker has its own thread number");
  check(by_name["late"].parent == outer_id, "owner stack pops on close");
  for (const auto& [name, s] : by_name) {
    check(s.end_ns >= s.start_ns && s.cpu_ns >= 0, name + " has a sane interval");
  }
  pb::reset_spans();
  check(pb::recorded_spans().empty(), "reset drops every span");
}

}  // namespace

int main() {
  test_quantiles();
  test_starved();
  test_self_time();
  test_tracer_parents();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
