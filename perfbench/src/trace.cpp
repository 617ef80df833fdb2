#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

struct Store {
  std::mutex mutex;  // guards buffers
  std::vector<std::unique_ptr<Buffer>> buffers;
  std::atomic<std::uint64_t> generation{1};
  std::atomic<std::thread::id> owner{};
  std::atomic<std::uint64_t> owner_top{0};
  std::atomic<std::uint64_t> next_id{0};
};

Store& store() {
  static Store s;
  return s;
}

thread_local Buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_generation = 0;
thread_local const ScopedSpan* tl_top = nullptr;

/// The calling thread's buffer for the current generation; a thread's
/// first span after reset_spans() registers a fresh one.
Buffer& local_buffer() {
  Store& s = store();
  const std::uint64_t gen = s.generation.load();
  if (tl_generation != gen || tl_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.buffers.push_back(std::make_unique<Buffer>());
    s.buffers.back()->thread = static_cast<std::uint32_t>(s.buffers.size() - 1);
    tl_buffer = s.buffers.back().get();
    tl_generation = gen;
  }
  return *tl_buffer;
}

/// PiatSource decorator behind TracingBackend.
class TracingSource final : public linkpad::core::PiatSource {
 public:
  TracingSource(std::unique_ptr<linkpad::core::PiatSource> inner,
                std::uint64_t stream, std::uint64_t key)
      : inner_(std::move(inner)), stream_(stream), key_(key) {}

  std::size_t collect(std::size_t count, std::vector<double>& out) override {
    ScopedSpan span("sim.collect", stream_, key_);
    const std::size_t n = inner_->collect(count, out);
    span.add_piats(n);
    return n;
  }
  [[nodiscard]] std::optional<linkpad::core::StreamOverhead> overhead()
      const override {
    return inner_->overhead();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<linkpad::core::PiatSource> inner_;
  std::uint64_t stream_;
  std::uint64_t key_;
};

}  // namespace

std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() {
  return static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID)) * 1e-9;
}

void reset_spans() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.buffers.clear();
  s.generation.fetch_add(1);
  s.owner.store(std::this_thread::get_id());
  s.owner_top.store(0);
}

std::vector<Span> recorded_spans() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<Span> out;
  for (const auto& buffer : s.buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void record_span(Span span) {
  Buffer& buffer = local_buffer();
  span.thread = buffer.thread;
  buffer.spans.push_back(span);
}

std::uint64_t next_span_id() { return store().next_id.fetch_add(1) + 1; }

std::uint64_t current_parent() {
  return tl_top != nullptr ? tl_top->id() : store().owner_top.load();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t stream,
                       std::uint64_t key) {
  Store& s = store();
  span_.name = name;
  span_.id = next_span_id();
  span_.stream = stream;
  span_.key = key;
  span_.parent = current_parent();
  enclosing_ = tl_top;
  on_owner_ = std::this_thread::get_id() == s.owner.load();
  if (on_owner_) owner_prev_ = s.owner_top.exchange(span_.id);
  tl_top = this;
  span_.cpu_ns = thread_cpu_ns();
  span_.start_ns = wall_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = wall_ns();
  span_.cpu_ns = thread_cpu_ns() - span_.cpu_ns;
  tl_top = enclosing_;
  if (on_owner_) store().owner_top.store(owner_prev_);
  record_span(span_);
}

std::unique_ptr<linkpad::core::PiatSource> TracingBackend::open(
    const linkpad::core::Scenario& scenario, std::size_t class_index,
    std::uint64_t seed, std::uint64_t salt) const {
  using linkpad::util::SplitMix64;
  const std::uint64_t stream = streams_.fetch_add(1) + 1;
  const std::uint64_t key =
      SplitMix64::mix(seed ^ SplitMix64::mix(salt ^ SplitMix64::mix(class_index)));
  std::unique_ptr<linkpad::core::PiatSource> inner;
  {
    ScopedSpan span("sim.open", stream, key);
    inner = inner_.open(scenario, class_index, seed, salt);
  }
  return std::make_unique<TracingSource>(std::move(inner), stream, key);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "id\tparent\tthread\tname\tstream\tkey\tstart_ns\tend_ns\tcpu_ns\tpiats\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%u\t%s\t%llu\t%016llx\t%lld\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.name,
                 static_cast<unsigned long long>(s.stream),
                 static_cast<unsigned long long>(s.key),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.cpu_ns),
                 static_cast<unsigned long long>(s.piats));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
