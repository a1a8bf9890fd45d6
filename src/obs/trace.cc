#include "obs/trace.h"

#include <atomic>
#include <map>

#include "common/status.h"
#include "obs/json.h"

namespace trienum::obs {

namespace {

std::atomic<TraceCollector*> g_collector{nullptr};

std::uint64_t SatSub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

// Process-wide thread-name registry, decoupled from collector lifetime so
// a long-lived thread named once stays named for every later trace.
std::mutex& NameMu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}
std::map<std::thread::id, std::string>& NameMap() {
  static auto* m = new std::map<std::thread::id, std::string>;
  return *m;
}

// Per-thread accumulation of sampled children, one entry per open sampled
// ancestor: counters plus wall, so closing spans can compute exclusive
// (self) deltas.
struct ChildAccum {
  CounterSample counters;
  std::uint64_t wall_ns = 0;
};
thread_local std::vector<ChildAccum> t_child_accum;
thread_local int t_span_depth = 0;

}  // namespace

CounterSample operator-(const CounterSample& a, const CounterSample& b) {
  CounterSample d;
  d.block_reads = SatSub(a.block_reads, b.block_reads);
  d.block_writes = SatSub(a.block_writes, b.block_writes);
  d.cache_hits = SatSub(a.cache_hits, b.cache_hits);
  d.work = SatSub(a.work, b.work);
  d.read_calls = SatSub(a.read_calls, b.read_calls);
  d.write_calls = SatSub(a.write_calls, b.write_calls);
  d.bytes_read = SatSub(a.bytes_read, b.bytes_read);
  d.bytes_written = SatSub(a.bytes_written, b.bytes_written);
  return d;
}

CounterSample& operator+=(CounterSample& a, const CounterSample& b) {
  a.block_reads += b.block_reads;
  a.block_writes += b.block_writes;
  a.cache_hits += b.cache_hits;
  a.work += b.work;
  a.read_calls += b.read_calls;
  a.write_calls += b.write_calls;
  a.bytes_read += b.bytes_read;
  a.bytes_written += b.bytes_written;
  return a;
}

TraceCollector* InstallTraceCollector(TraceCollector* c) {
  return g_collector.exchange(c, std::memory_order_acq_rel);
}

TraceCollector* CurrentTraceCollector() {
  return g_collector.load(std::memory_order_acquire);
}

void SetCurrentThreadName(std::string name) {
  std::lock_guard<std::mutex> lk(NameMu());
  NameMap()[std::this_thread::get_id()] = std::move(name);
}

std::string CurrentThreadNameFor(std::thread::id id) {
  std::lock_guard<std::mutex> lk(NameMu());
  auto it = NameMap().find(id);
  return it == NameMap().end() ? std::string() : it->second;
}

namespace internal {
int BeginSpanDepth() { return t_span_depth++; }
void EndSpanDepth() {
  TRIENUM_CHECK_MSG(t_span_depth > 0,
                    "span close without a matching open on this thread");
  --t_span_depth;
}
int CurrentSpanDepth() { return t_span_depth; }
}  // namespace internal

TraceCollector::TraceCollector()
    : owner_(std::this_thread::get_id()),
      epoch_(std::chrono::steady_clock::now()) {}

void TraceCollector::set_sampler(Sampler s) { sampler_ = std::move(s); }
void TraceCollector::clear_sampler() { sampler_ = nullptr; }

std::uint64_t TraceCollector::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::events_since(std::size_t mark) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (mark >= events_.size()) return {};
  return std::vector<TraceEvent>(events_.begin() +
                                     static_cast<std::ptrdiff_t>(mark),
                                 events_.end());
}

void TraceCollector::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  events_.clear();
}

int TraceCollector::TidForCurrentThread() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [id, tid] : tids_) {
    if (id == self) return tid;
  }
  const int tid = static_cast<int>(tids_.size());
  tids_.emplace_back(self, tid);
  return tid;
}

void TraceCollector::Record(TraceEvent ev) {
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(std::move(ev));
}

void TraceCollector::WriteChromeJson(std::ostream& os) const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<std::thread::id, int>> tids;
  {
    std::lock_guard<std::mutex> lk(mu_);
    events = events_;
    tids = tids_;
  }
  JsonWriter w(os);
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const auto& [id, tid] : tids) {
    std::string name = CurrentThreadNameFor(id);
    if (name.empty()) name = id == owner_ ? "main" : "thread-" + std::to_string(tid);
    w.BeginObject();
    w.KV("ph", "M").KV("pid", 1).KV("tid", tid).KV("name", "thread_name");
    w.Key("args").BeginObject().KV("name", name).EndObject();
    w.EndObject();
  }
  for (const TraceEvent& e : events) {
    w.BeginObject();
    w.KV("ph", "X").KV("pid", 1).KV("tid", e.tid).KV("name", e.name);
    w.KV("ts", static_cast<double>(e.start_ns) / 1000.0);
    w.KV("dur", static_cast<double>(e.dur_ns) / 1000.0);
    w.Key("args").BeginObject();
    w.KV("depth", e.depth);
    if (e.has_delta) {
      // Exclusive (self) deltas: summing any one key over every event of a
      // query reproduces that query's total exactly.
      w.KV("block_reads", e.self.block_reads);
      w.KV("block_writes", e.self.block_writes);
      w.KV("cache_hits", e.self.cache_hits);
      w.KV("work", e.self.work);
      w.KV("read_calls", e.self.read_calls);
      w.KV("write_calls", e.self.write_calls);
      w.KV("self_wall_ns", e.self_wall_ns);
    }
    for (const auto& [k, v] : e.args) w.KV(k, v);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ms");
  w.EndObject();
  os << "\n";
}

Span::Span(const char* name) : c_(CurrentTraceCollector()), name_(name) {
  if (c_ == nullptr) return;
  depth_ = internal::BeginSpanDepth();
  start_ns_ = c_->NowNs();
  // Counter sampling only on the owner thread (the sampler and the counters
  // it reads are not safe from workers); check owner first so worker spans
  // never touch sampler_.
  if (std::this_thread::get_id() == c_->owner() && c_->has_sampler()) {
    before_ = c_->Sample();
    sampling_ = true;
    t_child_accum.emplace_back();
  }
}

void Span::AddArg(const char* key, std::uint64_t value) {
  if (c_ == nullptr) return;
  args_.emplace_back(key, value);
}

Span::~Span() {
  if (c_ == nullptr) return;
  TraceEvent ev;
  ev.name = name_;
  ev.depth = depth_;
  ev.start_ns = start_ns_;
  ev.dur_ns = SatSub(c_->NowNs(), start_ns_);
  ev.self_wall_ns = ev.dur_ns;
  if (sampling_) {
    ChildAccum children = t_child_accum.back();
    t_child_accum.pop_back();
    // The sampler can be gone if the query that installed it already
    // finished (an enclosing script-level span); fall back to wall-only.
    if (std::this_thread::get_id() == c_->owner() && c_->has_sampler()) {
      ev.inclusive = c_->Sample() - before_;
      ev.self = ev.inclusive - children.counters;
      ev.self_wall_ns = SatSub(ev.dur_ns, children.wall_ns);
      ev.has_delta = true;
      if (!t_child_accum.empty()) {
        t_child_accum.back().counters += ev.inclusive;
        t_child_accum.back().wall_ns += ev.dur_ns;
      }
    }
  }
  internal::EndSpanDepth();
  ev.tid = c_->TidForCurrentThread();
  ev.args = std::move(args_);
  c_->Record(std::move(ev));
}

}  // namespace trienum::obs
