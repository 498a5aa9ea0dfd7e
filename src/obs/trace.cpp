#include "src/obs/trace.h"

#include <algorithm>
#include <ostream>

namespace vq::obs {

namespace {

// Nesting depth of live spans on this thread; gives the exporter a stable
// tiebreak so parent spans sort before the children they enclose.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

// --- TraceRecorder -----------------------------------------------------------

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  // The cached pointer stays valid for the process lifetime: buffers are
  // held by unique_ptr in buffers_ and never destroyed (clear() only
  // empties the event vectors).
  thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer == nullptr) {
    const MutexLock lock{mutex_};
    const auto tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    buffers_.push_back(std::make_unique<ThreadBuffer>(tid));
    t_buffer = buffers_.back().get();
  }
  return *t_buffer;
}

void TraceRecorder::record(const char* name, std::uint32_t epoch,
                           std::uint32_t depth, std::uint64_t start_ns,
                           std::uint64_t dur_ns) {
  static Counter& dropped =
      Registry::global().counter("obs.spans_dropped", Determinism::kRuntime);
  ThreadBuffer& buf = local_buffer();
  const MutexLock lock{buf.mutex};
  const Event event{name, epoch, depth, start_ns, dur_ns};
  if (buf.events.size() < kSpanCapacity) {
    buf.events.push_back(event);
    return;
  }
  buf.events[buf.next] = event;
  buf.next = (buf.next + 1) % kSpanCapacity;
  dropped.add(1);
}

void TraceRecorder::clear() {
  const MutexLock lock{mutex_};
  for (const auto& buf : buffers_) {
    const MutexLock buf_lock{buf->mutex};
    buf->events.clear();
    buf->next = 0;
  }
}

std::size_t TraceRecorder::size() const {
  const MutexLock lock{mutex_};
  std::size_t total = 0;
  for (const auto& buf : buffers_) {
    const MutexLock buf_lock{buf->mutex};
    total += buf->events.size();
  }
  return total;
}

std::vector<TraceRecorder::Recorded> TraceRecorder::events() const {
  std::vector<Recorded> out;
  {
    const MutexLock lock{mutex_};
    for (const auto& buf : buffers_) {
      const MutexLock buf_lock{buf->mutex};
      for (const Event& e : buf->events) {
        out.push_back(Recorded{std::string{e.name}, buf->tid, e.epoch,
                               e.depth, e.start_ns, e.dur_ns});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Recorded& a, const Recorded& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.depth < b.depth;
  });
  return out;
}

namespace {

// Microseconds with 3 decimals (nanosecond precision), without float
// formatting so output is locale- and platform-stable.
void append_us(std::string& out, std::uint64_t ns) {
  out += std::to_string(ns / 1000);
  out += '.';
  const std::uint64_t frac = ns % 1000;
  if (frac < 100) out += '0';
  if (frac < 10) out += '0';
  out += std::to_string(frac);
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  const std::vector<Recorded> evs = events();
  std::uint64_t base_ns = 0;
  if (!evs.empty()) base_ns = evs.front().start_ns;  // evs sorted by start

  std::string json = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Recorded& e = evs[i];
    json += i == 0 ? "\n" : ",\n";
    json += "{\"name\": \"";
    append_escaped(json, e.name);
    json += "\", \"cat\": \"vidqual\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    json += std::to_string(e.tid);
    json += ", \"ts\": ";
    append_us(json, e.start_ns - base_ns);
    json += ", \"dur\": ";
    append_us(json, e.dur_ns);
    if (e.epoch != kNoEpoch) {
      json += ", \"args\": {\"epoch\": ";
      json += std::to_string(e.epoch);
      json += "}";
    }
    json += "}";
  }
  json += evs.empty() ? "]}\n" : "\n]}\n";
  out << json;
}

// --- Span --------------------------------------------------------------------

Span::Span(const char* name, std::uint32_t epoch) noexcept {
  if (!enabled()) return;
  name_ = name;
  epoch_ = epoch;
  depth_ = t_span_depth++;
  start_ns_ = Stopwatch::now_ns();
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_ns = Stopwatch::now_ns();
  --t_span_depth;
  try {
    TraceRecorder::global().record(name_, epoch_, depth_, start_ns_,
                                   end_ns - start_ns_);
  } catch (...) {
    // A span must never turn an observability allocation failure into a
    // pipeline failure; the event is simply dropped.
  }
}

}  // namespace vq::obs
