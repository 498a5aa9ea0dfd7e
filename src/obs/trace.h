// Observability: stage spans and the chrome-trace exporter (DESIGN.md §4.8).
//
// `VQ_SPAN("pipeline.fold_sessions")` opens an RAII scope that records a
// (name, epoch, thread, start, duration) interval into a per-thread buffer;
// `TraceRecorder::write_chrome_trace` serialises every recorded interval as
// Chrome "X" (complete) events, loadable directly by chrome://tracing and
// Perfetto.  This is how "where does an epoch's time go" stops being a
// guess: one --trace-out flag on the CLI yields a flame view of
// ingest -> fold -> lattice -> critical extraction per epoch per thread.
//
// Cost model.  Spans are double-gated:
//   * Runtime kill switch — the Span constructor is one relaxed load of
//     obs::enabled() when tracing is off: no clock read, no buffer write,
//     no allocation.  Measured overhead of the disabled path is below noise
//     on perf_critical (EXPERIMENTS.md §Observability).
//   * Compile-time kill switch — building with -DVIDQUAL_OBS_SPANS=OFF
//     defines VIDQUAL_OBS_NO_SPANS and the VQ_SPAN macros expand to
//     nothing at all.
//
// Recording is per-thread: each thread appends to its own buffer (guarded
// by a per-buffer mutex that is uncontended in steady state — only the
// exporter ever takes it from another thread), so concurrent epoch workers
// never serialise on a shared log.  Buffers are owned by the recorder and
// survive thread exit; clear() empties them without invalidating the
// thread-local fast path.
//
// Each thread's buffer is a ring of kSpanCapacity spans, so a long-running
// process (`monitor --serve --trace-out`) holds a bounded trace: once a
// thread's ring is full, each new span overwrites that thread's oldest one
// and counts in the kRuntime counter obs.spans_dropped.  The capacity sits
// well above what a 336-epoch analyze or monitor run records on one thread,
// so their traces are complete.
//
// Span names must be string literals (or otherwise outlive the recorder):
// the buffer stores the pointer, not a copy — intentional, so the hot path
// never allocates.
//
// steady_clock lives here and only here: src/obs/ is the carve-out in
// vidqual_lint's wall-clock rule (timing is this component's job); naming
// a clock anywhere else in src/ is still a lint error.  Durations feed
// observability output exclusively — never analysis results — which is how
// the determinism contract (METHOD.md §9) survives an instrumented build.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vq::obs {

/// The one sanctioned steady-clock reader.  Instrumented components call
/// this (or use VQ_SPAN) instead of naming a clock themselves.
struct Stopwatch {
  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// Epoch value for spans with no epoch context.
inline constexpr std::uint32_t kNoEpoch = 0xFFFF'FFFFu;

/// Process-wide span sink.  record() is called by Span destructors on the
/// owning thread; events()/write_chrome_trace() may run concurrently from
/// any thread.
class TraceRecorder {
 public:
  /// Spans each thread keeps; older ones are overwritten (see above).
  static constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;

  [[nodiscard]] static TraceRecorder& global();

  /// One exported interval (events() resolves thread buffers and sorts).
  struct Recorded {
    std::string name;
    std::uint32_t tid = 0;    // recorder-assigned, dense from 1
    std::uint32_t epoch = kNoEpoch;
    std::uint32_t depth = 0;  // nesting depth on the recording thread
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };

  /// Appends one interval to the calling thread's buffer, overwriting its
  /// oldest interval when the buffer holds kSpanCapacity.  `name` must
  /// point at storage that outlives the recorder (a string literal).
  void record(const char* name, std::uint32_t epoch, std::uint32_t depth,
              std::uint64_t start_ns, std::uint64_t dur_ns)
      VQ_EXCLUDES(mutex_);

  /// Drops every recorded event; buffers (and thread-local fast paths)
  /// stay valid.
  void clear() VQ_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const VQ_EXCLUDES(mutex_);

  /// All recorded intervals, sorted by (start_ns, tid, depth) — i.e. in
  /// monotonic timestamp order.
  [[nodiscard]] std::vector<Recorded> events() const VQ_EXCLUDES(mutex_);

  /// Chrome trace-event JSON ("X" complete events, ts/dur in microseconds
  /// relative to the earliest recorded span), loadable by chrome://tracing
  /// and Perfetto.
  void write_chrome_trace(std::ostream& out) const VQ_EXCLUDES(mutex_);

 private:
  TraceRecorder() = default;

  struct Event {
    const char* name;
    std::uint32_t epoch;
    std::uint32_t depth;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };

  struct ThreadBuffer {
    explicit ThreadBuffer(std::uint32_t id) : tid(id) {}
    const std::uint32_t tid;
    Mutex mutex;
    /// Grows to kSpanCapacity, then is a ring whose oldest slot is `next`.
    std::vector<Event> events VQ_GUARDED_BY(mutex);
    std::size_t next VQ_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] ThreadBuffer& local_buffer() VQ_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ VQ_GUARDED_BY(mutex_);
};

/// RAII stage span.  When obs::enabled() is false, construction is a single
/// relaxed load and destruction a branch.  Use through the VQ_SPAN macros
/// so -DVIDQUAL_OBS_SPANS=OFF can compile instrumentation out entirely.
class Span {
 public:
  explicit Span(const char* name, std::uint32_t epoch = kNoEpoch) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t epoch_ = kNoEpoch;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

}  // namespace vq::obs

#if defined(VIDQUAL_OBS_NO_SPANS)
#define VQ_SPAN(name)
#define VQ_SPAN_EPOCH(name, epoch)
#else
#define VQ_OBS_CONCAT_INNER(a, b) a##b
#define VQ_OBS_CONCAT(a, b) VQ_OBS_CONCAT_INNER(a, b)
#define VQ_SPAN(name) \
  const ::vq::obs::Span VQ_OBS_CONCAT(vq_obs_span_, __LINE__) { (name) }
#define VQ_SPAN_EPOCH(name, epoch)                           \
  const ::vq::obs::Span VQ_OBS_CONCAT(vq_obs_span_, __LINE__) { \
    (name), (epoch)                                          \
  }
#endif
