// In-memory span recorder for the traced runs.
//
// The program's own obs spans stay off; instead the harness wraps each call
// it makes into a layer with a Scope, recording (layer, epoch, start, end,
// parent, thread).  Spans are kept in memory and written out once the run
// ends.  A layer's self time is its spans' durations minus the part their
// child spans cover.

#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* layer = "";
  std::uint32_t epoch = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::uint32_t thread = 0;  // small per-recorder thread number
};

struct LayerTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  std::uint64_t spans = 0;
};

class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* layer, std::uint32_t epoch);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int32_t id_;
  };

  /// Per-layer self time, total time and span count over spans starting at
  /// or after `from_ns`.
  [[nodiscard]] std::map<std::string, LayerTotals> totals(
      std::int64_t from_ns = 0) const;

  /// Durations (seconds) of each span of `layer`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& layer,
                                              std::int64_t from_ns = 0) const;

  /// Writes one tab-separated line per span.
  void write_tsv(const std::filesystem::path& path) const;

 private:
  std::int32_t open(const char* layer, std::uint32_t epoch);
  void close(std::int32_t id);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::vector<std::int32_t>> stacks_;  // per thread
  std::map<std::uint64_t, std::uint32_t> thread_ids_;
};

/// Renders per-layer totals in the shape of EXPERIMENTS.md's per-stage
/// breakdown: layer, self time, share of the traced region, spans, average.
std::string layer_table(const std::map<std::string, LayerTotals>& totals,
                        double region_s);

}  // namespace e2e
