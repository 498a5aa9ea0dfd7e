// Tests for the observability layer (src/obs): registry determinism across
// workers/shards settings, histogram bucket edges, span nesting, and the
// chrome-trace exporter's JSON validity + timestamp monotonicity.
//
// The registry and recorder are process-wide singletons and ctest normally
// runs each TEST in its own process, but the sanitizer jobs run the binary
// directly — so every test here resets values (never registrations) before
// it measures, and asserts on deltas, not absolutes.

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "src/util/thread_pool.h"

namespace vq {
namespace {

SessionTable small_trace() {
  WorldConfig world_config;
  world_config.num_sites = 40;
  world_config.num_cdns = 6;
  world_config.num_asns = 90;
  const World world = World::build(world_config);

  EventScheduleConfig event_config;
  event_config.num_epochs = 6;
  event_config.events_per_epoch = 2.0;
  const EventSchedule events = EventSchedule::generate(world, event_config);

  TraceConfig trace_config;
  trace_config.num_epochs = 6;
  trace_config.sessions_per_epoch = 1'000;
  return generate_trace(world, events, trace_config);
}

// --- registry primitives -----------------------------------------------------

TEST(ObsRegistry, CounterStripesSumExactly) {
  obs::Counter counter;
  ThreadPool pool{4};
  // 8 tasks x 10'000 increments from distinct threads: the striped cells
  // must sum to exactly 80'000 (integer addition commutes).
  pool.parallel_for(0, 8, [&](std::size_t) {
    for (int i = 0; i < 10'000; ++i) counter.add(1);
  });
  EXPECT_EQ(counter.value(), 80'000u);
}

TEST(ObsRegistry, GaugeSetAddAndMax) {
  obs::Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 4);
  gauge.update_max(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(2);  // lower value must not regress the max
  EXPECT_EQ(gauge.value(), 10);
}

TEST(ObsRegistry, SameNameReturnsSameHandle) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("obs_test.same_handle");
  obs::Counter& b = reg.counter("obs_test.same_handle");
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("obs_test.kind_clash");
  EXPECT_THROW(reg.gauge("obs_test.kind_clash"), std::logic_error);
  EXPECT_THROW(reg.histogram("obs_test.kind_clash", {1, 2}),
               std::logic_error);
}

TEST(ObsRegistry, HistogramEdgeMismatchThrows) {
  obs::Registry& reg = obs::Registry::global();
  reg.histogram("obs_test.edge_clash", {10, 20});
  EXPECT_NO_THROW(reg.histogram("obs_test.edge_clash", {10, 20}));
  EXPECT_THROW(reg.histogram("obs_test.edge_clash", {10, 30}),
               std::logic_error);
}

TEST(ObsRegistry, RuntimeMetricsExcludedFromDefaultSnapshot) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("obs_test.stable_metric").add(1);
  reg.counter("obs_test.runtime_metric", obs::Determinism::kRuntime).add(1);
  const std::string stable_only = reg.snapshot_json();
  EXPECT_NE(stable_only.find("obs_test.stable_metric"), std::string::npos);
  EXPECT_EQ(stable_only.find("obs_test.runtime_metric"), std::string::npos);
  const std::string with_runtime = reg.snapshot_json(true);
  EXPECT_NE(with_runtime.find("obs_test.runtime_metric"), std::string::npos);
}

TEST(ObsRegistry, ResetValuesKeepsRegistrations) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("obs_test.reset_keep");
  c.add(5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);           // value zeroed...
  EXPECT_EQ(&reg.counter("obs_test.reset_keep"), &c);  // ...handle intact
}

// --- registry determinism across workers/shards ------------------------------

TEST(ObsRegistry, SnapshotIdenticalAcrossWorkersAndShards) {
  const SessionTable trace = small_trace();
  obs::Registry& reg = obs::Registry::global();

  std::vector<std::string> snapshots;
  for (const std::size_t workers : {1u, 4u}) {
    for (const std::size_t shards : {1u, 4u}) {
      reg.reset_values();
      PipelineConfig config;
      config.workers = workers;
      config.shards = shards;
      config.cluster_params.min_sessions = 40;
      (void)run_pipeline(trace, config);
      snapshots.push_back(reg.snapshot_json());
    }
  }
  ASSERT_EQ(snapshots.size(), 4u);
  // The kStable snapshot is a determinism contract: byte-identical JSON for
  // every {workers, shards} combination on the same input.
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[0], snapshots[i]) << "config #" << i;
  }
  EXPECT_NE(snapshots[0].find("\"pipeline.epochs\": 6"), std::string::npos)
      << snapshots[0];
}

// --- histogram bucketing -----------------------------------------------------

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h{{10, 20, 30}};
  // Bucket i counts edges[i-1] < v <= edges[i]; > last edge overflows.
  for (const std::uint64_t v : {0u, 10u}) h.record(v);    // -> bucket 0
  for (const std::uint64_t v : {11u, 20u}) h.record(v);   // -> bucket 1
  h.record(25);                                           // -> bucket 2
  for (const std::uint64_t v : {31u, 1000u}) h.record(v); // -> overflow
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 2, 1, 2}));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 20 + 25 + 31 + 1000);
}

TEST(ObsHistogram, RejectsNonIncreasingEdges) {
  EXPECT_THROW(obs::Histogram({10, 10}), std::logic_error);
  EXPECT_THROW(obs::Histogram({20, 10}), std::logic_error);
}

TEST(ObsHistogram, ResetZeroesEverything) {
  obs::Histogram h{{5}};
  h.record(3);
  h.record(9);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{0, 0}));
}

#ifndef VIDQUAL_OBS_NO_SPANS

// --- spans -------------------------------------------------------------------

/// Flips the kill switch on for a scope and restores + drains after.
struct EnabledScope {
  EnabledScope() {
    obs::set_enabled(true);
    obs::TraceRecorder::global().clear();
  }
  ~EnabledScope() {
    obs::set_enabled(false);
    obs::TraceRecorder::global().clear();
  }
};

TEST(ObsSpan, DisabledSpansRecordNothing) {
  obs::set_enabled(false);
  obs::TraceRecorder::global().clear();
  {
    VQ_SPAN("obs_test.disabled");
  }
  EXPECT_EQ(obs::TraceRecorder::global().size(), 0u);
}

TEST(ObsSpan, NestedSpansCarryDepthAndContainment) {
  const EnabledScope scope;
  {
    VQ_SPAN("obs_test.outer");
    {
      VQ_SPAN_EPOCH("obs_test.inner", 3);
    }
  }
  const auto events = obs::TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer starts first.
  EXPECT_EQ(events[0].name, "obs_test.outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[0].epoch, obs::kNoEpoch);
  EXPECT_EQ(events[1].name, "obs_test.inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[1].epoch, 3u);
  // The inner interval lies within the outer one.
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
}

TEST(ObsSpan, ClearEmptiesButKeepsRecording) {
  const EnabledScope scope;
  {
    VQ_SPAN("obs_test.before_clear");
  }
  EXPECT_EQ(obs::TraceRecorder::global().size(), 1u);
  obs::TraceRecorder::global().clear();
  EXPECT_EQ(obs::TraceRecorder::global().size(), 0u);
  {
    VQ_SPAN("obs_test.after_clear");
  }
  // The thread's buffer survived the clear; recording keeps working.
  EXPECT_EQ(obs::TraceRecorder::global().size(), 1u);
}

TEST(ObsSpan, FullRingOverwritesTheOldestSpans) {
  // One thread records capacity + k spans: it keeps the newest capacity of
  // them and counts the k it overwrote.
  const EnabledScope scope;
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  recorder.clear();
  obs::Counter& dropped = obs::Registry::global().counter(
      "obs.spans_dropped", obs::Determinism::kRuntime);
  const std::uint64_t before = dropped.value();
  constexpr std::uint64_t kCapacity = obs::TraceRecorder::kSpanCapacity;
  constexpr std::uint64_t kOver = 5;
  for (std::uint64_t i = 0; i < kCapacity + kOver; ++i) {
    recorder.record("obs_test.ring", obs::kNoEpoch, 0, /*start_ns=*/i, 1);
  }
  EXPECT_EQ(recorder.size(), kCapacity);
  EXPECT_EQ(dropped.value() - before, kOver);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), kCapacity);
  std::size_t misplaced = 0;
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    misplaced += events[i].start_ns == kOver + i ? 0 : 1;
  }
  EXPECT_EQ(misplaced, 0u);
  // The dropped count is runtime-only: --stats-out never shows it.
  EXPECT_EQ(obs::Registry::global().snapshot_json().find("obs.spans_dropped"),
            std::string::npos);
}

// --- chrome-trace export -----------------------------------------------------

/// Minimal JSON well-formedness check: brackets/braces balance outside
/// strings, strings close, and no trailing garbage. Not a full parser —
/// enough to catch unbalanced or truncated output.
bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

/// Extracts every `"key": <number>` value in order of appearance.
std::vector<double> number_values(const std::string& text,
                                  const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\": ";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    out.push_back(std::stod(text.substr(pos + needle.size())));
  }
  return out;
}

TEST(ObsTraceExport, GoldenEmptyTrace) {
  const EnabledScope scope;
  std::ostringstream out;
  obs::TraceRecorder::global().write_chrome_trace(out);
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n");
}

TEST(ObsTraceExport, ValidJsonWithMonotonicTimestamps) {
  const EnabledScope scope;
  // Record through a real (small) pipeline run so the export covers the
  // production span names, then check the JSON shape.
  const SessionTable trace = small_trace();
  PipelineConfig config;
  config.workers = 2;
  config.cluster_params.min_sessions = 40;
  (void)run_pipeline(trace, config);

  std::ostringstream out;
  obs::TraceRecorder::global().write_chrome_trace(out);
  const std::string json = out.str();

  EXPECT_TRUE(json_well_formed(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"pipeline.epoch\""), std::string::npos);

  const std::vector<double> ts = number_values(json, "ts");
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts.front(), 0.0);  // normalised to the earliest span
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]) << "ts not monotonic at event " << i;
  }
  for (const double d : number_values(json, "dur")) {
    EXPECT_GE(d, 0.0);
  }
}

TEST(ObsTraceExport, EscapesAndEpochArgs) {
  const EnabledScope scope;
  {
    VQ_SPAN_EPOCH("obs_test.with_epoch", 42);
  }
  std::ostringstream out;
  obs::TraceRecorder::global().write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"args\": {\"epoch\": 42}"), std::string::npos);
  EXPECT_TRUE(json_well_formed(json));
}

#endif  // VIDQUAL_OBS_NO_SPANS

}  // namespace
}  // namespace vq
