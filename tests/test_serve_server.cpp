// Live ingest server (src/serve/server.h): the file-vs-socket differential
// pin, the ErrorPolicy matrix over a socket, watermark/stale semantics,
// connection caps, and checkpoint-resume under replay.  The one invariant
// repeated everywhere: ServeStats::accounting_exact().

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/attributes.h"
#include "src/core/monitor.h"
#include "src/core/session.h"
#include "src/gen/tracegen.h"
#include "src/serve/framing.h"
#include "src/serve/producer.h"
#include "src/serve/server.h"
#include "tests/socket_fault.h"
#include "tests/test_support.h"

namespace vq::serve {
namespace {

using test::ServeHarness;
using test::render_event;
using test::unique_socket_path;
using test::wait_until;
using std::chrono::milliseconds;

/// Small but structured trace: enough sessions per epoch for real critical
/// clusters, small enough that four differential runs stay fast.
struct DemoTrace {
  World world;
  SessionTable table;

  DemoTrace()
      : world(World::build(WorldConfig{.num_sites = 40,
                                       .num_cdns = 4,
                                       .num_asns = 60,
                                       .seed = 77})),
        table([&] {
          EventScheduleConfig events;
          events.num_epochs = 6;
          events.seed = 78;
          TraceConfig trace;
          trace.num_epochs = 6;
          trace.sessions_per_epoch = 400;
          trace.seed = 79;
          return generate_trace(
              world, EventSchedule::generate(world, events), trace);
        }()) {}
};

MonitorConfig demo_monitor_config() {
  MonitorConfig config;
  config.cluster_params.min_sessions = 20;
  config.order_policy = EpochOrderPolicy::kSkipStale;
  return config;
}

/// The file-path reference: same detector config, epochs fed densely from
/// the table, events rendered exactly as the serve callback renders them.
std::vector<std::string> file_path_events(const DemoTrace& demo,
                                          const MonitorConfig& config,
                                          std::uint32_t from_epoch = 0) {
  StreamingDetector detector{config};
  std::vector<std::string> lines;
  for (std::uint32_t e = from_epoch; e < demo.table.num_epochs(); ++e) {
    for (const IncidentEvent& event :
         detector.ingest(demo.table.epoch(e), e)) {
      lines.push_back(
          render_event(event, demo.world.schema().describe(
                                  event.incident.key)));
    }
  }
  return lines;
}

ServeConfig quick_config() {
  ServeConfig config;
  config.drain_on_idle = true;
  return config;
}

TEST(ServeServer, FileAndSocketReportsAreByteIdenticalAcrossWorkersShards) {
  const DemoTrace demo;
  const std::vector<std::string> reference =
      file_path_events(demo, demo_monitor_config());
  ASSERT_FALSE(reference.empty());  // a vacuous diff pins nothing

  ServeHarness harness{quick_config(), demo_monitor_config()};
  {
    Producer producer{harness.address()};
    producer.send_hello(demo.world.schema());
    producer.send_rows(demo.table.sessions());
  }  // close -> watermark waived -> every epoch seals -> idle drain
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, demo.table.size());
  EXPECT_EQ(stats.rows_admitted, demo.table.size());
  EXPECT_EQ(stats.epochs_sealed, demo.table.num_epochs());
  EXPECT_EQ(harness.events(), reference);
}

TEST(ServeServer, DataBeforeHelloIsAProtocolViolation) {
  ServeHarness harness{quick_config()};
  std::vector<Session> rows;
  test::add_sessions(rows, 0, test::Attrs{}, test::good_quality(), 5);
  {
    Producer producer{harness.address()};
    producer.send_raw(encode_data(rows));  // no hello first
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().protocol_closed >= 1; },
      milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, 5u);
  EXPECT_EQ(stats.rows_quarantined, 5u);
  EXPECT_EQ(stats.rows_admitted, 0u);
  EXPECT_GE(stats.row_reasons[static_cast<int>(
                RowErrorKind::kSchemaViolation)],
            5u);
}

TEST(ServeServer, QuarantinePolicyCountsAndDropsBadRows) {
  ServeHarness harness{quick_config()};
  const AttributeSchema schema = test::one_value_schema();

  std::vector<Session> rows;
  test::add_sessions(rows, 0, test::Attrs{}, test::good_quality(), 8);
  rows[3].quality.bitrate_kbps = std::numeric_limits<float>::quiet_NaN();
  rows[6].epoch = kDefaultMaxEpoch + 10;  // insane epoch
  {
    Producer producer{harness.address()};
    producer.send_hello(schema);
    producer.send_rows(rows);
  }
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, 8u);
  EXPECT_EQ(stats.rows_admitted, 6u);
  EXPECT_EQ(stats.rows_quarantined, 2u);
  EXPECT_EQ(stats.row_reasons[static_cast<int>(RowErrorKind::kNonFinite)],
            1u);
  EXPECT_EQ(stats.row_reasons[static_cast<int>(RowErrorKind::kBadNumber)],
            1u);
}

TEST(ServeServer, BestEffortClampsRepairableFields) {
  ServeConfig config = quick_config();
  config.row_policy = ErrorPolicy::kBestEffort;
  ServeHarness harness{std::move(config)};
  const AttributeSchema schema = test::one_value_schema();

  std::vector<Session> rows;
  test::add_sessions(rows, 0, test::Attrs{}, test::good_quality(), 4);
  rows[1].quality.join_time_ms = std::numeric_limits<float>::infinity();
  {
    Producer producer{harness.address()};
    producer.send_hello(schema);
    producer.send_rows(rows);
  }
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_admitted, 4u);  // repaired, not dropped
  EXPECT_EQ(stats.rows_quarantined, 0u);
  EXPECT_GE(stats.fields_clamped, 1u);
}

TEST(ServeServer, StrictPolicyClosesTheOffendingConnectionOnly) {
  ServeConfig config = quick_config();
  config.row_policy = ErrorPolicy::kStrict;
  config.drain_on_idle = false;
  ServeHarness harness{std::move(config)};
  const AttributeSchema schema = test::one_value_schema();

  std::vector<Session> bad_rows;
  test::add_sessions(bad_rows, 0, test::Attrs{}, test::good_quality(), 3);
  bad_rows[1].quality.buffering_ratio =
      std::numeric_limits<float>::quiet_NaN();
  {
    Producer offender{harness.address()};
    offender.send_hello(schema);
    offender.send_rows(bad_rows);
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().protocol_closed >= 1; },
      milliseconds{5000}));

  // The error stayed on the offender: a well-behaved producer still works.
  // Epoch 5, not 0 — the offender's close advanced the watermark past 0,
  // so an epoch-0 resend would (correctly) count as stale.
  std::vector<Session> good_rows;
  test::add_sessions(good_rows, 5, test::Attrs{}, test::good_quality(), 4);
  {
    Producer good{harness.address()};
    good.send_hello(schema);
    good.send_rows(good_rows);
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().rows_admitted >= 4; },
      milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_GE(stats.rows_quarantined, 1u);
  EXPECT_GE(stats.rows_admitted, 4u);
  ASSERT_GE(stats.connections.size(), 2u);
  EXPECT_FALSE(stats.connections[0].open);
  EXPECT_FALSE(stats.connections[0].close_reason.empty());
}

TEST(ServeServer, LateRowsBehindTheWatermarkAreStale) {
  ServeConfig config = quick_config();
  config.drain_on_idle = false;
  ServeHarness harness{std::move(config)};
  const AttributeSchema schema = test::one_value_schema();

  std::vector<Session> epoch0;
  test::add_sessions(epoch0, 0, test::Attrs{}, test::good_quality(), 6);
  std::vector<Session> epoch2;
  test::add_sessions(epoch2, 2, test::Attrs{}, test::good_quality(), 6);

  Producer producer{harness.address()};
  producer.send_hello(schema);
  producer.send_rows(epoch0);
  // Epoch 2 promises epochs 0 and 1 are complete: watermark 2, both seal.
  producer.send_rows(epoch2);
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().epochs_sealed >= 2; },
      milliseconds{5000}));

  // A late replay of epoch 0 is behind the watermark — stale, not admitted.
  producer.send_rows(epoch0);
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().rows_stale >= 6; }, milliseconds{5000}));
  producer.close();
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, 18u);
  EXPECT_EQ(stats.rows_admitted, 12u);
  EXPECT_EQ(stats.rows_stale, 6u);
  EXPECT_EQ(stats.epochs_sealed, 3u);  // 0, 1 (empty), 2
}

TEST(ServeServer, ConnectionCapRefusesTheOverflow) {
  ServeConfig config = quick_config();
  config.drain_on_idle = false;
  config.max_connections = 1;
  ServeHarness harness{std::move(config)};
  const AttributeSchema schema = test::one_value_schema();

  Producer first{harness.address()};
  first.send_hello(schema);
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().connections_accepted >= 1; },
      milliseconds{5000}));

  Producer second{harness.address()};  // connect() succeeds; server refuses
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().connections_refused >= 1; },
      milliseconds{5000}));
  first.close();
  second.close();
  EXPECT_EQ(harness.drain(), 0);
  EXPECT_TRUE(harness.stats().accounting_exact());
}

TEST(ServeServer, CheckpointResumeReplaysWithoutDuplicateEvents) {
  const DemoTrace demo;
  const std::filesystem::path checkpoint =
      std::filesystem::temp_directory_path() /
      ("vq_serve_ckpt_" + std::to_string(::getpid()) + ".bin");
  std::filesystem::remove(checkpoint);
  const std::vector<std::string> reference =
      file_path_events(demo, demo_monitor_config());

  // Phase 1: feed epochs 0..2, then the "crash" (drain + restart).
  std::vector<std::string> events;
  {
    ServeConfig config = quick_config();
    config.drain_on_idle = false;
    config.checkpoint_path = checkpoint;
    ServeHarness harness{std::move(config), demo_monitor_config()};
    {
      Producer producer{harness.address()};
      producer.send_hello(demo.world.schema());
      for (std::uint32_t e = 0; e < 3; ++e) {
        producer.send_rows(demo.table.epoch(e));
      }
    }  // close -> watermark waived -> epochs 0..2 seal
    ASSERT_TRUE(wait_until(
        [&] { return harness.stats().epochs_sealed >= 3; },
        milliseconds{5000}));
    EXPECT_EQ(harness.drain(), 0);
    EXPECT_GE(harness.stats().checkpoints_written, 1u);
    events = harness.events();
  }

  // Phase 2: a restarted server + a producer replaying from epoch 0.  The
  // checkpoint pins the seal cursor at 3: the replayed prefix is stale,
  // epochs 3..5 continue the event stream exactly.
  {
    ServeConfig config = quick_config();
    config.checkpoint_path = checkpoint;
    ServeHarness harness{std::move(config), demo_monitor_config()};
    {
      Producer producer{harness.address()};
      producer.send_hello(demo.world.schema());
      producer.send_rows(demo.table.sessions());  // full replay
    }
    EXPECT_EQ(harness.drain(), 0);

    const ServeStats stats = harness.stats();
    EXPECT_TRUE(stats.accounting_exact());
    EXPECT_GT(stats.rows_stale, 0u);  // the replayed prefix
    for (const std::string& line : harness.events()) {
      events.push_back(line);
    }
  }
  EXPECT_EQ(events, reference);
  std::filesystem::remove(checkpoint);
}

TEST(ServeServer, TcpEphemeralPortWorksEndToEnd) {
  ServeConfig config = quick_config();
  config.address = "127.0.0.1:0";
  ServeHarness harness{std::move(config)};
  const AttributeSchema schema = test::one_value_schema();

  std::vector<Session> rows;
  test::add_sessions(rows, 0, test::Attrs{}, test::good_quality(), 10);
  {
    Producer producer{"127.0.0.1:" +
                      std::to_string(harness.server().port())};
    producer.send_hello(schema);
    producer.send_rows(rows);
  }
  EXPECT_EQ(harness.drain(), 0);
  EXPECT_EQ(harness.stats().rows_admitted, 10u);
  EXPECT_TRUE(harness.stats().accounting_exact());
}

}  // namespace
}  // namespace vq::serve
