// Socket-level chaos suite (tests/socket_fault.h): mid-frame disconnects,
// in-flight byte flips, stalled writers, interleaved producers, garbage
// floods, and overload shedding — each through a real socket against a live
// server, each ending on the same two assertions: exact accounting and a
// server healthy enough to serve the next producer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/attributes.h"
#include "src/core/session.h"
#include "src/serve/framing.h"
#include "src/serve/producer.h"
#include "src/serve/server.h"
#include "tests/socket_fault.h"
#include "tests/test_support.h"

namespace vq::serve {
namespace {

using test::ServeHarness;
using test::drip;
using test::flip_byte;
using test::truncate_at;
using test::wait_until;
using std::chrono::milliseconds;

AttributeSchema tiny_schema() { return test::one_value_schema(); }

std::vector<Session> rows_at(std::uint32_t epoch, std::size_t n) {
  std::vector<Session> rows;
  test::add_sessions(rows, epoch, test::Attrs{}, test::good_quality(), n);
  return rows;
}

ServeConfig manual_drain_config() {
  ServeConfig config;
  config.drain_on_idle = false;
  return config;
}

/// The post-chaos sanity pass: a clean producer must still be served in
/// full.  Sends at a far-future epoch — once the chaos connection closed,
/// the watermark moved past the epochs it touched, and a replay of those
/// would (correctly) count as stale rather than admitted.
void expect_server_still_serves(ServeHarness& harness, std::size_t n) {
  const std::uint64_t before = harness.stats().rows_admitted;
  Producer producer{harness.address()};
  producer.send_hello(tiny_schema());
  producer.send_rows(rows_at(50, n));
  producer.close();
  EXPECT_TRUE(wait_until(
      [&] { return harness.stats().rows_admitted >= before + n; },
      milliseconds{5000}));
}

TEST(ServeChaos, MidFrameDisconnectLosesNoAccounting) {
  ServeHarness harness{manual_drain_config()};
  {
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    const std::string frame = encode_data(rows_at(0, 4));
    producer.send_raw(truncate_at(frame, frame.size() / 2));
  }  // disconnect mid-frame
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().connections_closed >= 1; },
      milliseconds{5000}));

  expect_server_still_serves(harness, 6);
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  ASSERT_GE(stats.connections.size(), 1u);
  EXPECT_TRUE(stats.connections[0].closed_mid_frame);
  EXPECT_EQ(stats.connections[0].rows_received, 0u);  // frame never completed
  EXPECT_EQ(stats.rows_admitted, 6u);
}

TEST(ServeChaos, InFlightByteFlipQuarantinesExactlyThatFrame) {
  ServeHarness harness{manual_drain_config()};
  {
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    // Frame 1 arrives flipped (checksum must catch it), frame 2 clean.
    producer.send_raw(
        flip_byte(encode_data(rows_at(0, 5)), kFrameHeaderBytes + 3, 0x10));
    producer.send_raw(encode_data(rows_at(0, 3)));
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().rows_admitted >= 3; }, milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, 8u);
  EXPECT_EQ(stats.rows_admitted, 3u);
  EXPECT_EQ(stats.rows_quarantined, 5u);  // exactly the flipped frame
  EXPECT_EQ(
      stats.frame_errors[static_cast<int>(FrameError::kBadChecksum)], 1u);
}

TEST(ServeChaos, StalledMidFrameWriterHitsTheReadDeadline) {
  ServeConfig config = manual_drain_config();
  config.read_timeout = milliseconds{150};
  config.idle_timeout = milliseconds{60'000};  // isolate the read deadline
  ServeHarness harness{std::move(config)};

  Producer producer{harness.address()};
  producer.send_hello(tiny_schema());
  const std::string frame = encode_data(rows_at(0, 4));
  producer.send_raw(frame.substr(0, kFrameHeaderBytes + 5));  // ...stall.
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().read_timeout_closed >= 1; },
      milliseconds{5000}));
  producer.close();

  expect_server_still_serves(harness, 4);
  EXPECT_EQ(harness.drain(), 0);
  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  ASSERT_GE(stats.connections.size(), 1u);
  EXPECT_EQ(stats.connections[0].close_reason, "read deadline (mid-frame)");
}

TEST(ServeChaos, SilentConnectionHitsTheIdleDeadline) {
  ServeConfig config = manual_drain_config();
  config.idle_timeout = milliseconds{150};
  ServeHarness harness{std::move(config)};

  Producer producer{harness.address()};
  producer.send_hello(tiny_schema());  // then say nothing
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().idle_closed >= 1; }, milliseconds{5000}));
  producer.close();
  EXPECT_EQ(harness.drain(), 0);
  EXPECT_TRUE(harness.stats().accounting_exact());
}

TEST(ServeChaos, DrippedBytesAcrossTinyWritesStillDecode) {
  ServeConfig config = manual_drain_config();
  config.read_timeout = milliseconds{10'000};
  ServeHarness harness{std::move(config)};
  {
    Producer producer{harness.address()};
    // Hello + two frames, delivered 9 bytes at a time: every frame boundary
    // lands mid-write, exercising partial-frame reassembly end to end.
    const std::string wire = encode_hello(tiny_schema()) +
                             encode_data(rows_at(0, 3)) +
                             encode_data(rows_at(1, 2));
    drip(producer, wire, 9, milliseconds{1});
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().rows_admitted >= 5; }, milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);
  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, 5u);
  EXPECT_EQ(stats.rows_admitted, 5u);
}

TEST(ServeChaos, InterleavedProducersConserveEveryRow) {
  ServeHarness harness{manual_drain_config()};
  constexpr std::uint32_t kEpochs = 4;
  constexpr std::size_t kRowsEach = 50;

  // A connection holds the watermark down only once the server has
  // processed its hello.  So neither producer sends rows before both
  // hellos are processed: otherwise one producer's epochs could seal while
  // the other's hello is still in flight, and the other's rows would
  // rightly count as stale.
  const auto both_hellos_done = [&] {
    const ServeStats stats = harness.stats();
    return std::ranges::count_if(stats.connections,
                                 [](const ConnectionStats& c) {
                                   return c.hello_done;
                                 }) == 2;
  };
  std::atomic<int> released{0};
  // Two independent producers racing on real sockets is the scenario; the
  // pool's fork-join shape cannot express it.
  std::thread a{[&] {  // vq-lint: allow(naked-thread)
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    if (wait_until(both_hellos_done, milliseconds{5000})) ++released;
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      producer.send_rows(rows_at(e, kRowsEach), 16);
      std::this_thread::sleep_for(milliseconds{5});
    }
  }};
  std::thread b{[&] {  // vq-lint: allow(naked-thread)
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    if (wait_until(both_hellos_done, milliseconds{5000})) ++released;
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      producer.send_rows(rows_at(e, kRowsEach), 7);
      std::this_thread::sleep_for(milliseconds{3});
    }
  }};
  a.join();
  b.join();
  ASSERT_EQ(released.load(), 2);
  ASSERT_TRUE(wait_until(
      [&] {
        return harness.stats().rows_admitted >= 2 * kEpochs * kRowsEach;
      },
      milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_received, 2u * kEpochs * kRowsEach);
  EXPECT_EQ(stats.rows_admitted, 2u * kEpochs * kRowsEach);
  EXPECT_EQ(stats.rows_stale, 0u);  // both streams were non-decreasing
  EXPECT_EQ(stats.epochs_sealed, kEpochs);
  EXPECT_EQ(stats.connections_accepted, 2u);
}

TEST(ServeChaos, GarbageFloodNeverReachesTheDetector) {
  ServeHarness harness{manual_drain_config()};
  {
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    producer.send_raw(std::string(4096, '\xfb'));  // no magic anywhere
    producer.send_raw(encode_data(rows_at(0, 2)));  // resync target
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().rows_admitted >= 2; }, milliseconds{5000}));

  expect_server_still_serves(harness, 3);
  EXPECT_EQ(harness.drain(), 0);
  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  ASSERT_GE(stats.connections.size(), 1u);
  EXPECT_GE(stats.connections[0].bytes_skipped, 4096u);
  EXPECT_GE(
      stats.frame_errors[static_cast<int>(FrameError::kBadMagic)], 1u);
}

TEST(ServeChaos, FloodAgainstTinyQueueShedsWithExactAccounting) {
  ServeConfig config = manual_drain_config();
  config.queue_capacity_rows = 64;
  config.overload = OverloadPolicy::kShedOldest;
  ServeHarness harness{std::move(config)};

  constexpr std::size_t kOversize = 65;  // > capacity: every push sheds
  constexpr int kFrames = 10;
  {
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    for (int i = 0; i < kFrames; ++i) {
      producer.send_rows(rows_at(0, kOversize), kOversize);
    }
    // Smaller frames compete for the 64-row budget: some admitted, any
    // overflow evicted oldest-first — all of it attributed.
    for (int i = 0; i < kFrames; ++i) {
      producer.send_rows(rows_at(1, 32), 32);
    }
  }
  ASSERT_TRUE(wait_until(
      [&] {
        const ServeStats s = harness.stats();
        return s.rows_received >=
               kFrames * kOversize + kFrames * 32;
      },
      milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_GE(stats.rows_shed, static_cast<std::uint64_t>(kFrames) * kOversize);
  EXPECT_GT(stats.rows_admitted, 0u);
  EXPECT_LE(stats.queue_highwater, 64u);
}

TEST(ServeChaos, BlockPolicyDeadlineShedsInsteadOfWedgingTheAcceptor) {
  ServeConfig config = manual_drain_config();
  config.queue_capacity_rows = 64;
  config.overload = OverloadPolicy::kBlockWithDeadline;
  config.push_deadline = milliseconds{20};
  ServeHarness harness{std::move(config)};

  constexpr std::size_t kOversize = 100;  // can never fit
  {
    Producer producer{harness.address()};
    producer.send_hello(tiny_schema());
    producer.send_rows(rows_at(0, kOversize), kOversize);
    producer.send_rows(rows_at(1, 10), 10);  // the acceptor must still move
  }
  ASSERT_TRUE(wait_until(
      [&] { return harness.stats().rows_received >= kOversize + 10; },
      milliseconds{5000}));
  EXPECT_EQ(harness.drain(), 0);

  const ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  EXPECT_EQ(stats.rows_shed, kOversize);
  EXPECT_EQ(stats.rows_admitted, 10u);
}

}  // namespace
}  // namespace vq::serve
