#include "src/core/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

TEST(ProblemThresholds, BufferingRatioRule) {
  const ProblemThresholds t;
  EXPECT_FALSE(t.is_problem(Metric::kBufRatio, test::good_quality()));
  EXPECT_TRUE(t.is_problem(Metric::kBufRatio, test::bad_buffering()));
  QualityMetrics boundary = test::good_quality();
  boundary.buffering_ratio = 0.05F;  // exactly at the threshold: not greater
  EXPECT_FALSE(t.is_problem(Metric::kBufRatio, boundary));
}

TEST(ProblemThresholds, BitrateRule) {
  const ProblemThresholds t;
  EXPECT_FALSE(t.is_problem(Metric::kBitrate, test::good_quality()));
  EXPECT_TRUE(t.is_problem(Metric::kBitrate, test::bad_bitrate()));
  QualityMetrics boundary = test::good_quality();
  boundary.bitrate_kbps = 700.0F;  // exactly at the threshold: not below
  EXPECT_FALSE(t.is_problem(Metric::kBitrate, boundary));
}

TEST(ProblemThresholds, JoinTimeRule) {
  const ProblemThresholds t;
  EXPECT_FALSE(t.is_problem(Metric::kJoinTime, test::good_quality()));
  EXPECT_TRUE(t.is_problem(Metric::kJoinTime, test::bad_join_time()));
}

TEST(ProblemThresholds, JoinFailureRule) {
  const ProblemThresholds t;
  EXPECT_FALSE(t.is_problem(Metric::kJoinFailure, test::good_quality()));
  EXPECT_TRUE(t.is_problem(Metric::kJoinFailure, test::failed_join()));
}

TEST(ProblemThresholds, FailedJoinOnlyCountsAsJoinFailure) {
  // A failed session never played: its zero bitrate / zero buffering must
  // not leak into the other metrics.
  const ProblemThresholds t;
  const QualityMetrics q = test::failed_join();
  EXPECT_FALSE(t.is_problem(Metric::kBufRatio, q));
  EXPECT_FALSE(t.is_problem(Metric::kBitrate, q));
  EXPECT_FALSE(t.is_problem(Metric::kJoinTime, q));
  EXPECT_TRUE(t.is_problem(Metric::kJoinFailure, q));
}

TEST(ProblemThresholds, ProblemBitsPackAllMetrics) {
  const ProblemThresholds t;
  EXPECT_EQ(t.problem_bits(test::good_quality()), 0);
  EXPECT_EQ(t.problem_bits(test::bad_buffering()), 1u << 0);
  EXPECT_EQ(t.problem_bits(test::bad_bitrate()), 1u << 1);
  EXPECT_EQ(t.problem_bits(test::bad_join_time()), 1u << 2);
  EXPECT_EQ(t.problem_bits(test::failed_join()), 1u << 3);

  QualityMetrics multi = test::bad_buffering();
  multi.bitrate_kbps = 100.0F;
  EXPECT_EQ(t.problem_bits(multi), (1u << 0) | (1u << 1));
}

TEST(ProblemThresholds, CustomThresholdsApply) {
  ProblemThresholds strict;
  strict.max_buffering_ratio = 0.005;
  strict.min_bitrate_kbps = 5000.0;
  strict.max_join_time_ms = 1000.0;
  const QualityMetrics q = test::good_quality();
  EXPECT_TRUE(strict.is_problem(Metric::kBufRatio, q));
  EXPECT_TRUE(strict.is_problem(Metric::kBitrate, q));
  EXPECT_TRUE(strict.is_problem(Metric::kJoinTime, q));
}

TEST(MetricName, AllDistinctAndStable) {
  EXPECT_EQ(metric_name(Metric::kBufRatio), "BufRatio");
  EXPECT_EQ(metric_name(Metric::kBitrate), "Bitrate");
  EXPECT_EQ(metric_name(Metric::kJoinTime), "JoinTime");
  EXPECT_EQ(metric_name(Metric::kJoinFailure), "JoinFailure");
}

TEST(SessionTable, EmptyTable) {
  const SessionTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.num_epochs(), 0u);
}

/// Builds a table from `rows` and checks it against std::stable_sort by
/// epoch: the same rows in the same order (so each epoch keeps its input
/// order), num_epochs() = highest epoch + 1, and epoch(e) spans that
/// partition the rows in place.
void expect_matches_stable_sort(std::vector<Session> rows) {
  std::vector<Session> reference = rows;
  std::stable_sort(
      reference.begin(), reference.end(),
      [](const Session& a, const Session& b) { return a.epoch < b.epoch; });
  const SessionTable table{std::move(rows)};

  ASSERT_EQ(table.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Session& got = table.sessions()[i];
    EXPECT_EQ(got.epoch, reference[i].epoch) << "row " << i;
    EXPECT_EQ(got.attrs, reference[i].attrs) << "row " << i;
    EXPECT_EQ(got.quality, reference[i].quality) << "row " << i;
  }
  const std::uint32_t epochs =
      reference.empty() ? 0 : reference.back().epoch + 1;
  EXPECT_EQ(table.num_epochs(), epochs);
  std::size_t begin = 0;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    std::size_t end = begin;
    while (end < reference.size() && reference[end].epoch == e) ++end;
    const std::span<const Session> span = table.epoch(e);
    EXPECT_EQ(span.data(), table.sessions().data() + begin) << "epoch " << e;
    EXPECT_EQ(span.size(), end - begin) << "epoch " << e;
    begin = end;
  }
  EXPECT_EQ(begin, reference.size());
  EXPECT_TRUE(table.epoch(epochs).empty());  // out of range -> empty span
}

/// One row per id, with the id in the site field so the order within an
/// epoch is visible.
std::vector<Session> rows_with_epochs(std::span<const std::uint32_t> epochs) {
  std::vector<Session> rows;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    rows.push_back(test::make_session(
        epochs[i], Attrs{.site = static_cast<std::uint16_t>(i)},
        i % 3 == 0 ? test::bad_buffering() : test::good_quality()));
  }
  return rows;
}

TEST(SessionTable, SortsByEpochAndIndexes) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 2, Attrs{.site = 1}, test::good_quality(), 3);
  test::add_sessions(sessions, 0, Attrs{.site = 2}, test::good_quality(), 2);
  test::add_sessions(sessions, 2, Attrs{.site = 3}, test::bad_buffering(), 1);
  expect_matches_stable_sort(sessions);
  const SessionTable table{std::move(sessions)};

  EXPECT_EQ(table.size(), 6u);
  EXPECT_EQ(table.num_epochs(), 3u);
  EXPECT_EQ(table.epoch(0).size(), 2u);
  EXPECT_EQ(table.epoch(1).size(), 0u);  // empty middle epoch
  EXPECT_EQ(table.epoch(2).size(), 4u);
  EXPECT_EQ(table.epoch(99).size(), 0u);  // out of range -> empty span
  for (const Session& s : table.epoch(0)) EXPECT_EQ(s.epoch, 0u);
  for (const Session& s : table.epoch(2)) EXPECT_EQ(s.epoch, 2u);

  expect_matches_stable_sort({});

  // Reverse-ordered: epochs descend, three rows each.
  std::vector<std::uint32_t> reverse;
  for (std::uint32_t e = 10; e-- > 0;) reverse.insert(reverse.end(), 3, e);
  expect_matches_stable_sort(rows_with_epochs(reverse));

  // Shuffled, with many ties per epoch.
  std::mt19937 rng{2013};
  std::vector<std::uint32_t> shuffled(600);
  for (std::uint32_t& e : shuffled) e = rng() % 24;
  expect_matches_stable_sort(rows_with_epochs(shuffled));

  // Gapped: epochs 1-2, 4 and 6-11 are empty, out of order and in order.
  const std::uint32_t gapped[] = {5, 0, 12, 3, 12, 5, 0, 3};
  expect_matches_stable_sort(rows_with_epochs(gapped));
  const std::uint32_t gapped_ordered[] = {0, 0, 3, 3, 5, 12, 12, 12};
  expect_matches_stable_sort(rows_with_epochs(gapped_ordered));

  // Single epoch: every row in epoch 0, or every row in epoch 7.
  const std::uint32_t first[] = {0, 0, 0, 0};
  expect_matches_stable_sort(rows_with_epochs(first));
  const std::uint32_t seventh[] = {7, 7, 7};
  expect_matches_stable_sort(rows_with_epochs(seventh));

  // Ordered up to the last row, which belongs first.
  const std::uint32_t late[] = {1, 1, 2, 4, 4, 0};
  expect_matches_stable_sort(rows_with_epochs(late));
}

TEST(SessionTable, EpochSpansPartitionAllSessions) {
  std::vector<Session> sessions;
  for (std::uint32_t e : {4u, 1u, 3u, 1u, 4u, 0u}) {
    sessions.push_back(
        test::make_session(e, Attrs{.site = static_cast<std::uint16_t>(e)},
                           test::good_quality()));
  }
  const SessionTable table{std::move(sessions)};
  std::size_t total = 0;
  for (std::uint32_t e = 0; e < table.num_epochs(); ++e) {
    total += table.epoch(e).size();
  }
  EXPECT_EQ(total, table.size());
}

TEST(SessionTable, RefusesEpochWithNoRoomForNumEpochs) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 1, Attrs{}, test::good_quality(), 2);
  test::add_sessions(sessions, UINT32_MAX, Attrs{}, test::good_quality(), 1);
  EXPECT_THROW(SessionTable{std::move(sessions)}, std::out_of_range);
}

TEST(SessionTable, AppendRequiresFinalize) {
  SessionTable table;
  table.append(test::make_session(0, Attrs{}, test::good_quality()));
  EXPECT_THROW((void)table.epoch(0), std::logic_error);
  table.finalize();
  EXPECT_EQ(table.epoch(0).size(), 1u);
  EXPECT_EQ(table.num_epochs(), 1u);
}

}  // namespace
}  // namespace vq
