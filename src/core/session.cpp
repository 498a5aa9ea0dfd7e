#include "src/core/session.h"

#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace vq {

std::string_view metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kBufRatio:
      return "BufRatio";
    case Metric::kBitrate:
      return "Bitrate";
    case Metric::kJoinTime:
      return "JoinTime";
    case Metric::kJoinFailure:
      return "JoinFailure";
  }
  return "?";
}

bool ProblemThresholds::is_problem(Metric m, const QualityMetrics& q) const
    noexcept {
  // A failed join never played content: buffering ratio and bitrate are
  // undefined for it, so it only counts against the JoinFailure metric
  // (the paper studies the metrics independently).
  // Thresholds are compared in float: measurements are float, and mixed
  // float/double comparison would misclassify exact-boundary values.
  switch (m) {
    case Metric::kBufRatio:
      return !q.join_failed &&
             q.buffering_ratio > static_cast<float>(max_buffering_ratio);
    case Metric::kBitrate:
      return !q.join_failed &&
             q.bitrate_kbps < static_cast<float>(min_bitrate_kbps);
    case Metric::kJoinTime:
      return !q.join_failed &&
             q.join_time_ms > static_cast<float>(max_join_time_ms);
    case Metric::kJoinFailure:
      return q.join_failed;
  }
  return false;
}

std::uint8_t ProblemThresholds::problem_bits(const QualityMetrics& q) const
    noexcept {
  std::uint8_t bits = 0;
  for (const Metric m : kAllMetrics) {
    if (is_problem(m, q)) {
      bits |= static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(m));
    }
  }
  return bits;
}

SessionTable::SessionTable(std::vector<Session> sessions)
    : sessions_(std::move(sessions)) {
  finalize();
}

std::span<const Session> SessionTable::epoch(std::uint32_t e) const {
  if (!finalized_) {
    throw std::logic_error{"SessionTable::epoch: finalize() not called"};
  }
  if (e >= num_epochs_) return {};
  return std::span<const Session>{sessions_}.subspan(
      epoch_offsets_[e], epoch_offsets_[e + 1] - epoch_offsets_[e]);
}

void SessionTable::append(const Session& s) {
  sessions_.push_back(s);
  finalized_ = false;
}

void SessionTable::finalize() {
  // One counting pass: epoch_offsets_[e + 1] counts epoch e's rows, and the
  // pass notes whether the rows already arrive in epoch order, as every
  // trace reader and generate_trace deliver them.  The index holds one slot
  // per epoch up to the highest, so epoch UINT32_MAX, which leaves no
  // num_epochs(), is refused (the readers cap epochs far below it).
  epoch_offsets_.assign(1, 0);
  bool ordered = true;
  std::uint32_t last = 0;
  for (const Session& s : sessions_) {
    if (s.epoch + std::size_t{1} >= epoch_offsets_.size()) {
      if (s.epoch == std::numeric_limits<std::uint32_t>::max()) {
        throw std::out_of_range{"SessionTable: epoch id out of range"};
      }
      epoch_offsets_.resize(s.epoch + std::size_t{2}, 0);
    }
    ++epoch_offsets_[s.epoch + std::size_t{1}];
    ordered = ordered && s.epoch >= last;
    last = s.epoch;
  }
  num_epochs_ = static_cast<std::uint32_t>(epoch_offsets_.size() - 1);
  std::partial_sum(epoch_offsets_.begin(), epoch_offsets_.end(),
                   epoch_offsets_.begin());
  if (!ordered) {
    // Stable scatter by epoch: each epoch's rows keep their relative order,
    // which is the order std::stable_sort by epoch gives, in
    // O(rows + epochs).
    std::vector<std::size_t> next(epoch_offsets_.begin(),
                                  epoch_offsets_.end() - 1);
    std::vector<Session> by_epoch(sessions_.size());
    for (const Session& s : sessions_) by_epoch[next[s.epoch]++] = s;
    sessions_ = std::move(by_epoch);
  }
  finalized_ = true;
}

}  // namespace vq
