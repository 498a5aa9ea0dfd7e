#include "src/core/columns.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "src/core/cluster_engine.h"

namespace vq {

void SessionColumns::clear() noexcept {
  for (auto& column : attrs) column.clear();
  buffering_ratio.clear();
  bitrate_kbps.clear();
  join_time_ms.clear();
  join_failed.clear();
}

void SessionColumns::reserve(std::size_t n) {
  for (auto& column : attrs) column.reserve(n);
  buffering_ratio.reserve(n);
  bitrate_kbps.reserve(n);
  join_time_ms.reserve(n);
  join_failed.reserve(n);
}

void SessionColumns::push_back(const Session& s) {
  for (int d = 0; d < kNumDims; ++d) {
    attrs[static_cast<std::size_t>(d)].push_back(s.attrs.v[d]);
  }
  buffering_ratio.push_back(s.quality.buffering_ratio);
  bitrate_kbps.push_back(s.quality.bitrate_kbps);
  join_time_ms.push_back(s.quality.join_time_ms);
  join_failed.push_back(s.quality.join_failed ? 1 : 0);
}

Session SessionColumns::row(std::size_t i, std::uint32_t epoch) const {
  Session s;
  for (int d = 0; d < kNumDims; ++d) {
    s.attrs.v[d] = attrs[static_cast<std::size_t>(d)][i];
  }
  s.epoch = epoch;
  s.quality.buffering_ratio = buffering_ratio[i];
  s.quality.bitrate_kbps = bitrate_kbps[i];
  s.quality.join_time_ms = join_time_ms[i];
  s.quality.join_failed = join_failed[i] != 0;
  return s;
}

void SessionColumns::append_rows(std::uint32_t epoch,
                                 std::vector<Session>& out) const {
  // Grow geometrically: reserving exactly the new size on every call would
  // copy `out` once per appended batch, quadratic over a whole trace.
  const std::size_t n = size();
  const std::size_t need = out.size() + n;
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  // One sequential write stream, fed by one read stream per column, and
  // each row written once, into reserved room: resizing first would write
  // (and first-touch) the whole batch before the loop overwrote it.  The
  // fields are stored directly: assigning each row from row() measured
  // ~30 % slower on a whole-trace load.
  std::array<const std::uint16_t*, kNumDims> ids{};
  for (std::size_t d = 0; d < ids.size(); ++d) ids[d] = attrs[d].data();
  const float* const buffering = buffering_ratio.data();
  const float* const bitrate = bitrate_kbps.data();
  const float* const join_time = join_time_ms.data();
  const std::uint8_t* const failed = join_failed.data();
  for (std::size_t i = 0; i < n; ++i) {
    Session& s = out.emplace_back();
    for (std::size_t d = 0; d < ids.size(); ++d) s.attrs.v[d] = ids[d][i];
    s.epoch = epoch;
    s.quality.buffering_ratio = buffering[i];
    s.quality.bitrate_kbps = bitrate[i];
    s.quality.join_time_ms = join_time[i];
    s.quality.join_failed = failed[i] != 0;
  }
}

SessionColumns SessionColumns::from_sessions(std::span<const Session> sessions,
                                             std::uint32_t epoch) {
  SessionColumns columns;
  columns.reserve(sessions.size());
  for (const Session& s : sessions) {
    if (s.epoch != epoch) {
      throw std::invalid_argument{
          "SessionColumns::from_sessions: session epoch mismatch"};
    }
    columns.push_back(s);
  }
  return columns;
}

TableColumnsSource::TableColumnsSource(const SessionTable& table,
                                       std::vector<std::uint32_t> degraded)
    : table_{table}, degraded_{std::move(degraded)} {
  if (!std::is_sorted(degraded_.begin(), degraded_.end())) {
    throw std::invalid_argument{
        "TableColumnsSource: degraded epochs must be sorted ascending"};
  }
}

bool TableColumnsSource::read_epoch(std::uint32_t e, SessionColumns& out) {
  const std::span<const Session> sessions = table_.epoch(e);
  out.clear();
  out.reserve(sessions.size());
  for (const Session& s : sessions) out.push_back(s);
  return std::binary_search(degraded_.begin(), degraded_.end(), e);
}

namespace {

/// Elements per block of the column loops.
constexpr std::size_t kBlock = 64;

/// Calls `block(base, len)` for the blocks of [0, n).  Every full block
/// passes `len` as the constant kBlock, so a loop over it has a constant
/// trip count and GCC vectorizes it at -O2 as well as -O3, where a plain
/// loop over a whole column stays scalar at -O2; the tail passes its
/// length at run time.
template <typename Block>
void for_each_block(std::size_t n, Block block) {
  std::size_t base = 0;
  for (; base + kBlock <= n; base += kBlock) {
    block(base, std::integral_constant<std::size_t, kBlock>{});
  }
  if (base < n) block(base, n - base);
}

/// Folds `op` over `column`, block by block.
// vq:hot
template <typename Acc, typename T, typename Op>
[[nodiscard]] Acc fold_column(const std::vector<T>& column, Acc acc,
                              Op op) noexcept {
  const T* values = column.data();
  for_each_block(column.size(), [&](std::size_t base, auto len) {
    // A local accumulator keeps the fold in registers even where the
    // block is not inlined.
    Acc block_acc = acc;
    for (std::size_t k = 0; k < len; ++k) {
      block_acc = op(block_acc, values[base + k]);
    }
    acc = block_acc;
  });
  return acc;
}

// vq:hot
[[nodiscard]] std::uint16_t column_max(
    const std::vector<std::uint16_t>& ids) noexcept {
  const auto max_of = [](std::uint16_t max, std::uint16_t id) {
    return std::max(max, id);
  };
  return fold_column(ids, std::uint16_t{0}, max_of);
}

/// Float bits with every exponent bit set: the infinities and NaNs, exactly
/// the values the row policy's finiteness check rejects.
constexpr std::uint32_t kFloatExponentBits = 0x7F800000U;

// vq:hot
[[nodiscard]] bool any_non_finite(const std::vector<float>& column) noexcept {
  const auto exponent_test = [](std::uint32_t hit, float value) {
    const auto bits = std::bit_cast<std::uint32_t>(value);
    return hit | static_cast<std::uint32_t>((bits & kFloatExponentBits) ==
                                            kFloatExponentBits);
  };
  return fold_column(column, std::uint32_t{0}, exponent_test) != 0;
}

/// One range check per column (the row-wise path branches per session per
/// dimension inside ClusterKey::pack).  Throws the same message pack does.
void validate_attr_columns(const SessionColumns& c) {
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    if (column_max(c.attrs[static_cast<std::size_t>(d)]) > dim_capacity(dim)) {
      throw std::out_of_range{"ClusterKey: value does not fit field for " +
                              std::string{dim_name(dim)}};
    }
  }
}

/// Positions of the metrics' bits in a session's problem bits.
constexpr int kBufRatioBit = static_cast<int>(Metric::kBufRatio);
constexpr int kBitrateBit = static_cast<int>(Metric::kBitrate);
constexpr int kJoinTimeBit = static_cast<int>(Metric::kJoinTime);
constexpr int kJoinFailureBit = static_cast<int>(Metric::kJoinFailure);

/// Element k's leaf key value fields: every dimension's id shifted into its
/// field.  A fold over the dimensions rather than a loop, so the loop over
/// the block that calls it stays innermost and vectorizes at -O2.
template <std::size_t... D>
[[nodiscard]] inline std::uint64_t value_fields(
    const std::array<const std::uint16_t*, kNumDims>& ids,
    const std::array<int, kNumDims>& offsets, std::size_t k,
    std::index_sequence<D...> /*dims*/) noexcept {
  return ((std::uint64_t{ids[D][k]} << offsets[D]) | ...);
}

/// Writes the fold code of every element of `c` to `codes` (columns
/// pre-validated by validate_attr_columns).  Per block, one loop sets the
/// problem bits and one packs the leaf key's value fields above them.  The
/// bits wait in a local array: the join flags are bytes, which may alias
/// any store to `codes`, and that doubt alone would keep GCC from
/// vectorizing at -O2.
// vq:hot
void write_fold_codes(const SessionColumns& c, const ProblemThresholds& t,
                      std::uint64_t* codes) noexcept {
  // Compared in float with ordered compares, as
  // ProblemThresholds::is_problem does: a NaN is never a problem.
  const float max_buffering = static_cast<float>(t.max_buffering_ratio);
  const float min_bitrate = static_cast<float>(t.min_bitrate_kbps);
  const float max_join_time = static_cast<float>(t.max_join_time_ms);
  std::array<int, kNumDims> offsets{};
  for (std::size_t d = 0; d < offsets.size(); ++d) {
    offsets[d] = dim_field(static_cast<AttrDim>(d)).offset;
  }
  for_each_block(c.size(), [&](std::size_t base, auto len) {
    const float* buffering = c.buffering_ratio.data() + base;
    const float* bitrate = c.bitrate_kbps.data() + base;
    const float* join_time = c.join_time_ms.data() + base;
    const std::uint8_t* failed = c.join_failed.data() + base;
    std::array<std::uint64_t, kBlock> bits{};
    for (std::size_t k = 0; k < len; ++k) {
      const std::uint64_t quality =
          std::uint64_t{buffering[k] > max_buffering} << kBufRatioBit |
          std::uint64_t{bitrate[k] < min_bitrate} << kBitrateBit |
          std::uint64_t{join_time[k] > max_join_time} << kJoinTimeBit;
      // A failed join voids the quality metrics: its only bit is
      // kJoinFailure.
      const std::uint64_t join_failed = failed[k] != 0;
      bits[k] = (quality & (join_failed - 1)) | join_failed << kJoinFailureBit;
    }
    std::array<const std::uint16_t*, kNumDims> ids{};
    for (std::size_t d = 0; d < ids.size(); ++d) {
      ids[d] = c.attrs[d].data() + base;
    }
    std::uint64_t* out = codes + base;
    for (std::size_t k = 0; k < len; ++k) {
      out[k] = bits[k] | value_fields(ids, offsets, k,
                                      std::make_index_sequence<kNumDims>{});
    }
  });
}

}  // namespace

// vq:hot
bool rows_within_policy(
    const SessionColumns& columns,
    const std::array<std::size_t, kNumDims>& cardinality) noexcept {
  for (std::size_t d = 0; d < columns.attrs.size(); ++d) {
    if (!columns.attrs[d].empty() &&
        column_max(columns.attrs[d]) >= cardinality[d]) {
      return false;
    }
  }
  if (any_non_finite(columns.buffering_ratio) ||
      any_non_finite(columns.bitrate_kbps) ||
      any_non_finite(columns.join_time_ms)) {
    return false;
  }
  const auto or_of = [](std::uint8_t flags, std::uint8_t flag) {
    return static_cast<std::uint8_t>(flags | flag);
  };
  return fold_column(columns.join_failed, std::uint8_t{0}, or_of) <= 1;
}

void fold_codes_columns(const SessionColumns& columns,
                        const ProblemThresholds& thresholds,
                        std::span<std::uint64_t> codes) {
  if (codes.size() != columns.size()) {
    throw std::invalid_argument{"fold_codes_columns: output size mismatch"};
  }
  validate_attr_columns(columns);
  write_fold_codes(columns, thresholds, codes.data());
}

LeafFold fold_sessions_columns(const SessionColumns& columns,
                               const ProblemThresholds& thresholds,
                               std::uint32_t epoch) {
  LeafFold fold;
  fold_sessions_columns_into(columns, thresholds, epoch, fold);
  fold.release_scratch();
  return fold;
}

void fold_sessions_columns_into(const SessionColumns& columns,
                                const ProblemThresholds& thresholds,
                                std::uint32_t epoch, LeafFold& fold) {
  fold.reset(epoch);
  fold.codes.resize(columns.size());
  fold_codes_columns(columns, thresholds, fold.codes);
  fold_codes(fold);
}

std::string_view batch_kernel_name() noexcept {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

}  // namespace vq
