#include "src/core/columns.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "src/core/cluster_engine.h"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

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
  const std::size_t base = out.size();
  const std::size_t need = base + n;
  if (need > out.capacity()) out.reserve(std::max(need, 2 * out.capacity()));
  out.resize(need);
  // One sequential write stream, fed by one read stream per column.  The
  // fields are stored directly: assigning each row from row() measured
  // ~30 % slower on a whole-trace load.
  std::array<const std::uint16_t*, kNumDims> ids{};
  for (std::size_t d = 0; d < ids.size(); ++d) ids[d] = attrs[d].data();
  Session* rows = out.data() + base;
  for (std::size_t i = 0; i < n; ++i) {
    Session& s = rows[i];
    for (std::size_t d = 0; d < ids.size(); ++d) s.attrs.v[d] = ids[d][i];
    s.epoch = epoch;
    s.quality.buffering_ratio = buffering_ratio[i];
    s.quality.bitrate_kbps = bitrate_kbps[i];
    s.quality.join_time_ms = join_time_ms[i];
    s.quality.join_failed = join_failed[i] != 0;
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

namespace {

/// Threshold compares over one block.  The scalar body calls the exact
/// per-session predicate; the SIMD bodies reproduce it with float compares
/// (ordered, quiet — `>`/`<` semantics including the NaN-is-false case), so
/// all paths are bit-identical for any input.
// vq:hot
void threshold_block_scalar(const SessionColumns& c, std::size_t base,
                            std::size_t len, const ProblemThresholds& t,
                            std::uint8_t* out) {
  for (std::size_t i = 0; i < len; ++i) {
    QualityMetrics q;
    q.buffering_ratio = c.buffering_ratio[base + i];
    q.bitrate_kbps = c.bitrate_kbps[base + i];
    q.join_time_ms = c.join_time_ms[base + i];
    q.join_failed = c.join_failed[base + i] != 0;
    out[i] = t.problem_bits(q);
  }
}

#if defined(__AVX2__) || defined(__SSE2__)

/// Assembles the per-lane bitmask from the three compare movemasks.  A
/// failed join voids the quality metrics (session.cpp): its only bit is
/// kJoinFailure.
inline std::uint8_t lane_bits(int m0, int m1, int m2, int lane,
                              std::uint8_t jf) {
  if (jf != 0) return 1u << static_cast<int>(Metric::kJoinFailure);
  return static_cast<std::uint8_t>(((m0 >> lane) & 1) |
                                   (((m1 >> lane) & 1) << 1) |
                                   (((m2 >> lane) & 1) << 2));
}

#endif

// vq:hot
void threshold_block_simd(const SessionColumns& c, std::size_t base,
                          std::size_t len, const ProblemThresholds& t,
                          std::uint8_t* out) {
#if defined(__AVX2__)
  const __m256 thr_br = _mm256_set1_ps(static_cast<float>(
      t.max_buffering_ratio));
  const __m256 thr_bit = _mm256_set1_ps(static_cast<float>(
      t.min_bitrate_kbps));
  const __m256 thr_jt = _mm256_set1_ps(static_cast<float>(t.max_join_time_ms));
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const int m0 = _mm256_movemask_ps(_mm256_cmp_ps(
        _mm256_loadu_ps(c.buffering_ratio.data() + base + i), thr_br,
        _CMP_GT_OQ));
    const int m1 = _mm256_movemask_ps(_mm256_cmp_ps(
        _mm256_loadu_ps(c.bitrate_kbps.data() + base + i), thr_bit,
        _CMP_LT_OQ));
    const int m2 = _mm256_movemask_ps(_mm256_cmp_ps(
        _mm256_loadu_ps(c.join_time_ms.data() + base + i), thr_jt,
        _CMP_GT_OQ));
    for (int lane = 0; lane < 8; ++lane) {
      out[i + static_cast<std::size_t>(lane)] =
          lane_bits(m0, m1, m2, lane, c.join_failed[base + i + lane]);
    }
  }
  threshold_block_scalar(c, base + i, len - i, t, out + i);
#elif defined(__SSE2__)
  const __m128 thr_br = _mm_set1_ps(static_cast<float>(t.max_buffering_ratio));
  const __m128 thr_bit = _mm_set1_ps(static_cast<float>(t.min_bitrate_kbps));
  const __m128 thr_jt = _mm_set1_ps(static_cast<float>(t.max_join_time_ms));
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const int m0 = _mm_movemask_ps(_mm_cmpgt_ps(
        _mm_loadu_ps(c.buffering_ratio.data() + base + i), thr_br));
    const int m1 = _mm_movemask_ps(_mm_cmplt_ps(
        _mm_loadu_ps(c.bitrate_kbps.data() + base + i), thr_bit));
    const int m2 = _mm_movemask_ps(_mm_cmpgt_ps(
        _mm_loadu_ps(c.join_time_ms.data() + base + i), thr_jt));
    for (int lane = 0; lane < 4; ++lane) {
      out[i + static_cast<std::size_t>(lane)] =
          lane_bits(m0, m1, m2, lane, c.join_failed[base + i + lane]);
    }
  }
  threshold_block_scalar(c, base + i, len - i, t, out + i);
#else
  threshold_block_scalar(c, base, len, t, out);
#endif
}

/// One range check per column (the row-wise path branches per session per
/// dimension inside ClusterKey::pack).  Throws the same message pack does.
void validate_attr_columns(const SessionColumns& c) {
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    const std::uint16_t cap = dim_capacity(dim);
    const auto& column = c.attrs[static_cast<std::size_t>(d)];
    std::uint16_t max_value = 0;
    for (const std::uint16_t v : column) max_value = std::max(max_value, v);
    if (max_value > cap) {
      throw std::out_of_range{"ClusterKey: value does not fit field for " +
                              std::string{dim_name(dim)}};
    }
  }
}

/// Elements per block of fold_column.
constexpr std::size_t kCheckBlock = 64;

/// Folds `op` over `column` in blocks of kCheckBlock elements: a block's
/// constant trip count lets GCC vectorize the fold at -O2 as well as -O3,
/// where a plain loop over the column stays scalar at -O2.
// vq:hot
template <typename Acc, typename T, typename Op>
[[nodiscard]] Acc fold_column(const std::vector<T>& column, Acc acc,
                              Op op) noexcept {
  const T* values = column.data();
  const std::size_t n = column.size();
  std::size_t i = 0;
  for (; i + kCheckBlock <= n; i += kCheckBlock) {
    for (std::size_t k = 0; k < kCheckBlock; ++k) {
      acc = op(acc, values[i + k]);
    }
  }
  for (; i < n; ++i) acc = op(acc, values[i]);
  return acc;
}

/// Float bits with every exponent bit set: the infinities and NaNs, exactly
/// the values std::isfinite rejects.
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

/// Branch-free full-arity packing: one widen-shift-OR sweep per dimension
/// over the block.  Equivalent to ClusterKey::pack(kFullMask, attrs).raw()
/// element-wise (columns pre-validated by validate_attr_columns).
// vq:hot
void pack_block_scalar(const SessionColumns& c, std::size_t base,
                       std::size_t len, std::uint64_t* out) {
  std::fill(out, out + len, static_cast<std::uint64_t>(kFullMask));
  for (int d = 0; d < kNumDims; ++d) {
    const int offset = dim_field(static_cast<AttrDim>(d)).offset;
    const std::uint16_t* column =
        c.attrs[static_cast<std::size_t>(d)].data() + base;
    for (std::size_t i = 0; i < len; ++i) {
      out[i] |= static_cast<std::uint64_t>(column[i]) << offset;
    }
  }
}

// vq:hot
void pack_block_simd(const SessionColumns& c, std::size_t base,
                     std::size_t len, std::uint64_t* out) {
#if defined(__AVX2__)
  std::fill(out, out + len, static_cast<std::uint64_t>(kFullMask));
  for (int d = 0; d < kNumDims; ++d) {
    const int offset = dim_field(static_cast<AttrDim>(d)).offset;
    const std::uint16_t* column =
        c.attrs[static_cast<std::size_t>(d)].data() + base;
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      // 4 x u16 -> 4 x u64 lanes, shifted into this dimension's field.
      const __m256i lanes = _mm256_cvtepu16_epi64(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(column + i)));
      __m256i acc =
          _mm256_loadu_si256(reinterpret_cast<__m256i*>(out + i));
      acc = _mm256_or_si256(acc,
                            _mm256_slli_epi64(lanes, offset));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), acc);
    }
    for (; i < len; ++i) {
      out[i] |= static_cast<std::uint64_t>(column[i]) << offset;
    }
  }
#else
  // SSE2 u16 -> u64 widening needs a long unpack chain that measures no
  // faster than the shift/OR sweep, which auto-vectorizes well; use it.
  pack_block_scalar(c, base, len, out);
#endif
}

/// Block size of the fold's kernel sweeps: a block's codes and problem bits
/// (~18 KB) stay L1/L2-resident for any epoch size.
constexpr std::size_t kFoldBlock = 2048;

}  // namespace

// vq:hot
bool rows_within_policy(
    const SessionColumns& columns,
    const std::array<std::size_t, kNumDims>& cardinality) noexcept {
  const auto max_of = [](std::uint16_t max, std::uint16_t id) {
    return std::max(max, id);
  };
  for (std::size_t d = 0; d < columns.attrs.size(); ++d) {
    const std::uint16_t max_id =
        fold_column(columns.attrs[d], std::uint16_t{0}, max_of);
    if (!columns.attrs[d].empty() && max_id >= cardinality[d]) return false;
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

void problem_bits_columns(const SessionColumns& columns,
                          const ProblemThresholds& thresholds,
                          std::span<std::uint8_t> out, BatchKernel kernel) {
  if (out.size() != columns.size()) {
    throw std::invalid_argument{
        "problem_bits_columns: output size mismatch"};
  }
  if (kernel == BatchKernel::kScalar) {
    threshold_block_scalar(columns, 0, columns.size(), thresholds,
                           out.data());
  } else {
    threshold_block_simd(columns, 0, columns.size(), thresholds, out.data());
  }
}

void pack_leaf_keys_columns(const SessionColumns& columns,
                            std::span<std::uint64_t> out,
                            BatchKernel kernel) {
  if (out.size() != columns.size()) {
    throw std::invalid_argument{
        "pack_leaf_keys_columns: output size mismatch"};
  }
  validate_attr_columns(columns);
  if (kernel == BatchKernel::kScalar) {
    pack_block_scalar(columns, 0, columns.size(), out.data());
  } else {
    pack_block_simd(columns, 0, columns.size(), out.data());
  }
}

LeafFold fold_sessions_columns(const SessionColumns& columns,
                               const ProblemThresholds& thresholds,
                               std::uint32_t epoch, BatchKernel kernel) {
  LeafFold fold;
  fold_sessions_columns_into(columns, thresholds, epoch, fold, kernel);
  fold.release_scratch();
  return fold;
}

void fold_sessions_columns_into(const SessionColumns& columns,
                                const ProblemThresholds& thresholds,
                                std::uint32_t epoch, LeafFold& fold,
                                BatchKernel kernel) {
  fold.reset(epoch);
  validate_attr_columns(columns);

  const bool scalar = kernel == BatchKernel::kScalar;
  const std::size_t n = columns.size();
  fold.codes.resize(n);
  std::array<std::uint8_t, kFoldBlock> bits;
  for (std::size_t base = 0; base < n; base += kFoldBlock) {
    const std::size_t len = std::min(kFoldBlock, n - base);
    std::uint64_t* codes = fold.codes.data() + base;
    if (scalar) {
      threshold_block_scalar(columns, base, len, thresholds, bits.data());
      pack_block_scalar(columns, base, len, codes);
    } else {
      threshold_block_simd(columns, base, len, thresholds, bits.data());
      pack_block_simd(columns, base, len, codes);
    }
    for (std::size_t i = 0; i < len; ++i) {
      codes[i] = fold_code(codes[i], bits[i]);
    }
  }
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
