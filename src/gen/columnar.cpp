#include "src/gen/columnar.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/gen/ingest_sink.h"
#include "src/gen/trace_format.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace vq {

namespace {

using detail::kColumnarChunkHeaderBytes;
using detail::kColumnarChunkMagic;
using detail::kColumnarChunkTrailerBytes;
using detail::kColumnarFooterEntryBytes;
using detail::kColumnarFooterFixedBytes;
using detail::kColumnarFooterMagic;
using detail::kFooterEntryChecksumPos;
using detail::kFooterEntryCountPos;
using detail::kFooterEntryOffsetPos;
using detail::kColumnarMagic;
using detail::kColumnarRowBytes;
using detail::kColumnarTailBytes;
using detail::kColumnarTailMagic;
using detail::kColumnarFnvVersion;
using detail::kColumnarVersion;
using detail::fnv1a;
using detail::load_pod;
using detail::write_pod;

/// One footer-index record: where epoch's chunk lives and what it holds.
struct ChunkEntry {
  std::uint32_t epoch = 0;
  std::uint64_t offset = 0;  // relative to container start
  std::uint64_t count = 0;
  std::uint64_t checksum = 0;
};

[[nodiscard]] std::string at_chunk(std::uint32_t epoch, std::uint64_t offset) {
  return " at chunk for epoch " + std::to_string(epoch) + " (offset " +
         std::to_string(offset) + ")";
}

/// Non-throwing read into a POD; false on any stream failure.
template <typename T>
[[nodiscard]] bool try_read(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  return static_cast<bool>(in);
}

[[nodiscard]] bool try_read_bytes(std::istream& in, char* dst,
                                  std::size_t n) {
  in.read(dst, static_cast<std::streamsize>(n));
  return static_cast<bool>(in);
}

/// Running chunk checksum over (epoch, count, columns), in the order the
/// chunk stores them: fnv1a in version-1 containers, word_hash64 chained
/// field by field and column by column from version 2 on (trace_format.h).
class ChunkChecksum {
 public:
  explicit ChunkChecksum(std::uint32_t version) noexcept
      : fnv_{version == kColumnarFnvVersion},
        h_{fnv_ ? detail::kFnvOffsetBasis : 0} {}

  void add(const void* data, std::size_t bytes) noexcept {
    h_ = fnv_ ? fnv1a(data, bytes, h_) : detail::word_hash64(data, bytes, h_);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  bool fnv_;
  std::uint64_t h_;
};

/// Writes one epoch chunk; returns its payload checksum.
std::uint64_t write_chunk(std::ostream& out, std::uint32_t epoch,
                          const SessionColumns& columns) {
  const std::uint64_t count = columns.size();
  ChunkChecksum h{kColumnarVersion};
  out.write(kColumnarChunkMagic, sizeof kColumnarChunkMagic);
  write_pod(out, epoch);
  h.add(&epoch, sizeof epoch);
  write_pod(out, count);
  h.add(&count, sizeof count);
  const auto write_column = [&](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    h.add(data, bytes);
  };
  for (const auto& column : columns.attrs) {
    write_column(column.data(), count * sizeof(std::uint16_t));
  }
  write_column(columns.buffering_ratio.data(), count * sizeof(float));
  write_column(columns.bitrate_kbps.data(), count * sizeof(float));
  write_column(columns.join_time_ms.data(), count * sizeof(float));
  write_column(columns.join_failed.data(), count);
  write_pod(out, h.value());
  return h.value();
}

[[nodiscard]] std::uint64_t chunk_bytes(std::uint64_t count) {
  return kColumnarChunkHeaderBytes + count * kColumnarRowBytes +
         kColumnarChunkTrailerBytes;
}

}  // namespace

void write_trace_columnar(std::ostream& out, const SessionTable& table,
                          const AttributeSchema& schema) {
  VQ_SPAN("gen.write_trace_columnar");
  out.write(kColumnarMagic, sizeof kColumnarMagic);
  write_pod(out, kColumnarVersion);
  std::uint64_t offset =
      8 + detail::write_schema_section(out, schema, "write_trace_columnar");

  std::vector<ChunkEntry> entries;
  SessionColumns columns;
  obs::Counter& chunks_written =
      obs::Registry::global().counter("gen.columnar.chunks_written");
  for (std::uint32_t e = 0; e < table.num_epochs(); ++e) {
    const std::span<const Session> span = table.epoch(e);
    if (span.empty()) continue;
    columns.clear();
    for (const Session& s : span) columns.push_back(s);
    const std::uint64_t checksum = write_chunk(out, e, columns);
    entries.push_back(ChunkEntry{e, offset, span.size(), checksum});
    offset += chunk_bytes(span.size());
    chunks_written.add(1);
  }

  const std::uint64_t footer_offset = offset;
  out.write(kColumnarFooterMagic, sizeof kColumnarFooterMagic);
  write_pod(out, static_cast<std::uint32_t>(entries.size()));
  write_pod(out, table.num_epochs());
  std::uint64_t h = detail::kFnvOffsetBasis;
  for (const ChunkEntry& entry : entries) {
    char bytes[kColumnarFooterEntryBytes];
    std::memcpy(bytes, &entry.epoch, sizeof entry.epoch);
    std::memcpy(bytes + kFooterEntryOffsetPos, &entry.offset,
                sizeof entry.offset);
    std::memcpy(bytes + kFooterEntryCountPos, &entry.count,
                sizeof entry.count);
    std::memcpy(bytes + kFooterEntryChecksumPos, &entry.checksum,
                sizeof entry.checksum);
    out.write(bytes, sizeof bytes);
    h = fnv1a(bytes, sizeof bytes, h);
  }
  write_pod(out, h);
  write_pod(out, footer_offset);
  out.write(kColumnarTailMagic, sizeof kColumnarTailMagic);
  // Write-side failure on a caller-owned stream; no input position exists.
  // vq-lint: allow(positioned-throw)
  if (!out) throw std::runtime_error{"write_trace_columnar: write failed"};
}

void write_trace_columnar(const std::filesystem::path& path,
                          const SessionTable& table,
                          const AttributeSchema& schema) {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    throw std::runtime_error{"write_trace_columnar: cannot open " +
                             path.string()};
  }
  write_trace_columnar(out, table, schema);
  out.close();
  if (!out) {
    throw std::runtime_error{"write_trace_columnar: cannot write " +
                             path.string()};
  }
}

// --- reader ------------------------------------------------------------------

struct ColumnarReader::Impl {
  std::unique_ptr<std::ifstream> owned;
  std::istream* in = nullptr;
  RobustReadOptions options;
  AttributeSchema schema;
  std::streamoff base = 0;      // container start position in the stream
  std::uint64_t file_end = 0;   // container length, relative to base
  std::uint64_t data_start = 0;  // first chunk offset, relative to base
  std::uint32_t version = 0;     // header version: picks the chunk checksum
  std::vector<ChunkEntry> entries;
  std::vector<std::int64_t> by_epoch;  // epoch -> entries index, -1 if none
  std::uint32_t num_epochs = 0;
  std::uint64_t total_sessions = 0;
  bool footer_recovered = false;
  IngestReport report;
  detail::EpochTally tally;

  void init();
  void load_index();
  void scan_chunks();
  void adopt_entries(std::vector<ChunkEntry> found,
                     std::uint32_t footer_num_epochs);
  bool read_epoch(std::uint32_t e, SessionColumns& out);

  [[nodiscard]] std::istream& stream() noexcept { return *in; }
  void seek(std::uint64_t offset) {
    in->clear();
    in->seekg(base + static_cast<std::streamoff>(offset));
  }
};

void ColumnarReader::Impl::init() {
  VQ_SPAN("ingest.open_columnar");
  report.policy = options.policy;
  std::istream& s = stream();
  base = s.tellg();
  if (base < 0) base = 0;

  char magic[4];
  if (!try_read_bytes(s, magic, sizeof magic) ||
      std::memcmp(magic, kColumnarMagic, sizeof magic) != 0) {
    throw std::runtime_error{"read_trace_columnar: bad magic at offset 0"};
  }
  if (!try_read(s, version)) {
    throw std::runtime_error{
        "read_trace_columnar: truncated input at offset 4"};
  }
  if (version != kColumnarVersion && version != kColumnarFnvVersion) {
    throw std::runtime_error{"read_trace_columnar: unsupported version " +
                             std::to_string(version) + " at offset 4"};
  }
  std::uint64_t offset = 8;
  detail::read_schema_section(s, schema, offset, "read_trace_columnar");
  data_start = offset;

  s.clear();
  s.seekg(0, std::ios::end);
  const std::streamoff abs_end = s.tellg();
  if (abs_end < 0 || static_cast<std::uint64_t>(abs_end - base) < data_start) {
    throw std::runtime_error{
        "read_trace_columnar: stream is not seekable at offset " +
        std::to_string(data_start)};
  }
  file_end = static_cast<std::uint64_t>(abs_end - base);

  load_index();

  obs::Registry::global()
      .gauge("ingest.columnar.footer_recovered")
      .set(footer_recovered ? 1 : 0);
}

/// Loads the footer index; on damage throws under kStrict and falls back to
/// a sequential chunk scan otherwise.
void ColumnarReader::Impl::load_index() {
  std::istream& s = stream();
  std::string why;
  std::uint64_t where = file_end;
  std::vector<ChunkEntry> found;
  std::uint32_t footer_num_epochs = 0;

  const auto damaged = [&](std::string reason, std::uint64_t at) {
    why = std::move(reason);
    where = at;
    return false;
  };
  const bool ok = [&]() -> bool {
    if (file_end < data_start + kColumnarTailBytes) {
      return damaged("missing tail", file_end);
    }
    seek(file_end - kColumnarTailBytes);
    std::uint64_t footer_offset = 0;
    char tail[4];
    if (!try_read(s, footer_offset) ||
        !try_read_bytes(s, tail, sizeof tail) ||
        std::memcmp(tail, kColumnarTailMagic, sizeof tail) != 0) {
      return damaged("bad tail magic", file_end - kColumnarTailBytes);
    }
    if (footer_offset < data_start ||
        footer_offset + kColumnarFooterFixedBytes >
            file_end - kColumnarTailBytes) {
      return damaged("footer offset out of range", footer_offset);
    }
    seek(footer_offset);
    char fmagic[4];
    std::uint32_t chunk_count = 0;
    if (!try_read_bytes(s, fmagic, sizeof fmagic) ||
        std::memcmp(fmagic, kColumnarFooterMagic, sizeof fmagic) != 0 ||
        !try_read(s, chunk_count) || !try_read(s, footer_num_epochs)) {
      return damaged("bad footer header", footer_offset);
    }
    const std::uint64_t expected =
        kColumnarFooterFixedBytes +
        static_cast<std::uint64_t>(chunk_count) * kColumnarFooterEntryBytes;
    if (footer_offset + expected != file_end - kColumnarTailBytes) {
      return damaged("footer size mismatch", footer_offset);
    }
    std::vector<char> raw(static_cast<std::size_t>(chunk_count) *
                          kColumnarFooterEntryBytes);
    std::uint64_t stored = 0;
    if (!raw.empty() && !try_read_bytes(s, raw.data(), raw.size())) {
      return damaged("truncated footer", footer_offset);
    }
    if (!try_read(s, stored)) {
      return damaged("truncated footer", footer_offset);
    }
    if (fnv1a(raw.data(), raw.size()) != stored) {
      return damaged("footer checksum mismatch", footer_offset);
    }
    found.reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      const char* p = raw.data() + i * kColumnarFooterEntryBytes;
      ChunkEntry entry;
      entry.epoch = load_pod<std::uint32_t>(p);
      entry.offset = load_pod<std::uint64_t>(p + kFooterEntryOffsetPos);
      entry.count = load_pod<std::uint64_t>(p + kFooterEntryCountPos);
      entry.checksum = load_pod<std::uint64_t>(p + kFooterEntryChecksumPos);
      if (!found.empty() && entry.epoch <= found.back().epoch) {
        return damaged("footer epochs not ascending", footer_offset);
      }
      if (entry.offset < data_start ||
          entry.count > (footer_offset - entry.offset) / kColumnarRowBytes ||
          entry.offset + chunk_bytes(entry.count) > footer_offset) {
        return damaged("footer entry out of range", footer_offset);
      }
      // Chunks lie one after another: an extent that runs past the next
      // entry's offset is a forged count or offset, which would otherwise
      // reach total_sessions() and the whole-trace reservation.
      if (!found.empty() && found.back().offset +
                                    chunk_bytes(found.back().count) >
                                entry.offset) {
        return damaged("footer entries overlap", footer_offset);
      }
      found.push_back(entry);
    }
    return true;
  }();

  if (!ok) {
    if (options.policy == ErrorPolicy::kStrict) {
      throw std::runtime_error{"read_trace_columnar: damaged footer index (" +
                               why + ") at offset " + std::to_string(where)};
    }
    footer_recovered = true;
    scan_chunks();
    return;
  }
  adopt_entries(std::move(found), footer_num_epochs);
}

/// Footer-loss fallback: chunks are self-delimiting (magic + count), so the
/// index can be rebuilt by one forward pass.  Garbage mid-stream ends the
/// scan — everything after the cut is unreachable and reported truncated.
void ColumnarReader::Impl::scan_chunks() {
  std::istream& s = stream();
  std::vector<ChunkEntry> found;
  std::uint64_t pos = data_start;
  std::uint32_t prev_epoch = 0;
  while (pos + 4 <= file_end) {
    seek(pos);
    char magic[4];
    if (!try_read_bytes(s, magic, sizeof magic)) {
      // The loop guard proved these bytes exist, so a failed read is an
      // I/O fault, not EOF: everything past it is unreachable.
      report.input_truncated = true;
      break;
    }
    if (std::memcmp(magic, kColumnarFooterMagic, sizeof magic) == 0) {
      break;  // reached the (damaged) footer region: clean end of chunks
    }
    if (std::memcmp(magic, kColumnarChunkMagic, sizeof magic) != 0) {
      report.input_truncated = true;
      break;
    }
    ChunkEntry entry;
    entry.offset = pos;
    if (!try_read(s, entry.epoch) || !try_read(s, entry.count)) {
      report.input_truncated = true;
      break;
    }
    const std::uint64_t body_start = pos + kColumnarChunkHeaderBytes;
    if (entry.count > (file_end - body_start) / kColumnarRowBytes ||
        (!found.empty() && entry.epoch <= prev_epoch)) {
      report.input_truncated = true;
      break;
    }
    seek(body_start + entry.count * kColumnarRowBytes);
    if (!try_read(s, entry.checksum)) {
      report.input_truncated = true;
      break;
    }
    prev_epoch = entry.epoch;
    found.push_back(entry);
    pos += chunk_bytes(entry.count);
  }
  const std::uint32_t span =
      found.empty() ? 0 : found.back().epoch + 1;
  adopt_entries(std::move(found), span);
}

/// Installs the index: filters poisoned epochs (dense-index bombs), builds
/// the epoch lookup, and sizes the reader's view of the trace.
void ColumnarReader::Impl::adopt_entries(std::vector<ChunkEntry> found,
                                         std::uint32_t footer_num_epochs) {
  detail::RowSink sink{"read_trace_columnar", options, report};
  entries.clear();
  entries.reserve(found.size());
  std::uint32_t max_epoch_seen = 0;
  std::uint64_t chunk_ordinal = 0;
  for (const ChunkEntry& entry : found) {
    ++chunk_ordinal;
    if (entry.epoch > options.max_epoch) {
      // Counted only in the global totals, like rows whose epoch field was
      // unreadable: the epoch id itself is the poison.
      report.rows_read += entry.count;
      sink.reject(chunk_ordinal, entry.offset, RowErrorKind::kBadNumber,
                  "epoch " + std::to_string(entry.epoch) +
                      " out of range (max " +
                      std::to_string(options.max_epoch) + ")" +
                      at_chunk(entry.epoch, entry.offset),
                  entry.count);
      continue;
    }
    entries.push_back(entry);
    max_epoch_seen = std::max(max_epoch_seen, entry.epoch);
    total_sessions += entry.count;
  }
  num_epochs = footer_num_epochs;
  if (!entries.empty() && max_epoch_seen + 1 > num_epochs) {
    num_epochs = max_epoch_seen + 1;
  }
  if (options.max_epoch < UINT32_MAX) {
    num_epochs = std::min(num_epochs, options.max_epoch + 1);
  }
  if (entries.empty() && footer_num_epochs == 0) num_epochs = 0;

  by_epoch.assign(num_epochs, -1);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    by_epoch[entries[i].epoch] = static_cast<std::int64_t>(i);
  }
}

bool ColumnarReader::Impl::read_epoch(std::uint32_t e, SessionColumns& out) {
  out.clear();
  if (e >= num_epochs) {
    // vq-lint: allow(positioned-throw)
    throw std::out_of_range{"read_trace_columnar: epoch " +
                            std::to_string(e) + " out of range (num_epochs " +
                            std::to_string(num_epochs) + ")"};
  }
  const std::int64_t idx = by_epoch[e];
  if (idx < 0) return false;  // epoch had no sessions: empty, not degraded
  const ChunkEntry& entry = entries[static_cast<std::size_t>(idx)];
  VQ_SPAN_EPOCH("ingest.read_epoch", e);
  std::istream& s = stream();
  detail::RowSink sink{"read_trace_columnar", options, report};

  const auto chunk_fail = [&](RowErrorKind kind, std::string detail_msg) {
    report.rows_read += entry.count;
    tally.quarantined(entry.epoch, entry.count);
    if (kind == RowErrorKind::kTruncated || kind == RowErrorKind::kIoError) {
      report.input_truncated = true;
    }
    sink.reject(static_cast<std::uint64_t>(idx) + 1, entry.offset, kind,
                std::move(detail_msg), entry.count);
    out.clear();
    return true;
  };

  seek(entry.offset);
  char magic[4];
  std::uint32_t chunk_epoch = 0;
  std::uint64_t count = 0;
  if (!try_read_bytes(s, magic, sizeof magic) || !try_read(s, chunk_epoch) ||
      !try_read(s, count)) {
    return chunk_fail(s.bad() ? RowErrorKind::kIoError
                              : RowErrorKind::kTruncated,
                      "truncated chunk" + at_chunk(entry.epoch, entry.offset));
  }
  if (std::memcmp(magic, kColumnarChunkMagic, sizeof magic) != 0 ||
      chunk_epoch != entry.epoch || count != entry.count) {
    return chunk_fail(RowErrorKind::kBadChecksum,
                      "chunk header does not match footer index" +
                          at_chunk(entry.epoch, entry.offset));
  }

  ChunkChecksum h{version};
  h.add(&chunk_epoch, sizeof chunk_epoch);
  h.add(&count, sizeof count);
  const std::size_t n = static_cast<std::size_t>(count);
  bool short_read = false;
  const auto read_column = [&](void* data, std::size_t bytes) {
    if (short_read) return;
    if (!try_read_bytes(s, static_cast<char*>(data), bytes)) {
      short_read = true;
      return;
    }
    h.add(data, bytes);
  };
  for (auto& column : out.attrs) {
    column.resize(n);
    read_column(column.data(), n * sizeof(std::uint16_t));
  }
  out.buffering_ratio.resize(n);
  read_column(out.buffering_ratio.data(), n * sizeof(float));
  out.bitrate_kbps.resize(n);
  read_column(out.bitrate_kbps.data(), n * sizeof(float));
  out.join_time_ms.resize(n);
  read_column(out.join_time_ms.data(), n * sizeof(float));
  out.join_failed.resize(n);
  read_column(out.join_failed.data(), n);
  std::uint64_t stored = 0;
  if (short_read || !try_read(s, stored)) {
    return chunk_fail(s.bad() ? RowErrorKind::kIoError
                              : RowErrorKind::kTruncated,
                      "truncated chunk" + at_chunk(entry.epoch, entry.offset));
  }
  if (stored != h.value() || stored != entry.checksum) {
    return chunk_fail(RowErrorKind::kBadChecksum,
                      "chunk checksum mismatch" +
                          at_chunk(entry.epoch, entry.offset));
  }
  obs::Registry::global().counter("ingest.columnar.chunks_read").add(1);

  report.rows_read += count;
  const detail::RowPolicy policy{options.policy, options.max_epoch,
                                 detail::id_bounds(schema)};
  if (rows_within_policy(out, *policy.id_bound)) {
    tally.kept(entry.epoch, count);
    report.rows_kept += count;
    return false;
  }

  // Row by row through the shared row policy; adopt_entries already capped
  // the chunk's epoch.  A clamped field is written back to its column.
  std::vector<std::uint8_t> bad(n, 0);
  std::uint64_t nbad = 0;
  for (std::size_t r = 0; r < n; ++r) {
    detail::DecodedRow row{out.row(r, entry.epoch), out.join_failed[r]};
    if (const auto fault =
            detail::check_row(row, policy, report.fields_clamped)) {
      tally.quarantined(entry.epoch);
      sink.reject(r + 1, entry.offset, fault->kind,
                  fault->reason(row, policy) + " at record " +
                      std::to_string(r + 1) + " in chunk for epoch " +
                      std::to_string(entry.epoch) + " (offset " +
                      std::to_string(entry.offset) + ")");
      bad[r] = 1;
      ++nbad;
      continue;
    }
    out.buffering_ratio[r] = row.session.quality.buffering_ratio;
    out.bitrate_kbps[r] = row.session.quality.bitrate_kbps;
    out.join_time_ms[r] = row.session.quality.join_time_ms;
    out.join_failed[r] = static_cast<std::uint8_t>(row.join_flag);
  }

  const std::uint64_t kept = count - nbad;
  tally.kept(entry.epoch, kept);
  report.rows_kept += kept;
  if (nbad > 0) {
    const auto compact = [&](auto& column) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < n; ++r) {
        if (bad[r] == 0) column[w++] = column[r];
      }
      column.resize(w);
    };
    for (auto& column : out.attrs) compact(column);
    compact(out.buffering_ratio);
    compact(out.bitrate_kbps);
    compact(out.join_time_ms);
    compact(out.join_failed);
  }
  return nbad > 0;
}

ColumnarReader::ColumnarReader(std::istream& in,
                               const RobustReadOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->in = &in;
  impl_->options = options;
  impl_->init();
}

ColumnarReader::ColumnarReader(const std::filesystem::path& path,
                               const RobustReadOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->owned = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*impl_->owned) {
    throw std::runtime_error{"read_trace_columnar: cannot open " +
                             path.string()};
  }
  impl_->in = impl_->owned.get();
  impl_->options = options;
  impl_->init();
}

ColumnarReader::~ColumnarReader() = default;

std::uint32_t ColumnarReader::num_epochs() const { return impl_->num_epochs; }

bool ColumnarReader::read_epoch(std::uint32_t e, SessionColumns& out) {
  return impl_->read_epoch(e, out);
}

const AttributeSchema& ColumnarReader::schema() const noexcept {
  return impl_->schema;
}

AttributeSchema ColumnarReader::take_schema() noexcept {
  return std::move(impl_->schema);
}

std::uint64_t ColumnarReader::total_sessions() const noexcept {
  return impl_->total_sessions;
}

std::uint64_t ColumnarReader::max_rows() const noexcept {
  return (impl_->file_end - impl_->data_start) / kColumnarRowBytes;
}

bool ColumnarReader::footer_recovered() const noexcept {
  return impl_->footer_recovered;
}

IngestReport ColumnarReader::report() const {
  IngestReport out = impl_->report;
  impl_->tally.fold_into(out);
  return out;
}

// --- materializing shims -----------------------------------------------------

namespace {

RobustLoadedTrace materialize(ColumnarReader& reader) {
  RobustLoadedTrace out;
  detail::TableBuilder table;
  // One allocation: the index counts every row an undamaged read yields,
  // and a read keeps no more rows than a chunk's count.  The reserve is
  // capped by the rows the container's bytes can hold all the same.
  table.reserve(static_cast<std::size_t>(
      std::min(reader.total_sessions(), reader.max_rows())));
  SessionColumns columns;
  for (std::uint32_t e = 0; e < reader.num_epochs(); ++e) {
    reader.read_epoch(e, columns);
    table.append(e, columns);
  }
  out.report = reader.report();
  publish_ingest_metrics(out.report);
  out.schema = reader.take_schema();
  out.table = std::move(table).finish();
  return out;
}

}  // namespace

RobustLoadedTrace read_trace_columnar_robust(std::istream& in,
                                             const RobustReadOptions& options) {
  VQ_SPAN("ingest.read_trace_columnar");
  ColumnarReader reader{in, options};
  return materialize(reader);
}

RobustLoadedTrace read_trace_columnar_robust(const std::filesystem::path& path,
                                             const RobustReadOptions& options) {
  VQ_SPAN("ingest.read_trace_columnar");
  ColumnarReader reader{path, options};
  return materialize(reader);
}

LoadedTrace read_trace_columnar(std::istream& in) {
  RobustLoadedTrace loaded =
      read_trace_columnar_robust(in, {.policy = ErrorPolicy::kStrict});
  return LoadedTrace{std::move(loaded.table), std::move(loaded.schema)};
}

LoadedTrace read_trace_columnar(const std::filesystem::path& path) {
  RobustLoadedTrace loaded =
      read_trace_columnar_robust(path, {.policy = ErrorPolicy::kStrict});
  return LoadedTrace{std::move(loaded.table), std::move(loaded.schema)};
}

}  // namespace vq
