#include "src/gen/robust_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/gen/ingest_sink.h"
#include "src/gen/trace_format.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace vq {

void publish_ingest_metrics(const IngestReport& report) {
  obs::Registry& reg = obs::Registry::global();
  // Eagerly register every per-reason counter (not just the nonzero ones) so
  // the snapshot's key set does not depend on which corruptions an input
  // happened to contain.
  reg.counter("ingest.rows_read").add(report.rows_read);
  reg.counter("ingest.rows_kept").add(report.rows_kept);
  reg.counter("ingest.rows_quarantined").add(report.rows_quarantined);
  reg.counter("ingest.fields_clamped").add(report.fields_clamped);
  for (int k = 0; k < kNumRowErrorKinds; ++k) {
    const std::string name =
        "ingest.quarantined." +
        std::string{row_error_name(static_cast<RowErrorKind>(k))};
    reg.counter(name).add(report.reason_counts[static_cast<std::size_t>(k)]);
  }
  reg.counter("quarantine.dropped_payloads")
      .add(report.quarantine_payloads_dropped);
  reg.gauge("ingest.degraded_epochs")
      .set(static_cast<std::int64_t>(report.degraded_epochs().size()));
  reg.gauge("ingest.input_truncated").set(report.input_truncated ? 1 : 0);
}

std::string_view error_policy_name(ErrorPolicy p) noexcept {
  switch (p) {
    case ErrorPolicy::kStrict:
      return "strict";
    case ErrorPolicy::kQuarantine:
      return "quarantine";
    case ErrorPolicy::kBestEffort:
      return "best-effort";
  }
  return "?";
}

std::optional<ErrorPolicy> parse_error_policy(std::string_view name) noexcept {
  if (name == "strict") return ErrorPolicy::kStrict;
  if (name == "quarantine") return ErrorPolicy::kQuarantine;
  if (name == "best-effort") return ErrorPolicy::kBestEffort;
  return std::nullopt;
}

std::string_view row_error_name(RowErrorKind k) noexcept {
  switch (k) {
    case RowErrorKind::kFieldCount:
      return "field-count";
    case RowErrorKind::kBadNumber:
      return "bad-number";
    case RowErrorKind::kNonFinite:
      return "non-finite";
    case RowErrorKind::kBadFlag:
      return "bad-flag";
    case RowErrorKind::kAttrOverflow:
      return "attr-overflow";
    case RowErrorKind::kSchemaViolation:
      return "schema-violation";
    case RowErrorKind::kTruncated:
      return "truncated";
    case RowErrorKind::kIoError:
      return "io-error";
    case RowErrorKind::kBadChecksum:
      return "bad-checksum";
  }
  return "?";
}

std::vector<std::uint32_t> IngestReport::degraded_epochs(
    double min_fraction) const {
  std::vector<std::uint32_t> out;
  for (const EpochIngestStats& e : epochs) {
    const auto total = static_cast<double>(e.kept + e.quarantined);
    if (e.quarantined > 0 &&
        static_cast<double>(e.quarantined) >= min_fraction * total) {
      out.push_back(e.epoch);
    }
  }
  // A truncation cut the tail off the stream: whatever epoch was last being
  // filled lost an unknown number of rows.
  if (input_truncated && !epochs.empty()) {
    const std::uint32_t last = epochs.back().epoch;
    if (out.empty() || out.back() != last) out.push_back(last);
  }
  return out;
}

std::string IngestReport::summary() const {
  std::string s = std::to_string(rows_read) + " rows: " +
                  std::to_string(rows_kept) + " kept, " +
                  std::to_string(rows_quarantined) + " quarantined";
  if (rows_quarantined > 0) {
    s += " (";
    bool first = true;
    for (int k = 0; k < kNumRowErrorKinds; ++k) {
      if (reason_counts[k] == 0) continue;
      if (!first) s += ", ";
      first = false;
      s += std::string{row_error_name(static_cast<RowErrorKind>(k))} + "=" +
           std::to_string(reason_counts[k]);
    }
    s += ")";
  }
  if (fields_clamped > 0) {
    s += ", " + std::to_string(fields_clamped) + " fields clamped";
  }
  if (input_truncated) s += ", input truncated";
  return s;
}

namespace {

using detail::kBinaryRecordSize;
using detail::kCsvColumnDims;
using detail::kCsvHeader;

using detail::EpochTally;
using detail::RowSink;
using detail::at_line;

void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

std::vector<std::string_view> split_csv(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      fields.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

template <typename T>
bool try_parse(std::string_view field, T& value) {
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  return ec == std::errc{} && ptr == field.data() + field.size();
}

}  // namespace

RobustLoadedTrace read_trace_csv_robust(std::istream& in,
                                        const RobustReadOptions& options) {
  VQ_SPAN("ingest.read_trace_csv");
  RobustLoadedTrace out;
  IngestReport& report = out.report;
  report.policy = options.policy;
  RowSink sink{"read_trace_csv", options, report};
  EpochTally tally;

  std::string line;
  if (!std::getline(in, line)) {
    // A missing header is structural under every policy: there is nothing
    // to quarantine row-by-row.
    throw std::runtime_error{in.bad()
                                 ? "read_trace_csv: stream failure at line 1"
                                 : "read_trace_csv: empty input at line 1"};
  }
  strip_cr(line);
  if (line != kCsvHeader) {
    throw std::runtime_error{"read_trace_csv: unexpected header at line 1"};
  }

  detail::TableBuilder table;  // no row bound: grows geometrically
  std::uint64_t line_no = 1;  // physical, 1-based; header is line 1
  const bool best_effort = options.policy == ErrorPolicy::kBestEffort;
  const detail::RowPolicy policy{options.policy, options.max_epoch,
                                 std::nullopt};
  while (std::getline(in, line)) {
    ++line_no;
    strip_cr(line);
    if (line.empty()) continue;
    report.rows_read += 1;

    const auto fields = split_csv(line);
    if (fields.size() != 12) {
      sink.reject(line_no, 0, RowErrorKind::kFieldCount,
                  "expected 12 fields, got " + std::to_string(fields.size()) +
                      at_line(line_no));
      continue;
    }

    detail::DecodedRow row;
    Session& s = row.session;
    if (!try_parse(fields[0], s.epoch)) {
      // Without an epoch the row cannot be placed; unsalvageable even under
      // best-effort.
      sink.reject(line_no, 0, RowErrorKind::kBadNumber,
                  "bad numeric field (epoch)" + at_line(line_no));
      continue;
    }

    // The metrics and the flag are parsed, and the row checked, before any
    // attribute is interned, so a rejected row cannot grow the schema.  A
    // field that does not parse reads 0: under best-effort that is one
    // clamp, counted once the row passes the check; otherwise the parse
    // stops and the row is rejected as a bad number unless the check finds
    // an earlier fault (the epoch cap, or a non-finite metric before it).
    std::string_view unparsed;
    std::uint64_t parse_clamps = 0;
    const auto parse_field = [&](std::size_t idx, std::string_view label,
                                 auto& dst) {
      if (!unparsed.empty() || try_parse(fields[idx], dst)) return;
      dst = {};
      if (best_effort) {
        parse_clamps += 1;
      } else {
        unparsed = label;
      }
    };
    parse_field(8, "buffering_ratio", s.quality.buffering_ratio);
    parse_field(9, "bitrate_kbps", s.quality.bitrate_kbps);
    parse_field(10, "join_time_ms", s.quality.join_time_ms);
    parse_field(11, "join_failed", row.join_flag);
    if (const auto fault =
            detail::check_row(row, policy, report.fields_clamped)) {
      if (fault->epoch_valid()) tally.quarantined(s.epoch);
      sink.reject(line_no, 0, fault->kind,
                  fault->reason(row, policy) + at_line(line_no));
      continue;
    }
    if (!unparsed.empty()) {
      tally.quarantined(s.epoch);
      sink.reject(line_no, 0, RowErrorKind::kBadNumber,
                  "bad numeric field (" + std::string{unparsed} + ")" +
                      at_line(line_no));
      continue;
    }
    report.fields_clamped += parse_clamps;

    try {
      for (std::size_t d = 0; d < kCsvColumnDims.size(); ++d) {
        s.attrs[kCsvColumnDims[d]] =
            out.schema.intern(kCsvColumnDims[d], fields[1 + d]);
      }
    } catch (const std::length_error& e) {
      tally.quarantined(s.epoch);
      sink.reject(line_no, 0, RowErrorKind::kAttrOverflow,
                  std::string{e.what()} + at_line(line_no));
      continue;
    }

    report.rows_kept += 1;
    table.append(s);
  }
  if (in.bad()) {
    // The stream died mid-read: treat the line being read as one lost row so
    // rows_read == rows_kept + rows_quarantined stays an invariant.
    report.rows_read += 1;
    report.input_truncated = true;
    sink.reject(line_no + 1, 0, RowErrorKind::kIoError,
                "stream failure (I/O error)" + at_line(line_no + 1));
  }

  tally.kept(table.epoch_counts());
  tally.fold_into(report);
  publish_ingest_metrics(report);
  out.table = std::move(table).finish();
  return out;
}

RobustLoadedTrace read_trace_csv_robust(const std::filesystem::path& path,
                                        const RobustReadOptions& options) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"read_trace_csv: cannot open " + path.string()};
  }
  return read_trace_csv_robust(in, options);
}

// --- binary ------------------------------------------------------------------

namespace {

using detail::at_record;

/// Bytes left between the read position and the end of the stream, or
/// nullopt when the stream cannot report its size (a pipe).  The read
/// position is restored.
[[nodiscard]] std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::streampos here = in.tellg();
  if (here == std::streampos(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(here);
  if (!in || end == std::streampos(-1) || end - here < 0) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

RobustLoadedTrace read_trace_binary_robust(std::istream& in,
                                           const RobustReadOptions& options) {
  VQ_SPAN("ingest.read_trace_binary");
  RobustLoadedTrace out;
  IngestReport& report = out.report;
  report.policy = options.policy;
  RowSink sink{"read_trace_binary", options, report};
  EpochTally tally;

  // Container header and schema section: structural, strict under every
  // policy — without the schema no session record can be decoded.
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, detail::kBinaryMagic, sizeof magic) != 0) {
    throw std::runtime_error{"read_trace_binary: bad magic at offset 0"};
  }
  const auto version = detail::read_pod<std::uint32_t>(in);
  if (version != detail::kBinaryVersion) {
    throw std::runtime_error{"read_trace_binary: unsupported version " +
                             std::to_string(version) + " at offset 4"};
  }
  std::uint64_t offset = 8;  // magic + version
  detail::read_schema_section(in, out.schema, offset, "read_trace_binary");
  const auto count = detail::read_pod<std::uint64_t>(in);
  offset += 8;

  detail::TableBuilder table;
  // The count is untrusted: a corrupted header could demand a multi-GB
  // up-front allocation before the first truncated read fails. Reserve no
  // more rows than the remaining bytes hold; when the stream cannot report
  // its size, reserve a bounded floor and let the builder's geometric
  // growth cover honest large traces.
  constexpr std::uint64_t kMaxInitialReserve = 1u << 16;
  const std::optional<std::uint64_t> bytes = remaining_bytes(in);
  table.reserve(static_cast<std::size_t>(std::min(
      count, bytes.has_value() ? *bytes / kBinaryRecordSize
                               : kMaxInitialReserve)));

  // The schema is fixed once its section is read.
  const detail::RowPolicy policy{options.policy, options.max_epoch,
                                 detail::id_bounds(out.schema)};
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ordinal = i + 1;  // 1-based, mirrors CSV lines
    char record[kBinaryRecordSize];
    in.read(record, kBinaryRecordSize);
    if (in.gcount() != static_cast<std::streamsize>(kBinaryRecordSize)) {
      // Mid-record cut (or stream failure): everything after it is gone, so
      // this is terminal for the loop under every policy.
      report.rows_read += 1;
      report.input_truncated = true;
      if (in.bad()) {
        sink.reject(ordinal, offset, RowErrorKind::kIoError,
                    "stream failure (I/O error)" + at_record(ordinal, offset));
      } else {
        sink.reject(ordinal, offset, RowErrorKind::kTruncated,
                    "truncated input" + at_record(ordinal, offset));
      }
      break;
    }
    report.rows_read += 1;

    detail::DecodedRow row = detail::decode_record(record);
    if (const auto fault =
            detail::check_row(row, policy, report.fields_clamped)) {
      if (fault->epoch_valid()) tally.quarantined(row.session.epoch);
      sink.reject(ordinal, offset, fault->kind,
                  fault->reason(row, policy) + at_record(ordinal, offset));
    } else {
      report.rows_kept += 1;
      table.append(row.session);
    }
    offset += kBinaryRecordSize;
  }

  tally.kept(table.epoch_counts());
  tally.fold_into(report);
  publish_ingest_metrics(report);
  out.table = std::move(table).finish();
  return out;
}

RobustLoadedTrace read_trace_binary_robust(const std::filesystem::path& path,
                                           const RobustReadOptions& options) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"read_trace_binary: cannot open " +
                             path.string()};
  }
  return read_trace_binary_robust(in, options);
}

}  // namespace vq
