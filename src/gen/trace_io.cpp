#include "src/gen/trace_io.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/gen/robust_io.h"
#include "src/gen/trace_format.h"

namespace vq {

using detail::kCsvColumnDims;
using detail::kCsvHeader;
using detail::write_pod;

void write_trace_csv(std::ostream& out, const SessionTable& table,
                     const AttributeSchema& schema) {
  // Names are written unquoted, so a delimiter or line break inside one
  // would silently corrupt the round trip read_trace_csv relies on; reject
  // the whole schema up front rather than emit a malformed file.
  for (const AttrDim dim : kCsvColumnDims) {
    for (std::size_t id = 0; id < schema.cardinality(dim); ++id) {
      const std::string_view name =
          schema.name(dim, static_cast<std::uint16_t>(id));
      if (name.find_first_of(",\n\r") != std::string_view::npos) {
        // Writer-side schema validation: no stream position exists yet;
        // the offending name is quoted instead.
        // vq-lint: allow(positioned-throw)
        throw std::invalid_argument{
            "write_trace_csv: attribute name contains a delimiter: \"" +
            std::string{name} + "\""};
      }
    }
  }
  // max_digits10 for float: values survive a write/read round trip exactly.
  // The stream is caller-owned, so the precision is restored on every exit
  // path instead of leaking a formatting change back to the caller.
  const std::streamsize saved_precision = out.precision(9);
  try {
    out << kCsvHeader << '\n';
    for (const Session& s : table.sessions()) {
      out << s.epoch;
      for (const AttrDim dim : kCsvColumnDims) {
        out << ',' << schema.name(dim, s.attrs[dim]);
      }
      out << ',' << s.quality.buffering_ratio << ',' << s.quality.bitrate_kbps
          << ',' << s.quality.join_time_ms << ','
          << (s.quality.join_failed ? 1 : 0) << '\n';
    }
  } catch (...) {
    out.precision(saved_precision);
    // Rethrow of a write-side failure on a caller-owned stream: the
    // original exception already carries whatever position it has.
    // vq-lint: allow(positioned-throw)
    throw;
  }
  out.precision(saved_precision);
  // A full disk or dead pipe leaves failbit/badbit set without throwing;
  // a silently short CSV must not report success.  Write-side failure on a
  // caller-owned stream: no input position exists.
  // vq-lint: allow(positioned-throw)
  if (!out) throw std::runtime_error{"write_trace_csv: write failed"};
}

void write_trace_csv(const std::filesystem::path& path,
                     const SessionTable& table,
                     const AttributeSchema& schema) {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error{"write_trace_csv: cannot open " + path.string()};
  }
  write_trace_csv(out, table, schema);
  // The destructor's implicit close swallows flush failures; close here and
  // check so a disk-full tail loss surfaces with the path attached.
  out.close();
  if (!out) {
    throw std::runtime_error{"write_trace_csv: cannot write " + path.string()};
  }
}

// The strict readers are thin shims over the policy-driven robust readers
// (robust_io.h): one parser, one set of positioned error messages.

LoadedTrace read_trace_csv(std::istream& in) {
  RobustLoadedTrace loaded =
      read_trace_csv_robust(in, {.policy = ErrorPolicy::kStrict});
  return LoadedTrace{std::move(loaded.table), std::move(loaded.schema)};
}

LoadedTrace read_trace_csv(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"read_trace_csv: cannot open " + path.string()};
  }
  return read_trace_csv(in);
}

// --- binary format -----------------------------------------------------------

void write_trace_binary(std::ostream& out, const SessionTable& table,
                        const AttributeSchema& schema) {
  out.write(detail::kBinaryMagic, sizeof detail::kBinaryMagic);
  write_pod(out, detail::kBinaryVersion);
  // Validates every name against kMaxAttrNameLen before the u16 length
  // cast — an oversized name used to truncate silently and desync the
  // schema block for every id after it.
  detail::write_schema_section(out, schema, "write_trace_binary");
  write_pod(out, static_cast<std::uint64_t>(table.size()));
  for (const Session& s : table.sessions()) {
    char record[detail::kBinaryRecordSize];
    detail::encode_record(s, record);
    out.write(record, sizeof record);
  }
  // Write-side failure on a caller-owned stream; there is no input
  // position, and the path (if any) is known only to the overload below.
  // vq-lint: allow(positioned-throw)
  if (!out) throw std::runtime_error{"write_trace_binary: write failed"};
}

void write_trace_binary(const std::filesystem::path& path,
                        const SessionTable& table,
                        const AttributeSchema& schema) {
  std::ofstream out{path, std::ios::binary};
  if (!out) {
    throw std::runtime_error{"write_trace_binary: cannot open " +
                             path.string()};
  }
  write_trace_binary(out, table, schema);
  out.close();
  if (!out) {
    throw std::runtime_error{"write_trace_binary: cannot write " +
                             path.string()};
  }
}

LoadedTrace read_trace_binary(std::istream& in) {
  RobustLoadedTrace loaded =
      read_trace_binary_robust(in, {.policy = ErrorPolicy::kStrict});
  return LoadedTrace{std::move(loaded.table), std::move(loaded.schema)};
}

LoadedTrace read_trace_binary(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"read_trace_binary: cannot open " +
                             path.string()};
  }
  return read_trace_binary(in);
}

}  // namespace vq
