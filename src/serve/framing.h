// Wire framing for the live ingest server (DESIGN.md §4.11).
//
// Producers stream length-prefixed frames over a TCP or Unix-domain socket.
// Two frame types share one envelope:
//
//   envelope: magic[4]  u32 payload_len  payload  u64 fnv1a(payload)
//
// fnv1a is trace_format.h's: FNV-1a 64 with the offset basis
// 1469598103934665603, not the standard 14695981039346656037, so a
// producer written against the standard constant fails every checksum.
//
//   "VQHS" (hello) — must be the first frame on every connection.  The
//     payload is the same per-dimension name-table section the VQTR/VQTC
//     containers carry (trace_format.h write_schema_section), so a producer
//     declares the attribute vocabulary its row ids index.  The server
//     interns the names into its master schema and remaps ids per
//     connection; producers with different vocabularies coexist.
//   "VQDR" (data) — the payload is N fixed-size session records in the VQTR
//     record layout (7 x u16 attrs, u32 epoch, 3 x f32 metrics,
//     u8 join_failed; 31 bytes).  payload_len must be a non-zero multiple
//     of the record size and at most the server's max-frame cap.  The
//     server checks each row with the readers' row policy
//     (src/gen/ingest_sink.h, check_row).
//
// The trailing checksum turns any in-flight byte flip into a whole-frame
// quarantine with an exact row count (payload_len / 31 rows lost), and the
// magic makes frames self-delimiting: after garbage, a decoder resyncs by
// scanning for the next magic instead of abandoning the connection.
//
// FrameDecoder is a pure incremental byte machine — no sockets, no
// blocking — so the same code path is driven by the poll loop in
// server.cpp, by istream adapters in tests, and by the chaos harness
// (tests/socket_fault.h) at every truncation offset and flip position.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/session.h"

namespace vq::serve {

inline constexpr char kHelloMagic[4] = {'V', 'Q', 'H', 'S'};
inline constexpr char kDataMagic[4] = {'V', 'Q', 'D', 'R'};

/// Envelope overhead: magic + u32 payload length (before) + u64 checksum
/// (after).
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4;
inline constexpr std::size_t kFrameTrailerBytes = 8;

/// Bytes per session record in a data frame (the VQTR record layout, whose
/// one codec is encode_record / decode_record in src/gen/trace_format.h;
/// framing.cpp asserts the two sizes agree and docs/wire_contracts.json
/// pins both).
inline constexpr std::size_t kRecordBytes = 31;

/// Default cap on one frame's payload.  Frames beyond the cap are framing
/// errors (a corrupted length field must not demand a huge allocation);
/// honest producers split large epochs across frames.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

enum class FrameType : std::uint8_t { kHello = 0, kData = 1 };

/// One decoded frame: the type plus the raw payload bytes (checksum already
/// verified by the decoder; checksum failures surface as FrameError).
struct Frame {
  FrameType type = FrameType::kData;
  std::string payload;
};

/// Why the decoder discarded bytes.
enum class FrameError : std::uint8_t {
  kBadMagic = 0,      // garbage where a magic was expected; resync started
  kOversize = 1,      // payload_len beyond the cap
  kBadLength = 2,     // data payload_len zero or not a record multiple
  kBadChecksum = 3,   // payload checksum mismatch
};

inline constexpr int kNumFrameErrors = 4;

[[nodiscard]] std::string_view frame_error_name(FrameError e) noexcept;

/// Decoder statistics, exact by construction (every byte fed is either
/// consumed into a frame, pending in the buffer, or counted skipped).
struct FrameDecoderStats {
  std::uint64_t frames_decoded = 0;
  std::uint64_t hello_frames = 0;
  std::uint64_t data_frames = 0;
  std::uint64_t rows_decoded = 0;     // sum of data-frame row counts
  std::uint64_t rows_discarded = 0;   // rows lost to checksum-failed frames
  std::uint64_t resyncs = 0;          // error -> scan-for-magic transitions
  std::uint64_t bytes_skipped = 0;    // bytes discarded while resyncing
  std::array<std::uint64_t, kNumFrameErrors> error_counts{};
};

/// Incremental frame decoder with resync-after-garbage.
///
/// Feed bytes as they arrive; poll next() for completed frames.  On a
/// framing error the decoder records it, skips forward to the next
/// plausible magic, and keeps going — a byte flip costs one frame, not the
/// connection.  Errors raised since the last poll are exposed through
/// take_errors() so the caller can map them onto its quarantine accounting.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw bytes from the wire.  Never throws on bad input: framing
  /// damage is a counted event, not an exception.
  void feed(const char* data, std::size_t n);
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  /// Pops the next completed frame into `out`; false when more bytes are
  /// needed.  Checksum-failed data frames are consumed internally (counted
  /// in rows_discarded / error_counts) and never surface here.
  [[nodiscard]] bool next(Frame& out);

  /// Framing errors recorded since the last call (in occurrence order).
  [[nodiscard]] std::vector<FrameError> take_errors();

  /// True when a frame is partially buffered (header seen, payload
  /// incomplete) — the "mid-frame" state a read deadline cares about.
  [[nodiscard]] bool mid_frame() const noexcept;

  [[nodiscard]] const FrameDecoderStats& stats() const noexcept {
    return stats_;
  }

 private:
  void record_error(FrameError e);
  /// Starts (or continues) a resync episode; records `e` and bumps the
  /// resync count only on entry, so one garbage blob is one counted event
  /// however many next() calls it spans.
  void enter_resync(FrameError e);

  std::size_t max_frame_bytes_;
  std::string buf_;
  bool in_resync_ = false;
  FrameDecoderStats stats_;
  std::vector<FrameError> pending_errors_;
};

// --- encoding (producers, tests) ---------------------------------------------

/// Serialises one session into the 31-byte record layout, appended to `out`.
void append_record(std::string& out, const Session& s);

/// Parses one 31-byte record (no validation beyond the fixed layout).
[[nodiscard]] Session parse_record(const char* record) noexcept;

/// Builds a hello frame declaring `schema`'s name tables.
[[nodiscard]] std::string encode_hello(const AttributeSchema& schema);

/// Builds a data frame carrying `rows` (callers cap rows so the payload
/// stays within the receiver's max-frame budget).
[[nodiscard]] std::string encode_data(std::span<const Session> rows);

/// Wraps arbitrary payload bytes in a frame envelope with a valid checksum
/// (tests use this to build hostile-but-well-formed frames).
[[nodiscard]] std::string encode_frame(const char magic[4],
                                       std::string_view payload);

}  // namespace vq::serve
