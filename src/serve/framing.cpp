#include "src/serve/framing.h"

#include <cstring>
#include <sstream>

#include "src/gen/trace_format.h"

namespace vq::serve {

namespace {

using detail::fnv1a;
using detail::load_pod;

/// True when the four bytes at `p` spell either frame magic.
[[nodiscard]] bool is_magic(const char* p) noexcept {
  return std::memcmp(p, kHelloMagic, 4) == 0 ||
         std::memcmp(p, kDataMagic, 4) == 0;
}

template <typename T>
void append_pod(std::string& out, T value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

}  // namespace

std::string_view frame_error_name(FrameError e) noexcept {
  switch (e) {
    case FrameError::kBadMagic:
      return "bad-magic";
    case FrameError::kOversize:
      return "oversize";
    case FrameError::kBadLength:
      return "bad-length";
    case FrameError::kBadChecksum:
      return "bad-checksum";
  }
  return "?";
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

void FrameDecoder::record_error(FrameError e) {
  stats_.error_counts[static_cast<std::size_t>(e)] += 1;
  pending_errors_.push_back(e);
}

void FrameDecoder::enter_resync(FrameError e) {
  if (in_resync_) return;
  in_resync_ = true;
  stats_.resyncs += 1;
  record_error(e);
}

bool FrameDecoder::mid_frame() const noexcept {
  // Pending bytes that are (or could still become) an incomplete frame.
  if (buf_.size() < kFrameHeaderBytes) return !buf_.empty();
  if (!is_magic(buf_.data())) return false;  // garbage awaiting resync
  const auto len = load_pod<std::uint32_t>(buf_.data() + 4);
  return buf_.size() <
         kFrameHeaderBytes + static_cast<std::size_t>(len) +
             kFrameTrailerBytes;
}

std::vector<FrameError> FrameDecoder::take_errors() {
  std::vector<FrameError> out;
  out.swap(pending_errors_);
  return out;
}

bool FrameDecoder::next(Frame& out) {
  for (;;) {
    if (buf_.size() < 4) return false;
    if (!is_magic(buf_.data())) {
      // Garbage at the head: scan for the next magic.  The last 3 bytes are
      // kept — a magic may be split across feeds.
      enter_resync(FrameError::kBadMagic);
      const std::size_t checkable = buf_.size() - 3;
      std::size_t i = 1;
      while (i < checkable && !is_magic(buf_.data() + i)) ++i;
      if (i < checkable) {
        stats_.bytes_skipped += i;
        buf_.erase(0, i);
        in_resync_ = false;
      } else {
        stats_.bytes_skipped += checkable;
        buf_.erase(0, checkable);
        return false;
      }
    }
    if (buf_.size() < kFrameHeaderBytes) return false;

    const bool hello = std::memcmp(buf_.data(), kHelloMagic, 4) == 0;
    const auto len =
        static_cast<std::size_t>(load_pod<std::uint32_t>(buf_.data() + 4));
    if (len > max_frame_bytes_) {
      // A corrupted length field must not demand the allocation it claims:
      // drop the magic and rescan inside what follows.
      record_error(FrameError::kOversize);
      stats_.resyncs += 1;
      stats_.bytes_skipped += 4;
      buf_.erase(0, 4);
      in_resync_ = true;
      continue;
    }
    if (!hello && (len == 0 || len % kRecordBytes != 0)) {
      record_error(FrameError::kBadLength);
      stats_.resyncs += 1;
      stats_.bytes_skipped += 4;
      buf_.erase(0, 4);
      in_resync_ = true;
      continue;
    }
    const std::size_t total = kFrameHeaderBytes + len + kFrameTrailerBytes;
    if (buf_.size() < total) return false;

    const char* payload = buf_.data() + kFrameHeaderBytes;
    const auto stored = load_pod<std::uint64_t>(payload + len);
    if (stored != fnv1a(payload, len)) {
      // The envelope was intact but the bytes rotted in flight: the whole
      // frame is quarantined with an exact row count.
      record_error(FrameError::kBadChecksum);
      if (!hello) stats_.rows_discarded += len / kRecordBytes;
      buf_.erase(0, total);
      continue;
    }

    out.type = hello ? FrameType::kHello : FrameType::kData;
    out.payload.assign(payload, len);
    buf_.erase(0, total);
    stats_.frames_decoded += 1;
    if (hello) {
      stats_.hello_frames += 1;
    } else {
      stats_.data_frames += 1;
      stats_.rows_decoded += len / kRecordBytes;
    }
    return true;
  }
}

void append_record(std::string& out, const Session& s) {
  char record[kRecordBytes];
  detail::encode_record(s, record);
  out.append(record, sizeof record);
}

// The frame record layout is the VQTR container's record layout verbatim;
// a bump on either side must move both (docs/wire_contracts.json).
static_assert(kRecordBytes == detail::kBinaryRecordSize);

Session parse_record(const char* record) noexcept {
  return detail::decode_record(record).session;
}

std::string encode_frame(const char magic[4], std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  out.append(magic, 4);
  append_pod(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  append_pod(out, fnv1a(payload.data(), payload.size()));
  return out;
}

std::string encode_hello(const AttributeSchema& schema) {
  std::ostringstream payload;
  detail::write_schema_section(payload, schema, "encode_hello");
  return encode_frame(kHelloMagic, payload.str());
}

std::string encode_data(std::span<const Session> rows) {
  std::string payload;
  payload.reserve(rows.size() * kRecordBytes);
  for (const Session& s : rows) append_record(payload, s);
  return encode_frame(kDataMagic, payload);
}

}  // namespace vq::serve
