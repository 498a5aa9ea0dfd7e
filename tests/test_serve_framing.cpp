// Framing codec in isolation (src/serve/framing.h): golden frames, every
// truncation offset, oversize/bad-length rejection, resync-after-garbage,
// and FaultyStreambuf-driven short/faulty reads — the codec is a pure byte
// machine, so the whole fault matrix runs without a socket.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/attributes.h"
#include "src/core/session.h"
#include "src/serve/framing.h"
#include "tests/fault_injection.h"
#include "tests/test_support.h"

namespace vq::serve {
namespace {

using test::Attrs;
using test::FaultyStream;
using test::FaultyStreambuf;
using test::make_session;

AttributeSchema demo_schema() {
  AttributeSchema schema;
  (void)schema.intern(AttrDim::kSite, "site-a");
  (void)schema.intern(AttrDim::kCdn, "cdn-a");
  (void)schema.intern(AttrDim::kCdn, "cdn-b");
  return schema;
}

std::vector<Session> demo_rows(std::uint32_t epoch, std::size_t n) {
  std::vector<Session> rows;
  for (std::size_t i = 0; i < n; ++i) {
    Session s = make_session(
        epoch, Attrs{.cdn = static_cast<std::uint16_t>(i % 2 == 0 ? 0 : 1)},
        test::good_quality());
    s.quality.bitrate_kbps = 1000.0F + static_cast<float>(i);
    rows.push_back(s);
  }
  return rows;
}

/// XORs 0x20 into the first payload byte (checksum now fails, length
/// intact — the whole frame quarantines with an exact row count).
std::string flip(std::string frame) {
  frame[kFrameHeaderBytes] = static_cast<char>(
      static_cast<unsigned char>(frame[kFrameHeaderBytes]) ^ 0x20u);
  return frame;
}

/// Feeds everything at once and drains completed frames.
std::vector<Frame> decode_all(FrameDecoder& decoder, std::string_view bytes) {
  decoder.feed(bytes);
  std::vector<Frame> frames;
  Frame f;
  while (decoder.next(f)) frames.push_back(f);
  return frames;
}

TEST(ServeFraming, GoldenHelloRoundTrips) {
  const AttributeSchema schema = demo_schema();
  const std::string wire = encode_hello(schema);
  ASSERT_GE(wire.size(), kFrameHeaderBytes + kFrameTrailerBytes);
  EXPECT_EQ(wire.compare(0, 4, kHelloMagic, 4), 0);

  FrameDecoder decoder;
  const std::vector<Frame> frames = decode_all(decoder, wire);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].payload.size(),
            wire.size() - kFrameHeaderBytes - kFrameTrailerBytes);
  EXPECT_EQ(decoder.stats().hello_frames, 1u);
  EXPECT_EQ(decoder.stats().resyncs, 0u);
  EXPECT_TRUE(decoder.take_errors().empty());
}

TEST(ServeFraming, GoldenDataRoundTripsEveryField) {
  std::vector<Session> rows = demo_rows(7, 3);
  rows[1].quality.join_failed = true;
  rows[2].attrs[AttrDim::kAsn] = 1234;
  const std::string wire = encode_data(rows);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + rows.size() * kRecordBytes +
                             kFrameTrailerBytes);

  FrameDecoder decoder;
  const std::vector<Frame> frames = decode_all(decoder, wire);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kData);
  ASSERT_EQ(frames[0].payload.size(), rows.size() * kRecordBytes);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Session parsed =
        parse_record(frames[0].payload.data() + i * kRecordBytes);
    EXPECT_EQ(parsed.epoch, rows[i].epoch);
    EXPECT_EQ(parsed.attrs, rows[i].attrs);
    EXPECT_EQ(parsed.quality.buffering_ratio,
              rows[i].quality.buffering_ratio);
    EXPECT_EQ(parsed.quality.bitrate_kbps, rows[i].quality.bitrate_kbps);
    EXPECT_EQ(parsed.quality.join_time_ms, rows[i].quality.join_time_ms);
    EXPECT_EQ(parsed.quality.join_failed, rows[i].quality.join_failed);
  }
  EXPECT_EQ(decoder.stats().rows_decoded, rows.size());
}

TEST(ServeFraming, EveryTruncationOffsetThenResumeCompletes) {
  const std::string wire = encode_data(demo_rows(3, 4));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(std::string_view{wire}.substr(0, cut));
    Frame f;
    EXPECT_FALSE(decoder.next(f)) << "cut=" << cut;
    // Any nonempty prefix of a legitimate frame is the mid-frame state a
    // read deadline watches for (a partial magic could still become one).
    EXPECT_EQ(decoder.mid_frame(), cut > 0) << "cut=" << cut;
    // The stream resuming (same connection, more bytes) must complete the
    // frame with nothing lost — feed() is position-agnostic.
    decoder.feed(std::string_view{wire}.substr(cut));
    ASSERT_TRUE(decoder.next(f)) << "cut=" << cut;
    EXPECT_EQ(f.payload.size(), 4 * kRecordBytes) << "cut=" << cut;
    EXPECT_EQ(decoder.stats().resyncs, 0u) << "cut=" << cut;
  }
}

TEST(ServeFraming, EveryByteFlipIsCountedNeverFatal) {
  const std::vector<Session> rows = demo_rows(2, 2);
  const std::string frame1 = encode_data(rows);
  const std::string frame2 = encode_data(demo_rows(3, 1));
  const std::string wire = frame1 + frame2;
  for (std::size_t off = 0; off < wire.size(); ++off) {
    std::string corrupted = wire;
    corrupted[off] = static_cast<char>(
        static_cast<unsigned char>(corrupted[off]) ^ 0x01u);
    FrameDecoder decoder;
    const std::vector<Frame> frames = decode_all(decoder, corrupted);
    const FrameDecoderStats& s = decoder.stats();
    std::uint64_t total_errors = 0;
    for (const std::uint64_t c : s.error_counts) total_errors += c;
    // A flip destroys at least the frame it lands in; it must surface as a
    // counted framing error, and at most one clean frame survives.
    EXPECT_LE(frames.size(), 1u) << "off=" << off;
    EXPECT_GE(total_errors, 1u) << "off=" << off;
    EXPECT_LE(s.rows_decoded, 3u) << "off=" << off;
  }
}

TEST(ServeFraming, PayloadFlipQuarantinesExactRowCount) {
  const std::string frame1 = encode_data(demo_rows(2, 5));
  const std::string frame2 = encode_data(demo_rows(3, 2));
  // Flip one payload byte of frame 1; its length stays intact, so the
  // decoder consumes exactly that frame and counts exactly its rows.
  std::string wire = frame1 + frame2;
  wire[kFrameHeaderBytes + 10] = static_cast<char>(
      static_cast<unsigned char>(wire[kFrameHeaderBytes + 10]) ^ 0x40u);

  FrameDecoder decoder;
  const std::vector<Frame> frames = decode_all(decoder, wire);
  ASSERT_EQ(frames.size(), 1u);  // frame 2 survives
  EXPECT_EQ(frames[0].payload.size(), 2 * kRecordBytes);
  EXPECT_EQ(decoder.stats().rows_discarded, 5u);
  EXPECT_EQ(decoder.stats().error_counts[static_cast<int>(
                FrameError::kBadChecksum)],
            1u);
  const std::vector<FrameError> errors = decoder.take_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], FrameError::kBadChecksum);
}

TEST(ServeFraming, OversizeLengthIsRejectedAndFollowingFrameRecovered) {
  FrameDecoder decoder{128};  // tight cap
  const std::string big = encode_frame(kDataMagic, std::string(155, 'x'));
  const std::string good = encode_data(demo_rows(1, 2));
  const std::vector<Frame> frames = decode_all(decoder, big + good);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.size(), 2 * kRecordBytes);
  EXPECT_EQ(
      decoder.stats().error_counts[static_cast<int>(FrameError::kOversize)],
      1u);
  EXPECT_GE(decoder.stats().resyncs, 1u);
}

TEST(ServeFraming, NonRecordMultipleLengthIsRejected) {
  FrameDecoder decoder;
  const std::string bad =
      encode_frame(kDataMagic, std::string(kRecordBytes - 1, 'x'));
  const std::string good = encode_data(demo_rows(1, 1));
  const std::vector<Frame> frames = decode_all(decoder, bad + good);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(
      decoder.stats().error_counts[static_cast<int>(FrameError::kBadLength)],
      1u);
  EXPECT_EQ(decoder.stats().rows_decoded, 1u);
}

TEST(ServeFraming, ResyncAfterGarbageCountsOneEpisodeAndEveryByte) {
  const std::string garbage(97, '\xff');  // cannot contain a magic
  const std::string good = encode_data(demo_rows(4, 2));
  FrameDecoder decoder;
  const std::vector<Frame> frames = decode_all(decoder, garbage + good);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(decoder.stats().resyncs, 1u);  // one blob, one episode
  EXPECT_EQ(decoder.stats().bytes_skipped, garbage.size());
  EXPECT_EQ(
      decoder.stats().error_counts[static_cast<int>(FrameError::kBadMagic)],
      1u);
}

TEST(ServeFraming, MagicSplitAcrossFeedsStillResyncs) {
  const std::string good = encode_data(demo_rows(5, 1));
  FrameDecoder decoder;
  // Garbage whose tail is the first 3 magic bytes; the decoder must keep
  // those pending instead of skipping them, or the next feed can never
  // complete the magic.
  decoder.feed(std::string(16, '\xfe') + good.substr(0, 3));
  Frame f;
  EXPECT_FALSE(decoder.next(f));
  decoder.feed(std::string_view{good}.substr(3));
  ASSERT_TRUE(decoder.next(f));
  EXPECT_EQ(f.payload.size(), kRecordBytes);
  EXPECT_EQ(decoder.stats().bytes_skipped, 16u);
}

TEST(ServeFraming, FaultyStreambufShortReadsMatchWholeFeed) {
  const std::string wire = encode_hello(demo_schema()) +
                           encode_data(demo_rows(0, 3)) +
                           encode_data(demo_rows(1, 2));
  FrameDecoder whole;
  const std::vector<Frame> expected = decode_all(whole, wire);
  ASSERT_EQ(expected.size(), 3u);

  // chunk=1 forces one-byte underflows — the socket-read worst case.
  FaultyStream faulty{wire, FaultyStreambuf::Options{.chunk = 1}};
  FrameDecoder decoder;
  std::vector<Frame> frames;
  char buf[7];  // deliberately not a divisor of any frame length
  Frame f;
  while (faulty.stream().read(buf, sizeof buf) || faulty.stream().gcount()) {
    decoder.feed(buf, static_cast<std::size_t>(faulty.stream().gcount()));
    while (decoder.next(f)) frames.push_back(f);
  }
  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, expected[i].type) << i;
    EXPECT_EQ(frames[i].payload, expected[i].payload) << i;
  }
  EXPECT_EQ(decoder.stats().resyncs, 0u);
}

TEST(ServeFraming, FaultyStreambufTransientFaultLosesOnlyTheGap) {
  const std::string wire =
      encode_data(demo_rows(0, 2)) + encode_data(demo_rows(1, 2));
  // The stream throws mid-frame-1; the connection-level reader would feed
  // what it got, drop the connection, and a reconnecting producer resends
  // from frame 2 — the decoder must pick up cleanly after a reset.
  FaultyStream faulty{
      wire, FaultyStreambuf::Options{.chunk = 8, .fail_at = 20}};
  FrameDecoder decoder;
  char buf[8];
  std::size_t fed = 0;
  try {
    while (faulty.stream().read(buf, sizeof buf) ||
           faulty.stream().gcount()) {
      decoder.feed(buf, static_cast<std::size_t>(faulty.stream().gcount()));
      fed += static_cast<std::size_t>(faulty.stream().gcount());
    }
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(fed, wire.size());
  EXPECT_TRUE(decoder.mid_frame());

  FrameDecoder fresh;  // the "reconnect"
  const std::vector<Frame> frames =
      decode_all(fresh, std::string_view{wire}.substr(wire.size() / 2));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.size(), 2 * kRecordBytes);
}

TEST(ServeFraming, StatsConserveEveryRowAndError) {
  FrameDecoder decoder;
  std::string wire = std::string(11, '\xff');        // garbage
  wire += encode_data(demo_rows(0, 3));              // good
  wire += flip(encode_data(demo_rows(1, 4)));        // checksum loss
  wire += encode_frame(kDataMagic, std::string(7, 'x'));  // bad length
  wire += encode_data(demo_rows(2, 2));              // good
  const std::vector<Frame> frames = decode_all(decoder, wire);
  EXPECT_EQ(frames.size(), 2u);
  const FrameDecoderStats& s = decoder.stats();
  EXPECT_EQ(s.rows_decoded, 5u);
  EXPECT_EQ(s.rows_discarded, 4u);
  EXPECT_EQ(s.frames_decoded, 2u);
  // 11 garbage bytes + the bad-length frame's magic (4) and its unframed
  // remainder (4 length + 7 payload + 8 checksum = 19) scanned past.
  EXPECT_EQ(s.bytes_skipped, 11u + 4u + 19u);
  std::uint64_t total_errors = 0;
  for (const std::uint64_t c : s.error_counts) total_errors += c;
  EXPECT_EQ(total_errors, 3u);  // bad magic, bad checksum, bad length
}

}  // namespace
}  // namespace vq::serve
