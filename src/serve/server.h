// Live ingest server: the long-running form of `monitor` (DESIGN.md §4.11).
//
// Topology: one poll-driven acceptor/IO thread owns every socket — it
// accepts producers, reads bytes, runs the frame decoder, validates rows
// with the trace readers' row policy (src/gen/ingest_sink.h, check_row)
// under the configured ErrorPolicy, and pushes admitted rows into a
// bounded queue (bounded_queue.h).  The detector loop runs on the caller's
// thread (Server::run()): it drains the queue, buffers rows per epoch,
// seals epochs behind the producer watermark, and feeds each sealed epoch
// to the StreamingDetector exactly as the file-driven CLI does — so the
// incident stream is a pure function of the admitted rows per epoch, and a
// differential test can diff file-path and socket-path reports
// byte-for-byte.
//
// Watermark: producers stream rows in non-decreasing epoch order (the
// natural shape of live telemetry).  A connection that has contributed at
// least one row "promises" every epoch below its newest; the watermark is
// the minimum such promise over open contributing connections, and every
// epoch strictly below it is sealed (empty epochs included, matching the
// file path's dense 0..max loop).  Rows arriving for an already-sealed
// epoch are *stale*: counted per connection and dropped (the row-level
// image of EpochOrderPolicy::kSkipStale — a live service cannot take the
// kThrow arm, so serve mode forces kSkipStale).
//
// Accounting invariant, checked by the chaos suite:
//
//   rows_received == rows_admitted + rows_quarantined + rows_shed
//                    + rows_stale
//
// where received counts every row in a structurally decodable data frame
// (checksum-failed frames count their exact len/record_size rows as
// received and quarantined), admitted counts rows the detector folded,
// quarantined counts validation failures, shed counts overload-policy
// victims, and stale counts late arrivals.  Bytes skipped during resync
// carry no row count (garbage has no row boundary) and are tracked
// separately.
//
// Shutdown: request_drain() — or a SIGTERM/SIGINT flag wired through
// ServeConfig::drain_signal — stops accepting, closes connections, seals
// every pending epoch (watermark waived: nothing more can arrive), writes
// a final checkpoint, and run() returns 0.  A kill -9 instead recovers
// through the periodic checkpoint on restart (--checkpoint), replaying
// producers against the watermark: rows at or below the checkpointed epoch
// are stale-dropped and the incident stream continues where it stopped.

#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/monitor.h"
#include "src/gen/robust_io.h"
#include "src/serve/bounded_queue.h"
#include "src/serve/framing.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vq::serve {

/// Per-connection accounting snapshot (exact; part of ServeStats).
struct ConnectionStats {
  std::uint64_t id = 0;
  std::uint64_t rows_received = 0;
  std::uint64_t rows_admitted = 0;
  std::uint64_t rows_quarantined = 0;
  std::uint64_t rows_shed = 0;
  std::uint64_t rows_stale = 0;
  std::array<std::uint64_t, kNumRowErrorKinds> row_reasons{};
  std::array<std::uint64_t, kNumFrameErrors> frame_errors{};
  std::uint64_t frames_decoded = 0;
  std::uint64_t bytes_skipped = 0;
  bool hello_done = false;  // the hello was accepted; rows may follow
  bool open = true;
  bool closed_mid_frame = false;  // peer vanished with a partial frame
  std::string close_reason;       // empty while open
};

/// Aggregate accounting snapshot; every counter exact by construction.
struct ServeStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_refused = 0;  // max-connection cap
  std::uint64_t connections_closed = 0;
  std::uint64_t idle_closed = 0;          // idle deadline fired
  std::uint64_t read_timeout_closed = 0;  // mid-frame read deadline fired
  std::uint64_t protocol_closed = 0;      // hello/protocol violation

  std::uint64_t rows_received = 0;
  std::uint64_t rows_admitted = 0;
  std::uint64_t rows_quarantined = 0;
  std::uint64_t rows_shed = 0;
  std::uint64_t rows_stale = 0;
  std::uint64_t fields_clamped = 0;  // best-effort repairs
  std::array<std::uint64_t, kNumRowErrorKinds> row_reasons{};
  std::array<std::uint64_t, kNumFrameErrors> frame_errors{};
  /// Epochs that lost a row to the row policy, ascending: the ones the
  /// detector ingests as degraded.
  std::vector<std::uint32_t> degraded_epochs;

  std::uint64_t epochs_sealed = 0;
  std::int64_t watermark = -1;  // highest published watermark
  std::uint64_t checkpoints_written = 0;
  std::uint64_t queue_highwater = 0;  // peak queued rows

  std::vector<ConnectionStats> connections;  // by accept order

  /// The invariant the chaos suite pins.
  [[nodiscard]] bool accounting_exact() const noexcept {
    return rows_received ==
           rows_admitted + rows_quarantined + rows_shed + rows_stale;
  }
};

struct ServeConfig {
  /// "unix:<path>" for a Unix-domain socket, "<ipv4>:<port>" for TCP
  /// ("localhost" accepted; port 0 binds an ephemeral port, see port()).
  std::string address;

  /// Row validation policy.  kQuarantine / kBestEffort behave exactly like
  /// the robust_io readers (count + drop, or clamp repairable fields).
  /// kStrict cannot throw in a server that must never crash; instead the
  /// first quarantined row closes the offending connection (the error stays
  /// on the producer that sent it).
  ErrorPolicy row_policy = ErrorPolicy::kQuarantine;
  std::uint32_t max_epoch = kDefaultMaxEpoch;

  std::size_t queue_capacity_rows = 1u << 16;
  OverloadPolicy overload = OverloadPolicy::kBlockWithDeadline;
  /// Bound on one queue push under kBlockWithDeadline; on expiry the batch
  /// is shed.  The detector thread is never the one waiting.
  std::chrono::milliseconds push_deadline{200};

  std::chrono::milliseconds idle_timeout{30'000};  // no bytes at all
  std::chrono::milliseconds read_timeout{10'000};  // stalled mid-frame
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::size_t max_connections = 64;

  /// Empty = no checkpointing.  Saved after every checkpoint_every sealed
  /// epochs and once at drain.
  std::filesystem::path checkpoint_path;
  std::uint32_t checkpoint_every = 1;

  /// CI hook: once at least one producer has connected and all connections
  /// have closed, drain automatically (so scripted runs exit by
  /// themselves).
  bool drain_on_idle = false;

  /// Optional signal-flag hook: when non-null and *drain_signal becomes
  /// non-zero (a SIGTERM/SIGINT handler wrote it), the server drains.
  const volatile std::sig_atomic_t* drain_signal = nullptr;
};

/// One incident event plus its already-rendered cluster description (the
/// schema is locked while rendering, so callbacks never race a hello).
using ServeEventCallback =
    std::function<void(const IncidentEvent&, const std::string& description)>;

class Server {
 public:
  /// Binds and listens immediately (throws std::runtime_error on address
  /// parse/bind failure).  The detector and schema outlive the server;
  /// a checkpoint-restored detector resumes sealing at last_epoch()+1.
  Server(ServeConfig config, StreamingDetector& detector,
         AttributeSchema& schema);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Ephemeral TCP port actually bound (== configured port otherwise).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  void set_event_callback(ServeEventCallback cb) { callback_ = std::move(cb); }

  /// Runs the full service: spawns the IO thread, runs the detector loop on
  /// the calling thread until drained, and returns 0 on a clean drain.
  int run();

  /// Asks the server to drain (idempotent, any thread / signal-safe flag
  /// path preferred from handlers).
  void request_drain();

  [[nodiscard]] ServeStats stats() const;

  /// Renders a cluster against the live schema (locked: safe concurrent
  /// with producer hellos).
  [[nodiscard]] std::string describe(const ClusterKey& key) const;

 private:
  struct Connection;
  struct Impl;

  void io_loop();
  void detector_loop();

  // IO-thread helpers (definitions in server.cpp).
  void accept_pending();
  /// Reads the socket into the frame decoder.  Returns true when the
  /// per-call read budget ran out with the kernel buffer still full —
  /// i.e. "call me again"; the drain sweep loops on it to read dry.
  bool service_connection(Connection& c);
  void process_frames(Connection& c);
  void handle_hello(Connection& c, const std::string& payload);
  void handle_data(Connection& c, const std::string& payload);
  void close_connection(Connection& c, const std::string& reason,
                        bool mid_frame_check);
  void publish_watermark();

  const ServeConfig config_;
  StreamingDetector& detector_;
  AttributeSchema& schema_;
  ServeEventCallback callback_;
  std::uint16_t port_ = 0;

  std::unique_ptr<Impl> impl_;
};

/// Publishes a final ServeStats snapshot into the observability registry
/// (serve.* metrics; all Determinism::kRuntime — counts depend on socket
/// timing, never on the analysis).
void publish_serve_metrics(const ServeStats& stats);

}  // namespace vq::serve
