#include "src/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>  // acceptor thread; see lint carve-out for src/serve
#include <utility>

#include "src/gen/ingest_sink.h"
#include "src/gen/trace_format.h"
#include "src/obs/metrics.h"

namespace vq::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Why a connection was closed (drives the ServeStats close buckets).
enum class CloseKind : std::uint8_t {
  kClean = 0,     // peer closed after complete frames
  kIdle = 1,      // idle deadline fired
  kReadTimeout = 2,  // stalled mid-frame past the read deadline
  kProtocol = 3,  // hello/framing/strict-policy violation
  kError = 4,     // socket error
  kDrain = 5,     // server draining
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// Per-connection IO state; owned by the IO thread exclusively.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder;
  bool hello_done = false;
  /// Producer attribute id -> master schema id, per dimension (built from
  /// the hello frame).
  std::array<std::vector<std::uint16_t>, kNumDims> remap;
  /// Newest epoch seen in any valid-epoch row (watermark contribution);
  /// -1 until the first data row.
  std::int64_t max_epoch_seen = -1;
  Clock::time_point last_activity;
  /// Cursors into the decoder's cumulative stats, so each process_frames
  /// pass accounts exactly the delta.
  std::uint64_t seen_rows_discarded = 0;
  std::uint64_t seen_bytes_skipped = 0;
  std::uint64_t seen_frames_decoded = 0;
  bool close_requested = false;
  CloseKind close_kind = CloseKind::kClean;
  std::string close_reason;
};

struct Server::Impl {
  explicit Impl(const ServeConfig& config)
      : queue(config.queue_capacity_rows, config.overload) {}

  using Queue = BoundedRowQueue<Session>;
  using Batch = Queue::Batch;

  int listen_fd = -1;
  bool is_unix = false;
  std::string unix_path;

  // IO thread only.
  std::map<int, Connection> conns;
  std::uint64_t next_conn_id = 1;

  Queue queue;

  // Cross-thread signals (single writer each; relaxed-order safe).
  std::atomic<std::int64_t> watermark{-1};
  std::atomic<std::int64_t> max_epoch_seen_all{-1};
  std::atomic<std::uint32_t> next_seal_published{0};
  std::atomic<bool> draining{false};
  std::atomic<bool> io_done{false};
  std::atomic<bool> seen_connection{false};

  std::thread io_thread;

  mutable Mutex stats_mutex;
  ServeStats stats VQ_GUARDED_BY(stats_mutex);
  std::map<std::uint32_t, std::uint64_t> epoch_quarantine
      VQ_GUARDED_BY(stats_mutex);

  mutable Mutex schema_mutex;

  // Detector thread only.
  std::map<std::uint32_t, std::vector<Session>> pending;
  std::uint32_t next_seal = 0;

  /// Stats row for a connection id (ids are dense from 1, in accept order).
  ConnectionStats& conn_stats(std::uint64_t id) VQ_REQUIRES(stats_mutex) {
    return stats.connections[id - 1];
  }
};

Server::Server(ServeConfig config, StreamingDetector& detector,
               AttributeSchema& schema)
    : config_(std::move(config)),
      detector_(detector),
      schema_(schema),
      impl_(std::make_unique<Impl>(config_)) {
  const std::string& addr = config_.address;
  if (addr.rfind("unix:", 0) == 0) {
    impl_->is_unix = true;
    impl_->unix_path = addr.substr(5);
    if (impl_->unix_path.empty() ||
        impl_->unix_path.size() >= sizeof(sockaddr_un::sun_path)) {
      throw std::runtime_error{"serve: bad unix socket path: " + addr};
    }
    impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (impl_->listen_fd < 0) {
      throw std::runtime_error{"serve: socket(): " +
                               std::string{std::strerror(errno)}};
    }
    ::unlink(impl_->unix_path.c_str());  // the server owns this path
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, impl_->unix_path.c_str(),
                 sizeof(sa.sun_path) - 1);
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&sa),
               sizeof sa) != 0) {
      throw std::runtime_error{"serve: bind(" + impl_->unix_path +
                               "): " + std::strerror(errno)};
    }
  } else {
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      throw std::runtime_error{
          "serve: address must be unix:<path> or <host>:<port>, got " + addr};
    }
    std::string host = addr.substr(0, colon);
    if (host.empty() || host == "localhost") host = "127.0.0.1";
    const std::string port_str = addr.substr(colon + 1);
    int port = -1;
    try {
      port = std::stoi(port_str);
    } catch (const std::exception&) {
      port = -1;
    }
    if (port < 0 || port > 65535) {
      throw std::runtime_error{"serve: bad port in address: " + addr};
    }
    impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (impl_->listen_fd < 0) {
      throw std::runtime_error{"serve: socket(): " +
                               std::string{std::strerror(errno)}};
    }
    const int one = 1;
    ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
      throw std::runtime_error{"serve: bad IPv4 host in address: " + addr};
    }
    if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&sa),
               sizeof sa) != 0) {
      throw std::runtime_error{"serve: bind(" + addr +
                               "): " + std::strerror(errno)};
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(impl_->listen_fd, 64) != 0) {
    throw std::runtime_error{"serve: listen(): " +
                             std::string{std::strerror(errno)}};
  }
  set_nonblocking(impl_->listen_fd);
}

Server::~Server() {
  if (impl_->io_thread.joinable()) impl_->io_thread.join();
  for (auto& [fd, conn] : impl_->conns) ::close(fd);
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (impl_->is_unix) ::unlink(impl_->unix_path.c_str());
}

void Server::request_drain() { impl_->draining.store(true); }

std::string Server::describe(const ClusterKey& key) const {
  const MutexLock lock{impl_->schema_mutex};
  return schema_.describe(key);
}

ServeStats Server::stats() const {
  ServeStats out;
  {
    const MutexLock lock{impl_->stats_mutex};
    out = impl_->stats;
    for (const auto& [epoch, rows] : impl_->epoch_quarantine) {
      if (rows > 0) out.degraded_epochs.push_back(epoch);
    }
  }
  out.watermark = impl_->watermark.load();
  out.queue_highwater =
      std::max<std::uint64_t>(out.queue_highwater,
                              impl_->queue.highwater_rows());
  return out;
}

// --- IO thread ---------------------------------------------------------------

void Server::accept_pending() {
  for (;;) {
    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: next poll round retries
    }
    if (impl_->conns.size() >= config_.max_connections) {
      ::close(fd);
      const MutexLock lock{impl_->stats_mutex};
      impl_->stats.connections_refused += 1;
      continue;
    }
    set_nonblocking(fd);
    Connection c;
    c.fd = fd;
    c.id = impl_->next_conn_id++;
    c.decoder = FrameDecoder{config_.max_frame_bytes};
    c.last_activity = Clock::now();
    impl_->seen_connection.store(true);
    {
      const MutexLock lock{impl_->stats_mutex};
      impl_->stats.connections_accepted += 1;
      ConnectionStats cs;
      cs.id = c.id;
      impl_->stats.connections.push_back(cs);
    }
    impl_->conns.emplace(fd, std::move(c));
  }
}

void Server::handle_hello(Connection& c, const std::string& payload) {
  if (c.hello_done) {
    c.close_requested = true;
    c.close_kind = CloseKind::kProtocol;
    c.close_reason = "duplicate hello";
    return;
  }
  AttributeSchema producer;
  try {
    std::istringstream in{payload};
    std::uint64_t offset = 0;
    detail::read_schema_section(in, producer, offset, "serve hello");
  } catch (const std::exception& e) {
    c.close_requested = true;
    c.close_kind = CloseKind::kProtocol;
    c.close_reason = std::string{"bad hello: "} + e.what();
    return;
  }
  try {
    const MutexLock lock{impl_->schema_mutex};
    for (int d = 0; d < kNumDims; ++d) {
      const auto dim = static_cast<AttrDim>(d);
      const auto count = producer.cardinality(dim);
      c.remap[d].resize(count);
      for (std::size_t id = 0; id < count; ++id) {
        c.remap[d][id] = schema_.intern(
            dim, producer.name(dim, static_cast<std::uint16_t>(id)));
      }
    }
  } catch (const std::exception& e) {
    // Master id space exhausted: the producer's vocabulary cannot be
    // admitted, so the connection (not the server) pays.
    c.close_requested = true;
    c.close_kind = CloseKind::kProtocol;
    c.close_reason = std::string{"hello rejected: "} + e.what();
    return;
  }
  c.hello_done = true;
  const MutexLock lock{impl_->stats_mutex};
  impl_->conn_stats(c.id).hello_done = true;
}

void Server::handle_data(Connection& c, const std::string& payload) {
  const std::size_t n = payload.size() / kRecordBytes;
  const bool strict = config_.row_policy == ErrorPolicy::kStrict;
  const auto seal_floor =
      static_cast<std::int64_t>(impl_->next_seal_published.load());

  std::uint64_t received = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t stale = 0;
  std::uint64_t clamped = 0;
  std::array<std::uint64_t, kNumRowErrorKinds> reasons{};
  std::map<std::uint32_t, std::uint64_t> epoch_quar;
  std::vector<Session> admitted;
  admitted.reserve(n);
  bool strict_trip = false;

  if (!c.hello_done) {
    // Data before hello: the rows are decodable but have no schema to live
    // in.  Count them and close — a protocol violation, not a crash.
    const MutexLock lock{impl_->stats_mutex};
    impl_->stats.rows_received += n;
    impl_->stats.rows_quarantined += n;
    impl_->stats.row_reasons[static_cast<std::size_t>(
        RowErrorKind::kSchemaViolation)] += n;
    ConnectionStats& cs = impl_->conn_stats(c.id);
    cs.rows_received += n;
    cs.rows_quarantined += n;
    cs.row_reasons[static_cast<std::size_t>(
        RowErrorKind::kSchemaViolation)] += n;
    c.close_requested = true;
    c.close_kind = CloseKind::kProtocol;
    c.close_reason = "data frame before hello";
    return;
  }

  // The shared row policy, with ids bounded by this producer's hello.
  detail::RowPolicy policy{config_.row_policy, config_.max_epoch,
                           std::array<std::size_t, kNumDims>{}};
  for (std::size_t d = 0; d < kNumDims; ++d) {
    (*policy.id_bound)[d] = c.remap[d].size();
  }
  for (std::size_t i = 0; i < n && !strict_trip; ++i) {
    received += 1;
    detail::DecodedRow row =
        detail::decode_record(payload.data() + i * kRecordBytes);
    Session& s = row.session;
    const std::optional<detail::RowFault> fault =
        detail::check_row(row, policy, clamped);
    if (!fault.has_value() || fault->epoch_valid()) {
      c.max_epoch_seen =
          std::max(c.max_epoch_seen, static_cast<std::int64_t>(s.epoch));
    }
    if (fault.has_value()) {
      quarantined += 1;
      reasons[static_cast<std::size_t>(fault->kind)] += 1;
      if (fault->epoch_valid()) epoch_quar[s.epoch] += 1;
      if (strict) strict_trip = true;
      continue;
    }
    for (std::size_t d = 0; d < kNumDims; ++d) {
      s.attrs.v[d] = c.remap[d][s.attrs.v[d]];
    }

    if (static_cast<std::int64_t>(s.epoch) < seal_floor) {
      // The epoch is already sealed: the row is late, not malformed.
      stale += 1;
      continue;
    }
    admitted.push_back(s);
  }

  // Monotonic global max (single writer: the IO thread).
  if (c.max_epoch_seen > impl_->max_epoch_seen_all.load()) {
    impl_->max_epoch_seen_all.store(c.max_epoch_seen);
  }

  std::uint64_t admitted_rows = 0;
  std::uint64_t shed_rows = 0;
  std::vector<Impl::Batch> evicted;
  if (!admitted.empty()) {
    const std::uint64_t batch_rows = admitted.size();
    auto result = impl_->queue.push(
        Impl::Batch{c.id, std::move(admitted)}, config_.push_deadline);
    if (result.admitted) {
      admitted_rows = batch_rows;
    } else {
      shed_rows = result.refused;
    }
    evicted = std::move(result.evicted);
  }

  const MutexLock lock{impl_->stats_mutex};
  ServeStats& g = impl_->stats;
  g.rows_received += received;
  g.rows_quarantined += quarantined;
  g.rows_stale += stale;
  g.rows_admitted += admitted_rows;
  g.rows_shed += shed_rows;
  g.fields_clamped += clamped;
  for (int k = 0; k < kNumRowErrorKinds; ++k) g.row_reasons[k] += reasons[k];
  for (const auto& [epoch, count] : epoch_quar) {
    impl_->epoch_quarantine[epoch] += count;
  }
  ConnectionStats& cs = impl_->conn_stats(c.id);
  cs.rows_received += received;
  cs.rows_quarantined += quarantined;
  cs.rows_stale += stale;
  cs.rows_admitted += admitted_rows;
  cs.rows_shed += shed_rows;
  for (int k = 0; k < kNumRowErrorKinds; ++k) cs.row_reasons[k] += reasons[k];
  // Rows evicted under kShedOldest were counted admitted when they entered
  // the queue; move them (exactly) from admitted to shed, attributed to the
  // connection that sent them.
  for (const Impl::Batch& b : evicted) {
    const std::uint64_t sz = b.rows.size();
    g.rows_admitted -= sz;
    g.rows_shed += sz;
    ConnectionStats& victim = impl_->conn_stats(b.connection_id);
    victim.rows_admitted -= sz;
    victim.rows_shed += sz;
  }
  if (strict_trip) {
    c.close_requested = true;
    c.close_kind = CloseKind::kProtocol;
    c.close_reason = "strict policy: quarantined row";
  }
}

void Server::process_frames(Connection& c) {
  Frame frame;
  while (!c.close_requested && c.decoder.next(frame)) {
    if (frame.type == FrameType::kHello) {
      handle_hello(c, frame.payload);
    } else {
      handle_data(c, frame.payload);
    }
  }
  // Account the framing-damage delta since the last pass.
  const FrameDecoderStats& ds = c.decoder.stats();
  const std::uint64_t discarded = ds.rows_discarded - c.seen_rows_discarded;
  const std::uint64_t skipped = ds.bytes_skipped - c.seen_bytes_skipped;
  c.seen_rows_discarded = ds.rows_discarded;
  c.seen_bytes_skipped = ds.bytes_skipped;
  c.seen_frames_decoded = ds.frames_decoded;
  const std::vector<FrameError> errors = c.decoder.take_errors();
  if (discarded == 0 && skipped == 0 && errors.empty()) return;

  const MutexLock lock{impl_->stats_mutex};
  ServeStats& g = impl_->stats;
  ConnectionStats& cs = impl_->conn_stats(c.id);
  // Checksum-failed data frames carry an exact row count: those rows were
  // received and are quarantined wholesale.
  g.rows_received += discarded;
  g.rows_quarantined += discarded;
  g.row_reasons[static_cast<std::size_t>(RowErrorKind::kBadChecksum)] +=
      discarded;
  cs.rows_received += discarded;
  cs.rows_quarantined += discarded;
  cs.row_reasons[static_cast<std::size_t>(RowErrorKind::kBadChecksum)] +=
      discarded;
  cs.bytes_skipped += skipped;
  cs.frames_decoded = ds.frames_decoded;
  for (const FrameError e : errors) {
    g.frame_errors[static_cast<std::size_t>(e)] += 1;
    cs.frame_errors[static_cast<std::size_t>(e)] += 1;
  }
  if (!errors.empty() && config_.row_policy == ErrorPolicy::kStrict &&
      !c.close_requested) {
    c.close_requested = true;
    c.close_kind = CloseKind::kProtocol;
    c.close_reason = "strict policy: framing error";
  }
}

void Server::close_connection(Connection& c, const std::string& reason,
                              bool mid_frame_check) {
  ::close(c.fd);
  const MutexLock lock{impl_->stats_mutex};
  ServeStats& g = impl_->stats;
  g.connections_closed += 1;
  switch (c.close_kind) {
    case CloseKind::kIdle:
      g.idle_closed += 1;
      break;
    case CloseKind::kReadTimeout:
      g.read_timeout_closed += 1;
      break;
    case CloseKind::kProtocol:
      g.protocol_closed += 1;
      break;
    default:
      break;
  }
  ConnectionStats& cs = impl_->conn_stats(c.id);
  cs.open = false;
  cs.close_reason = reason;
  cs.frames_decoded = c.decoder.stats().frames_decoded;
  if (mid_frame_check && c.decoder.mid_frame()) cs.closed_mid_frame = true;
}

bool Server::service_connection(Connection& c) {
  char buf[16384];
  bool budget_exhausted = true;
  for (int round = 0; round < 4; ++round) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      c.last_activity = Clock::now();
      if (static_cast<std::size_t>(n) < sizeof buf) {
        budget_exhausted = false;
        break;
      }
      continue;
    }
    if (n == 0) {
      // Peer closed: drain completed frames first, then record whether it
      // vanished mid-frame.
      process_frames(c);
      if (!c.close_requested) {
        c.close_kind = CloseKind::kClean;
        c.close_reason = "peer closed";
      }
      c.close_requested = true;
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      budget_exhausted = false;
      break;
    }
    process_frames(c);
    if (!c.close_requested) {
      c.close_kind = CloseKind::kError;
      c.close_reason = std::string{"recv: "} + std::strerror(errno);
    }
    c.close_requested = true;
    return false;
  }
  process_frames(c);
  return budget_exhausted;
}

void Server::publish_watermark() {
  std::int64_t w = std::numeric_limits<std::int64_t>::max();
  bool constrained = false;
  for (const auto& [fd, c] : impl_->conns) {
    if (!c.hello_done) continue;
    constrained = true;
    w = std::min(w, c.max_epoch_seen);
  }
  if (!constrained) {
    // No producer holds the watermark down: everything seen so far is
    // sealable (freshness wins on a live feed).
    if (!impl_->seen_connection.load()) return;
    w = impl_->max_epoch_seen_all.load() + 1;
  }
  if (w > impl_->watermark.load()) impl_->watermark.store(w);
}

void Server::io_loop() {
  std::vector<pollfd> pfds;
  for (;;) {
    if (config_.drain_signal != nullptr && *config_.drain_signal != 0) {
      impl_->draining.store(true);
    }
    if (impl_->draining.load()) {
      // Graceful drain: read dry everything the kernel has already
      // accepted on our behalf — the accept backlog and every socket
      // buffer — before the epilogue seals.  Without this sweep a drain
      // requested between a producer's last write and the next poll round
      // would silently discard delivered rows.
      accept_pending();
      for (auto& [fd, c] : impl_->conns) {
        while (!c.close_requested && service_connection(c)) {
        }
      }
      break;
    }

    pfds.clear();
    pfds.push_back(pollfd{impl_->listen_fd, POLLIN, 0});
    for (const auto& [fd, c] : impl_->conns) {
      pfds.push_back(pollfd{fd, POLLIN, 0});
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);

    if ((pfds[0].revents & POLLIN) != 0) accept_pending();
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto it = impl_->conns.find(pfds[i].fd);
      if (it != impl_->conns.end()) service_connection(it->second);
    }

    // Deadline sweep: stalled-mid-frame connections get the (shorter) read
    // deadline, silent ones the idle deadline.
    const auto now = Clock::now();
    for (auto& [fd, c] : impl_->conns) {
      if (c.close_requested) continue;
      const auto budget =
          c.decoder.mid_frame() ? config_.read_timeout : config_.idle_timeout;
      if (now - c.last_activity > budget) {
        c.close_requested = true;
        c.close_kind = c.decoder.mid_frame() ? CloseKind::kReadTimeout
                                             : CloseKind::kIdle;
        c.close_reason = c.decoder.mid_frame() ? "read deadline (mid-frame)"
                                               : "idle deadline";
      }
    }

    for (auto it = impl_->conns.begin(); it != impl_->conns.end();) {
      if (it->second.close_requested) {
        close_connection(it->second, it->second.close_reason,
                         /*mid_frame_check=*/true);
        it = impl_->conns.erase(it);
      } else {
        ++it;
      }
    }

    publish_watermark();

    if (config_.drain_on_idle && impl_->seen_connection.load() &&
        impl_->conns.empty()) {
      impl_->draining.store(true);
    }
  }

  // Drain: flush whatever is already buffered, close everything, hand the
  // queue over to the detector.
  for (auto& [fd, c] : impl_->conns) {
    process_frames(c);
    if (!c.close_requested) {
      c.close_kind = CloseKind::kDrain;
      c.close_reason = "server draining";
    }
    close_connection(c, c.close_reason, /*mid_frame_check=*/true);
  }
  impl_->conns.clear();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  impl_->queue.close();
  impl_->io_done.store(true);
}

// --- detector thread ---------------------------------------------------------

namespace {
constexpr std::chrono::milliseconds kDetectorPollInterval{50};
}  // namespace

void Server::detector_loop() {
  const auto seal_epoch = [&](std::uint32_t e) {
    std::vector<Session> rows;
    if (const auto it = impl_->pending.find(e); it != impl_->pending.end()) {
      rows = std::move(it->second);
      impl_->pending.erase(it);
    }
    EpochDataQuality quality;
    {
      const MutexLock lock{impl_->stats_mutex};
      const auto it = impl_->epoch_quarantine.find(e);
      quality.degraded = it != impl_->epoch_quarantine.end() && it->second > 0;
    }
    const std::vector<IncidentEvent> events =
        detector_.ingest(rows, e, quality);
    if (callback_) {
      const MutexLock lock{impl_->schema_mutex};
      for (const IncidentEvent& ev : events) {
        callback_(ev, schema_.describe(ev.incident.key));
      }
    }
    impl_->next_seal = e + 1;
    impl_->next_seal_published.store(impl_->next_seal);
    bool wrote_checkpoint = false;
    if (!config_.checkpoint_path.empty() &&
        (e + 1) % std::max<std::uint32_t>(config_.checkpoint_every, 1) == 0) {
      detector_.save_checkpoint(config_.checkpoint_path);
      wrote_checkpoint = true;
    }
    const MutexLock lock{impl_->stats_mutex};
    impl_->stats.epochs_sealed += 1;
    if (wrote_checkpoint) impl_->stats.checkpoints_written += 1;
  };

  const auto absorb = [&](std::vector<Impl::Batch> batches) {
    for (Impl::Batch& batch : batches) {
      std::uint64_t stale = 0;
      for (Session& s : batch.rows) {
        if (s.epoch < impl_->next_seal) {
          // Sealed while queued: the row was admitted by the IO thread but
          // arrives late here; move it (exactly) admitted -> stale.
          stale += 1;
          continue;
        }
        impl_->pending[s.epoch].push_back(std::move(s));
      }
      if (stale > 0) {
        const MutexLock lock{impl_->stats_mutex};
        impl_->stats.rows_admitted -= stale;
        impl_->stats.rows_stale += stale;
        ConnectionStats& cs = impl_->conn_stats(batch.connection_id);
        cs.rows_admitted -= stale;
        cs.rows_stale += stale;
      }
    }
  };

  for (;;) {
    // Read the watermark BEFORE draining the queue.  Every row of an epoch
    // below w was pushed before w was published (the IO thread publishes
    // only after its pushes complete), so it is already in the queue when
    // this pop starts and lands in pending before the seal pass below.
    // The reverse order would let a push slip in between absorb and seal
    // and wrongly reclassify fresh rows as stale.
    const std::int64_t w = impl_->watermark.load();
    absorb(impl_->queue.pop_all(kDetectorPollInterval));

    while (static_cast<std::int64_t>(impl_->next_seal) < w) {
      seal_epoch(impl_->next_seal);
    }

    if (impl_->io_done.load()) {
      // IO is finished and the queue is closed: drain it dry, then seal
      // every pending epoch — nothing more can arrive.
      for (;;) {
        auto batches = impl_->queue.pop_all(std::chrono::milliseconds{0});
        if (batches.empty()) break;
        absorb(std::move(batches));
      }
      while (!impl_->pending.empty()) {
        // Ascending, gap epochs included — identical to the file path's
        // dense epoch loop.
        seal_epoch(impl_->next_seal);
      }
      if (!config_.checkpoint_path.empty()) {
        detector_.save_checkpoint(config_.checkpoint_path);
        const MutexLock lock{impl_->stats_mutex};
        impl_->stats.checkpoints_written += 1;
      }
      return;
    }
  }
}

int Server::run() {
  impl_->next_seal =
      detector_.has_ingested() ? detector_.last_epoch() + 1 : 0;
  impl_->next_seal_published.store(impl_->next_seal);
  // The one naked thread in the tree outside thread_pool: the acceptor is
  // an IO event loop, not a work-sharing pool member.
  impl_->io_thread = std::thread{[this] { io_loop(); }};
  detector_loop();
  impl_->io_thread.join();
  publish_serve_metrics(stats());
  return 0;
}

void publish_serve_metrics(const ServeStats& stats) {
  auto& reg = obs::Registry::global();
  const auto det = obs::Determinism::kRuntime;
  reg.counter("serve.rows_received", det).add(stats.rows_received);
  reg.counter("serve.rows_admitted", det).add(stats.rows_admitted);
  reg.counter("serve.rows_quarantined", det).add(stats.rows_quarantined);
  reg.counter("serve.dropped_rows", det).add(stats.rows_shed);
  reg.counter("serve.rows_stale", det).add(stats.rows_stale);
  reg.counter("serve.connections", det).add(stats.connections_accepted);
  reg.counter("serve.connections_refused", det)
      .add(stats.connections_refused);
  reg.counter("serve.epochs_sealed", det).add(stats.epochs_sealed);
  reg.counter("serve.checkpoints", det).add(stats.checkpoints_written);
  reg.gauge("serve.queue_highwater", det)
      .update_max(static_cast<std::int64_t>(stats.queue_highwater));
  reg.gauge("serve.watermark", det).update_max(stats.watermark);
}

}  // namespace vq::serve
