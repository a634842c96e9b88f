#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

#include "service/restore.h"
#include "sim/report_io.h"
#include "state/snapshot.h"
#include "telemetry/metrics.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/trace_io.h"

namespace coda::service {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Poller tags for the two non-connection fds; connection ids start above.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

// A connection whose peer stops reading accumulates replies here; past this
// the connection is dropped rather than buffering without bound.
constexpr size_t kMaxOutbufBytes = 8u << 20;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Best-effort blocking-ish write used only for pre-connection rejections
// (the socket buffer of a fresh connection always has room for one line).
void write_line_best_effort(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  (void)::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL);
}

constexpr const char* kOpenMetricsType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

// The ServeCounters members GET /metrics exposes, in exposition order,
// after the connections_active gauge.
constexpr std::pair<const char*, uint64_t ServeCounters::*>
    kServeCounterMetrics[] = {
        {"coda_serve_connections_accepted_total",
         &ServeCounters::conn_accepted},
        {"coda_serve_connections_rejected_total",
         &ServeCounters::conn_rejected},
        {"coda_serve_connections_dropped_total", &ServeCounters::conn_dropped},
        {"coda_serve_accept_errors_total", &ServeCounters::accept_errors},
        {"coda_serve_commands_routed_total", &ServeCounters::commands_routed},
        {"coda_serve_busy_rejections_total", &ServeCounters::busy_rejections},
};

// Shard k's file under a ServerConfig path stem: the stem itself with one
// shard, `<stem>.shard<k>` with more (see ServerConfig::journal_path).
std::string shard_file(const ServerConfig& config, const std::string& stem,
                       int shard) {
  if (stem.empty() || config.limits.shards == 1) {
    return stem;
  }
  return util::strfmt("%s.shard%d", stem.c_str(), shard);
}

// The session shard `k` starts with. With --restore it is rebuilt from the
// shard's files: the latest snapshot plus the journal's tail, else the
// whole journal replayed from t=0. Only a shard with neither file starts
// fresh: a recovery that fails, or a snapshot directory that cannot be
// read, is an error, not a fresh start.
util::Result<ShardSession> load_shard(const ServerConfig& config, int k,
                                      const std::string& journal_path) {
  if (!config.restore || journal_path.empty()) {
    return start_shard(JournalSession{config.session, {}});
  }
  const auto t0 = SteadyClock::now();
  auto latest = state::find_latest_snapshot(journal_path + ".SNAP.");
  if (!latest.ok() && latest.error().code != util::ErrorCode::kNotFound) {
    return util::Error{latest.error().code,
                       util::strfmt("shard %d: cannot restore: %s", k,
                                    latest.error().message.c_str())};
  }
  if (!latest.ok() && !state::file_exists(journal_path)) {
    return start_shard(JournalSession{config.session, {}});
  }
  const std::string source = latest.ok() ? *latest : journal_path;
  auto session = [&]() -> util::Result<ShardSession> {
    if (latest.ok()) {
      return restore_shard(*latest, journal_path);
    }
    auto journal = load_journal(journal_path);
    if (!journal.ok()) {
      return journal.error();
    }
    return start_shard(*journal);
  }();
  if (!session.ok()) {
    return util::Error{session.error().code,
                       util::strfmt("shard %d: cannot restore from %s: %s", k,
                                    source.c_str(),
                                    session.error().message.c_str())};
  }
  const double restore_ms =
      std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
          .count();
  auto& metrics = session->sim.engine->metrics_mut();
  metrics.set("restore_ms", restore_ms);
  metrics.set("snapshots_taken", static_cast<double>(session->snapshot_seq));
  CODA_LOG_INFO("shard %d restored from %s (vt=%.3f, %.1f ms)", k,
                source.c_str(), session->resume_vt, restore_ms);
  return session;
}

}  // namespace

ServiceLimits ServiceLimits::from_env() {
  ServiceLimits limits;
  limits.admission_capacity =
      util::env_int("CODA_SERVE_QUEUE", limits.admission_capacity, 1);
  limits.max_connections =
      util::env_int("CODA_SERVE_MAX_CONNS", limits.max_connections, 1);
  limits.max_line_bytes =
      util::env_int("CODA_SERVE_MAX_LINE", limits.max_line_bytes, 256);
  limits.retry_after_ms =
      util::env_int("CODA_SERVE_RETRY_MS", limits.retry_after_ms, 1);
  limits.shards = util::env_int("CODA_SERVE_SHARDS", limits.shards, 1);
  return limits;
}

// Where a command's reply goes, fixed when the I/O thread reads the
// request and carried unchanged to the completion that answers it.
struct Server::ReplySlot {
  uint64_t conn_id = 0;
  // Reply-order slot for requests without a CID (see Conn). Unused (0) for
  // CID-tagged requests, which are delivered on completion.
  uint64_t ordered_seq = 0;
  bool has_cid = false;
  uint64_t cid = 0;
  bool http = false;  // reply is an HTTP body, not a protocol line
};

// Fan-out state for bare DRAIN, SHUTDOWN and GET /metrics (`verb` is
// kMetrics): one part per shard, combined into a single reply by whoever
// finishes last.
struct Server::Broadcast {
  Verb verb = Verb::kDrain;
  std::mutex mu;
  std::vector<std::string> parts;
  size_t remaining = 0;
};

struct Server::Command {
  Request request;
  ReplySlot to;
  std::shared_ptr<Broadcast> broadcast = nullptr;  // null = unicast
};

struct Server::Completion {
  ReplySlot to;
  std::string line;  // protocol line, or the HTTP body when to.http
};

// Per-connection bookkeeping, owned exclusively by the I/O thread.
struct Server::Conn {
  explicit Conn(size_t max_line_bytes) : reader(max_line_bytes) {}

  int fd = -1;
  uint64_t id = 0;
  LineReader reader;

  std::string outbuf;
  size_t outoff = 0;
  bool want_write = false;

  // Reply ordering. Every request without a CID is assigned the next
  // ordered_seq; completions for those wait in pending_ordered until every
  // earlier non-CID reply has been written, so a client that pipelines
  // plain requests across shards still reads replies in request order.
  uint64_t next_ordered_seq = 0;
  uint64_t next_flush_seq = 0;
  std::map<uint64_t, std::string> pending_ordered;

  size_t inflight = 0;      // commands routed to shards, reply not delivered
  bool authed = false;      // passed AUTH (always false until then when a
                            // token is configured; unused otherwise)
  bool http = false;        // first line was an HTTP request
  bool http_sent = false;   // HTTP reply enqueued; close once flushed
  bool read_closed = false; // EOF from peer; flush remaining replies, close
  bool dead = false;        // swept (poller.del + close + erase) after phase
};

// A shard: its mailbox and thread, and the engine state start() builds and
// then only the shard's thread touches.
struct Server::Shard {
  int index = 0;
  // Resolved from the ServerConfig stems by start(); empty when the shard
  // journals nothing or writes no report.
  std::string journal_path;
  std::string report_path;
  std::unique_ptr<Mailbox<Command>> mailbox;
  std::thread thread;
  // Set by the shard's thread at drain; Server::drained() reads it.
  std::atomic<bool> drained{false};

  ShardSession session;
  JournalWriter journal;
  // Auto-snapshot bookkeeping: virtual time of the last snapshot (manual or
  // automatic; restore seeds it with the resumed instant), and a latch that
  // stops retry spam after a failed automatic attempt.
  double last_snap_vt = 0.0;
  bool auto_snap_failed = false;
  std::string drain_summary;
  // Set when a journal append/flush fails (the writer poisons itself):
  // later submissions are refused rather than accepted unjournaled, which
  // would silently break replay equivalence.
  bool journal_failed = false;

  // Group-commit staging: SUBMITs accepted in the current mailbox batch.
  // Their journal entries are buffered, their jobs NOT yet injected, and
  // their replies withheld until commit_staged() flushes the journal once
  // for the whole batch.
  struct StagedSubmit {
    workload::JobSpec spec;
    std::string csv_row;  // verbatim row; spec.submit_time is its vt
    bool journaled = false;
    ReplySlot to;
  };
  std::vector<StagedSubmit> staged;
};

struct Server::IoState {
  Poller poller;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  uint64_t next_conn_id = kFirstConnId;
  std::vector<PollEvent> events;
  std::vector<Completion> ready;
  std::vector<uint64_t> dead_scratch;
  // Per-shard routing batches: unicast commands parsed during this tick,
  // handed to each shard's mailbox in ONE locked batch per tick instead of
  // a lock + wakeup per command.
  std::vector<std::vector<Command>> route_pending;
  bool accepting = true;
};

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() {
  request_shutdown();
  wait();
}

util::Status Server::start() {
  if (started_) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "server already started"};
  }
  if (config_.session.config.horizon_s <= 0.0) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "session horizon must be resolved (> 0)"};
  }
  if (auto status = sim::validate_config(config_.session.config);
      !status.ok()) {
    return status;
  }
  if (config_.limits.shards < 1) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "shard count must be >= 1"};
  }
  const bool unix_listener = !config_.unix_socket_path.empty();
  if (unix_listener == (config_.tcp_port >= 0)) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "set exactly one of unix_socket_path / tcp_port"};
  }
  if (!wakeup_.ok()) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot create wakeup descriptor"};
  }

  // Every shard's session is built before any journal is opened or any
  // thread started, so a bad trace or a failed recovery reaches the caller
  // and leaves the files on disk as they were.
  const int n_shards = config_.limits.shards;
  shards_.clear();
  for (int k = 0; k < n_shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    shard->journal_path = shard_file(config_, config_.journal_path, k);
    shard->report_path = shard_file(config_, config_.report_path, k);
    if (shard->report_path.empty() && !shard->journal_path.empty()) {
      shard->report_path = shard->journal_path + ".report";
    }
    auto session = load_shard(config_, k, shard->journal_path);
    if (!session.ok()) {
      return session.error();
    }
    shard->mailbox = std::make_unique<Mailbox<Command>>(
        static_cast<size_t>(config_.limits.admission_capacity));
    shard->session = std::move(*session);
    shards_.push_back(std::move(shard));
  }

  if (unix_listener) {
    sockaddr_un addr{};
    if (config_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return util::Error{util::ErrorCode::kInvalidArgument,
                         "unix socket path too long"};
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return util::Error{util::ErrorCode::kIoError,
                         util::strfmt("socket: %s", std::strerror(errno))};
    }
    ::unlink(config_.unix_socket_path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Error{
          util::ErrorCode::kIoError,
          util::strfmt("bind %s: %s", config_.unix_socket_path.c_str(),
                       std::strerror(errno))};
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return util::Error{util::ErrorCode::kIoError,
                         util::strfmt("socket: %s", std::strerror(errno))};
    }
    // SO_REUSEADDR on the loopback listener only lets a restarted daemon
    // rebind its fixed port through TIME_WAIT; it cannot hijack a live
    // listener (Linux requires SO_REUSEPORT for that, which we do not set).
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(config_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return util::Error{
          util::ErrorCode::kIoError,
          util::strfmt("bind 127.0.0.1:%d: %s", config_.tcp_port,
                       std::strerror(errno))};
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    resolved_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  // Full kernel accept queue: connection bursts wait there instead of
  // being refused; what the daemon itself turns away (max_connections) is
  // counted in ServeCounters rather than dropped silently.
  if (::listen(listen_fd_, SOMAXCONN) != 0 || !set_nonblocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Error{util::ErrorCode::kIoError,
                       util::strfmt("listen: %s", std::strerror(errno))};
  }

  report_texts_.assign(static_cast<size_t>(n_shards), std::string());
  engines_running_.store(n_shards);
  started_ = true;
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { engine_main(*s); });
  }
  io_thread_ = std::thread([this] { io_main(); });
  return util::Status::Ok();
}

void Server::request_shutdown() {
  stop_.store(true);
  wakeup_.notify();
}

bool Server::drained() const {
  for (const auto& shard : shards_) {
    if (!shard->drained.load()) {
      return false;
    }
  }
  return !shards_.empty();
}

std::string Server::report_text(int shard) const {
  std::lock_guard<std::mutex> lock(report_mu_);
  if (shard < 0 || static_cast<size_t>(shard) >= report_texts_.size()) {
    return std::string();
  }
  return report_texts_[static_cast<size_t>(shard)];
}

ServeCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(counter_mu_);
  return counters_;
}

void Server::count(uint64_t ServeCounters::*counter, uint64_t n) {
  std::lock_guard<std::mutex> lock(counter_mu_);
  counters_.*counter += n;
}

void Server::wait() {
  if (!started_) {
    return;
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  if (io_thread_.joinable()) {
    io_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!config_.unix_socket_path.empty()) {
    ::unlink(config_.unix_socket_path.c_str());
  }
  started_ = false;
}

// --------------------------------------------------------- engine threads

util::Result<std::string> Server::take_snapshot(Shard& shard) {
  const auto t0 = SteadyClock::now();
  sim::ClusterEngine& engine = *shard.session.sim.engine;
  state::SnapshotMeta meta;
  meta.seq = shard.session.snapshot_seq + 1;
  meta.virtual_time = engine.sim().now();
  meta.dispatched = engine.sim().dispatched();
  meta.accepted = shard.session.accepted();
  meta.next_auto_id = shard.session.next_auto_id;
  auto blob = state::capture_snapshot(meta, shard.session.session_text,
                                      engine,
                                      *shard.session.sim.scheduler.scheduler);
  if (!blob.ok()) {
    return blob.error();
  }
  const std::string snap_path =
      util::strfmt("%s.SNAP.%llu", shard.journal_path.c_str(),
                   static_cast<unsigned long long>(meta.seq));
  // The snapshot reaches disk (fsync inside) before the journal loses a
  // byte, and JournalWriter::open then replaces the journal with its
  // header in one rename. A crash between the two leaves the snapshot
  // beside the full journal, whose entries the snapshot already holds:
  // restore_shard refuses that pair, and removing the journal resumes from
  // the snapshot alone.
  if (auto status = state::write_file_durable(snap_path, *blob);
      !status.ok()) {
    return status.error();
  }
  const uint64_t old_bytes = shard.journal.bytes();
  shard.journal.close();
  auto reopened = JournalWriter::open(shard.journal_path, shard.session.spec);
  if (!reopened.ok()) {
    shard.journal_failed = true;
    return util::Error{reopened.error().code,
                       "journal truncation failed: " +
                           reopened.error().message};
  }
  shard.journal = std::move(*reopened);
  shard.journal.set_fsync(config_.journal_fsync);
  shard.session.snapshot_seq = meta.seq;
  shard.last_snap_vt = meta.virtual_time;
  const uint64_t header = shard.journal.bytes();
  const uint64_t truncated = old_bytes > header ? old_bytes - header : 0;
  const double snapshot_ms =
      std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
          .count();
  auto& metrics = engine.metrics_mut();
  metrics.increment("snapshots_taken");
  metrics.increment("journal_truncated_bytes",
                    static_cast<double>(truncated));
  metrics.set("snapshot_ms", snapshot_ms);
  return util::strfmt(
      "seq=%llu path=%s vt=%a bytes=%zu truncated=%llu ms=%.3f",
      static_cast<unsigned long long>(meta.seq), snap_path.c_str(),
      meta.virtual_time, blob->size(),
      static_cast<unsigned long long>(truncated), snapshot_ms);
}

void Server::maybe_auto_snapshot(Shard& shard) {
  const double every_s = config_.snapshot_every_sim_hours * 3600.0;
  const double cap_bytes = config_.snapshot_journal_mb * 1024.0 * 1024.0;
  if (every_s <= 0.0 && cap_bytes <= 0.0) {
    return;
  }
  if (shard.drained || shard.auto_snap_failed || shard.journal_failed ||
      !shard.journal.is_open()) {
    return;
  }
  const bool vt_due =
      every_s > 0.0 &&
      shard.session.sim.engine->sim().now() - shard.last_snap_vt >= every_s;
  const bool bytes_due =
      cap_bytes > 0.0 &&
      static_cast<double>(shard.journal.bytes()) >= cap_bytes;
  if (!vt_due && !bytes_due) {
    return;
  }
  auto payload = take_snapshot(shard);
  if (payload.ok()) {
    CODA_LOG_INFO("shard %d auto-snapshot %s", shard.index,
                  payload->c_str());
  } else {
    shard.auto_snap_failed = true;
    CODA_LOG_ERROR(
        "shard %d auto-snapshot failed (disabled for this shard): %s",
        shard.index, payload.error().message.c_str());
  }
}

void Server::engine_main(Shard& shard) {
  shard.last_snap_vt = shard.session.resume_vt;
  if (!shard.journal_path.empty()) {
    // A recovered journal is appended to; only a fresh session truncates.
    auto journal =
        config_.restore && state::file_exists(shard.journal_path)
            ? JournalWriter::open_append(shard.journal_path)
            : JournalWriter::open(shard.journal_path, shard.session.spec);
    if (journal.ok()) {
      shard.journal = std::move(*journal);
      shard.journal.set_fsync(config_.journal_fsync);
    } else {
      CODA_LOG_ERROR("shard %d journal disabled: %s", shard.index,
                     journal.error().message.c_str());
    }
  }

  sim::ClusterEngine& engine = *shard.session.sim.engine;
  const double horizon = shard.session.sim.config.horizon_s;
  const double speedup = shard.session.spec.speedup;
  const bool paced = speedup > 0.0;
  const auto wall_start = SteadyClock::now();
  std::vector<Command> batch;
  std::vector<Completion> done;

  while (!stop_.load()) {
    if (!shard.drained) {
      double target = horizon;
      if (paced) {
        const double elapsed =
            std::chrono::duration<double>(SteadyClock::now() - wall_start)
                .count();
        // Pacing resumes from the recovered instant: a restored shard picks
        // up mid-session instead of stalling until wall time catches up
        // with its virtual clock.
        target =
            std::min(horizon, shard.session.resume_vt + elapsed * speedup);
      }
      if (target > engine.sim().now()) {
        engine.run_until(target);
      }
      // Between batches nothing is staged and no event is mid-flight — the
      // same instant the SNAPSHOT verb captures at.
      maybe_auto_snapshot(shard);
    }

    // Wake on the next command, the next due simulation event, or a 200 ms
    // heartbeat (which also bounds shutdown latency).
    auto deadline = SteadyClock::now() + std::chrono::milliseconds(200);
    if (paced && !shard.drained) {
      const double next_t = engine.sim().next_event_time();
      if (next_t <= horizon) {
        const auto due =
            wall_start + std::chrono::duration_cast<SteadyClock::duration>(
                             std::chrono::duration<double>(
                                 (next_t - shard.session.resume_vt) / speedup));
        deadline = std::min(deadline, std::max(due, SteadyClock::now()));
      }
    }

    shard.mailbox->drain_until(&batch, deadline);
    serve_batch(shard, &batch, &done);
  }

  // Graceful exit: finish the session even on SIGTERM so the journal's
  // report exists, then answer everything still queued. Closing the
  // mailbox first makes late try_push fail (-> ERR shutting-down at the
  // I/O thread), so no command can slip in after the final sweep and hang
  // its client. Every batch ends committed, so nothing is staged here.
  if (!shard.drained) {
    do_drain(shard);
  }
  shard.mailbox->close();
  shard.mailbox->drain(&batch);
  serve_batch(shard, &batch, &done);
  engines_running_.fetch_sub(1);
  wakeup_.notify();
}

// Answers a drained batch: every command, then one group commit for the
// SUBMITs among them, then the replies go to the I/O thread. Every command
// is answered even if one of them is SHUTDOWN: a command whose completion
// never reaches the I/O thread would leave its client blocked forever.
void Server::serve_batch(Shard& shard, std::vector<Command>* batch,
                         std::vector<Completion>* done) {
  for (auto& cmd : *batch) {
    handle_command(shard, cmd, done);
  }
  batch->clear();
  commit_staged(shard, done);
  post_completions(done);
}

void Server::post_completions(std::vector<Completion>* done) {
  if (done->empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    for (auto& c : *done) {
      completions_.push_back(std::move(c));
    }
  }
  done->clear();
  wakeup_.notify();
}

// Completes shard `shard`'s part of a fan-out answered in slot `to`; the
// last shard to finish composes the combined reply (and, for SHUTDOWN,
// flips the global stop flag — every shard has acknowledged by then).
void Server::finish_broadcast(Broadcast& b, const ReplySlot& to, int shard,
                              std::string part,
                              std::vector<Completion>* done) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(b.mu);
    b.parts[static_cast<size_t>(shard)] = std::move(part);
    last = --b.remaining == 0;
  }
  if (!last) {
    return;
  }
  Completion c{to, {}};
  switch (b.verb) {
    case Verb::kDrain:
      c.line = format_ok(util::join(b.parts, " | "));
      break;
    case Verb::kShutdown:
      c.line = format_ok("bye");
      request_shutdown();
      break;
    default:  // kMetrics: the HTTP body, one block per shard
      c.line = util::join(b.parts, "");
      break;
  }
  done->push_back(std::move(c));
}

void Server::do_drain(Shard& shard) {
  const sim::ExperimentReport report = shard.session.sim.finish();
  std::string text = sim::serialize_report(report);

  if (!shard.report_path.empty()) {
    std::ofstream out(shard.report_path, std::ios::binary);
    out << text;
    if (!out) {
      CODA_LOG_ERROR("failed to write report to %s",
                     shard.report_path.c_str());
    }
  }
  if (shard.journal.is_open()) {
    shard.journal.note(util::strfmt(
        "drained: completed %zu/%zu, %zu live submissions",
        report.completed, report.submitted, shard.session.accepted()));
    shard.journal.close();
  }
  shard.drain_summary = util::strfmt(
      "shard=%d drained completed=%zu submitted=%zu abandoned=%zu vt=%.1f%s%s",
      shard.index, report.completed, report.submitted, report.abandoned,
      shard.session.sim.engine->sim().now(),
      shard.report_path.empty() ? "" : " report=",
      shard.report_path.c_str());
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    report_texts_[static_cast<size_t>(shard.index)] = std::move(text);
  }
  shard.drained.store(true);
}

// Flushes the journal once for every SUBMIT staged in this batch, then
// injects the now-durable jobs and releases their replies. On a flush
// failure nothing is injected: the journal is poisoned and every staged
// submission is refused, so an acknowledged job is always both durable and
// present in the engine.
void Server::commit_staged(Shard& shard, std::vector<Completion>* done) {
  if (shard.staged.empty()) {
    return;
  }
  bool flush_failed = false;
  if (shard.journal.is_open()) {
    if (auto status = shard.journal.flush(); !status.ok()) {
      shard.journal_failed = true;
      flush_failed = true;
      CODA_LOG_ERROR("journal group flush failed: %s",
                     status.error().message.c_str());
    }
  }
  for (auto& staged : shard.staged) {
    Completion c{staged.to, {}};
    if (staged.journaled && flush_failed) {
      c.line = format_err(util::ErrorCode::kIoError,
                          "journal flush failed; submission not accepted");
    } else {
      shard.session.accept(staged.spec, staged.csv_row);
      // Hot path: one snprintf into a stack buffer instead of strfmt's
      // measure-allocate-format plus the format_ok concatenation.
      char buf[64];
      const int n = std::snprintf(
          buf, sizeof(buf), "OK id=%llu vt=%.3f",
          static_cast<unsigned long long>(staged.spec.id),
          staged.spec.submit_time);
      c.line.assign(buf, static_cast<size_t>(n));
    }
    done->push_back(std::move(c));
  }
  shard.staged.clear();
}

void Server::handle_command(Shard& shard, Command& cmd,
                            std::vector<Completion>* done) {
  const Request& req = cmd.request;
  const sim::ClusterEngine& engine = *shard.session.sim.engine;
  auto reply = [&](std::string line) {
    done->push_back(Completion{cmd.to, std::move(line)});
  };
  // Every verb but SUBMIT (which stages) and PING (which reads only the
  // clock, and a commit does not move it) sees the SUBMITs staged earlier
  // in this batch: their journal entries become durable and their jobs
  // join the engine first.
  if (req.verb != Verb::kSubmit && req.verb != Verb::kPing) {
    commit_staged(shard, done);
  }

  switch (req.verb) {
    case Verb::kPing: {
      char buf[64];
      const int n = std::snprintf(buf, sizeof(buf), "OK pong shard=%d vt=%.3f",
                                  shard.index, engine.sim().now());
      reply(std::string(buf, static_cast<size_t>(n)));
      break;
    }

    case Verb::kSubmit: {
      if (shard.drained) {
        reply(format_err(util::ErrorCode::kFailedPrecondition,
                         "session drained; submissions closed"));
        break;
      }
      if (shard.journal_failed) {
        reply(format_err(util::ErrorCode::kFailedPrecondition,
                         "journal failed; submissions closed"));
        break;
      }
      auto spec = workload::job_from_csv_row(req.arg);
      if (!spec.ok()) {
        reply(format_err(spec.error().code, spec.error().message));
        break;
      }
      uint64_t id = spec->id;
      if (id == 0) {
        id = shard.session.next_auto_id;
      }
      bool duplicate = engine.records().find(id) != nullptr;
      for (const auto& staged : shard.staged) {
        duplicate = duplicate || staged.spec.id == id;
      }
      if (duplicate) {
        reply(format_err(
            util::ErrorCode::kFailedPrecondition,
            util::strfmt("job id %llu already exists",
                         static_cast<unsigned long long>(id))));
        break;
      }
      // Inject strictly after everything already dispatched and strictly
      // before everything still queued: the replay's pre-posted arrival
      // lands at the same point of the event sequence. The first SUBMIT of
      // a batch may dispatch events queued at nextafter(now()); once one is
      // staged nothing is queued that early, so now() cannot move between
      // staging and commit and the instant recorded here is the instant
      // the job is injected at.
      const double vt = shard.session.sim.injection_instant();
      Shard::StagedSubmit staged;
      if (shard.journal.is_open()) {
        // Journal first (write-ahead): an unjournaled accepted job would
        // silently break replay equivalence. The entry is only buffered;
        // commit_staged() flushes once per batch and withholds the reply
        // until the entry is durable.
        if (auto status = shard.journal.append_submit(vt, id, req.arg);
            !status.ok()) {
          shard.journal_failed = true;
          reply(format_err(status.error().code, status.error().message));
          break;
        }
        staged.journaled = true;
      }
      staged.spec = std::move(*spec);
      staged.spec.id = id;
      staged.spec.submit_time = vt;
      staged.csv_row = std::move(cmd.request.arg);
      staged.to = cmd.to;
      shard.staged.push_back(std::move(staged));
      // Reserves the id for the next auto-numbered SUBMIT of this batch.
      shard.session.next_auto_id = std::max(shard.session.next_auto_id, id + 1);
      break;  // reply deferred to commit_staged()
    }

    case Verb::kStatus: {
      const sim::JobTable::Slot* job = engine.records().find(req.job_id);
      if (job == nullptr) {
        reply(format_err(util::ErrorCode::kNotFound,
                         "unknown job " + req.arg));
        break;
      }
      const sim::JobRecord& r = job->record;
      const char* state = r.completed          ? "completed"
                          : r.abandoned        ? "abandoned"
                          : r.first_start_time < 0.0 ? "pending"
                                                     : "active";
      reply(format_ok(util::strfmt(
          "id=%llu state=%s kind=%s submitted=%.3f started=%.3f "
          "finished=%.3f queue_s=%.3f preempts=%d restarts=%d",
          static_cast<unsigned long long>(req.job_id), state,
          workload::to_string(r.spec.kind), r.submit_time,
          r.first_start_time, r.finish_time, r.queue_time_total,
          r.preempt_count, r.restart_count)));
      break;
    }

    case Verb::kCluster: {
      const auto& cluster = engine.cluster();
      reply(format_ok(util::strfmt(
          "shard=%d vt=%.3f nodes=%zu cpus=%d/%d gpus=%d/%d running=%zu "
          "finished=%zu abandoned=%zu",
          shard.index, engine.sim().now(), cluster.node_count(),
          cluster.used_cpus(), cluster.total_cpus(), cluster.used_gpus(),
          cluster.total_gpus(), engine.running_jobs(),
          engine.finished_jobs(), engine.abandoned_jobs())));
      break;
    }

    case Verb::kMetrics: {
      if (cmd.to.http) {
        // One OpenMetrics block per shard; the I/O thread prepends the
        // serving-layer block and appends the EOF marker.
        const std::string labels = util::strfmt("shard=\"%d\"", shard.index);
        std::string block = telemetry::format_openmetrics(
            telemetry::snapshot(engine.metrics()), labels);
        block += util::strfmt("# TYPE coda_shard_virtual_time gauge\n"
                              "coda_shard_virtual_time{%s} %.6f\n",
                              labels.c_str(), engine.sim().now());
        block += util::strfmt("# TYPE coda_shard_drained gauge\n"
                              "coda_shard_drained{%s} %d\n",
                              labels.c_str(), shard.drained ? 1 : 0);
        finish_broadcast(*cmd.broadcast, cmd.to, shard.index,
                         std::move(block), done);
        break;
      }
      const std::string snap =
          telemetry::format_snapshot(telemetry::snapshot(engine.metrics()));
      reply(format_ok(util::strfmt("shard=%d vt=%.3f drained=%d ",
                                   shard.index, engine.sim().now(),
                                   shard.drained ? 1 : 0) +
                      snap));
      break;
    }

    case Verb::kSnapshot: {
      if (shard.drained) {
        reply(format_err(util::ErrorCode::kFailedPrecondition,
                         "session drained; nothing live to snapshot"));
        break;
      }
      if (shard.journal_path.empty()) {
        reply(format_err(util::ErrorCode::kFailedPrecondition,
                         "snapshots require a journal (--journal)"));
        break;
      }
      if (!shard.journal.is_open()) {
        reply(format_err(util::ErrorCode::kFailedPrecondition,
                         "journal failed; cannot truncate safely"));
        break;
      }
      auto payload = take_snapshot(shard);
      if (!payload.ok()) {
        reply(format_err(payload.error().code, payload.error().message));
        break;
      }
      reply(format_ok(*payload));
      break;
    }

    case Verb::kAuth:
      // AUTH is connection state, resolved on the I/O thread; one reaching
      // a shard is a routing bug, but answer it rather than hang a client.
      reply(format_err(util::ErrorCode::kInvalidArgument,
                       "AUTH is handled per connection"));
      break;

    case Verb::kDrain: {
      if (!shard.drained) {
        do_drain(shard);
      }
      if (cmd.broadcast) {
        finish_broadcast(*cmd.broadcast, cmd.to, shard.index,
                         shard.drain_summary, done);
      } else {
        reply(format_ok(shard.drain_summary));
      }
      break;
    }

    case Verb::kShutdown:
      // Always a fan-out (route_command). The drain itself happens after
      // the serving loop exits (every shard sees stop_ and finishes through
      // the same do_drain path); the reply only acknowledges the order,
      // exactly like SIGTERM.
      finish_broadcast(*cmd.broadcast, cmd.to, shard.index, "bye", done);
      break;
  }
}

// ------------------------------------------------------------- I/O thread

void Server::io_main() {
  io_ = std::make_unique<IoState>();
  IoState& io = *io_;
  io.route_pending.resize(shards_.size());
  io.poller.add(listen_fd_, kListenTag, true, false);
  io.poller.add(wakeup_.fd(), kWakeTag, true, false);

  while (true) {
    const bool stopping = stop_.load();
    if (stopping && io.accepting) {
      io.accepting = false;
      io.poller.del(listen_fd_);
    }

    io.poller.wait(stopping ? 20 : 200, &io.events);
    for (const PollEvent& ev : io.events) {
      if (ev.tag == kListenTag) {
        if (io.accepting) {
          accept_ready();
        }
        continue;
      }
      if (ev.tag == kWakeTag) {
        wakeup_.drain();
        continue;
      }
      auto it = io.conns.find(ev.tag);
      if (it == io.conns.end()) {
        continue;  // swept earlier this tick
      }
      Conn& conn = *it->second;
      if (conn.dead) {
        continue;
      }
      if (ev.readable || (ev.hangup && !conn.read_closed)) {
        conn_readable(conn);
      }
      if (conn.dead) {
        continue;
      }
      if (ev.writable) {
        flush_conn(conn);
      }
      if (ev.hangup && !ev.readable && !ev.writable) {
        conn.dead = true;
      }
    }

    // Hand this tick's parsed commands to the shards, one batch per shard,
    // and deliver everything the shards completed since the last tick.
    flush_route_pending();
    deliver_completions();

    // One flush pass over every live connection: everything the tick
    // enqueued (completions above, local replies during event handling)
    // goes out in a single send(2) per connection.
    for (const auto& [id, conn] : io.conns) {
      flush_conn(*conn);
    }

    // Sweep connections marked dead during this tick.
    io.dead_scratch.clear();
    for (const auto& [id, conn] : io.conns) {
      if (conn->dead) {
        io.dead_scratch.push_back(id);
      }
    }
    for (uint64_t id : io.dead_scratch) {
      drop_conn(id);
    }

    if (stopping && engines_running_.load() == 0) {
      // Every shard has exited, so no further completions can appear.
      // Anything still waiting to be routed gets its shutting-down answer
      // (the closed mailboxes reject the whole batch), then drain the
      // completion queue one last time, flush, and leave.
      flush_route_pending();
      deliver_completions();
      final_flush_and_close();
      break;
    }
  }
  io_.reset();
}

// Hands every completion posted since the last call to its connection; one
// whose connection died with commands in flight is dropped.
void Server::deliver_completions() {
  IoState& io = *io_;
  io.ready.clear();
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    io.ready.swap(completions_);
  }
  for (const Completion& c : io.ready) {
    auto it = io.conns.find(c.to.conn_id);
    if (it == io.conns.end()) {
      continue;
    }
    Conn& conn = *it->second;
    if (conn.inflight > 0) {
      --conn.inflight;
    }
    deliver(conn, c);
  }
}

void Server::accept_ready() {
  IoState& io = *io_;
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;
      }
      count(&ServeCounters::accept_errors);
      return;
    }
    if (io.conns.size() >=
        static_cast<size_t>(config_.limits.max_connections)) {
      // Accept-queue overflow at the daemon level: turned away loudly
      // (BUSY + counter) instead of lingering in the kernel backlog.
      write_line_best_effort(fd, format_busy(config_.limits.retry_after_ms));
      ::close(fd);
      count(&ServeCounters::conn_rejected);
      continue;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      count(&ServeCounters::accept_errors);
      continue;
    }
    if (config_.unix_socket_path.empty()) {
      // Server replies are tiny; without this they ride Nagle and every
      // non-pipelined caller pays ~40 ms of delayed-ACK p99.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_unique<Conn>(
        static_cast<size_t>(config_.limits.max_line_bytes));
    conn->fd = fd;
    conn->id = io.next_conn_id++;
    if (!io.poller.add(fd, conn->id, true, false)) {
      ::close(fd);
      count(&ServeCounters::accept_errors);
      continue;
    }
    count(&ServeCounters::conn_accepted);
    io.conns.emplace(conn->id, std::move(conn));
  }
}

void Server::conn_readable(Conn& conn) {
  char buf[16384];
  const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
  if (n == 0) {
    conn.read_closed = true;
    maybe_finish_conn(conn);
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return;
    }
    conn.dead = true;
    return;
  }
  const bool fed =
      conn.reader.feed_views(buf, static_cast<size_t>(n),
                             [this, &conn](std::string_view line) {
                               if (!conn.dead) {
                                 process_line(conn, line);
                               }
                             });
  if (!fed) {
    enqueue_line(conn, false, 0,
                 format_err(util::ErrorCode::kInvalidArgument,
                            "line exceeds per-connection limit"));
    conn.read_closed = true;
    count(&ServeCounters::conn_dropped);
  }
  flush_conn(conn);
}

// Writes what the connection has queued, then closes it if it is done.
void Server::flush_conn(Conn& conn) {
  try_flush(conn);
  maybe_finish_conn(conn);
}

void Server::process_line(Conn& conn, std::string_view line) {
  // A connection that opens with `GET ` speaks HTTP from then on.
  if (line.substr(0, 4) == "GET " && conn.next_ordered_seq == 0 &&
      conn.inflight == 0) {
    conn.http = true;
  }
  if (conn.http) {
    handle_http_line(conn, line);
    return;
  }
  if (line.empty()) {
    return;
  }
  auto env = parse_envelope(line);
  if (!env.ok()) {
    local_reply(conn, ReplySlot{conn.id, conn.next_ordered_seq++},
                format_err(env.error().code, env.error().message));
    return;
  }
  route_command(conn, std::move(*env));
}

// First line of an HTTP connection: `GET <path> HTTP/1.x`. The request is
// answered immediately (a GET has no body worth waiting for); header lines
// that trickle in afterwards land here again and are ignored.
void Server::handle_http_line(Conn& conn, std::string_view line) {
  if (conn.http_sent || conn.inflight > 0) {
    return;  // headers after the request line
  }
  std::string_view path;
  {
    const size_t sp = line.find(' ');
    const size_t sp2 = line.find(' ', sp + 1);
    if (sp != std::string_view::npos) {
      path = line.substr(sp + 1, sp2 == std::string_view::npos
                                     ? std::string_view::npos
                                     : sp2 - sp - 1);
    }
  }
  if (path != "/metrics") {
    http_reply(conn, "404 Not Found", "text/plain",
               "only /metrics is served\n");
    return;
  }
  // HTTP/1.0 scrapes cannot carry the protocol's AUTH exchange; with a
  // token configured the scrape endpoint is simply closed off.
  if (!config_.auth_token.empty()) {
    http_reply(conn, "401 Unauthorized", "text/plain",
               "authentication required\n");
    return;
  }
  // Fan the scrape out to every shard; the last one composes the body.
  fan_out(conn, ReplySlot{.conn_id = conn.id, .http = true}, Verb::kMetrics);
}

// Sends the bare `verb` (DRAIN, SHUTDOWN, or an HTTP scrape's METRICS) to
// every shard as one command answered once in slot `to`. A shard whose
// mailbox refuses it (full or closed) has its part completed here as
// unavailable, so the fan-in still converges; that reply is posted like a
// shard's and delivered later in this tick.
void Server::fan_out(Conn& conn, const ReplySlot& to, Verb verb) {
  auto broadcast = std::make_shared<Broadcast>();
  broadcast->verb = verb;
  broadcast->parts.resize(shards_.size());
  broadcast->remaining = shards_.size();
  conn.inflight += 1;
  std::vector<Completion> done;
  for (auto& shard : shards_) {
    if (!shard->mailbox->try_push(Command{Request{verb, {}}, to, broadcast})) {
      finish_broadcast(
          *broadcast, to, shard->index,
          util::strfmt(to.http ? "# shard %d unavailable\n"
                               : "shard=%d unavailable",
                       shard->index),
          &done);
    }
  }
  post_completions(&done);
}

void Server::route_command(Conn& conn, Envelope env) {
  const int n_shards = static_cast<int>(shards_.size());
  const Verb verb = env.request.verb;
  const ReplySlot to{conn.id, env.has_cid ? 0 : conn.next_ordered_seq++,
                     env.has_cid, env.cid};

  // AUTH is connection state: resolved here, never routed to a shard.
  // With no configured token it is an accepted no-op, so clients can send
  // it unconditionally.
  if (verb == Verb::kAuth) {
    if (config_.auth_token.empty() || env.request.arg == config_.auth_token) {
      conn.authed = true;
      local_reply(conn, to, format_ok("authenticated"));
    } else {
      local_reply(conn, to, format_err(util::ErrorCode::kPermissionDenied,
                                       "bad auth token"));
    }
    return;
  }
  // Everything but PING requires AUTH first when a token is configured.
  // Refused commands never reach a shard — an unauthenticated client
  // cannot even fill a mailbox slot.
  if (!config_.auth_token.empty() && !conn.authed && verb != Verb::kPing) {
    local_reply(conn, to, format_err(util::ErrorCode::kPermissionDenied,
                                     "authenticate with AUTH <token>"));
    return;
  }

  if (env.shard >= n_shards) {
    local_reply(conn, to,
                format_err(util::ErrorCode::kInvalidArgument,
                           util::strfmt("shard %d out of range (0..%d)",
                                        env.shard, n_shards - 1)));
    return;
  }
  if (stop_.load()) {
    local_reply(conn, to, format_err(util::ErrorCode::kFailedPrecondition,
                                     "server shutting down"));
    return;
  }

  // SHUTDOWN always stops the whole daemon; DRAIN without an explicit
  // shard finishes every shard. Both fan out and answer once. Pending
  // unicast batches are flushed first so a pipelined SUBMIT ... DRAIN from
  // one connection reaches the shard in that order.
  if (verb == Verb::kShutdown || (verb == Verb::kDrain && env.shard < 0)) {
    flush_route_pending();
    fan_out(conn, to, verb);
    count(&ServeCounters::commands_routed);
    return;
  }

  // Unicast routing: explicit SHARD prefix wins; otherwise SUBMIT routes
  // by the row's tenant id and every other verb goes to shard 0.
  int shard_index = env.shard;
  if (shard_index < 0) {
    shard_index =
        verb == Verb::kSubmit && n_shards > 1
            ? static_cast<int>(tenant_of_csv_row(env.request.arg) %
                               static_cast<uint64_t>(n_shards))
            : 0;
  }
  conn.inflight += 1;
  io_->route_pending[static_cast<size_t>(shard_index)].push_back(
      Command{std::move(env.request), to});
}

// Pushes this tick's per-shard command batches, each under one mailbox
// lock. try_push_batch accepts a prefix, so per-connection order survives:
// a rejected command only ever has rejected commands after it.
void Server::flush_route_pending() {
  IoState& io = *io_;
  uint64_t routed = 0;
  uint64_t busy = 0;
  for (size_t k = 0; k < io.route_pending.size(); ++k) {
    auto& pending = io.route_pending[k];
    if (pending.empty()) {
      continue;
    }
    const size_t accepted = shards_[k]->mailbox->try_push_batch(&pending);
    routed += accepted;
    if (accepted < pending.size()) {
      const bool stopping = stop_.load() || shards_[k]->mailbox->closed();
      for (size_t i = accepted; i < pending.size(); ++i) {
        Command& cmd = pending[i];
        auto it = io.conns.find(cmd.to.conn_id);
        if (it == io.conns.end()) {
          continue;
        }
        Conn& conn = *it->second;
        if (conn.inflight > 0) {
          --conn.inflight;
        }
        if (stopping) {
          // Terminating, not overloaded: a BUSY here would invite the
          // client to retry against a server that will never answer.
          local_reply(conn, cmd.to,
                      format_err(util::ErrorCode::kFailedPrecondition,
                                 "server shutting down"));
        } else {
          // Admission queue full: explicit backpressure, never unbounded
          // buffering.
          local_reply(conn, cmd.to, format_busy(config_.limits.retry_after_ms));
          ++busy;
        }
      }
    }
    pending.clear();
  }
  if (routed > 0) {
    count(&ServeCounters::commands_routed, routed);
  }
  if (busy > 0) {
    count(&ServeCounters::busy_rejections, busy);
  }
}

// Immediate reply produced by the I/O thread itself (parse error, BUSY,
// shutdown refusals). Runs through the same ordering machinery as engine
// completions so pipelined clients still see request-order replies.
void Server::local_reply(Conn& conn, const ReplySlot& to,
                         std::string line) {
  deliver(conn, Completion{to, std::move(line)});
}

void Server::deliver(Conn& conn, const Completion& completion) {
  if (conn.dead) {
    return;
  }
  if (completion.to.http) {
    // The completion body is the concatenated per-shard blocks; prepend
    // the serving-layer block and close the exposition.
    const ServeCounters snap = counters();
    std::string body = util::strfmt(
        "# TYPE coda_serve_connections_active gauge\n"
        "coda_serve_connections_active %zu\n",
        io_ ? io_->conns.size() : size_t{0});
    for (const auto& [name, member] : kServeCounterMetrics) {
      body += util::strfmt("# TYPE %s counter\n%s %llu\n", name, name,
                           static_cast<unsigned long long>(snap.*member));
    }
    body += completion.line;
    body += "# EOF\n";
    http_reply(conn, "200 OK", kOpenMetricsType, body);
    return;
  }
  if (completion.to.has_cid) {
    // Correlated reply: written the moment it completes, even if plain
    // requests sent earlier are still in flight on another shard.
    enqueue_line(conn, true, completion.to.cid, completion.line);
  } else {
    conn.pending_ordered[completion.to.ordered_seq] = completion.line;
    flush_ordered(conn);
  }
  // No flush here: replies only accumulate in the outbuf. io_main flushes
  // every touched connection once per tick — with a pipelining client that
  // is one send(2) for a whole window of replies instead of one each.
}

void Server::flush_ordered(Conn& conn) {
  auto it = conn.pending_ordered.begin();
  while (it != conn.pending_ordered.end() &&
         it->first == conn.next_flush_seq) {
    enqueue_line(conn, false, 0, it->second);
    it = conn.pending_ordered.erase(it);
    ++conn.next_flush_seq;
  }
}

void Server::enqueue_line(Conn& conn, bool has_cid, uint64_t cid,
                          const std::string& line) {
  if (conn.dead) {
    return;
  }
  const size_t pending = conn.outbuf.size() - conn.outoff;
  if (pending + line.size() > kMaxOutbufBytes) {
    conn.dead = true;
    count(&ServeCounters::conn_dropped);
    return;
  }
  if (has_cid) {
    append_prefix(&conn.outbuf, cid);
  }
  conn.outbuf += line;
  conn.outbuf += '\n';
}

void Server::try_flush(Conn& conn) {
  if (conn.dead) {
    return;
  }
  while (conn.outoff < conn.outbuf.size()) {
    const ssize_t w =
        ::send(conn.fd, conn.outbuf.data() + conn.outoff,
               conn.outbuf.size() - conn.outoff, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      conn.dead = true;
      return;
    }
    conn.outoff += static_cast<size_t>(w);
  }
  if (conn.outoff >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outoff = 0;
  } else if (conn.outoff > (64u << 10)) {
    conn.outbuf.erase(0, conn.outoff);
    conn.outoff = 0;
  }
  update_write_interest(conn);
}

// Queues the connection's one HTTP/1.0 response; maybe_finish_conn closes
// the connection once it is flushed.
void Server::http_reply(Conn& conn, const char* status,
                        const char* content_type, const std::string& body) {
  conn.outbuf += util::strfmt(
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status, content_type, body.size());
  conn.outbuf += body;
  conn.http_sent = true;
  update_write_interest(conn);
}

void Server::update_write_interest(Conn& conn) {
  if (conn.dead || io_ == nullptr) {
    return;
  }
  const bool want_write = conn.outoff < conn.outbuf.size();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    io_->poller.mod(conn.fd, conn.id, !conn.read_closed, want_write);
  }
}

void Server::maybe_finish_conn(Conn& conn) {
  if (conn.dead) {
    return;
  }
  const bool flushed = conn.outoff >= conn.outbuf.size();
  if (conn.http_sent && flushed) {
    conn.dead = true;  // HTTP/1.0: one response, then close
    return;
  }
  if (conn.read_closed && flushed && conn.inflight == 0 &&
      conn.pending_ordered.empty()) {
    conn.dead = true;
  }
}

void Server::drop_conn(uint64_t conn_id) {
  IoState& io = *io_;
  auto it = io.conns.find(conn_id);
  if (it == io.conns.end()) {
    return;
  }
  io.poller.del(it->second->fd);
  ::close(it->second->fd);
  io.conns.erase(it);
}

// Shutdown epilogue: give every connection a short bounded window to take
// its remaining reply bytes, then close everything. Peers that are not
// reading see a clean close instead of a hang.
void Server::final_flush_and_close() {
  IoState& io = *io_;
  const auto deadline = SteadyClock::now() + std::chrono::seconds(1);
  while (SteadyClock::now() < deadline) {
    bool any_pending = false;
    for (auto& [id, conn] : io.conns) {
      if (conn->dead) {
        continue;
      }
      try_flush(*conn);
      if (!conn->dead && conn->outoff < conn->outbuf.size()) {
        any_pending = true;
      }
    }
    if (!any_pending) {
      break;
    }
    io.poller.wait(10, &io.events);
  }
  for (auto& [id, conn] : io.conns) {
    io.poller.del(conn->fd);
    ::close(conn->fd);
  }
  io.conns.clear();
}

}  // namespace coda::service
