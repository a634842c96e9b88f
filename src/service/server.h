// codad's serving core: a live cluster controller around the deterministic
// sim::ClusterEngine, sharded N ways behind one epoll event loop.
//
// Threading model (one rule: the I/O thread never touches a simulator):
//   - one I/O thread runs a level-triggered epoll (poll fallback) loop over
//     the nonblocking listener, a wakeup fd, and every connection. It
//     accepts, frames lines, parses request envelopes, routes each command
//     to its shard's bounded mailbox, and flushes per-connection write
//     buffers. Clients may pipeline arbitrarily many requests; replies
//     without a CID are reordered back into request order, replies with a
//     CID are written the moment their shard completes them.
//   - N engine threads (--shards / CODA_SERVE_SHARDS), each owning an
//     independent ClusterEngine, mailbox, and journal. Between event
//     batches a shard drains its mailbox, answers queries from engine
//     state, and stages accepted SUBMITs; at the end of the batch the
//     journal is flushed ONCE (group commit), the staged jobs are
//     injected, and only then are the replies handed to the I/O thread —
//     an acknowledged SUBMIT is always durable.
//   - backpressure is explicit: a full shard mailbox is answered
//     `BUSY retry-after-ms=...` by the I/O thread alone, and a connection
//     whose write buffer outgrows its cap is dropped.
//
// Determinism (per shard): each shard runs a ShardSession (restore.h)
// around a sim::Session, the session run_experiment also builds and
// finishes; journal replay and snapshot restore rebuild that ShardSession
// itself (start_shard, restore_shard). An accepted SUBMIT is injected at
// Session::injection_instant(), strictly after every event the shard has
// dispatched and strictly before every event still queued, so a run that
// pre-posts it and a recovery that re-injects it at its journaled instant
// dispatch the same events, and DRAIN's
// Session::finish builds the same report bytes. tests/session_test.cpp
// pins live == replay == restore.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/event_loop.h"
#include "service/journal.h"
#include "service/mailbox.h"
#include "service/protocol.h"
#include "sim/experiment.h"
#include "util/result.h"

namespace coda::service {

// Per-process service limits, overridable via strict CODA_SERVE_* env knobs
// (shared parser with CODA_JOBS; malformed values warn and fall back).
struct ServiceLimits {
  int admission_capacity = 1024;  // CODA_SERVE_QUEUE: per-shard mailbox bound
  int max_connections = 64;       // CODA_SERVE_MAX_CONNS
  int max_line_bytes = 1 << 16;   // CODA_SERVE_MAX_LINE: framing limit
  int retry_after_ms = 100;       // advertised in BUSY responses
  int shards = 1;                 // CODA_SERVE_SHARDS: engine shard count

  static ServiceLimits from_env();
};

struct ServerConfig {
  SessionSpec session;          // policy + experiment config + base trace
  // Journal path stem: with 1 shard the journal lands at journal_path and
  // the report at report_path (default journal_path + ".report"); with N>1
  // shards, shard k journals to journal_path + ".shard<k>" and reports to
  // the matching ".shard<k>.report". Empty disables journaling.
  std::string journal_path;
  std::string report_path;      // single-shard only; empty: journal + ".report"
  // Listener: set exactly one. TCP binds 127.0.0.1 (port 0 = ephemeral,
  // resolved port available after start()).
  std::string unix_socket_path;
  int tcp_port = -1;
  // Shared secret (--auth-token / CODA_SERVE_TOKEN). When non-empty, a
  // connection must AUTH before anything but PING; GET /metrics answers
  // 401. Empty disables authentication.
  std::string auth_token;
  // --journal-fsync: group commits fsync (not just fflush) before SUBMITs
  // are acknowledged. Snapshot files are always fsynced before the journal
  // is truncated, independent of this knob.
  bool journal_fsync = false;
  // --restore: each shard resumes from the latest `<journal>.SNAP.<seq>`
  // plus the journal's tail, else from the whole journal replayed from
  // virtual time zero, and appends to the journal; only a shard with
  // neither file starts fresh. Files that fail to load make start() fail
  // before any journal is opened. Requires journaling.
  bool restore = false;
  // Automatic snapshot + journal compaction, checked between event batches
  // on each shard (0 disables a trigger; both off by default). A snapshot
  // is taken exactly like the SNAPSHOT verb — capture, fsync, truncate the
  // journal — once this much simulated time passed since the last one
  // (--snapshot-every-sim-hours / CODA_SERVE_SNAP_SIM_HOURS) or the
  // journal file outgrew this many MB (--snapshot-journal-mb /
  // CODA_SERVE_SNAP_JOURNAL_MB). Requires journaling; a failed attempt
  // disables further automatic snapshots on that shard (manual SNAPSHOT
  // still works).
  double snapshot_every_sim_hours = 0.0;
  double snapshot_journal_mb = 0.0;
  ServiceLimits limits;
};

// Monotonic serving-layer counters, visible in GET /metrics.
// `conn_rejected` is the accept-queue overflow signal: connections the
// daemon turned away with BUSY because max_connections was reached.
struct ServeCounters {
  uint64_t conn_accepted = 0;
  uint64_t conn_rejected = 0;   // over max_connections -> BUSY + close
  uint64_t conn_dropped = 0;    // protocol violation / write-buffer overflow
  uint64_t accept_errors = 0;   // accept(2) failures (EMFILE etc.)
  uint64_t commands_routed = 0; // commands handed to shard mailboxes
  uint64_t busy_rejections = 0; // commands bounced BUSY off a full mailbox
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Builds every shard's session, then binds the listener and spawns the
  // engine shards and the I/O thread. The horizon must be resolved (> 0).
  util::Status start();

  // Blocks until the server has shut down (SHUTDOWN verb or
  // request_shutdown) and joins every thread.
  void wait();

  // Initiates a graceful stop from outside the protocol (signal handlers
  // route here): drains every shard if needed, writes the final reports,
  // closes every connection. Thread-safe, idempotent, non-blocking.
  void request_shutdown();

  // True once every shard has drained.
  bool drained() const;
  // Serialized final report of shard `shard` (sim::serialize_report form);
  // empty before that shard drains. Byte-identical to what
  // replay_journal_file() of that shard's journal serializes to.
  std::string report_text(int shard = 0) const;
  int shard_count() const { return static_cast<int>(shards_.size()); }
  // Resolved TCP port (after start(), TCP listeners only).
  int tcp_port() const { return resolved_port_; }
  ServeCounters counters() const;

 private:
  struct Broadcast;
  struct Command;
  struct Completion;
  struct Conn;
  struct ReplySlot;
  struct Shard;

  void io_main();
  void engine_main(Shard& shard);
  void serve_batch(Shard& shard, std::vector<Command>* batch,
                   std::vector<Completion>* done);
  void handle_command(Shard& shard, Command& cmd,
                      std::vector<Completion>* done);
  void commit_staged(Shard& shard, std::vector<Completion>* done);
  // Captures a snapshot and truncates the shard's journal; returns the OK
  // payload text (seq, path, vt, sizes). Shared by the SNAPSHOT verb and
  // the automatic between-batches trigger.
  util::Result<std::string> take_snapshot(Shard& shard);
  void maybe_auto_snapshot(Shard& shard);
  void finish_broadcast(Broadcast& b, const ReplySlot& to, int shard,
                        std::string part, std::vector<Completion>* done);
  void do_drain(Shard& shard);
  void post_completions(std::vector<Completion>* done);
  void count(uint64_t ServeCounters::*counter, uint64_t n = 1);

  // ---- I/O-thread helpers (only ever called from io_main) ----
  void accept_ready();
  void flush_route_pending();
  void deliver_completions();
  void conn_readable(Conn& conn);
  void flush_conn(Conn& conn);
  void process_line(Conn& conn, std::string_view line);
  void route_command(Conn& conn, Envelope env);
  void fan_out(Conn& conn, const ReplySlot& to, Verb verb);
  void local_reply(Conn& conn, const ReplySlot& to, std::string line);
  void deliver(Conn& conn, const Completion& completion);
  void flush_ordered(Conn& conn);
  void enqueue_line(Conn& conn, bool has_cid, uint64_t cid,
                    const std::string& line);
  void try_flush(Conn& conn);
  void http_reply(Conn& conn, const char* status, const char* content_type,
                  const std::string& body);
  void update_write_interest(Conn& conn);
  void drop_conn(uint64_t conn_id);
  void maybe_finish_conn(Conn& conn);
  void handle_http_line(Conn& conn, std::string_view line);
  void final_flush_and_close();

  ServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  int listen_fd_ = -1;
  int resolved_port_ = -1;
  std::thread io_thread_;

  // Engine -> I/O completion channel (unbounded on purpose: every entry
  // answers a command already admitted through a bounded mailbox).
  std::mutex completion_mu_;
  std::vector<Completion> completions_;
  WakeupFd wakeup_;
  std::atomic<int> engines_running_{0};

  std::atomic<bool> stop_{false};
  mutable std::mutex report_mu_;
  std::vector<std::string> report_texts_;   // indexed by shard

  mutable std::mutex counter_mu_;
  ServeCounters counters_;

  // I/O-thread-only state (no locks): live connections by id.
  struct IoState;
  std::unique_ptr<IoState> io_;

  bool started_ = false;
};

}  // namespace coda::service
