// Serve stage: the workload's job stream sent live to an in-process
// service::Server (CODA, journaling on with group commit and fflush, no
// fsync) over one loopback TCP connection.
//
// The load generator is open loop: one thread, one connection, poll-based
// send and receive, CID-pipelined. Each SUBMIT row is sent when its submit
// time, scaled by the session speedup, comes due; every 4th command is a
// STATUS for the most recently acknowledged id, routed to that job's shard.
// Tenant-mod routing of SUBMITs is left to the server. Latency is measured
// from the moment a command was due to its reply, so a stall is charged to
// every command queued behind it. The session ends with DRAIN and SHUTDOWN.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "service/server.h"

namespace perfbench {

// Every serve session uses 2 shards and lasts 7 wall seconds: the speedup is
// the workload's serve horizon over this window.
constexpr int kServeShards = 2;
constexpr double kServeWindowS = 7.0;

struct ServeOutcome {
  std::vector<double> submit_ms;  // SUBMIT latency from due time, per OK
  std::vector<double> status_ms;  // STATUS latency from due time, per OK
  std::vector<double> lag_ms;     // send time minus due time, per command
  double drain_ms = 0.0;
  coda::service::ServeCounters counters;
  uint64_t journal_entry_bytes = 0;  // S-lines across every shard journal
  // Every request byte sent, and the SUBMIT rows, for the service-layer replay.
  std::string sent_bytes;
  std::vector<std::string> rows;
};

// Runs one live session on the stream's first `serve_horizon_s` and checks
// each shard's journal replay against that shard's live report. Commands
// answered ERR/BUSY or left unanswered, and mismatching shards, count as
// failed operations.
ServeOutcome run_serve(const Workload& workload,
                       const std::vector<coda::workload::JobSpec>& trace,
                       const std::string& work_dir, Result* result);

// Times the exact bytes and rows a session sent through LineReader +
// parse_envelope, job_from_csv_row and a JournalWriter on a scratch file
// (flush with and without fsync), and adds the service.* per-op metrics.
void service_layer_replay(const ServeOutcome& outcome,
                          const std::string& work_dir, Result* result);

// True iff replaying the journal at `path` serializes to `report_text`.
bool journal_matches(const std::string& path, const std::string& report_text);

}  // namespace perfbench
