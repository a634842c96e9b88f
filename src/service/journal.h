// Deterministic command journal: the daemon's write-ahead record of every
// accepted state-changing command, sufficient to re-execute the whole live
// session offline and reproduce its ExperimentReport byte-identically.
//
// Format (line-oriented text):
//
//   CODA_JOURNAL v2
//   policy <FIFO|DRF|CODA>
//   nodes <int>
//   metrics_period <hexfloat>
//   frag_min_cpus <int>
//   noise_stddev <hexfloat>
//   noise_seed <u64>
//   horizon <hexfloat>
//   drain_slack <hexfloat>
//   speedup <hexfloat>
//   config.<field> <value>        (one line per remaining config field)
//   ...
//   base_trace_bytes <N>
//   <N raw bytes: the base trace CSV exactly as the daemon parsed it>
//   S <hexfloat virtual-time> <job-id> <raw SUBMIT csv row>
//   ...
//   # free-form comment lines are ignored
//
// The `config.` block records every sim::ExperimentConfig field the nine
// legacy keys above don't cover: the full cluster node shape (incl.
// CPU-only nodes and the MBA fraction), record_events /
// incremental_recompute, sched::RetryPolicy, sim::FailureConfig and every
// core::CodaConfig / AllocatorConfig / EliminatorConfig knob. Doubles are
// hexfloats, bools are 0/1, the allocator search mode is its enum integer
// (the header is written through state::serde's Writer). The single
// source of truth for the seven legacy config keys and the block is the
// CODA_EXPERIMENT_CONFIG_FIELDS table in sim/experiment.h: writer, parser
// and the report cache key all expand it, the v2 parser rejects unknown
// and repeated keys AND headers missing any `config.` field, and
// tests/config_coverage_test.cpp trips at compile time when a config
// struct grows a field — a knob can never be dropped silently again. A
// header that parses must also pass sim::validate_config, so a config the
// engine would abort on is a parse error.
//
// Three invariants make replay exact:
//  1. Text is the source of truth. The daemon parses the base trace and
//     every SUBMIT row from text and journals that text verbatim; replay
//     parses the same bytes through the same parser, so no double ever
//     round-trips through a lossy re-serialization.
//  2. Injection instants are exact. Virtual times are hexfloats, so the
//     replay injects at bit-identical times, and the paced server only
//     injects at fully-caught-up instants (see server.cpp), which makes
//     pre-posted replay arrivals dispatch in the same order.
//  3. The header is the complete ExperimentConfig. A codad started with a
//     non-default retry policy, failure injection, or any CodaConfig
//     ablation replays under exactly those knobs: the live shard and the
//     replay both build their session through start_shard (restore.h),
//     which pre-posts the same failure outages before any entry.
//
// Backward compatibility: v1 files (which recorded only the nine legacy
// keys) still parse; every config field takes its library default, which
// is exactly what the v1 daemon ran with.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "util/result.h"
#include "workload/job.h"

namespace coda::service {

// Everything needed to re-run a session offline.
struct SessionSpec {
  sim::Policy policy = sim::Policy::kCoda;
  sim::ExperimentConfig config;   // horizon_s must be resolved (> 0)
  double speedup = 3600.0;        // sim-seconds per wall-second (pacing)
  std::string base_trace_csv;     // verbatim CSV text (may be empty)
};

struct JournalEntry {
  double virtual_time = 0.0;      // injection instant
  uint64_t job_id = 0;            // id assigned by the daemon
  std::string csv_row;            // the SUBMIT row, verbatim
};

struct JournalSession {
  SessionSpec session;
  std::vector<JournalEntry> submissions;
};

// Append-only journal writer with group commit: append_submit() buffers
// (libc stream buffer, no syscall-per-append), flush() forces everything
// buffered to the OS once per drained command batch. The serving loop
// replies to a SUBMIT only after the flush that covers it, so a crashed
// daemon leaves a replayable prefix of exactly the acknowledged entries.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Replaces `path` with the session header in one rename (temp file,
  // fsync, rename: state::write_file_durable), so a crash leaves the old
  // file or the whole header, never a torn one; then opens it to append.
  static util::Result<JournalWriter> open(const std::string& path,
                                          const SessionSpec& session);

  // Opens an existing journal for appending without touching its contents.
  // Used on --restore: the journal already carries the header and the
  // entries the recovered session replayed; the daemon keeps appending.
  static util::Result<JournalWriter> open_append(const std::string& path);

  // Buffers one submission entry; durable only after the next flush().
  // A short write poisons the writer (no appends after a torn line).
  util::Status append_submit(double virtual_time, uint64_t job_id,
                             const std::string& csv_row);
  // Group commit: pushes every buffered append to the OS. A failure
  // poisons the writer — entries buffered since the last successful flush
  // must be treated as lost.
  util::Status flush();
  // Appends a '#' comment line (ignored by the parser), flushed.
  void note(const std::string& comment);
  void close();
  bool is_open() const { return file_ != nullptr; }

  // When enabled, every successful flush() also fsyncs the file descriptor
  // (--journal-fsync): an acknowledged SUBMIT survives power loss, not just
  // a daemon crash. Off by default — fflush-to-OS matches the v1 behavior.
  void set_fsync(bool enabled) { fsync_ = enabled; }
  bool fsync_enabled() const { return fsync_; }

  // Current journal size in bytes (header + appends, buffered included);
  // 0 when closed. Drives --snapshot-journal-mb auto-compaction.
  uint64_t bytes() const {
    if (file_ == nullptr) {
      return 0;
    }
    const long pos = std::ftell(file_);
    return pos > 0 ? static_cast<uint64_t>(pos) : 0;
  }

 private:
  std::FILE* file_ = nullptr;
  bool fsync_ = false;
};

// The exact v2 header text JournalWriter::open writes for `session`
// (magic through the base trace bytes). Exposed so tests can assert the
// round trip without a file: parse_journal(serialize_session_header(s))
// must reproduce every config field bit-for-bit.
std::string serialize_session_header(const SessionSpec& session);

// The exact one-line text append_submit writes for an entry, '\n' included.
// ShardSession::accept appends these to the session blob a SNAPSHOT embeds
// (header + every accepted entry), so the embedded text is byte-identical
// to what an untruncated journal would contain.
std::string format_submit_entry(double virtual_time, uint64_t job_id,
                                const std::string& csv_row);

// Parses a journal file (header, base trace, submissions). Accepts v2 and,
// for journals from the previous release, v1 (config fields default). An
// entry's virtual time must be finite and >= 0.
util::Result<JournalSession> load_journal(const std::string& path);
util::Result<JournalSession> parse_journal(const std::string& text);

// Builds the combined trace start_shard and restore_shard hand the
// session: base trace first (submit order preserved), then each journaled
// submission with its id and exact virtual-time submit instant. Refuses an
// entry whose id the base trace or an earlier entry holds.
util::Result<std::vector<workload::JobSpec>> journal_trace(
    const JournalSession& journal);

// Re-executes a journal's session offline: load_journal, then the
// recovery path itself (start_shard and Session::finish, in restore.cpp).
// For any journal produced by a live codad session, the returned report
// serializes byte-identically to the report the daemon wrote at drain.
util::Result<sim::ExperimentReport> replay_journal_file(
    const std::string& path);

}  // namespace coda::service
