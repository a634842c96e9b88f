// A codad shard's session and the two ways to build one. A ShardSession is
// a sim::Session plus its journal bookkeeping: the header, and
// `session_text` (the header and every accepted S-line, kept across journal
// truncations so that a SNAPSHOT can embed it). Every accepted SUBMIT, live
// or recovered, goes through accept.
//
//   - start_shard: a journal's session from virtual time zero, each entry
//     accepted at its recorded instant (a fresh shard has no entries);
//   - restore_shard: the session a snapshot captured, rebuilt by
//     state::restore_session, then the tail of the journal (which the
//     SNAPSHOT truncated to its header) accepted likewise.
//
// A journaled instant is after every event dispatched before it, so both
// drain to the report of the session that wrote the files, byte for byte.
#pragma once

#include <cstdint>
#include <string>

#include "service/journal.h"
#include "sim/experiment.h"
#include "util/result.h"

namespace coda::service {

struct ShardSession {
  sim::Session sim;
  SessionSpec spec;           // the header it was started or captured with
  std::string session_text;   // header + every accepted S-line
  size_t base_jobs = 0;       // jobs in the base trace
  uint64_t next_auto_id = 1;
  uint64_t snapshot_seq = 0;  // last snapshot taken or restored from
  double resume_vt = 0.0;     // pacing origin: the last recovered instant

  // Injects an accepted submission at `job.submit_time` and records it:
  // its S-line (with `csv_row`) in session_text, its id in next_auto_id.
  void accept(const workload::JobSpec& job, const std::string& csv_row);
  size_t accepted() const { return sim.submitted - base_jobs; }
};

// Starts `journal`'s session and accepts each of its entries. Fails on a
// base trace or entry that does not parse, or an entry reusing a job id.
util::Result<ShardSession> start_shard(const JournalSession& journal);

// Loads `snapshot_path`, rebuilds the session, then (when `journal_path`
// names an existing file) accepts the journal's post-snapshot tail. Fails
// on a tail entry at or before the snapshot instant — the journal and
// snapshot are from different truncation epochs — and on a tail entry
// whose job id the restored session already holds.
util::Result<ShardSession> restore_shard(const std::string& snapshot_path,
                                         const std::string& journal_path);

// restore_shard + finish: the report of the session the snapshot and
// journal tail describe, byte-identical to the uninterrupted session's.
// Its journal-only twin, replay_journal_file (journal.h), is load_journal
// + start_shard + finish.
util::Result<sim::ExperimentReport> replay_from_snapshot(
    const std::string& snapshot_path, const std::string& journal_path);

}  // namespace coda::service
