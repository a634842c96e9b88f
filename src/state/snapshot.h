// Deterministic session snapshots: serialize a complete live simulation
// session (engine + scheduler + RNG streams + virtual clock + pending
// events) and reconstruct it so the resumed run reproduces the
// uninterrupted session's final report byte-identically.
//
// Container format (line-oriented text, see state/serde.h):
//
//   CODA_SNAPSHOT 3
//   meta <seq> <vt hexfloat> <dispatched> <accepted> <next_auto_id>
//   session_bytes <N>
//   <N raw bytes: a full journal text — header + S-lines — covering every
//    job the serialized state references. Opaque to this layer; the service
//    (or any caller) parses it with service::parse_journal and feeds the
//    resulting trace back into restore_session.>
//   <engine section   — sim::ClusterEngine::save_state>
//   <scheduler section — sched::Scheduler::save_state (policy-specific)>
//   manifest <n>
//   event <t hexfloat> <kind> <a> <b>     (n rows, (t, seq) ascending)
//   END
//
// A pending simulator event is nothing but its (kind, a, b) tag, so the
// manifest stores each live event's (time, tag) pair and restore_session
// re-posts the same tag (ClusterEngine::repost) once the restored session
// has checked it: the kind has a sink in this session, and the job or node
// it names is in the state that kind needs. Re-posting in manifest order
// reproduces the relative dispatch order of time ties (fresh insertion
// sequences ascend with the manifest).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.h"
#include "util/fields.h"
#include "util/result.h"

namespace coda::state {

struct SnapshotMeta {
  uint64_t seq = 0;             // snapshot sequence within the session
  double virtual_time = 0.0;    // simulator clock at capture
  uint64_t dispatched = 0;      // simulator dispatch counter at capture
  // Service-layer counters carried through restore (zero offline): SUBMITs
  // accepted so far and the daemon's next auto-assigned job id.
  uint64_t accepted = 0;
  uint64_t next_auto_id = 0;

  // The container's `meta` row.
  friend auto fields(util::FieldsOf<SnapshotMeta> auto& m) {
    return std::tie(m.seq, m.virtual_time, m.dispatched, m.accepted,
                    m.next_auto_id);
  }
};

// A parsed snapshot container. `session_text` is the embedded journal;
// `body` is the engine/scheduler/manifest tail, parsed by restore_session.
struct Snapshot {
  SnapshotMeta meta;
  std::string session_text;
  std::string body;
};

// Serializes a quiescent live session (no event mid-dispatch; the engine
// flushes its own dirty state).
util::Result<std::string> capture_snapshot(const SnapshotMeta& meta,
                                           std::string_view session_text,
                                           const sim::ClusterEngine& engine,
                                           const sched::Scheduler& scheduler);

// Parses the container (meta + embedded session + body). The body is
// validated structurally by restore_session, not here.
util::Result<Snapshot> parse_snapshot(std::string_view text);
util::Result<Snapshot> load_snapshot_file(const std::string& path);

// A reconstructed session, ready to resume, plus the meta it was captured
// with.
struct RestoredSession : sim::Session {
  SnapshotMeta meta;
};

// Rebuilds the live session a snapshot captured. `policy`/`config` must be
// the session's own (from the embedded journal header; horizon_s resolved)
// and `trace` the combined job list of the embedded session
// (service::journal_trace) — every job id the serialized state references
// must appear in it. On return the engine's clock, state and event queue
// match the captured session exactly; inject / finish continue it
// bit-for-bit.
util::Result<RestoredSession> restore_session(
    const Snapshot& snapshot, sim::Policy policy,
    const sim::ExperimentConfig& config,
    const std::vector<workload::JobSpec>& trace);

// Durably writes `bytes` to `path`: write to a temp sibling, fsync, rename.
// A crash mid-write leaves the previous file (or nothing), never a torn
// snapshot.
util::Status write_file_durable(const std::string& path,
                                std::string_view bytes);

// True when `path` names an existing file.
bool file_exists(const std::string& path);

// Scans `prefix`'s directory for files named `<prefix><seq>` (decimal
// digits only) and returns the path with the largest sequence; kNotFound
// when none exist, kIoError when the directory cannot be read.
util::Result<std::string> find_latest_snapshot(const std::string& prefix);

}  // namespace coda::state
