#include "service/restore.h"

#include <algorithm>
#include <utility>

#include "state/snapshot.h"
#include "util/strings.h"

namespace coda::service {

void ShardSession::accept(const workload::JobSpec& job,
                          const std::string& csv_row) {
  sim.inject(job, job.submit_time);
  session_text += format_submit_entry(job.submit_time, job.id, csv_row);
  next_auto_id = std::max(next_auto_id, job.id + 1);
}

util::Result<ShardSession> start_shard(const JournalSession& journal) {
  auto trace = journal_trace(journal);
  if (!trace.ok()) {
    return trace.error();
  }
  ShardSession out;
  out.spec = journal.session;
  out.session_text = serialize_session_header(journal.session);
  out.base_jobs = trace->size() - journal.submissions.size();
  const std::vector<workload::JobSpec> base(
      trace->begin(),
      trace->begin() + static_cast<std::ptrdiff_t>(out.base_jobs));
  out.sim = sim::Session::start(journal.session.policy, base,
                                journal.session.config);
  for (const workload::JobSpec& job : base) {
    out.next_auto_id = std::max(out.next_auto_id, job.id + 1);
  }
  for (size_t i = 0; i < journal.submissions.size(); ++i) {
    out.accept((*trace)[out.base_jobs + i], journal.submissions[i].csv_row);
    out.resume_vt = journal.submissions[i].virtual_time;
  }
  return out;
}

util::Result<ShardSession> restore_shard(const std::string& snapshot_path,
                                         const std::string& journal_path) {
  auto snap = state::load_snapshot_file(snapshot_path);
  if (!snap.ok()) {
    return snap.error();
  }
  auto journal = parse_journal(snap->session_text);
  if (!journal.ok()) {
    return util::Error{journal.error().code,
                       "snapshot's embedded session: " +
                           journal.error().message};
  }
  const size_t captured = journal->submissions.size();

  // The truncated journal's tail: submissions acknowledged after the
  // snapshot. Missing file = nothing was accepted after the capture.
  if (!journal_path.empty() && state::file_exists(journal_path)) {
    auto tail = load_journal(journal_path);
    if (!tail.ok()) {
      return tail.error();
    }
    for (const JournalEntry& entry : tail->submissions) {
      if (entry.virtual_time <= snap->meta.virtual_time) {
        return util::Error{
            util::ErrorCode::kFailedPrecondition,
            util::strfmt("journal entry for job %llu at vt %g predates the "
                         "snapshot (vt %g): journal and snapshot are from "
                         "different truncation epochs",
                         static_cast<unsigned long long>(entry.job_id),
                         entry.virtual_time, snap->meta.virtual_time)};
      }
      journal->submissions.push_back(entry);
    }
  }
  // Refuses a tail entry reusing an id the snapshot's session holds.
  auto trace = journal_trace(*journal);
  if (!trace.ok()) {
    return trace.error();
  }
  auto restored = state::restore_session(*snap, journal->session.policy,
                                         journal->session.config, *trace);
  if (!restored.ok()) {
    return restored.error();
  }

  ShardSession out;
  out.sim = std::move(*restored);
  out.spec = std::move(journal->session);
  out.session_text = std::move(snap->session_text);
  out.base_jobs = trace->size() - journal->submissions.size();
  out.next_auto_id = snap->meta.next_auto_id;
  out.snapshot_seq = snap->meta.seq;
  out.resume_vt = snap->meta.virtual_time;
  for (size_t i = captured; i < journal->submissions.size(); ++i) {
    out.accept((*trace)[out.base_jobs + i], journal->submissions[i].csv_row);
  }
  return out;
}

util::Result<sim::ExperimentReport> replay_journal_file(
    const std::string& path) {
  auto journal = load_journal(path);
  if (!journal.ok()) {
    return journal.error();
  }
  auto shard = start_shard(*journal);
  if (!shard.ok()) {
    return shard.error();
  }
  return shard->sim.finish();
}

util::Result<sim::ExperimentReport> replay_from_snapshot(
    const std::string& snapshot_path, const std::string& journal_path) {
  auto shard = restore_shard(snapshot_path, journal_path);
  if (!shard.ok()) {
    return shard.error();
  }
  return shard->sim.finish();
}

}  // namespace coda::service
