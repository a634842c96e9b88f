#include "state/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "simcore/event_tags.h"
#include "state/serde.h"
#include "util/parse.h"
#include "util/strings.h"

namespace coda::state {

namespace {

// v3: the engine stats line dropped v2's four parallel-flush counters.
constexpr uint64_t kVersion = 3;

util::Error precondition(const std::string& msg) {
  return util::Error{util::ErrorCode::kFailedPrecondition, msg};
}

}  // namespace

util::Result<std::string> capture_snapshot(const SnapshotMeta& meta,
                                           std::string_view session_text,
                                           const sim::ClusterEngine& engine,
                                           const sched::Scheduler& scheduler) {
  std::vector<simcore::PendingEvent> pending;
  engine.sim().pending_events(&pending);

  Writer w;
  w.line("CODA_SNAPSHOT", kVersion);
  w.line("meta", fields(meta));
  w.line("session_bytes", session_text.size());
  w.raw(session_text);
  engine.save_state(&w);
  scheduler.save_state(&w);
  w.line("manifest", pending.size());
  for (const simcore::PendingEvent& e : pending) {
    w.line("event", e.t, e.tag.kind, e.tag.a, e.tag.b);
  }
  w.line("END");
  return w.take();
}

util::Result<Snapshot> parse_snapshot(std::string_view text) {
  Reader r(text);
  if (r.expect("CODA_SNAPSHOT") && r.u64() != kVersion && r.ok()) {
    r.fail("unsupported snapshot version");
  }
  Snapshot snap;
  r.expect("meta");
  r.read(fields(snap.meta));
  r.expect("session_bytes");
  const uint64_t n = r.u64();
  snap.session_text = std::string(r.bytes(n));
  if (auto status = r.status(); !status.ok()) {
    return status.error();
  }
  snap.body = std::string(r.remainder());
  return snap;
}

util::Result<Snapshot> load_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Error{util::ErrorCode::kNotFound,
                       "cannot open snapshot: " + path};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_snapshot(buffer.str());
}

util::Result<RestoredSession> restore_session(
    const Snapshot& snapshot, sim::Policy policy,
    const sim::ExperimentConfig& config,
    const std::vector<workload::JobSpec>& trace) {
  sched::SpecMap specs;
  for (const workload::JobSpec& spec : trace) {
    if (!specs.emplace(spec.id, spec).second) {
      return precondition(util::strfmt(
          "duplicate job id %llu in the restore trace",
          static_cast<unsigned long long>(spec.id)));
    }
  }

  RestoredSession out;
  out.meta = snapshot.meta;
  out.policy = policy;
  out.config = config;
  out.scheduler = sim::make_policy_scheduler(policy, config);
  out.engine = std::make_unique<sim::ClusterEngine>(
      config.engine, out.scheduler.scheduler.get(), /*restore_mode=*/true);
  out.engine->sim().restore_clock(snapshot.meta.virtual_time,
                                  snapshot.meta.dispatched);

  Reader r(snapshot.body);
  if (auto status = out.engine->load_state(&r, specs); !status.ok()) {
    return status.error();
  }
  out.submitted = out.engine->records().size();
  out.scheduler.scheduler->load_state(&r, specs);

  // The manifest, read twice. First its shape, on a copy of the reader:
  // every event at or after the snapshot's virtual time, and at most one
  // live entry per key. Then each entry against the restored session, in
  // serialized ((t, seq) ascending) order: its kind must have a sink in
  // this session (the engine's five, the policy's retry, CODA's ticks
  // while they run), and its arguments must name a job or node in the
  // state that kind needs. Only then is its tag re-posted; the fresh
  // insertion sequences ascend with the manifest, so relative order under
  // time ties matches the captured queue. An event in the simulated past,
  // a second live entry for one key, or one naming a job or node the
  // restored state does not hold (or holds in another state) would abort
  // the engine (or silently run twice) when it is posted or when it fires.
  r.expect("manifest");
  const uint64_t n = r.u64();
  sim::ClusterEngine& engine = *out.engine;
  double t = 0.0;
  uint32_t kind = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  const auto next_event = [&](Reader& from) {
    return from.expect("event") && from.read(t, kind, a, b);
  };
  {
    // One live entry per key: a job's arrival, finish or retry, each periodic
    // tick, and a tuning tick's (job, generation); a migrated job leaves a
    // stale tuning tick of its old generation behind. Outages are not keyed:
    // schedule_failures posts a node's whole outage schedule up front.
    std::set<std::tuple<uint32_t, uint64_t, uint64_t>> live;
    Reader shape = r;
    for (uint64_t i = 0; i < n && next_event(shape); ++i) {
      if (!(t >= engine.sim().now())) {
        shape.fail("manifest event before the snapshot's virtual time");
        break;
      }
      const bool per_job = kind == simcore::kTagArrival ||
                           kind == simcore::kTagJobFinish ||
                           kind == simcore::kTagRetryResubmit ||
                           kind == simcore::kTagTuningTick;
      if (kind != simcore::kTagNodeFail && kind != simcore::kTagNodeRecover &&
          !live.emplace(kind, per_job ? a : 0,
                        kind == simcore::kTagTuningTick ? b : 0)
               .second) {
        shape.fail(util::strfmt("manifest repeats a live entry (kind %u, %llu)",
                                kind, static_cast<unsigned long long>(a)));
        break;
      }
    }
    if (auto status = shape.status(); !status.ok()) {
      return status.error();
    }
  }
  for (uint64_t i = 0; i < n && r.ok() && next_event(r); ++i) {
    if (engine.sim().sink(kind) == nullptr) {
      r.fail(util::strfmt(
          "manifest entry of event kind %u has no owner in this session",
          kind));
      break;
    }
    switch (kind) {
      case simcore::kTagArrival: {
        const sim::JobTable::Slot* job = engine.records().find(a);
        if (job == nullptr) {
          r.fail("arrival manifest entry references an unknown job");
          break;
        }
        // A job arrives once. One that is pending or running, or has
        // started, completed or been abandoned, already arrived.
        if (job->pending() || job->running() ||
            job->record.first_start_time >= 0.0 || job->record.completed ||
            job->record.abandoned) {
          r.fail("arrival manifest entry references a job that already "
                 "arrived");
        }
        break;
      }
      case simcore::kTagJobFinish:
        if (!engine.is_running(a)) {
          r.fail("finish manifest entry references a job that is not "
                 "running");
        }
        break;
      case simcore::kTagNodeFail:
      case simcore::kTagNodeRecover:
        if (a >= engine.cluster().node_count()) {
          r.fail("outage manifest entry references an unknown node");
        }
        break;
      case simcore::kTagRetryResubmit:
        // A retry resubmits a job in retry backoff: one the engine holds a
        // record for, evicted back to pending, not running, and not yet in
        // the policy's queue.
        if (engine.records().find(a) == nullptr) {
          r.fail("retry manifest entry references an unknown job");
        } else if (!engine.is_pending(a) || engine.is_running(a) ||
                   out.scheduler.scheduler->queued(a)) {
          r.fail("retry manifest entry references a job not in retry "
                 "backoff");
        }
        break;
    }
    if (r.ok()) {
      engine.repost(t, simcore::EventTag{kind, a, b});
    }
  }
  r.expect("END");
  if (auto status = r.status(); !status.ok()) {
    return status.error();
  }
  return out;
}

util::Status write_file_durable(const std::string& path,
                                std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot create " + tmp};
  }
  const bool wrote =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                           bytes.size();
  const bool synced = wrote && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!synced) {
    std::remove(tmp.c_str());
    return util::Error{util::ErrorCode::kIoError,
                       "short write to " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Error{util::ErrorCode::kIoError,
                       "cannot rename " + tmp + " to " + path};
  }
  return util::Status::Ok();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

util::Result<std::string> find_latest_snapshot(const std::string& prefix) {
  const size_t slash = prefix.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : prefix.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? prefix : prefix.substr(slash + 1);

  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot open directory " + dir};
  }
  bool found = false;
  uint64_t best_seq = 0;
  std::string best_name;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0) {
      continue;
    }
    unsigned long long seq = 0;
    if (util::parse_number(std::string_view(name).substr(base.size()),
                           &seq) != util::ParseStatus::kOk) {
      continue;
    }
    if (!found || seq > best_seq) {
      found = true;
      best_seq = seq;
      best_name = name;
    }
  }
  closedir(d);
  if (!found) {
    return util::Error{util::ErrorCode::kNotFound,
                       "no snapshot matches " + prefix};
  }
  return dir + "/" + best_name;
}

}  // namespace coda::state
