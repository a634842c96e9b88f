#include "sim/report_io.h"

#include <algorithm>

#include "state/serde.h"
#include "util/csv.h"
#include "util/strings.h"

namespace coda::sim {

util::Status save_report_csv(const ExperimentReport& report,
                             const std::string& directory,
                             const std::string& prefix) {
  const std::string base = directory + "/" + prefix;

  // ---- summary ----
  util::CsvDocument summary;
  summary.header = {"scheduler",       "submitted",
                    "completed",       "horizon_s",
                    "gpu_active_rate", "gpu_util_active",
                    "gpu_util_overall", "cpu_active_rate",
                    "cpu_util_active", "frag_rate",
                    "frag_case2_rate", "gpu_active_when_queued",
                    "preemptions",     "migrations",
                    "mba_throttles",   "core_halvings",
                    "abandoned",       "node_failures",
                    "evictions",       "restarts",
                    "gpu_goodput",     "cpu_goodput"};
  summary.rows.push_back({
      report.scheduler,
      util::strfmt("%zu", report.submitted),
      util::strfmt("%zu", report.completed),
      util::strfmt("%.1f", report.horizon_s),
      util::strfmt("%.4f", report.gpu_active_rate),
      util::strfmt("%.4f", report.gpu_util_active),
      util::strfmt("%.4f", report.gpu_util_overall),
      util::strfmt("%.4f", report.cpu_active_rate),
      util::strfmt("%.4f", report.cpu_util_active),
      util::strfmt("%.4f", report.frag_rate),
      util::strfmt("%.4f", report.frag_case2_rate),
      util::strfmt("%.4f", report.gpu_active_when_queued),
      util::strfmt("%d", report.preemptions),
      util::strfmt("%d", report.migrations),
      util::strfmt("%d", report.eliminator_stats.mba_throttles),
      util::strfmt("%d", report.eliminator_stats.core_halvings),
      util::strfmt("%zu", report.abandoned),
      util::strfmt("%d", report.node_failures),
      util::strfmt("%d", report.evictions),
      util::strfmt("%d", report.restarts),
      util::strfmt("%.4f", report.gpu_goodput),
      util::strfmt("%.4f", report.cpu_goodput),
  });
  if (auto status = util::write_csv_file(base + "_summary.csv", summary);
      !status.ok()) {
    return status;
  }

  // ---- time series (all sampled on the same metric ticks) ----
  util::CsvDocument series;
  series.header = {"t", "gpu_active", "gpu_util", "cpu_active", "cpu_util"};
  const size_t n = report.gpu_active_series.size();
  for (size_t i = 0; i < n; ++i) {
    series.rows.push_back({
        util::strfmt("%.1f", report.gpu_active_series.at(i).t),
        util::strfmt("%.4f", report.gpu_active_series.at(i).value),
        util::strfmt("%.4f", report.gpu_util_series.at(i).value),
        util::strfmt("%.4f", report.cpu_active_series.at(i).value),
        util::strfmt("%.4f", report.cpu_util_series.at(i).value),
    });
  }
  if (auto status = util::write_csv_file(base + "_series.csv", series);
      !status.ok()) {
    return status;
  }

  // ---- per-job outcomes ----
  util::CsvDocument jobs;
  jobs.header = {"job",        "kind",       "tenant",     "submit_s",
                 "queue_s",    "processing_s", "latency_s", "preempts",
                 "final_cpus", "completed",  "evictions",  "restarts",
                 "abandoned",  "wasted_core_s", "wasted_gpu_s"};
  for (const auto& record : report.records) {
    const double processing =
        record.completed ? record.finish_time - record.first_start_time
                         : -1.0;
    jobs.rows.push_back({
        util::strfmt("%llu",
                     static_cast<unsigned long long>(record.spec.id)),
        workload::to_string(record.spec.kind),
        util::strfmt("%u", record.spec.tenant),
        util::strfmt("%.1f", record.submit_time),
        util::strfmt("%.1f", record.queue_time_total),
        util::strfmt("%.1f", processing),
        util::strfmt("%.1f", record.end_to_end_latency()),
        util::strfmt("%d", record.preempt_count),
        util::strfmt("%d", record.final_cpus),
        record.completed ? "1" : "0",
        util::strfmt("%d", record.evict_count),
        util::strfmt("%d", record.restart_count),
        record.abandoned ? "1" : "0",
        util::strfmt("%.1f", record.wasted_core_s),
        util::strfmt("%.1f", record.wasted_gpu_s),
    });
  }
  return util::write_csv_file(base + "_jobs.csv", jobs);
}

// ---------------------------------------------------- full-report text form

namespace {

constexpr const char* kMagic = "CODA_REPORT";

// Caps every count-driven reserve: a corrupt count must not allocate before
// the values it promises run out.
constexpr uint64_t kMaxReserve = 1u << 20;

// Appends "<n> v1 ... vn" to the open line.
void add_doubles(state::Writer& w, const std::vector<double>& values) {
  w.add(values.size());
  for (double v : values) {
    w.add(v);
  }
}

void read_doubles(state::Reader& r, std::vector<double>* out) {
  const uint64_t n = r.u64();
  out->reserve(std::min(n, kMaxReserve));
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    out->push_back(r.f64());
  }
}

void write_series(state::Writer& w, const char* name,
                  const util::TimeSeries& series) {
  w.add("series", name, series.size());
  for (const auto& p : series.points()) {
    w.add(p.t, p.value);
  }
  w.end_line();
}

void read_series(state::Reader& r, const char* name, util::TimeSeries* out) {
  if (r.expect("series") && r.token() != name) {
    r.fail(std::string("expected series '") + name + "'");
  }
  const uint64_t n = r.u64();
  out->reserve(std::min(n, kMaxReserve));
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    const double t = r.f64();
    const double v = r.f64();
    // TimeSeries::add asserts ascending timestamps; corrupt input must
    // surface as a parse error instead.
    if (out->size() > 0 && !(t >= out->at(out->size() - 1).t)) {
      r.fail("series '" + std::string(name) + "' is not time-ordered");
    }
    if (r.ok()) {
      out->add(t, v);
    }
  }
}

void add_spec(state::Writer& w, const workload::JobSpec& spec) {
  w.add(spec.id, spec.tenant, spec.kind, spec.submit_time, spec.model,
        spec.train_config.nodes, spec.train_config.gpus_per_node,
        spec.train_config.batch_size, spec.train_config.net_gbps,
        spec.iterations, spec.requested_cpus, spec.hints.category_known,
        spec.hints.pipelined, spec.hints.large_weights,
        spec.hints.complex_prep, spec.cpu_cores, spec.cpu_work_core_s,
        spec.mem_bw_gbps, spec.bw_bound_fraction, spec.llc_mb,
        spec.user_facing, spec.checkpoint_interval_s,
        spec.checkpoint_overhead_s);
}

workload::JobSpec read_spec(state::Reader& r) {
  workload::JobSpec spec;
  spec.id = r.u64();
  spec.tenant = static_cast<cluster::TenantId>(r.u64());
  spec.kind = static_cast<workload::JobKind>(r.i32());
  spec.submit_time = r.f64();
  spec.model = static_cast<perfmodel::ModelId>(r.i32());
  spec.train_config.nodes = r.i32();
  spec.train_config.gpus_per_node = r.i32();
  spec.train_config.batch_size = r.i32();
  spec.train_config.net_gbps = r.f64();
  spec.iterations = r.f64();
  spec.requested_cpus = r.i32();
  spec.hints.category_known = r.b();
  spec.hints.pipelined = r.b();
  spec.hints.large_weights = r.b();
  spec.hints.complex_prep = r.b();
  spec.cpu_cores = r.i32();
  spec.cpu_work_core_s = r.f64();
  spec.mem_bw_gbps = r.f64();
  spec.bw_bound_fraction = r.f64();
  spec.llc_mb = r.f64();
  spec.user_facing = r.b();
  spec.checkpoint_interval_s = r.f64();
  spec.checkpoint_overhead_s = r.f64();
  return spec;
}

}  // namespace

std::string serialize_report(const ExperimentReport& report) {
  state::Writer w;
  // Rough pre-size: ~64 tokens per record line dominates.
  w.reserve(256 + report.records.size() * 320);
  w.line(kMagic, kReportFormatVersion);
  w.line("scheduler", report.scheduler);
  w.line("counts", report.submitted, report.completed,
         report.events_dispatched, report.preemptions, report.migrations,
         report.abandoned, report.node_failures, report.evictions,
         report.restarts);
  w.line("scalars", report.horizon_s, report.gpu_active_rate,
         report.gpu_util_active, report.gpu_util_overall,
         report.cpu_active_rate, report.cpu_util_active, report.frag_rate,
         report.frag_case2_rate, report.gpu_active_when_queued,
         report.frag_when_queued, report.queued_time_fraction,
         report.busy_gpu_s, report.busy_core_s, report.wasted_gpu_s,
         report.wasted_core_s, report.gpu_goodput, report.cpu_goodput);
  const auto& elim = report.eliminator_stats;
  w.line("eliminator", elim.checks, elim.nodes_over_threshold,
         elim.mba_throttles, elim.core_halvings, elim.releases);

  w.add("gpu_queue_times");
  add_doubles(w, report.gpu_queue_times);
  w.end_line();
  w.add("cpu_queue_times");
  add_doubles(w, report.cpu_queue_times);
  w.end_line();

  w.line("tenants", report.queue_by_tenant.size());
  for (const auto& [tenant, times] : report.queue_by_tenant) {
    w.add("tenant", tenant);
    add_doubles(w, times);
    w.end_line();
  }

  w.line("records", report.records.size());
  for (const auto& record : report.records) {
    add_spec(w, record.spec);
    w.add(record.submit_time, record.first_start_time, record.finish_time,
          record.queue_time_total, record.preempt_count, record.final_cpus,
          record.completed, record.evict_count, record.restart_count,
          record.abandoned, record.busy_core_s, record.busy_gpu_s,
          record.wasted_core_s, record.wasted_gpu_s);
    w.end_line();
  }

  w.line("tuning_outcomes", report.tuning_outcomes.size());
  for (const auto& outcome : report.tuning_outcomes) {
    w.add(outcome.job, outcome.model, outcome.requested_cpus,
          outcome.start_cpus, outcome.final_cpus, outcome.profile_steps);
    w.end_line();
  }

  write_series(w, "gpu_active", report.gpu_active_series);
  write_series(w, "gpu_util", report.gpu_util_series);
  write_series(w, "cpu_active", report.cpu_active_series);
  write_series(w, "cpu_util", report.cpu_util_series);
  w.line("end");
  return w.take();
}

util::Result<ExperimentReport> deserialize_report(std::string_view text) {
  state::Reader r(text);
  if (r.expect(kMagic) && r.i32() != kReportFormatVersion && r.ok()) {
    r.fail("format version mismatch");
  }

  ExperimentReport report;
  r.expect("scheduler");
  report.scheduler = std::string(r.token());
  r.expect("counts");
  report.submitted = r.u64();
  report.completed = r.u64();
  report.events_dispatched = r.u64();
  report.preemptions = r.i32();
  report.migrations = r.i32();
  report.abandoned = r.u64();
  report.node_failures = r.i32();
  report.evictions = r.i32();
  report.restarts = r.i32();
  r.expect("scalars");
  report.horizon_s = r.f64();
  report.gpu_active_rate = r.f64();
  report.gpu_util_active = r.f64();
  report.gpu_util_overall = r.f64();
  report.cpu_active_rate = r.f64();
  report.cpu_util_active = r.f64();
  report.frag_rate = r.f64();
  report.frag_case2_rate = r.f64();
  report.gpu_active_when_queued = r.f64();
  report.frag_when_queued = r.f64();
  report.queued_time_fraction = r.f64();
  report.busy_gpu_s = r.f64();
  report.busy_core_s = r.f64();
  report.wasted_gpu_s = r.f64();
  report.wasted_core_s = r.f64();
  report.gpu_goodput = r.f64();
  report.cpu_goodput = r.f64();
  r.expect("eliminator");
  auto& elim = report.eliminator_stats;
  elim.checks = r.i32();
  elim.nodes_over_threshold = r.i32();
  elim.mba_throttles = r.i32();
  elim.core_halvings = r.i32();
  elim.releases = r.i32();

  r.expect("gpu_queue_times");
  read_doubles(r, &report.gpu_queue_times);
  r.expect("cpu_queue_times");
  read_doubles(r, &report.cpu_queue_times);

  r.expect("tenants");
  const uint64_t n_tenants = r.u64();
  for (uint64_t i = 0; i < n_tenants && r.ok(); ++i) {
    r.expect("tenant");
    const auto tenant = static_cast<cluster::TenantId>(r.u64());
    read_doubles(r, &report.queue_by_tenant[tenant]);
  }

  r.expect("records");
  const uint64_t n_records = r.u64();
  report.records.reserve(std::min(n_records, kMaxReserve));
  for (uint64_t i = 0; i < n_records && r.ok(); ++i) {
    r.expect_row();
    JobRecord record;
    record.spec = read_spec(r);
    record.submit_time = r.f64();
    record.first_start_time = r.f64();
    record.finish_time = r.f64();
    record.queue_time_total = r.f64();
    record.preempt_count = r.i32();
    record.final_cpus = r.i32();
    record.completed = r.b();
    record.evict_count = r.i32();
    record.restart_count = r.i32();
    record.abandoned = r.b();
    record.busy_core_s = r.f64();
    record.busy_gpu_s = r.f64();
    record.wasted_core_s = r.f64();
    record.wasted_gpu_s = r.f64();
    report.records.push_back(std::move(record));
  }

  r.expect("tuning_outcomes");
  const uint64_t n_outcomes = r.u64();
  report.tuning_outcomes.reserve(std::min(n_outcomes, kMaxReserve));
  for (uint64_t i = 0; i < n_outcomes && r.ok(); ++i) {
    r.expect_row();
    core::CodaScheduler::TuningOutcome outcome;
    outcome.job = r.u64();
    outcome.model = static_cast<perfmodel::ModelId>(r.i32());
    outcome.requested_cpus = r.i32();
    outcome.start_cpus = r.i32();
    outcome.final_cpus = r.i32();
    outcome.profile_steps = r.i32();
    report.tuning_outcomes.push_back(outcome);
  }

  read_series(r, "gpu_active", &report.gpu_active_series);
  read_series(r, "gpu_util", &report.gpu_util_series);
  read_series(r, "cpu_active", &report.cpu_active_series);
  read_series(r, "cpu_util", &report.cpu_util_series);
  r.expect("end");
  if (auto status = r.status(); !status.ok()) {
    return util::Error{util::ErrorCode::kParseError,
                       "report deserialization failed: " +
                           status.error().message};
  }
  return report;
}

}  // namespace coda::sim
