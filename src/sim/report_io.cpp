#include "sim/report_io.h"

#include <algorithm>

#include "state/serde.h"
#include "util/csv.h"
#include "util/fields.h"
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

// The `counts` and `scalars` rows.
auto counts(util::FieldsOf<ExperimentReport> auto& r) {
  return std::tie(r.submitted, r.completed, r.events_dispatched,
                  r.preemptions, r.migrations, r.abandoned, r.node_failures,
                  r.evictions, r.restarts);
}

auto scalars(util::FieldsOf<ExperimentReport> auto& r) {
  return std::tie(r.horizon_s, r.gpu_active_rate, r.gpu_util_active,
                  r.gpu_util_overall, r.cpu_active_rate, r.cpu_util_active,
                  r.frag_rate, r.frag_case2_rate, r.gpu_active_when_queued,
                  r.frag_when_queued, r.queued_time_fraction, r.busy_gpu_s,
                  r.busy_core_s, r.wasted_gpu_s, r.wasted_core_s,
                  r.gpu_goodput, r.cpu_goodput);
}

}  // namespace

std::string serialize_report(const ExperimentReport& report) {
  state::Writer w;
  // Rough pre-size: ~64 tokens per record line dominates.
  w.reserve(256 + report.records.size() * 320);
  w.line(kMagic, kReportFormatVersion);
  w.line("scheduler", report.scheduler);
  w.line("counts", counts(report));
  w.line("scalars", scalars(report));
  w.line("eliminator", fields(report.eliminator_stats));

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
    w.add(fields(record.spec), fields(record));
    w.end_line();
  }

  w.line("tuning_outcomes", report.tuning_outcomes.size());
  for (const auto& outcome : report.tuning_outcomes) {
    w.add(fields(outcome));
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
  r.read(counts(report));
  r.expect("scalars");
  r.read(scalars(report));
  r.expect("eliminator");
  r.read(fields(report.eliminator_stats));

  r.expect("gpu_queue_times");
  read_doubles(r, &report.gpu_queue_times);
  r.expect("cpu_queue_times");
  read_doubles(r, &report.cpu_queue_times);

  r.expect("tenants");
  const uint64_t n_tenants = r.u64();
  for (uint64_t i = 0; i < n_tenants && r.ok(); ++i) {
    r.expect("tenant");
    cluster::TenantId tenant = 0;
    r.read(tenant);
    read_doubles(r, &report.queue_by_tenant[tenant]);
  }

  r.expect("records");
  const uint64_t n_records = r.u64();
  report.records.reserve(std::min(n_records, kMaxReserve));
  for (uint64_t i = 0; i < n_records && r.ok(); ++i) {
    r.expect_row();
    JobRecord& record = report.records.emplace_back();
    r.read(fields(record.spec), fields(record));
  }

  r.expect("tuning_outcomes");
  const uint64_t n_outcomes = r.u64();
  report.tuning_outcomes.reserve(std::min(n_outcomes, kMaxReserve));
  for (uint64_t i = 0; i < n_outcomes && r.ok(); ++i) {
    r.expect_row();
    r.read(fields(report.tuning_outcomes.emplace_back()));
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
