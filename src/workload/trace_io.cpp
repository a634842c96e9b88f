#include "workload/trace_io.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "util/csv.h"
#include "util/parse.h"
#include "util/strings.h"

namespace coda::workload {

namespace {

const std::vector<std::string> kColumns = {
    "id",        "tenant",      "kind",       "submit_time",
    "model",     "nodes",       "gpus_per_node", "batch_size",
    "iterations", "requested_cpus", "hint_category", "hint_pipelined",
    "hint_weights", "hint_prep",
    "cpu_cores", "cpu_work_core_s", "mem_bw_gbps", "bw_bound_fraction",
    "llc_mb",    "user_facing",
    "ckpt_interval_s", "ckpt_overhead_s"};

util::Result<perfmodel::ModelId> model_from_string(const std::string& name) {
  for (perfmodel::ModelId id : perfmodel::kAllModels) {
    if (name == perfmodel::to_string(id)) {
      return id;
    }
  }
  return util::Error{util::ErrorCode::kParseError,
                     "unknown model name '" + name + "'"};
}

util::Error field_error(size_t row, const char* column,
                        const std::string& value, const char* why) {
  return util::Error{
      util::ErrorCode::kParseError,
      util::strfmt("trace row %zu: column '%s' value '%s' %s", row + 1,
                   column, value.c_str(), why)};
}

// Checked replacements for the old atoi/strtod calls, which silently turned
// malformed fields into 0 (a GPU job with 0 nodes/GPUs would "load" fine).
// Each one demands the whole field parse and rejects range overflow.
template <typename T>
util::Result<T> parse_field(const std::string& s, size_t row,
                            const char* column, const char* what) {
  T v{};
  switch (util::parse_number(s, &v)) {
    case util::ParseStatus::kOk:
      return v;
    case util::ParseStatus::kOutOfRange:
      return field_error(row, column, s, "is out of range");
    case util::ParseStatus::kMalformed:
      break;
  }
  return field_error(row, column, s, s.empty() ? "is empty" : what);
}

util::Result<long long> parse_int(const std::string& s, size_t row,
                                  const char* column) {
  return parse_field<long long>(s, row, column, "is not an integer");
}

util::Result<double> parse_real(const std::string& s, size_t row,
                                const char* column) {
  return parse_field<double>(s, row, column, "is not a number");
}

util::Result<bool> parse_flag(const std::string& s, size_t row,
                              const char* column) {
  if (s == "1") {
    return true;
  }
  if (s == "0") {
    return false;
  }
  return field_error(row, column, s, "is not 0 or 1");
}

}  // namespace

std::string trace_to_csv(const std::vector<JobSpec>& trace) {
  util::CsvDocument doc;
  doc.header = kColumns;
  doc.rows.reserve(trace.size());
  for (const auto& j : trace) {
    doc.rows.push_back({
        util::strfmt("%llu", static_cast<unsigned long long>(j.id)),
        util::strfmt("%u", j.tenant),
        to_string(j.kind),
        util::strfmt("%.3f", j.submit_time),
        perfmodel::to_string(j.model),
        util::strfmt("%d", j.train_config.nodes),
        util::strfmt("%d", j.train_config.gpus_per_node),
        util::strfmt("%d", j.train_config.batch_size),
        util::strfmt("%.1f", j.iterations),
        util::strfmt("%d", j.requested_cpus),
        j.hints.category_known ? "1" : "0",
        j.hints.pipelined ? "1" : "0",
        j.hints.large_weights ? "1" : "0",
        j.hints.complex_prep ? "1" : "0",
        util::strfmt("%d", j.cpu_cores),
        util::strfmt("%.3f", j.cpu_work_core_s),
        util::strfmt("%.3f", j.mem_bw_gbps),
        util::strfmt("%.3f", j.bw_bound_fraction),
        util::strfmt("%.3f", j.llc_mb),
        j.user_facing ? "1" : "0",
        util::strfmt("%.3f", j.checkpoint_interval_s),
        util::strfmt("%.3f", j.checkpoint_overhead_s),
    });
  }
  return util::to_csv(doc);
}

util::Result<std::vector<JobSpec>> trace_from_csv(const std::string& text) {
  auto doc = util::parse_csv(text);
  if (!doc.ok()) {
    return doc.error();
  }
  if (doc->header != kColumns) {
    return util::Error{util::ErrorCode::kParseError,
                       "trace CSV header does not match expected columns"};
  }
  std::vector<JobSpec> trace;
  trace.reserve(doc->rows.size());
  std::unordered_set<cluster::JobId> ids;
  for (size_t r = 0; r < doc->rows.size(); ++r) {
    const auto& row = doc->rows[r];
    JobSpec j;
#define CODA_PARSE(result_expr, target)       \
  do {                                        \
    auto parsed_ = (result_expr);             \
    if (!parsed_.ok()) return parsed_.error(); \
    target = *parsed_;                        \
  } while (0)
    long long id = 0;
    CODA_PARSE(parse_int(row[0], r, "id"), id);
    if (id < 0) {
      return field_error(r, "id", row[0], "is negative");
    }
    j.id = static_cast<cluster::JobId>(id);
    if (!ids.insert(j.id).second) {
      return field_error(r, "id", row[0], "repeats an earlier row's id");
    }
    long long tenant = 0;
    CODA_PARSE(parse_int(row[1], r, "tenant"), tenant);
    if (tenant < 0 || tenant > std::numeric_limits<cluster::TenantId>::max()) {
      return field_error(r, "tenant", row[1], "is out of range");
    }
    j.tenant = static_cast<cluster::TenantId>(tenant);
    if (row[2] == "gpu") {
      j.kind = JobKind::kGpuTraining;
    } else if (row[2] == "cpu") {
      j.kind = JobKind::kCpu;
    } else {
      return util::Error{util::ErrorCode::kParseError,
                         "unknown job kind '" + row[2] + "'"};
    }
    CODA_PARSE(parse_real(row[3], r, "submit_time"), j.submit_time);
    if (!std::isfinite(j.submit_time) || j.submit_time < 0.0) {
      return field_error(r, "submit_time", row[3], "must be finite and >= 0");
    }
    if (j.kind == JobKind::kGpuTraining) {
      auto model = model_from_string(row[4]);
      if (!model.ok()) {
        return model.error();
      }
      j.model = *model;
    }
    long long tmp = 0;
    CODA_PARSE(parse_int(row[5], r, "nodes"), tmp);
    j.train_config.nodes = static_cast<int>(tmp);
    CODA_PARSE(parse_int(row[6], r, "gpus_per_node"), tmp);
    j.train_config.gpus_per_node = static_cast<int>(tmp);
    CODA_PARSE(parse_int(row[7], r, "batch_size"), tmp);
    j.train_config.batch_size = static_cast<int>(tmp);
    if (j.train_config.batch_size < 0) {
      return field_error(r, "batch_size", row[7], "is negative");
    }
    CODA_PARSE(parse_real(row[8], r, "iterations"), j.iterations);
    CODA_PARSE(parse_int(row[9], r, "requested_cpus"), tmp);
    j.requested_cpus = static_cast<int>(tmp);
    CODA_PARSE(parse_flag(row[10], r, "hint_category"),
               j.hints.category_known);
    CODA_PARSE(parse_flag(row[11], r, "hint_pipelined"), j.hints.pipelined);
    CODA_PARSE(parse_flag(row[12], r, "hint_weights"),
               j.hints.large_weights);
    CODA_PARSE(parse_flag(row[13], r, "hint_prep"), j.hints.complex_prep);
    CODA_PARSE(parse_int(row[14], r, "cpu_cores"), tmp);
    j.cpu_cores = static_cast<int>(tmp);
    CODA_PARSE(parse_real(row[15], r, "cpu_work_core_s"), j.cpu_work_core_s);
    CODA_PARSE(parse_real(row[16], r, "mem_bw_gbps"), j.mem_bw_gbps);
    CODA_PARSE(parse_real(row[17], r, "bw_bound_fraction"),
               j.bw_bound_fraction);
    CODA_PARSE(parse_real(row[18], r, "llc_mb"), j.llc_mb);
    CODA_PARSE(parse_flag(row[19], r, "user_facing"), j.user_facing);
    CODA_PARSE(parse_real(row[20], r, "ckpt_interval_s"),
               j.checkpoint_interval_s);
    CODA_PARSE(parse_real(row[21], r, "ckpt_overhead_s"),
               j.checkpoint_overhead_s);
#undef CODA_PARSE
    // Semantic checks: a job that parses must also be runnable. The old
    // atoi-based reader accepted "gpu job on 0 nodes" rows wholesale.
    if (j.is_gpu_job()) {
      if (j.train_config.nodes < 1) {
        return field_error(r, "nodes", row[5], "must be >= 1 for a gpu job");
      }
      if (j.train_config.gpus_per_node < 1) {
        return field_error(r, "gpus_per_node", row[6],
                           "must be >= 1 for a gpu job");
      }
      if (j.iterations < 0.0) {
        return field_error(r, "iterations", row[8], "is negative");
      }
      if (j.requested_cpus < 1) {
        return field_error(r, "requested_cpus", row[9], "must be >= 1");
      }
    } else {
      if (j.cpu_cores < 1) {
        return field_error(r, "cpu_cores", row[14],
                           "must be >= 1 for a cpu job");
      }
      if (j.cpu_work_core_s < 0.0) {
        return field_error(r, "cpu_work_core_s", row[15], "is negative");
      }
      if (j.mem_bw_gbps < 0.0) {
        return field_error(r, "mem_bw_gbps", row[16], "is negative");
      }
    }
    if (j.checkpoint_interval_s < 0.0) {
      return field_error(r, "ckpt_interval_s", row[20], "is negative");
    }
    if (j.checkpoint_overhead_s < 0.0) {
      return field_error(r, "ckpt_overhead_s", row[21], "is negative");
    }
    trace.push_back(j);
  }
  return trace;
}

util::Status save_trace(const std::string& path,
                        const std::vector<JobSpec>& trace) {
  std::ofstream out(path);
  if (!out) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot open '" + path + "' for write"};
  }
  out << trace_to_csv(trace);
  if (!out) {
    return util::Error{util::ErrorCode::kIoError,
                       "write to '" + path + "' failed"};
  }
  return util::Status::Ok();
}

util::Result<std::vector<JobSpec>> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot open '" + path + "' for read"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return trace_from_csv(buf.str());
}

std::string trace_csv_header() { return util::join(kColumns, ","); }

std::string job_to_csv_row(const JobSpec& job) {
  const std::string text = trace_to_csv({job});
  // trace_to_csv emits "header\nrow\n"; strip both delimiters.
  const size_t nl = text.find('\n');
  std::string row = text.substr(nl + 1);
  if (!row.empty() && row.back() == '\n') {
    row.pop_back();
  }
  return row;
}

util::Result<JobSpec> job_from_csv_row(const std::string& row) {
  auto parsed = trace_from_csv(trace_csv_header() + "\n" + row + "\n");
  if (!parsed.ok()) {
    return parsed.error();
  }
  if (parsed->size() != 1) {
    return util::Error{util::ErrorCode::kParseError,
                       "expected exactly one CSV row"};
  }
  return (*parsed)[0];
}

}  // namespace coda::workload
