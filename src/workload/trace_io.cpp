#include "workload/trace_io.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <unordered_set>

#include "util/parse.h"
#include "util/strings.h"

namespace coda::workload {

namespace {

constexpr std::array<const char*, 22> kColumns = {
    "id",        "tenant",      "kind",       "submit_time",
    "model",     "nodes",       "gpus_per_node", "batch_size",
    "iterations", "requested_cpus", "hint_category", "hint_pipelined",
    "hint_weights", "hint_prep",
    "cpu_cores", "cpu_work_core_s", "mem_bw_gbps", "bw_bound_fraction",
    "llc_mb",    "user_facing",
    "ckpt_interval_s", "ckpt_overhead_s"};

// One data row's fields. read() stores one parsed column in its
// destination, or records the row's error and returns false, so a run of
// reads is one && chain that stops at the first bad field.
struct Row {
  size_t index = 0;  // among the data rows
  std::array<std::string_view, kColumns.size()> field;
  util::Error error;

  util::Error refuse(size_t column, const char* why) const {
    return util::Error{
        util::ErrorCode::kParseError,
        util::strfmt("trace row %zu: column '%s' value '%.*s' %s", index + 1,
                     kColumns[column], static_cast<int>(field[column].size()),
                     field[column].data(), why)};
  }
  bool fail(size_t column, const char* why) {
    error = refuse(column, why);
    return false;
  }

  // Checked replacements for the old atoi/strtod calls, which silently
  // turned malformed fields into 0 (a GPU job with 0 nodes/GPUs would
  // "load" fine). Each one demands the whole field parse and rejects range
  // overflow, an int column's value outside int included. A double parses
  // through the std::string overload, which has no length limit.
  template <typename T>
  bool read(size_t column, T* out) {
    switch (util::parse_number(std::string(field[column]), out)) {
      case util::ParseStatus::kOk:
        return true;
      case util::ParseStatus::kOutOfRange:
        return fail(column, "is out of range");
      case util::ParseStatus::kMalformed:
        break;
    }
    return fail(column, field[column].empty()          ? "is empty"
                        : std::is_same_v<T, double> ? "is not a number"
                                                    : "is not an integer");
  }
  bool read(size_t column, bool* out) {
    if (field[column] != "1" && field[column] != "0") {
      return fail(column, "is not 0 or 1");
    }
    *out = field[column] == "1";
    return true;
  }
};

// A line's content: one trailing '\r' dropped, and nothing at all for a
// blank line (only spaces, tabs and '\r'), which readers skip.
std::string_view content(std::string_view line) {
  if (!line.empty() && line.back() == '\r') {
    line.remove_suffix(1);
  }
  return line.find_first_not_of(" \t\r") == std::string_view::npos
             ? std::string_view()
             : line;
}

// Parses data row number `index` (0-based) of a trace whose earlier rows
// hold `ids` (none when null).
util::Result<JobSpec> parse_row(std::string_view line, size_t index,
                                std::unordered_set<cluster::JobId>* ids) {
  Row row{index, {}, {}};
  size_t n = 0;  // fields seen
  for (size_t begin = 0; begin <= line.size(); ++n) {
    const size_t comma = std::min(line.find(',', begin), line.size());
    if (n < row.field.size()) {
      row.field[n] = line.substr(begin, comma - begin);
    }
    begin = comma + 1;
  }
  if (n != kColumns.size()) {
    return util::Error{
        util::ErrorCode::kParseError,
        util::strfmt("trace row %zu has %zu fields, header has %zu",
                     index + 1, n, kColumns.size())};
  }
  JobSpec j;
  long long id = 0;
  long long tenant = 0;
  perfmodel::TrainConfig& tc = j.train_config;
  if (!(row.read(0, &id) && row.read(1, &tenant) &&
        row.read(3, &j.submit_time) && row.read(5, &tc.nodes) &&
        row.read(6, &tc.gpus_per_node) && row.read(7, &tc.batch_size) &&
        row.read(8, &j.iterations) && row.read(9, &j.requested_cpus) &&
        row.read(10, &j.hints.category_known) &&
        row.read(11, &j.hints.pipelined) &&
        row.read(12, &j.hints.large_weights) &&
        row.read(13, &j.hints.complex_prep) && row.read(14, &j.cpu_cores) &&
        row.read(15, &j.cpu_work_core_s) && row.read(16, &j.mem_bw_gbps) &&
        row.read(17, &j.bw_bound_fraction) && row.read(18, &j.llc_mb) &&
        row.read(19, &j.user_facing) &&
        row.read(20, &j.checkpoint_interval_s) &&
        row.read(21, &j.checkpoint_overhead_s))) {
    return row.error;
  }
  if (row.field[2] == "gpu") {
    j.kind = JobKind::kGpuTraining;
  } else if (row.field[2] == "cpu") {
    j.kind = JobKind::kCpu;
  } else {
    return util::Error{util::ErrorCode::kParseError,
                       "unknown job kind '" + std::string(row.field[2]) + "'"};
  }
  // A CPU row's model column is not read.
  if (j.is_gpu_job()) {
    auto model = model_from_string(std::string(row.field[4]));
    if (!model.ok()) {
      return model.error();
    }
    j.model = *model;
  }
  // Range and semantic checks, in column order: a job that parses must also
  // be runnable. The old atoi-based reader accepted "gpu job on 0 nodes"
  // rows wholesale.
  const bool gpu = j.is_gpu_job();
  const struct {
    bool failed;
    size_t column;
    const char* why;
  } checks[] = {
      {id < 0, 0, "is negative"},
      {tenant < 0 || tenant > std::numeric_limits<cluster::TenantId>::max(),
       1, "is out of range"},
      {!std::isfinite(j.submit_time) || j.submit_time < 0.0, 3,
       "must be finite and >= 0"},
      {gpu && tc.nodes < 1, 5, "must be >= 1 for a gpu job"},
      {gpu && tc.gpus_per_node < 1, 6, "must be >= 1 for a gpu job"},
      {tc.batch_size < 0, 7, "is negative"},
      {gpu && j.iterations < 0.0, 8, "is negative"},
      {gpu && j.requested_cpus < 1, 9, "must be >= 1"},
      {!gpu && j.cpu_cores < 1, 14, "must be >= 1 for a cpu job"},
      {!gpu && j.cpu_work_core_s < 0.0, 15, "is negative"},
      {!gpu && j.mem_bw_gbps < 0.0, 16, "is negative"},
      {j.checkpoint_interval_s < 0.0, 20, "is negative"},
      {j.checkpoint_overhead_s < 0.0, 21, "is negative"},
  };
  for (const auto& check : checks) {
    if (check.failed) {
      return row.refuse(check.column, check.why);
    }
  }
  j.id = static_cast<cluster::JobId>(id);
  j.tenant = static_cast<cluster::TenantId>(tenant);
  if (ids != nullptr && !ids->insert(j.id).second) {
    return row.refuse(0, "repeats an earlier row's id");
  }
  return j;
}

}  // namespace

util::Result<perfmodel::ModelId> model_from_string(const std::string& name) {
  for (perfmodel::ModelId id : perfmodel::kAllModels) {
    if (name == perfmodel::to_string(id)) {
      return id;
    }
  }
  return util::Error{util::ErrorCode::kParseError,
                     "unknown model name '" + name + "'"};
}

std::string trace_to_csv(const std::vector<JobSpec>& trace) {
  std::string out = trace_csv_header() + "\n";
  for (const auto& j : trace) {
    out += job_to_csv_row(j) + "\n";
  }
  return out;
}

util::Result<std::vector<JobSpec>> trace_from_csv(const std::string& text) {
  const std::string header = trace_csv_header();
  bool saw_header = false;
  std::vector<JobSpec> trace;
  std::unordered_set<cluster::JobId> ids;
  for (size_t begin = 0; begin < text.size();) {
    const size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line =
        content(std::string_view(text).substr(begin, end - begin));
    begin = end + 1;
    if (line.empty()) {
      continue;
    }
    if (!saw_header) {
      if (line != header) {
        return util::Error{util::ErrorCode::kParseError,
                           "trace CSV header does not match expected columns"};
      }
      saw_header = true;
      continue;
    }
    auto job = parse_row(line, trace.size(), &ids);
    if (!job.ok()) {
      return job.error();
    }
    trace.push_back(*job);
  }
  if (!saw_header) {
    return util::Error{util::ErrorCode::kParseError, "CSV input is empty"};
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

std::string trace_csv_header() {
  return util::join({kColumns.begin(), kColumns.end()}, ",");
}

std::string job_to_csv_row(const JobSpec& j) {
  const perfmodel::TrainConfig& tc = j.train_config;
  return util::strfmt(
      "%llu,%u,%s,%.3f,%s,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,"
      "%.3f,%d,%.3f,%.3f",
      static_cast<unsigned long long>(j.id), j.tenant, to_string(j.kind),
      j.submit_time, perfmodel::to_string(j.model), tc.nodes,
      tc.gpus_per_node, tc.batch_size, j.iterations, j.requested_cpus,
      j.hints.category_known, j.hints.pipelined, j.hints.large_weights,
      j.hints.complex_prep, j.cpu_cores, j.cpu_work_core_s, j.mem_bw_gbps,
      j.bw_bound_fraction, j.llc_mb, j.user_facing, j.checkpoint_interval_s,
      j.checkpoint_overhead_s);
}

util::Result<JobSpec> job_from_csv_row(const std::string& row) {
  if (row.find('\n') != std::string::npos) {
    return util::Error{util::ErrorCode::kParseError,
                       "a job row cannot hold a newline"};
  }
  const std::string_view line = content(row);
  if (line.empty()) {
    return util::Error{util::ErrorCode::kParseError,
                       "expected exactly one CSV row"};
  }
  return parse_row(line, 0, nullptr);
}

}  // namespace coda::workload
