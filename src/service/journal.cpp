#include "service/journal.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "state/serde.h"
#include "state/snapshot.h"
#include "util/parse.h"
#include "util/strings.h"
#include "workload/trace_io.h"

namespace coda::service {

namespace {

constexpr const char* kMagic = "CODA_JOURNAL";
constexpr const char* kVersionV1 = "v1";
constexpr const char* kVersionV2 = "v2";

util::Error parse_error(const std::string& what) {
  return util::Error{util::ErrorCode::kParseError, "journal: " + what};
}

// Splits one line into "key" and "rest" on the first space.
void split_key(const std::string& line, std::string* key, std::string* rest) {
  const size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    *key = line;
    rest->clear();
  } else {
    *key = line.substr(0, sp);
    *rest = line.substr(sp + 1);
  }
}

util::Status parse_policy(const std::string& name, sim::Policy* out) {
  for (sim::Policy p :
       {sim::Policy::kFifo, sim::Policy::kDrf, sim::Policy::kCoda}) {
    if (name == sim::to_string(p)) {
      *out = p;
      return util::Status::Ok();
    }
  }
  return parse_error("unknown policy '" + name + "'");
}

// ---- header values, one overload per config member type ----

template <typename T, typename Parsed>
util::Status assign(util::Result<Parsed> parsed, T* out) {
  if (!parsed.ok()) {
    return parsed.error();
  }
  *out = static_cast<T>(*parsed);
  return util::Status::Ok();
}

util::Status parse_value(const std::string& s, double* out) {
  return assign(util::parse_strict_double(
                    s, -std::numeric_limits<double>::infinity()),
                out);
}

util::Status parse_value(const std::string& s, int* out) {
  return assign(util::parse_strict_int(s, std::numeric_limits<int>::min(),
                                       std::numeric_limits<int>::max()),
                out);
}

util::Status parse_value(const std::string& s, uint64_t* out) {
  return assign(util::parse_strict_u64(s), out);
}

util::Status parse_value(const std::string& s, bool* out) {
  if (s != "0" && s != "1") {
    return util::Error{util::ErrorCode::kParseError,
                       "'" + s + "' is not 0 or 1"};
  }
  *out = s == "1";
  return util::Status::Ok();
}

util::Status parse_value(const std::string& s, core::SearchMode* out) {
  return assign(
      util::parse_strict_int(s, static_cast<int>(core::SearchMode::kHillClimb),
                             static_cast<int>(core::SearchMode::kOneShot)),
      out);
}

// Parses one header line into `session`: policy, speedup, or a field of
// the CODA_EXPERIMENT_CONFIG_FIELDS table (its `config.` rows only in a v2
// header).
util::Status parse_header_field(const std::string& key,
                                const std::string& value, bool is_v2,
                                SessionSpec* session) {
  if (key == "policy") {
    return parse_policy(value, &session->policy);
  }
  util::Status status;
  if (key == "speedup") {
    status = parse_value(value, &session->speedup);
  }
#define CODA_PARSE_FIELD(wire_key, member)                  \
  else if (key == wire_key) {                               \
    status = parse_value(value, &session->config.member);   \
  }
#define CODA_PARSE_V2_FIELD(wire_key, member)               \
  else if (is_v2 && key == wire_key) {                      \
    status = parse_value(value, &session->config.member);   \
  }
  CODA_EXPERIMENT_CONFIG_FIELDS(CODA_PARSE_FIELD, CODA_PARSE_V2_FIELD)
#undef CODA_PARSE_V2_FIELD
#undef CODA_PARSE_FIELD
  else {
    return parse_error("unknown config key '" + key + "'");
  }
  if (!status.ok()) {
    return parse_error("bad value for '" + key + "': " +
                       status.error().message);
  }
  return status;
}

// The first `config.` field `seen` lacks; empty when the block is complete.
std::string first_missing_v2_field(const std::set<std::string>& seen) {
#define CODA_SKIP_FIELD(wire_key, member)
#define CODA_CHECK_FIELD(wire_key, member) \
  if (seen.count(wire_key) == 0) {         \
    return wire_key;                       \
  }
  CODA_EXPERIMENT_CONFIG_FIELDS(CODA_SKIP_FIELD, CODA_CHECK_FIELD)
#undef CODA_CHECK_FIELD
#undef CODA_SKIP_FIELD
  return std::string();
}

}  // namespace

JournalWriter::~JournalWriter() { close(); }

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : file_(other.file_), fsync_(other.fsync_) {
  other.file_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    close();
    file_ = other.file_;
    fsync_ = other.fsync_;
    other.file_ = nullptr;
  }
  return *this;
}

void JournalWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::string serialize_session_header(const SessionSpec& session) {
  state::Writer w;
  w.line(kMagic, kVersionV2);
  w.line("policy", sim::to_string(session.policy));
#define CODA_WRITE_FIELD(wire_key, member) \
  w.line(wire_key, session.config.member);
#define CODA_SKIP_FIELD(wire_key, member)
  CODA_EXPERIMENT_CONFIG_FIELDS(CODA_WRITE_FIELD, CODA_SKIP_FIELD)
  w.line("speedup", session.speedup);
  CODA_EXPERIMENT_CONFIG_FIELDS(CODA_SKIP_FIELD, CODA_WRITE_FIELD)
#undef CODA_SKIP_FIELD
#undef CODA_WRITE_FIELD
  w.line("base_trace_bytes", session.base_trace_csv.size());
  w.raw(session.base_trace_csv);
  return w.take();
}

util::Result<JournalWriter> JournalWriter::open(const std::string& path,
                                                const SessionSpec& session) {
  if (auto status = state::write_file_durable(
          path, serialize_session_header(session));
      !status.ok()) {
    return status.error();
  }
  return open_append(path);
}

util::Result<JournalWriter> JournalWriter::open_append(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return util::Error{util::ErrorCode::kIoError,
                       util::strfmt("journal '%s': cannot open for append (%s)",
                                    path.c_str(), std::strerror(errno))};
  }
  JournalWriter writer;
  writer.file_ = f;
  return writer;
}

std::string format_submit_entry(double virtual_time, uint64_t job_id,
                                const std::string& csv_row) {
  return util::strfmt("S %a %llu ", virtual_time,
                      static_cast<unsigned long long>(job_id)) +
         csv_row + "\n";
}

util::Status JournalWriter::append_submit(double virtual_time,
                                          uint64_t job_id,
                                          const std::string& csv_row) {
  if (file_ == nullptr) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "journal is closed"};
  }
  const std::string line = format_submit_entry(virtual_time, job_id, csv_row);
  // Group commit: no fflush here — flush() covers the whole batch. A short
  // fwrite still poisons the journal so a later append cannot concatenate
  // onto a torn line and produce a file that parses to the wrong session.
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    close();
    return util::Error{util::ErrorCode::kIoError, "journal append failed"};
  }
  return util::Status::Ok();
}

util::Status JournalWriter::flush() {
  if (file_ == nullptr) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "journal is closed"};
  }
  if (std::fflush(file_) != 0) {
    // Entries since the last good flush may be torn on disk; poison the
    // writer so the server stops acknowledging submissions.
    close();
    return util::Error{util::ErrorCode::kIoError, "journal flush failed"};
  }
  if (fsync_ && fsync(fileno(file_)) != 0) {
    close();
    return util::Error{util::ErrorCode::kIoError, "journal fsync failed"};
  }
  return util::Status::Ok();
}

void JournalWriter::note(const std::string& comment) {
  if (file_ == nullptr) {
    return;
  }
  std::string line = "# " + comment + "\n";
  (void)std::fwrite(line.data(), 1, line.size(), file_);
  (void)std::fflush(file_);
}

util::Result<JournalSession> parse_journal(const std::string& text) {
  JournalSession out;
  size_t pos = 0;
  auto next_line = [&]() -> util::Result<std::string> {
    if (pos >= text.size()) {
      return parse_error("unexpected end of file");
    }
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      return parse_error("unterminated line");
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  // ---- magic ----
  auto magic = next_line();
  if (!magic.ok()) {
    return magic.error();
  }
  bool is_v2 = false;
  if (*magic == std::string(kMagic) + " " + kVersionV2) {
    is_v2 = true;
  } else if (*magic != std::string(kMagic) + " " + kVersionV1) {
    return parse_error("bad magic/version line '" + *magic + "'");
  }

  // ---- header key/value lines, terminated by base_trace_bytes ----
  auto& cfg = out.session.config;
  std::set<std::string> seen;
  while (true) {
    auto line = next_line();
    if (!line.ok()) {
      return line.error();
    }
    std::string key;
    std::string rest;
    split_key(*line, &key, &rest);
    if (key == "base_trace_bytes") {
      // A v2 header must provide every listed config field: a journal from
      // a *newer* writer would fail below on its unknown key, and one with
      // fields stripped (truncation, hand edits) must not silently replay
      // under defaults.
      if (is_v2) {
        if (const std::string missing = first_missing_v2_field(seen);
            !missing.empty()) {
          return parse_error("v2 header lacks config field " + missing);
        }
      }
      auto n = util::parse_strict_u64(rest);
      if (!n.ok()) {
        return parse_error("bad base_trace_bytes: " + n.error().message);
      }
      if (*n > text.size() - pos) {
        return parse_error("truncated base trace");
      }
      out.session.base_trace_csv = text.substr(pos, *n);
      pos += *n;
      break;  // entries follow
    }
    if (!seen.insert(key).second) {
      return parse_error("duplicate header key '" + key + "'");
    }
    if (auto status = parse_header_field(key, rest, is_v2, &out.session);
        !status.ok()) {
      return status.error();
    }
  }
  if (seen.count("horizon") == 0 || cfg.horizon_s <= 0.0) {
    return parse_error("missing or non-positive horizon");
  }
  if (auto status = sim::validate_config(cfg); !status.ok()) {
    return status.error();
  }

  // ---- entries ----
  while (pos < text.size()) {
    auto line = next_line();
    if (!line.ok()) {
      return line.error();
    }
    if (line->empty() || (*line)[0] == '#') {
      continue;
    }
    std::string tag;
    std::string rest;
    split_key(*line, &tag, &rest);
    if (tag != "S") {
      return parse_error("unknown entry tag '" + tag + "'");
    }
    std::string vt_str;
    std::string after_vt;
    split_key(rest, &vt_str, &after_vt);
    std::string id_str;
    std::string row;
    split_key(after_vt, &id_str, &row);
    auto vt = util::parse_strict_double(
        vt_str, -std::numeric_limits<double>::infinity());
    if (!vt.ok()) {
      return parse_error(vt.error().message);
    }
    if (!std::isfinite(*vt) || *vt < 0.0) {
      return parse_error("entry vt '" + vt_str + "' must be finite and >= 0");
    }
    auto id = util::parse_strict_u64(id_str);
    if (!id.ok()) {
      return parse_error(id.error().message);
    }
    if (row.empty()) {
      return parse_error("malformed submission entry");
    }
    out.submissions.push_back(
        {*vt, static_cast<uint64_t>(*id), std::move(row)});
  }
  return out;
}

util::Result<JournalSession> load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot open journal '" + path + "'"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_journal(buf.str());
}

util::Result<std::vector<workload::JobSpec>> journal_trace(
    const JournalSession& journal) {
  std::vector<workload::JobSpec> trace;
  if (!journal.session.base_trace_csv.empty()) {
    auto base = workload::trace_from_csv(journal.session.base_trace_csv);
    if (!base.ok()) {
      return base.error();
    }
    trace = std::move(base).value();
  }
  trace.reserve(trace.size() + journal.submissions.size());
  for (const auto& entry : journal.submissions) {
    auto spec = workload::job_from_csv_row(entry.csv_row);
    if (!spec.ok()) {
      return spec.error();
    }
    spec->id = entry.job_id;
    spec->submit_time = entry.virtual_time;
    trace.push_back(std::move(*spec));
  }
  std::unordered_set<uint64_t> ids;
  for (const auto& spec : trace) {
    if (!ids.insert(spec.id).second) {
      return parse_error(util::strfmt(
          "entry for job %llu reuses an id the session already holds",
          static_cast<unsigned long long>(spec.id)));
    }
  }
  return trace;
}

}  // namespace coda::service
