#include "service/protocol.h"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "util/env.h"
#include "util/parse.h"
#include "util/strings.h"

namespace coda::service {

namespace {

// Splits "VERB rest-of-line" (rest may itself contain spaces: CSV rows).
// Views into the caller's line — no copies on the per-command hot path.
void split_verb(std::string_view line, std::string_view* verb,
                std::string_view* rest) {
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    *verb = line;
    *rest = std::string_view();
  } else {
    *verb = line.substr(0, sp);
    *rest = line.substr(sp + 1);
  }
}

std::string_view trim_view(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

std::string sanitize(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\r', ' ');
  return s;
}

util::Result<util::ErrorCode> code_from_string(const std::string& name) {
  using util::ErrorCode;
  for (ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kNotFound,
        ErrorCode::kResourceExhausted, ErrorCode::kFailedPrecondition,
        ErrorCode::kParseError, ErrorCode::kIoError,
        ErrorCode::kPermissionDenied}) {
    if (name == util::to_string(code)) {
      return code;
    }
  }
  return util::Error{ErrorCode::kParseError,
                     "unknown error code '" + name + "'"};
}

// What follows a verb's name on the request line.
enum class ArgShape {
  kNone,    // nothing
  kToken,   // a non-empty token, trimmed (AUTH)
  kCsvRow,  // the rest of the line, verbatim (SUBMIT)
  kJobId,   // an unsigned job id, trimmed (STATUS)
};

struct VerbSpec {
  const char* name;
  Verb verb;
  ArgShape arg;
};

// Every verb once, with its wire name and argument shape.
constexpr VerbSpec kVerbs[] = {
    {"PING", Verb::kPing, ArgShape::kNone},
    {"SUBMIT", Verb::kSubmit, ArgShape::kCsvRow},
    {"STATUS", Verb::kStatus, ArgShape::kJobId},
    {"CLUSTER", Verb::kCluster, ArgShape::kNone},
    {"METRICS", Verb::kMetrics, ArgShape::kNone},
    {"DRAIN", Verb::kDrain, ArgShape::kNone},
    {"SHUTDOWN", Verb::kShutdown, ArgShape::kNone},
    {"AUTH", Verb::kAuth, ArgShape::kToken},
    {"SNAPSHOT", Verb::kSnapshot, ArgShape::kNone},
};

}  // namespace

const char* to_string(Verb verb) {
  for (const VerbSpec& spec : kVerbs) {
    if (spec.verb == verb) {
      return spec.name;
    }
  }
  return "?";
}

util::Result<Request> parse_request(std::string_view line) {
  std::string_view verb;
  std::string_view rest;
  split_verb(trim_view(line), &verb, &rest);
  const VerbSpec* spec = std::find_if(
      std::begin(kVerbs), std::end(kVerbs),
      [verb](const VerbSpec& s) { return verb == s.name; });
  if (spec == std::end(kVerbs)) {
    return util::Error{util::ErrorCode::kParseError,
                       "unknown verb '" + std::string(verb) + "'"};
  }
  const auto refuse = [spec](const char* why) {
    return util::Error{util::ErrorCode::kParseError,
                       std::string(spec->name) + " " + why};
  };
  Request req;
  req.verb = spec->verb;
  switch (spec->arg) {
    case ArgShape::kNone:
      if (!rest.empty()) {
        return refuse("takes no argument");
      }
      break;
    case ArgShape::kToken:
      req.arg = std::string(trim_view(rest));
      if (req.arg.empty()) {
        return refuse("needs a token");
      }
      break;
    case ArgShape::kCsvRow:
      if (rest.empty()) {
        return refuse("needs a CSV job row");
      }
      req.arg = std::string(rest);
      break;
    case ArgShape::kJobId: {
      req.arg = std::string(trim_view(rest));
      unsigned long long id = 0;
      if (util::parse_number(req.arg, &id) != util::ParseStatus::kOk) {
        return refuse("needs a job id");
      }
      req.job_id = id;
      break;
    }
  }
  return req;
}

util::Result<Envelope> parse_envelope(std::string_view line) {
  Envelope env;
  std::string_view rest = trim_view(line);
  bool saw_cid = false;
  bool saw_shard = false;
  while (true) {
    std::string_view head;
    std::string_view tail;
    split_verb(rest, &head, &tail);
    const bool is_cid = head == "CID";
    const bool is_shard = head == "SHARD";
    if (!is_cid && !is_shard) {
      break;
    }
    if ((is_cid && saw_cid) || (is_shard && saw_shard)) {
      return util::Error{util::ErrorCode::kParseError,
                         "duplicate " + std::string(head) + " prefix"};
    }
    std::string_view value;
    std::string_view after;
    split_verb(tail, &value, &after);
    unsigned long long parsed = 0;
    if (util::parse_number(value, &parsed) != util::ParseStatus::kOk) {
      return util::Error{util::ErrorCode::kParseError,
                         std::string(head) + " needs an unsigned integer"};
    }
    if (is_cid) {
      saw_cid = true;
      env.has_cid = true;
      env.cid = parsed;
    } else {
      saw_shard = true;
      if (parsed > 1'000'000) {
        return util::Error{util::ErrorCode::kParseError,
                           "SHARD index out of range"};
      }
      env.shard = static_cast<int>(parsed);
    }
    rest = after;
  }
  auto req = parse_request(rest);
  if (!req.ok()) {
    return req.error();
  }
  env.request = std::move(*req);
  return env;
}

uint64_t tenant_of_csv_row(std::string_view csv_row) {
  // trace_io column order: id,tenant,kind,...
  const size_t first = csv_row.find(',');
  if (first == std::string_view::npos) {
    return 0;
  }
  const size_t second = csv_row.find(',', first + 1);
  const std::string_view field = trim_view(
      csv_row.substr(first + 1, second == std::string_view::npos
                                    ? std::string_view::npos
                                    : second - first - 1));
  unsigned long long tenant = 0;  // parse_number writes it only on success
  util::parse_number(field, &tenant);
  return tenant;
}

std::string format_ok(const std::string& payload) {
  return payload.empty() ? "OK" : "OK " + sanitize(payload);
}

std::string format_err(util::ErrorCode code, const std::string& message) {
  return std::string("ERR ") + util::to_string(code) + " " +
         sanitize(message);
}

std::string format_busy(int retry_after_ms) {
  return util::strfmt("BUSY retry-after-ms=%d", retry_after_ms);
}

util::Result<Response> parse_response(std::string_view line) {
  std::string_view head;
  std::string_view rest;
  split_verb(line, &head, &rest);
  Response resp;
  if (head == "OK") {
    resp.kind = Response::Kind::kOk;
    resp.payload = std::string(rest);
    return resp;
  }
  if (head == "ERR") {
    std::string_view code_name;
    std::string_view message;
    split_verb(rest, &code_name, &message);
    auto code = code_from_string(std::string(code_name));
    if (!code.ok()) {
      return code.error();
    }
    resp.kind = Response::Kind::kErr;
    resp.code = *code;
    resp.payload = std::string(message);
    return resp;
  }
  if (head == "BUSY") {
    constexpr std::string_view kKey = "retry-after-ms=";
    if (rest.substr(0, kKey.size()) != kKey) {
      return util::Error{util::ErrorCode::kParseError,
                         "BUSY without retry-after-ms"};
    }
    unsigned long long ms = 0;
    if (util::parse_number(rest.substr(kKey.size()), &ms) !=
        util::ParseStatus::kOk) {
      return util::Error{util::ErrorCode::kParseError, "bad retry-after-ms"};
    }
    resp.kind = Response::Kind::kBusy;
    resp.retry_after_ms = static_cast<int>(ms);
    return resp;
  }
  return util::Error{util::ErrorCode::kParseError,
                     "unrecognized response '" + std::string(head) + "'"};
}

util::Result<TaggedResponse> parse_tagged_response(std::string_view line) {
  TaggedResponse tagged;
  std::string_view body = line;
  if (body.substr(0, 4) == "CID ") {
    std::string_view head;
    std::string_view rest;
    split_verb(body.substr(4), &head, &rest);
    unsigned long long cid = 0;
    if (util::parse_number(head, &cid) != util::ParseStatus::kOk) {
      return util::Error{util::ErrorCode::kParseError, "bad CID echo"};
    }
    tagged.has_cid = true;
    tagged.cid = cid;
    body = rest;
  }
  auto resp = parse_response(body);
  if (!resp.ok()) {
    return resp.error();
  }
  tagged.response = std::move(*resp);
  return tagged;
}

bool LineReader::feed(const char* data, size_t n,
                      std::vector<std::string>* lines) {
  return feed_views(data, n, [lines](std::string_view line) {
    lines->emplace_back(line);
  });
}

}  // namespace coda::service
