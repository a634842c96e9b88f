#include "service/protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>

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
  ArgShape arg;
};

// Every verb once, indexed by Verb, with its wire name and argument shape.
constexpr VerbSpec kVerbs[] = {
    {"PING", ArgShape::kNone},
    {"SUBMIT", ArgShape::kCsvRow},
    {"STATUS", ArgShape::kJobId},
    {"CLUSTER", ArgShape::kNone},
    {"METRICS", ArgShape::kNone},
    {"DRAIN", ArgShape::kNone},
    {"SHUTDOWN", ArgShape::kNone},
    {"AUTH", ArgShape::kToken},
    {"SNAPSHOT", ArgShape::kNone},
};
static_assert(std::size(kVerbs) == static_cast<size_t>(Verb::kSnapshot) + 1);

const VerbSpec& spec_of(Verb verb) {
  CODA_ASSERT(static_cast<size_t>(verb) < std::size(kVerbs));
  return kVerbs[static_cast<size_t>(verb)];
}

// Reads the `CID n` / `SHARD k` prefixes (any order, each at most once)
// off the front of `*rest`: a request's envelope, or a reply's CID echo.
util::Status read_prefix(std::string_view* rest, Envelope* env) {
  bool saw_cid = false;
  bool saw_shard = false;
  while (true) {
    std::string_view head;
    std::string_view tail;
    split_verb(*rest, &head, &tail);
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
      env->has_cid = true;
      env->cid = parsed;
    } else {
      saw_shard = true;
      if (parsed > 1'000'000) {
        return util::Error{util::ErrorCode::kParseError,
                           "SHARD index out of range"};
      }
      env->shard = static_cast<int>(parsed);
    }
    *rest = after;
  }
  return util::Status::Ok();
}

}  // namespace

const char* to_string(Verb verb) { return spec_of(verb).name; }

std::optional<Verb> verb_named(std::string_view name) {
  for (size_t i = 0; i < std::size(kVerbs); ++i) {
    if (name == kVerbs[i].name) {
      return static_cast<Verb>(i);
    }
  }
  return std::nullopt;
}

util::Result<Request> parse_request(std::string_view line) {
  std::string_view verb;
  std::string_view rest;
  split_verb(trim_view(line), &verb, &rest);
  const std::optional<Verb> named = verb_named(verb);
  if (!named.has_value()) {
    return util::Error{util::ErrorCode::kParseError,
                       "unknown verb '" + std::string(verb) + "'"};
  }
  const VerbSpec& spec = spec_of(*named);
  const auto refuse = [&spec](const char* why) {
    return util::Error{util::ErrorCode::kParseError,
                       std::string(spec.name) + " " + why};
  };
  Request req;
  req.verb = *named;
  switch (spec.arg) {
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
  if (auto read = read_prefix(&rest, &env); !read.ok()) {
    return read.error();
  }
  auto req = parse_request(rest);
  if (!req.ok()) {
    return req.error();
  }
  env.request = std::move(*req);
  return env;
}

void append_prefix(std::string* out, std::optional<uint64_t> cid,
                   int shard) {
  char buf[64];
  int n = cid.has_value() ? std::snprintf(buf, sizeof(buf), "CID %llu ",
                                          static_cast<unsigned long long>(*cid))
                          : 0;
  if (shard >= 0) {
    n += std::snprintf(buf + n, sizeof(buf) - n, "SHARD %d ", shard);
  }
  out->append(buf, static_cast<size_t>(n));
}

std::string format_request(Verb verb, std::string_view arg, int shard,
                           std::optional<uint64_t> cid) {
  const VerbSpec& spec = spec_of(verb);
  std::string line;
  append_prefix(&line, cid, shard);
  line += spec.name;
  if (spec.arg != ArgShape::kNone) {
    line += ' ';
    line += arg;
  }
  return line;
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
  Envelope echo;  // a reply's prefix is at most its CID
  std::string_view body = line;
  if (!read_prefix(&body, &echo).ok() || echo.shard >= 0) {
    return util::Error{util::ErrorCode::kParseError, "bad CID echo"};
  }
  auto resp = parse_response(body);
  if (!resp.ok()) {
    return resp.error();
  }
  return TaggedResponse{std::move(*resp), echo.has_cid, echo.cid};
}

bool LineReader::feed(const char* data, size_t n,
                      std::vector<std::string>* lines) {
  return feed_views(data, n, [lines](std::string_view line) {
    lines->emplace_back(line);
  });
}

}  // namespace coda::service
