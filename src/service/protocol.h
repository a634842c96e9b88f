// Wire protocol between codad and its clients: a line-delimited text
// protocol over a Unix-domain or localhost TCP socket.
//
// Grammar (one request line -> one response line, '\n'-terminated):
//
//   line     := [envelope] request
//   envelope := ("CID" SP uint | "SHARD" SP uint)*   ; each at most once
//   request  := "PING"
//             | "AUTH" SP token              ; shared-secret authentication
//             | "SUBMIT" SP csv-row          ; trace_io column order
//             | "STATUS" SP job-id
//             | "CLUSTER"
//             | "METRICS"
//             | "SNAPSHOT"
//             | "DRAIN"
//             | "SHUTDOWN"
//   response := ["CID" SP uint SP] body       ; CID echoed iff sent
//   body     := "OK" [SP payload]
//             | "ERR" SP code SP message     ; code = util::ErrorCode name
//             | "BUSY" SP "retry-after-ms=" int
//
// Pipelining: a client may write any number of request lines before
// reading replies. Replies to requests *without* a CID come back in
// request order (the server reorders across shards); replies to requests
// *with* a CID are written as soon as their shard completes them — out of
// order across shards — and the echoed CID pairs them with their request.
//
// Authentication: when the daemon is started with a shared secret
// (--auth-token / CODA_SERVE_TOKEN), a connection must send `AUTH <token>`
// before anything but PING; every other verb on an unauthenticated
// connection answers `ERR PermissionDenied ...`. AUTH is handled entirely
// on the I/O thread (it is connection state, not engine state). Without a
// configured secret AUTH is an accepted no-op.
//
// Snapshots: `SNAPSHOT` asks the target shard to capture a deterministic
// state snapshot (state/snapshot.h) between dispatches, write it durably
// next to the journal, and truncate the journal back to its header. The
// reply reports `seq=<n> path=<file> vt=<hexfloat> bytes=<n>`.
//
// Sharding: `SHARD <k>` routes the request to engine shard k (each shard
// is an independent ClusterEngine with its own journal). Without the
// prefix, SUBMIT routes by the row's tenant id (tenant mod shards) and
// every other verb goes to shard 0; DRAIN and SHUTDOWN without a prefix
// broadcast to every shard and answer once all shards finish.
//
// Payloads are space-separated `key=value` pairs. Messages never contain
// newlines (sanitized on format). Framing is byte-stream tolerant: the
// LineReader accumulates partial reads, yields complete lines, and rejects
// lines longer than the per-connection limit.
//
// The same listener also answers `GET /metrics` as minimal HTTP/1.0 with
// an OpenMetrics body (per-shard labels); see server.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace coda::service {

enum class Verb {
  kPing = 0,
  kSubmit,
  kStatus,
  kCluster,
  kMetrics,
  kDrain,
  kShutdown,
  kAuth,      // connection-level; never routed to a shard
  kSnapshot,
};

const char* to_string(Verb verb);

struct Request {
  Verb verb = Verb::kPing;
  // SUBMIT: the raw CSV job row (kept verbatim — it is what the journal
  // records and what the offline replay re-parses, so the daemon never
  // re-serializes it). STATUS: the decimal job id. AUTH: the token.
  std::string arg;
  uint64_t job_id = 0;  // parsed STATUS argument
};

// Parses one request line (no trailing newline). Fails with kParseError on
// unknown verbs, missing or malformed arguments. Takes a view: the hot
// serving path parses without copying the line.
util::Result<Request> parse_request(std::string_view line);

// A request plus its routing/correlation envelope.
struct Envelope {
  Request request;
  int shard = -1;        // explicit SHARD prefix; -1 = unrouted (default)
  bool has_cid = false;
  uint64_t cid = 0;      // valid iff has_cid
};

// Parses the optional `CID n` / `SHARD k` prefixes (any order, each at
// most once) followed by the request itself.
util::Result<Envelope> parse_envelope(std::string_view line);

// Appends the prefix `[CID n ][SHARD k ]` to `out` in place: CID when `cid`
// is set, SHARD when `shard` >= 0. codad's reply CID echo is the same.
void append_prefix(std::string* out, std::optional<uint64_t> cid,
                   int shard = -1);

// The request line `[CID n ][SHARD k ]VERB[ arg]` parse_envelope reads, no
// newline, from the verb table: `arg` follows only a verb that takes one.
std::string format_request(Verb verb, std::string_view arg = {}, int shard = -1,
                           std::optional<uint64_t> cid = std::nullopt);

// The verb whose wire name is `name` (case-sensitive), if any.
std::optional<Verb> verb_named(std::string_view name);

// Extracts the tenant id from a SUBMIT csv row without a full JobSpec
// parse (column 2 of the trace_io layout). Returns 0 on malformed rows —
// the full parser rejects those later; routing just needs determinism.
uint64_t tenant_of_csv_row(std::string_view csv_row);

// ---- responses ----

struct Response {
  enum class Kind { kOk = 0, kErr, kBusy };
  Kind kind = Kind::kOk;
  std::string payload;             // OK payload or ERR message
  util::ErrorCode code = util::ErrorCode::kInvalidArgument;  // ERR only
  int retry_after_ms = 0;          // BUSY only

  bool ok() const { return kind == Kind::kOk; }
};

// Formatting: one line, no trailing newline, embedded newlines replaced by
// spaces so a malicious message cannot forge extra protocol lines.
std::string format_ok(const std::string& payload);
std::string format_err(util::ErrorCode code, const std::string& message);
std::string format_busy(int retry_after_ms);

// Parses a response line (client side).
util::Result<Response> parse_response(std::string_view line);

// A response plus the correlation id the server echoed (if any).
struct TaggedResponse {
  Response response;
  bool has_cid = false;
  uint64_t cid = 0;
};

// Parses a response line that may carry a `CID n` prefix.
util::Result<TaggedResponse> parse_tagged_response(std::string_view line);

// ---- framing ----

// Incremental line framer. feed() accepts arbitrary byte chunks (partial
// lines, many lines at once — whatever the socket read returned) and
// appends every completed line (without its '\n') to `lines`. A line longer
// than `max_line_bytes` poisons the reader: feed() returns false from then
// on and the connection should be dropped.
class LineReader {
 public:
  explicit LineReader(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  bool feed(const char* data, size_t n, std::vector<std::string>* lines);

  // Zero-copy variant used by the server's hot read path: `fn` is invoked
  // with a view of every completed line. A line contained entirely in
  // `data` is viewed in place — no allocation; only a line spanning reads
  // touches the carry buffer. Views are valid just for the callback.
  template <typename Fn>
  bool feed_views(const char* data, size_t n, Fn&& fn) {
    if (poisoned_) {
      return false;
    }
    size_t start = 0;
    for (size_t i = 0; i < n; ++i) {
      if (data[i] != '\n') {
        continue;
      }
      std::string_view line;
      if (buffer_.empty()) {
        line = std::string_view(data + start, i - start);
      } else {
        buffer_.append(data + start, i - start);
        line = buffer_;
      }
      if (line.size() > max_line_bytes_) {
        poisoned_ = true;
        return false;
      }
      start = i + 1;
      // Tolerate CRLF clients.
      if (!line.empty() && line.back() == '\r') {
        line.remove_suffix(1);
      }
      fn(line);
      buffer_.clear();
    }
    buffer_.append(data + start, n - start);
    if (buffer_.size() > max_line_bytes_) {
      poisoned_ = true;
      return false;
    }
    return true;
  }

  bool poisoned() const { return poisoned_; }
  // Bytes buffered waiting for their terminating newline.
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  size_t max_line_bytes_;  // non-const so LineReader stays movable
  std::string buffer_;
  bool poisoned_ = false;
};

}  // namespace coda::service
