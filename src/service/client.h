// Client side of the codad wire protocol: blocking request/response over a
// Unix-domain or localhost TCP socket, plus the load-generator used by
// `coda_ctl bench`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "util/result.h"

namespace coda::service {

// Listener address: exactly one of the two forms.
struct Endpoint {
  std::string unix_socket_path;  // non-empty selects AF_UNIX
  int tcp_port = -1;             // >= 0 selects 127.0.0.1:<port>
};

class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static util::Result<Client> connect(const Endpoint& endpoint);

  bool connected() const { return fd_ >= 0; }
  void close();

  // Sends one request line and blocks for the matching response line.
  util::Result<Response> call(const std::string& request_line);
  util::Result<Response> call(Verb verb, std::string_view arg = {},
                              int shard = -1) {
    return call(format_request(verb, arg, shard));
  }

  // ---- pipelined API ----
  // send() writes a framed request line without waiting; recv_tagged()
  // blocks for the next response line and returns it with its CID echo (if
  // any). A caller that tags requests with distinct `CID <n>` prefixes can
  // keep many in flight and match replies as they complete, including
  // out-of-order completions across shards. Do not interleave with call(),
  // which assumes strict request-order replies.
  util::Status send(const std::string& request_line) {
    return send_framed(request_line + "\n");
  }
  // Writes pre-framed bytes (caller supplies the '\n' after every line) in
  // one syscall — the load generator batches a whole pipeline window this
  // way instead of paying a send(2) per command.
  util::Status send_framed(const std::string& data);
  util::Result<TaggedResponse> recv_tagged();

  // Convenience verbs.
  util::Result<Response> ping() { return call(Verb::kPing); }
  util::Result<Response> auth(const std::string& token) {
    return call(Verb::kAuth, token);
  }
  util::Result<Response> snapshot() { return call(Verb::kSnapshot); }
  util::Result<Response> submit_row(const std::string& csv_row) {
    return call(Verb::kSubmit, csv_row);
  }
  util::Result<Response> status(uint64_t job_id) {
    return call(Verb::kStatus, std::to_string(job_id));
  }
  util::Result<Response> cluster() { return call(Verb::kCluster); }
  util::Result<Response> metrics() { return call(Verb::kMetrics); }
  util::Result<Response> drain() { return call(Verb::kDrain); }
  util::Result<Response> shutdown() { return call(Verb::kShutdown); }

 private:
  // The next response line: a previous read may already have framed it.
  util::Result<std::string> read_line();

  int fd_ = -1;
  LineReader reader_{1 << 20};
  std::vector<std::string> pending_lines_;
};

// ---- load generator (`coda_ctl bench`) ----

struct BenchOptions {
  int connections = 4;
  double duration_s = 5.0;
  // Target aggregate command rate (commands/sec) across all connections;
  // <= 0 runs closed-loop (each connection fires as fast as replies come
  // back).
  double rate = 0.0;
  // Request line every worker repeats; PING measures the pure
  // mailbox/engine round trip.
  std::string request_line = format_request(Verb::kPing);
  // Outstanding CID-tagged requests per connection. 1 = classic
  // request/response; larger depths pipeline and measure the event loop
  // rather than the RTT.
  int pipeline = 1;
  // > 0 spreads requests round-robin over `SHARD 0..shards-1` prefixes and
  // reports a per-shard breakdown; 0 leaves routing to the server.
  int shards = 0;
  // Sent as `AUTH <token>` on every connection before the workload starts
  // (daemons with --auth-token). Empty sends nothing.
  std::string auth_token;
};

struct BenchReport {
  size_t sent = 0;
  size_t ok = 0;
  size_t busy = 0;
  size_t errors = 0;
  double wall_s = 0.0;
  double throughput = 0.0;  // ok responses per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  // Per-shard breakdown when BenchOptions::shards > 0 (index = shard).
  struct ShardStats {
    size_t ok = 0;
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  std::vector<ShardStats> shard_stats;
};

// Opens `connections` sockets and hammers the daemon for `duration_s`,
// measuring per-command round-trip latency. BUSY responses count separately
// (they are the backpressure path, not an error).
util::Result<BenchReport> run_bench(const Endpoint& endpoint,
                                    const BenchOptions& options);

}  // namespace coda::service
