#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "util/stats.h"
#include "util/strings.h"

namespace coda::service {

namespace {

bool write_all(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

util::Error sys_error(const char* what) {
  return util::Error{util::ErrorCode::kIoError,
                     util::strfmt("%s: %s", what, std::strerror(errno))};
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      reader_(std::move(other.reader_)),
      pending_lines_(std::move(other.pending_lines_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    pending_lines_ = std::move(other.pending_lines_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<Client> Client::connect(const Endpoint& endpoint) {
  Client client;
  if (!endpoint.unix_socket_path.empty()) {
    client.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (client.fd_ < 0) {
      return sys_error("socket");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return util::Error{util::ErrorCode::kInvalidArgument,
                         "unix socket path too long"};
    }
    std::strncpy(addr.sun_path, endpoint.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return sys_error(endpoint.unix_socket_path.c_str());
    }
    return client;
  }
  if (endpoint.tcp_port >= 0) {
    client.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client.fd_ < 0) {
      return sys_error("socket");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(endpoint.tcp_port));
    if (::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return sys_error("connect");
    }
    // Command lines are tiny; Nagle would serialize the benchmark on RTT.
    const int one = 1;
    ::setsockopt(client.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return client;
  }
  return util::Error{util::ErrorCode::kInvalidArgument,
                     "endpoint has neither a unix path nor a tcp port"};
}

util::Result<Response> Client::call(const std::string& request_line) {
  if (auto sent = send(request_line); !sent.ok()) {
    return sent.error();
  }
  // Responses arrive strictly in request order.
  auto line = read_line();
  if (!line.ok()) {
    return line.error();
  }
  return parse_response(*line);
}

util::Status Client::send_framed(const std::string& data) {
  if (fd_ < 0) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "client is not connected"};
  }
  if (!write_all(fd_, data.data(), data.size())) {
    return sys_error("send");
  }
  return util::Status::Ok();
}

util::Result<TaggedResponse> Client::recv_tagged() {
  auto line = read_line();
  if (!line.ok()) {
    return line.error();
  }
  return parse_tagged_response(*line);
}

util::Result<std::string> Client::read_line() {
  if (fd_ < 0) {
    return util::Error{util::ErrorCode::kFailedPrecondition,
                       "client is not connected"};
  }
  while (pending_lines_.empty()) {
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return util::Error{util::ErrorCode::kIoError,
                         "server closed the connection"};
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return sys_error("recv");
    }
    if (!reader_.feed(buf, static_cast<size_t>(n), &pending_lines_)) {
      return util::Error{util::ErrorCode::kParseError,
                         "response line too long"};
    }
  }
  std::string line = std::move(pending_lines_.front());
  pending_lines_.erase(pending_lines_.begin());
  return line;
}

// ------------------------------------------------------------- bench mode

util::Result<BenchReport> run_bench(const Endpoint& endpoint,
                                    const BenchOptions& options) {
  if (options.connections < 1 || options.duration_s <= 0.0) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "bench needs >= 1 connection and a positive duration"};
  }
  if (options.pipeline < 1) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "bench pipeline depth must be >= 1"};
  }
  struct WorkerStats {
    size_t sent = 0;
    size_t busy = 0;
    size_t errors = 0;
    // Latencies and OK replies per shard bucket (index = SHARD prefix
    // used); everything lands in bucket 0 when no prefixes are in play.
    std::vector<std::vector<double>> shard_latencies_ms;
    std::vector<size_t> shard_ok;
  };
  const int n_workers = options.connections;
  const int n_buckets = std::max(1, options.shards);
  std::vector<WorkerStats> stats(static_cast<size_t>(n_workers));
  std::vector<Client> clients;
  clients.reserve(static_cast<size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    auto client = Client::connect(endpoint);
    if (!client.ok()) {
      return client.error();
    }
    if (!options.auth_token.empty()) {
      auto authed = client->auth(options.auth_token);
      if (!authed.ok()) {
        return authed.error();
      }
      if (!authed->ok()) {
        return util::Error{authed->code, "AUTH refused: " + authed->payload};
      }
    }
    clients.push_back(std::move(*client));
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));
  const double per_conn_rate =
      options.rate > 0.0 ? options.rate / n_workers : 0.0;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n_workers));
  for (int w = 0; w < n_workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerStats& s = stats[static_cast<size_t>(w)];
      Client& client = clients[static_cast<size_t>(w)];
      s.shard_latencies_ms.resize(static_cast<size_t>(n_buckets));
      s.shard_ok.assign(static_cast<size_t>(n_buckets), 0);

      // Every request carries a CID, so replies may complete out of order
      // across shards; `inflight` pairs each reply back to its send time
      // and shard bucket.
      struct Outstanding {
        Clock::time_point t0;
        int bucket = 0;
      };
      std::unordered_map<uint64_t, Outstanding> inflight;
      inflight.reserve(static_cast<size_t>(options.pipeline) * 2);
      uint64_t next_cid = 1;
      auto next_send = Clock::now();
      bool dead = false;
      std::string batch;
      batch.reserve(static_cast<size_t>(options.pipeline) *
                    (options.request_line.size() + 48));
      std::vector<std::pair<uint64_t, int>> batched;  // cid, bucket
      batched.reserve(static_cast<size_t>(options.pipeline));

      while (!dead) {
        const bool timed_out = Clock::now() >= stop_at;
        if (timed_out && inflight.empty()) {
          break;
        }
        // Build the whole window top-up as one buffer and write it with a
        // single send(2): at depth 16 that is one syscall instead of 16.
        batch.clear();
        batched.clear();
        while (!timed_out && inflight.size() + batched.size() <
                                 static_cast<size_t>(options.pipeline)) {
          if (per_conn_rate > 0.0) {
            if (inflight.empty() && batched.empty()) {
              std::this_thread::sleep_until(next_send);
            } else if (Clock::now() < next_send) {
              break;  // not due yet; reap a reply instead of spinning
            }
            next_send += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(1.0 / per_conn_rate));
          }
          const uint64_t cid = next_cid++;
          const int shard =
              options.shards > 0
                  ? static_cast<int>(cid % static_cast<uint64_t>(n_buckets))
                  : -1;
          append_prefix(&batch, cid, shard);
          batch += options.request_line;
          batch += '\n';
          batched.emplace_back(cid, std::max(shard, 0));
        }
        if (!batched.empty()) {
          // One timestamp for the window: the commands hit the wire
          // together, so they share their send instant.
          const auto t0 = Clock::now();
          if (!client.send_framed(batch).ok()) {
            ++s.errors;
            dead = true;
            break;
          }
          for (const auto& [cid, bucket] : batched) {
            inflight.emplace(cid, Outstanding{t0, bucket});
            ++s.sent;
          }
        }
        if (inflight.empty()) {
          continue;
        }
        // ...then reap one completion.
        auto tagged = client.recv_tagged();
        const auto t1 = Clock::now();
        if (!tagged.ok()) {
          ++s.errors;
          break;  // dead socket; abandon this worker's window
        }
        auto it = tagged->has_cid ? inflight.find(tagged->cid)
                                  : inflight.end();
        if (it == inflight.end()) {
          ++s.errors;  // reply we cannot pair (protocol violation)
          continue;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - it->second.t0)
                .count();
        const size_t bucket = static_cast<size_t>(it->second.bucket);
        inflight.erase(it);
        s.shard_latencies_ms[bucket].push_back(ms);
        switch (tagged->response.kind) {
          case Response::Kind::kOk:
            ++s.shard_ok[bucket];
            break;
          case Response::Kind::kBusy:
            ++s.busy;
            break;
          case Response::Kind::kErr:
            ++s.errors;
            break;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();

  BenchReport report;
  std::vector<double> all_latencies;
  std::vector<std::vector<double>> bucket_latencies(
      static_cast<size_t>(n_buckets));
  std::vector<size_t> bucket_ok(static_cast<size_t>(n_buckets), 0);
  for (const auto& s : stats) {
    report.sent += s.sent;
    report.busy += s.busy;
    report.errors += s.errors;
    for (size_t b = 0; b < s.shard_latencies_ms.size(); ++b) {
      const std::vector<double>& ms = s.shard_latencies_ms[b];
      all_latencies.insert(all_latencies.end(), ms.begin(), ms.end());
      bucket_latencies[b].insert(bucket_latencies[b].end(), ms.begin(),
                                 ms.end());
      bucket_ok[b] += s.shard_ok[b];
      report.ok += s.shard_ok[b];
    }
  }
  report.wall_s = wall;
  report.throughput = wall > 0.0 ? static_cast<double>(report.ok) / wall : 0.0;
  if (!all_latencies.empty()) {
    auto ps = util::percentiles(all_latencies, {0.5, 0.99, 1.0});
    report.p50_ms = ps[0];
    report.p99_ms = ps[1];
    report.max_ms = ps[2];
  }
  if (options.shards > 0) {
    report.shard_stats.resize(static_cast<size_t>(n_buckets));
    for (size_t b = 0; b < static_cast<size_t>(n_buckets); ++b) {
      auto& out = report.shard_stats[b];
      out.ok = bucket_ok[b];
      out.throughput =
          wall > 0.0 ? static_cast<double>(bucket_ok[b]) / wall : 0.0;
      if (!bucket_latencies[b].empty()) {
        auto ps = util::percentiles(bucket_latencies[b], {0.5, 0.99});
        out.p50_ms = ps[0];
        out.p99_ms = ps[1];
      }
    }
  }
  return report;
}

}  // namespace coda::service
