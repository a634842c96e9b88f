#include "serve_stage.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <fstream>

#include "service/journal.h"
#include "service/protocol.h"
#include "sim/report_io.h"
#include "workload/trace_io.h"

namespace perfbench {

namespace {

using coda::service::Server;

constexpr double kAnswerGraceS = 60.0;  // after the last due command

struct Command {
  double due_s = 0.0;
  int row = -1;  // index into rows for SUBMIT; -1 for STATUS
};

// One nonblocking loopback connection with an outgoing byte queue.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  void queue(const std::string& line) { out_ += line; }
  bool has_output() const { return off_ < out_.size(); }
  // Total bytes the kernel has accepted so far.
  uint64_t sent() const { return sent_; }

  // Writes what the socket takes without blocking; false on a dead socket.
  bool flush() {
    while (off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + off_, out_.size() - off_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
      off_ += static_cast<size_t>(n);
      sent_ += static_cast<uint64_t>(n);
    }
    out_.clear();
    off_ = 0;
    return true;
  }

  // Waits up to `timeout_s` for input (and for room to write when output is
  // queued), then feeds every complete reply line to `on_line`. False when
  // the server closed the connection.
  template <typename Fn>
  bool poll_and_read(double timeout_s, Fn&& on_line) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (has_output() ? POLLOUT : 0)),
               0};
    const double t = std::max(0.0, timeout_s);
    timespec ts{static_cast<time_t>(t),
                static_cast<long>((t - static_cast<double>(
                                           static_cast<time_t>(t))) *
                                  1e9)};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0 || !(pfd.revents & POLLIN)) {
      return !(pfd.revents & (POLLERR | POLLHUP));
    }
    char buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      return false;
    }
    if (n > 0) {
      reader_.feed_views(buf, static_cast<size_t>(n), on_line);
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string out_;
  size_t off_ = 0;
  uint64_t sent_ = 0;
  coda::service::LineReader reader_{1 << 20};
};

// Sends one control command and waits for its reply; false on ERR, BUSY or
// no reply within `timeout_s`.
bool control(Connection& conn, uint64_t cid, const char* verb,
             double timeout_s) {
  conn.queue("CID " + std::to_string(cid) + " " + verb + "\n");
  const auto t0 = Clock::now();
  bool answered = false;
  bool ok = false;
  while (!answered && seconds_since(t0) < timeout_s) {
    if (!conn.flush()) {
      return false;
    }
    const bool alive = conn.poll_and_read(0.05, [&](std::string_view line) {
      auto r = coda::service::parse_tagged_response(line);
      if (r.ok() && r->has_cid && r->cid == cid) {
        answered = true;
        ok = r->response.ok();
      }
    });
    if (!alive && !answered) {
      return false;
    }
  }
  return ok;
}

uint64_t count_entry_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t bytes = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("S ", 0) == 0) {
      bytes += line.size() + 1;
    }
  }
  return bytes;
}

}  // namespace

bool journal_matches(const std::string& path, const std::string& report_text) {
  auto replayed = coda::service::replay_journal_file(path);
  return replayed.ok() &&
         coda::sim::serialize_report(*replayed) == report_text;
}

ServeOutcome run_serve(const Workload& workload,
                       const std::vector<coda::workload::JobSpec>& trace,
                       const std::string& work_dir, Result* result) {
  ServeOutcome out;
  const double speedup = workload.serve_horizon_s / kServeWindowS;

  // The stream: every job submitted inside the serve horizon, as its CSV
  // row, plus a STATUS after every third SUBMIT.
  std::vector<std::string> rows;
  std::vector<uint64_t> ids;
  std::vector<Command> commands;
  for (const auto& spec : trace) {
    if (spec.submit_time >= workload.serve_horizon_s) {
      break;
    }
    const double due = spec.submit_time / speedup;
    commands.push_back({due, static_cast<int>(rows.size())});
    rows.push_back(coda::workload::job_to_csv_row(spec));
    ids.push_back(spec.id);
    if (rows.size() % 3 == 0) {
      commands.push_back({due, -1});
    }
  }

  coda::service::ServerConfig config;
  config.session.policy = coda::sim::Policy::kCoda;
  config.session.config.engine.cluster.node_count = workload.nodes;
  config.session.config.horizon_s = workload.serve_horizon_s;
  config.session.speedup = speedup;
  config.journal_path = work_dir + "/serve.journal";
  config.tcp_port = 0;
  config.journal_fsync = false;
  config.limits.shards = kServeShards;

  Server server(config);
  if (auto status = server.start(); !status.ok()) {
    result->op(false, "server start: " + status.error().message);
    return out;
  }
  Connection conn;
  if (!conn.open(server.tcp_port())) {
    result->op(false, "connect to the server");
    server.request_shutdown();
    server.wait();
    return out;
  }

  // Sent-but-unacknowledged bookkeeping. The CID of a command is its index.
  std::vector<bool> answered(commands.size(), false);
  std::deque<std::pair<uint64_t, size_t>> unsent;  // (end byte, command)
  uint64_t queued_bytes = 0;
  size_t next = 0;
  size_t outstanding = 0;
  uint64_t failed = 0;
  int last_acked_row = -1;
  const size_t shards = static_cast<size_t>(kServeShards);

  const auto start = Clock::now();
  const double give_up_s =
      (commands.empty() ? 0.0 : commands.back().due_s) + kAnswerGraceS;
  auto on_reply = [&](std::string_view line) {
    auto tagged = coda::service::parse_tagged_response(line);
    if (!tagged.ok() || !tagged->has_cid ||
        tagged->cid >= commands.size() || answered[tagged->cid]) {
      ++failed;
      return;
    }
    const size_t i = tagged->cid;
    answered[i] = true;
    --outstanding;
    if (!tagged->response.ok()) {
      ++failed;
      return;
    }
    const double ms = 1e3 * (seconds_since(start) - commands[i].due_s);
    if (commands[i].row >= 0) {
      out.submit_ms.push_back(ms);
      last_acked_row = std::max(last_acked_row, commands[i].row);
    } else {
      out.status_ms.push_back(ms);
    }
  };

  bool alive = true;
  while (alive && (next < commands.size() || outstanding > 0)) {
    const double now = seconds_since(start);
    if (now > give_up_s) {
      break;
    }
    // Queue every due command. A STATUS waits for a first acknowledgement.
    while (next < commands.size() && commands[next].due_s <= now) {
      const Command& c = commands[next];
      std::string line = "CID " + std::to_string(next);
      if (c.row >= 0) {
        line += " SUBMIT " + rows[static_cast<size_t>(c.row)] + "\n";
      } else if (last_acked_row >= 0) {
        const auto& row = rows[static_cast<size_t>(last_acked_row)];
        line += " SHARD " +
                std::to_string(coda::service::tenant_of_csv_row(row) %
                               shards) +
                " STATUS " +
                std::to_string(ids[static_cast<size_t>(last_acked_row)]) +
                "\n";
      } else {
        break;
      }
      out.sent_bytes += line;
      queued_bytes += line.size();
      conn.queue(line);
      unsent.emplace_back(queued_bytes, next);
      ++outstanding;
      ++next;
    }
    alive = conn.flush();
    const double t_sent = seconds_since(start);
    while (!unsent.empty() && unsent.front().first <= conn.sent()) {
      const size_t i = unsent.front().second;
      out.lag_ms.push_back(1e3 * (t_sent - commands[i].due_s));
      unsent.pop_front();
    }
    const double wait =
        next < commands.size() ? commands[next].due_s - t_sent : 0.01;
    alive = alive && conn.poll_and_read(std::min(wait, 0.01), on_reply);
  }
  // Commands never sent or never answered count as failed too.
  const uint64_t unanswered = (commands.size() - next) + outstanding;
  result->ops(commands.size(), failed + unanswered,
              "SUBMIT/STATUS answered OK");

  const uint64_t drain_cid = commands.size();
  const auto t_drain = Clock::now();
  result->op(alive && control(conn, drain_cid, "DRAIN", 120.0), "DRAIN");
  out.drain_ms = 1e3 * seconds_since(t_drain);
  if (!control(conn, drain_cid + 1, "SHUTDOWN", 30.0)) {
    server.request_shutdown();
  }
  server.wait();
  out.counters = server.counters();

  for (int k = 0; k < server.shard_count(); ++k) {
    const std::string path = config.journal_path + ".shard" + std::to_string(k);
    result->op(journal_matches(path, server.report_text(k)),
               "shard " + std::to_string(k) +
                   " journal replay matches its live report");
    out.journal_entry_bytes += count_entry_bytes(path);
    std::remove(path.c_str());
    std::remove((path + ".report").c_str());
  }
  out.rows = std::move(rows);
  return out;
}

void service_layer_replay(const ServeOutcome& outcome,
                          const std::string& work_dir, Result* result) {
  constexpr int kPasses = 3;
  const std::string& bytes = outcome.sent_bytes;
  const auto& rows = outcome.rows;

  // Framing + envelope parse, fed in socket-read-sized chunks.
  std::vector<double> frame_ns;
  size_t lines = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    coda::service::LineReader reader(1 << 16);
    size_t parsed = 0;
    const auto t0 = Clock::now();
    for (size_t off = 0; off < bytes.size(); off += 16384) {
      const size_t n = std::min<size_t>(16384, bytes.size() - off);
      reader.feed_views(bytes.data() + off, n, [&](std::string_view line) {
        parsed += coda::service::parse_envelope(line).ok() ? 1 : 0;
      });
    }
    frame_ns.push_back(1e9 * seconds_since(t0) /
                       static_cast<double>(std::max<size_t>(parsed, 1)));
    lines = parsed;
  }
  result->op(lines > 0 && lines == static_cast<size_t>(std::count(
                                       bytes.begin(), bytes.end(), '\n')),
             "recorded request lines re-parse");

  std::vector<double> row_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    size_t ok = 0;
    const auto t0 = Clock::now();
    for (const auto& row : rows) {
      ok += coda::workload::job_from_csv_row(row).ok() ? 1 : 0;
    }
    row_ns.push_back(1e9 * seconds_since(t0) /
                     static_cast<double>(std::max<size_t>(rows.size(), 1)));
    result->op(ok == rows.size(), "recorded SUBMIT rows re-parse");
  }

  // Journal append (buffered) and group-commit flush on a scratch journal.
  const std::string path = work_dir + "/layer.journal";
  coda::service::SessionSpec session;
  session.config.horizon_s = 1.0;
  std::vector<double> append_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto writer = coda::service::JournalWriter::open(path, session);
    if (!writer.ok()) {
      result->op(false, "open scratch journal");
      return;
    }
    bool ok = true;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < rows.size(); ++i) {
      ok = writer->append_submit(static_cast<double>(i), i + 1, rows[i]).ok() &&
           ok;
    }
    append_ns.push_back(1e9 * seconds_since(t0) /
                        static_cast<double>(std::max<size_t>(rows.size(), 1)));
    result->op(ok && writer->flush().ok(), "scratch journal append + flush");
  }

  // Median time of one group-commit flush after `batch` appends.
  auto flush_us = [&](bool fsync, int batch, int rounds) {
    auto writer = coda::service::JournalWriter::open(path, session);
    std::vector<double> us;
    bool ok = writer.ok() && !rows.empty();
    if (ok) {
      writer->set_fsync(fsync);
    }
    for (size_t i = 0; ok && us.size() < static_cast<size_t>(rounds);) {
      for (int b = 0; b < batch; ++b, ++i) {
        ok = writer->append_submit(static_cast<double>(i), i + 1,
                                   rows[i % rows.size()])
                 .ok() &&
             ok;
      }
      const auto t0 = Clock::now();
      ok = writer->flush().ok() && ok;
      us.push_back(1e6 * seconds_since(t0));
    }
    result->op(ok, "scratch journal flush");
    return median(us);
  };
  result->metric("service.frame_parse_ns", median(frame_ns), "ns");
  result->metric("service.row_parse_ns", median(row_ns), "ns");
  result->metric("service.journal_append_ns", median(append_ns), "ns");
  result->metric("service.journal_flush_us.batch1", flush_us(false, 1, 2000),
                 "us");
  result->metric("service.journal_flush_us.batch16", flush_us(false, 16, 500),
                 "us");
  result->metric("service.journal_fsync_us.batch1", flush_us(true, 1, 64),
                 "us");
  result->metric("service.journal_fsync_us.batch16", flush_us(true, 16, 64),
                 "us");
  std::remove(path.c_str());
}

}  // namespace perfbench
