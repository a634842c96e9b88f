// Tests for the codad service layer: mailbox ordering under concurrent
// producers, protocol framing across split reads, admission backpressure,
// strict env parsing, and the headline guarantee — an offline replay of a
// live session's journal reproduces its ExperimentReport byte-for-byte.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.h"
#include "service/event_loop.h"
#include "service/journal.h"
#include "service/mailbox.h"
#include "service/protocol.h"
#include "service/restore.h"
#include "service/server.h"
#include "sim/report_cache.h"
#include "sim/report_io.h"
#include "sim/runner.h"
#include "state/snapshot.h"
#include "util/env.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace coda::service {
namespace {

// ---------------------------------------------------------------- mailbox

TEST(Mailbox, DrainOrderIsPushOrder) {
  Mailbox<int> box(16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(box.try_push(i));
  }
  std::vector<int> out;
  EXPECT_EQ(box.drain(&out), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(box.size(), 0u);
}

TEST(Mailbox, BoundedPushFailsWhenFullAndAfterClose) {
  Mailbox<int> box(2);
  EXPECT_TRUE(box.try_push(1));
  EXPECT_TRUE(box.try_push(2));
  EXPECT_FALSE(box.try_push(3));  // full: the admission-control path
  std::vector<int> out;
  box.drain(&out);
  EXPECT_TRUE(box.try_push(4));
  box.close();
  EXPECT_FALSE(box.try_push(5));
  // Items queued before close stay drainable (the final sweep relies on
  // this to answer every pending command at shutdown).
  out.clear();
  EXPECT_EQ(box.drain(&out), 1u);
  EXPECT_EQ(out[0], 4);
}

TEST(Mailbox, ConcurrentProducersPreservePerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  // Encoded as producer * 1'000'000 + sequence so the consumer can check
  // each producer's subsequence independently.
  Mailbox<int> box(256);
  std::vector<int> consumed;
  consumed.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    while (consumed.size() <
           static_cast<size_t>(kProducers) * kPerProducer) {
      box.drain_until(&consumed, std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(50));
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!box.try_push(p * 1000000 + i)) {
          std::this_thread::yield();  // full: retry, as a connection would
        }
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  consumer.join();
  ASSERT_EQ(consumed.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<int> next_seq(kProducers, 0);
  for (int value : consumed) {
    const int p = value / 1000000;
    const int seq = value % 1000000;
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(seq, next_seq[static_cast<size_t>(p)]);
    ++next_seq[static_cast<size_t>(p)];
  }
}

// ---------------------------------------------------------------- framing

TEST(LineReader, ReassemblesArbitrarySplits) {
  const std::string stream = "PING\nSUBMIT 1,2,3\r\nSTATUS 7\n";
  // Feed the same byte stream one byte at a time, in pairs, and all at
  // once: every chunking must yield the same three lines.
  for (size_t chunk : {size_t{1}, size_t{2}, stream.size()}) {
    LineReader reader(256);
    std::vector<std::string> lines;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      const size_t n = std::min(chunk, stream.size() - off);
      ASSERT_TRUE(reader.feed(stream.data() + off, n, &lines));
    }
    ASSERT_EQ(lines.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(lines[0], "PING");
    EXPECT_EQ(lines[1], "SUBMIT 1,2,3");  // CRLF stripped
    EXPECT_EQ(lines[2], "STATUS 7");
    EXPECT_EQ(reader.pending_bytes(), 0u);
  }
}

TEST(LineReader, KeepsPartialLinePending) {
  LineReader reader(256);
  std::vector<std::string> lines;
  ASSERT_TRUE(reader.feed("STAT", 4, &lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(reader.pending_bytes(), 4u);
  ASSERT_TRUE(reader.feed("US 9\n", 5, &lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "STATUS 9");
}

TEST(LineReader, PoisonsOnOversizedLine) {
  LineReader reader(8);
  std::vector<std::string> lines;
  EXPECT_FALSE(reader.feed("0123456789abcdef", 16, &lines));
  EXPECT_TRUE(reader.poisoned());
  // Poison is sticky: even a tiny follow-up chunk is rejected.
  EXPECT_FALSE(reader.feed("\n", 1, &lines));
  EXPECT_TRUE(lines.empty());
}

// --------------------------------------------------------------- protocol

TEST(Protocol, RequestParsing) {
  auto ping = parse_request("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->verb, Verb::kPing);

  auto submit = parse_request("SUBMIT 0,1,cpu,0,Alexnet");
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit->verb, Verb::kSubmit);
  EXPECT_EQ(submit->arg, "0,1,cpu,0,Alexnet");

  auto status = parse_request("STATUS 42");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->verb, Verb::kStatus);
  EXPECT_EQ(status->job_id, 42u);

  EXPECT_FALSE(parse_request("").ok());
  EXPECT_FALSE(parse_request("FROB").ok());
  EXPECT_FALSE(parse_request("SUBMIT").ok());    // missing row
  EXPECT_FALSE(parse_request("STATUS").ok());    // missing id
  EXPECT_FALSE(parse_request("STATUS abc").ok());
  EXPECT_FALSE(parse_request("PING extra").ok());

  // Every verb's name parses back to it; the argument-taking verbs get one.
  const std::pair<Verb, const char*> verbs[] = {
      {Verb::kPing, ""},       {Verb::kSubmit, " 0,1,cpu"},
      {Verb::kStatus, " 7"},   {Verb::kCluster, ""},
      {Verb::kMetrics, ""},    {Verb::kDrain, ""},
      {Verb::kShutdown, ""},   {Verb::kAuth, " secret"},
      {Verb::kSnapshot, ""},
  };
  ASSERT_EQ(std::size(verbs), static_cast<size_t>(Verb::kSnapshot) + 1);
  const auto error_of = [](const std::string& line) {
    auto req = parse_request(line);
    EXPECT_FALSE(req.ok()) << line;
    if (req.ok()) {
      return std::string();
    }
    EXPECT_EQ(req.error().code, util::ErrorCode::kParseError) << line;
    return req.error().message;
  };
  for (const auto& [verb, arg] : verbs) {
    const std::string name = to_string(verb);
    auto req = parse_request(name + arg);
    ASSERT_TRUE(req.ok()) << name << ": " << req.error().message;
    EXPECT_EQ(req->verb, verb) << name;
    if (*arg == '\0') {
      EXPECT_EQ(error_of(name + " extra"), name + " takes no argument");
    }
    // Verbs are case-sensitive: the lower-case spelling is unknown.
    std::string lower = name;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    EXPECT_EQ(error_of(lower + arg), "unknown verb '" + lower + "'");
  }
  EXPECT_EQ(error_of("AUTH"), "AUTH needs a token");
  EXPECT_EQ(error_of("AUTH   "), "AUTH needs a token");
  EXPECT_EQ(error_of("SUBMIT"), "SUBMIT needs a CSV job row");
  EXPECT_EQ(error_of("STATUS"), "STATUS needs a job id");
  EXPECT_EQ(error_of("STATUS abc"), "STATUS needs a job id");
  EXPECT_EQ(error_of("FROB 1"), "unknown verb 'FROB'");
}

TEST(Protocol, ResponseRoundTrip) {
  auto ok = parse_response(format_ok("id=3 vt=1.500"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->kind, Response::Kind::kOk);
  EXPECT_EQ(ok->payload, "id=3 vt=1.500");

  auto err = parse_response(
      format_err(util::ErrorCode::kNotFound, "no such\njob"));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->kind, Response::Kind::kErr);
  EXPECT_EQ(err->code, util::ErrorCode::kNotFound);
  // Newlines are sanitized so a message can never forge a protocol line.
  EXPECT_EQ(err->payload.find('\n'), std::string::npos);

  auto busy = parse_response(format_busy(250));
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->kind, Response::Kind::kBusy);
  EXPECT_EQ(busy->retry_after_ms, 250);

  EXPECT_FALSE(parse_response("WAT 1").ok());
}

// ------------------------------------------------------------- env parser

TEST(Env, ParseStrictInt) {
  ASSERT_TRUE(util::parse_strict_int("42", 1).ok());
  EXPECT_EQ(*util::parse_strict_int("42", 1), 42);
  EXPECT_FALSE(util::parse_strict_int("", 1).ok());
  EXPECT_FALSE(util::parse_strict_int("abc", 1).ok());
  EXPECT_FALSE(util::parse_strict_int("4x", 1).ok());   // trailing junk
  EXPECT_FALSE(util::parse_strict_int("0", 1).ok());    // below minimum
  EXPECT_FALSE(util::parse_strict_int("-3", 1).ok());
  EXPECT_FALSE(util::parse_strict_int("99999999999999999999", 1).ok());
  EXPECT_FALSE(util::parse_strict_int(" 42", 1).ok());  // whole token only
  EXPECT_FALSE(util::parse_strict_int("+42", 1).ok());  // '-' is the only sign
  ASSERT_TRUE(util::parse_strict_int("2147483647", 1, 2147483647).ok());
  EXPECT_FALSE(util::parse_strict_int("2147483648", 1, 2147483647).ok());
}

TEST(Env, ParseStrictDouble) {
  ASSERT_TRUE(util::parse_strict_double("2.5", 0.0).ok());
  EXPECT_DOUBLE_EQ(*util::parse_strict_double("2.5", 0.0), 2.5);
  ASSERT_TRUE(util::parse_strict_double("0x1.8p+1", 0.0).ok());  // hexfloat
  EXPECT_DOUBLE_EQ(*util::parse_strict_double("0x1.8p+1", 0.0), 3.0);
  EXPECT_FALSE(util::parse_strict_double("", 0.0).ok());
  EXPECT_FALSE(util::parse_strict_double("fast", 0.0).ok());
  EXPECT_FALSE(util::parse_strict_double("2.5x", 0.0).ok());  // trailing junk
  EXPECT_FALSE(util::parse_strict_double("-1", 0.0).ok());    // below minimum
  EXPECT_FALSE(util::parse_strict_double("1e999", 0.0).ok());  // overflow
}

TEST(Env, ParseStrictU64) {
  ASSERT_TRUE(util::parse_strict_u64("18446744073709551615").ok());
  EXPECT_EQ(*util::parse_strict_u64("18446744073709551615"),
            0xFFFFFFFFFFFFFFFFull);
  EXPECT_FALSE(util::parse_strict_u64("").ok());
  EXPECT_FALSE(util::parse_strict_u64("-1").ok());  // strtoull would wrap
  EXPECT_FALSE(util::parse_strict_u64("7up").ok());
  EXPECT_FALSE(util::parse_strict_u64("18446744073709551616").ok());
  EXPECT_FALSE(util::parse_strict_u64("+7").ok());  // no sign at all
  EXPECT_FALSE(util::parse_strict_u64(" -1").ok());
}

TEST(Env, EnvIntFallsBackOnMalformedValue) {
  ::setenv("CODA_TEST_KNOB", "7", 1);
  EXPECT_EQ(util::env_int("CODA_TEST_KNOB", 3), 7);
  ::setenv("CODA_TEST_KNOB", "zero", 1);
  EXPECT_EQ(util::env_int("CODA_TEST_KNOB", 3), 3);
  ::setenv("CODA_TEST_KNOB", "0", 1);
  EXPECT_EQ(util::env_int("CODA_TEST_KNOB", 3), 3);
  ::setenv("CODA_TEST_KNOB", "4294967297", 1);  // does not fit an int
  EXPECT_EQ(util::env_int("CODA_TEST_KNOB", 3), 3);
  ::unsetenv("CODA_TEST_KNOB");
  EXPECT_EQ(util::env_int("CODA_TEST_KNOB", 3), 3);
}

TEST(Env, RunnerDefaultWorkersRejectsMalformedCodaJobs) {
  ::setenv("CODA_JOBS", "3", 1);
  EXPECT_EQ(sim::Runner::default_workers(), 3);
  ::setenv("CODA_JOBS", "abc", 1);
  const int fallback = sim::Runner::default_workers();
  EXPECT_GE(fallback, 1);
  ::setenv("CODA_JOBS", "-2", 1);
  EXPECT_EQ(sim::Runner::default_workers(), fallback);
  ::unsetenv("CODA_JOBS");
}

// ------------------------------------------------------- live server tests

std::string tiny_trace_csv(uint64_t seed) {
  auto cfg = sim::standard_week_trace(seed);
  cfg.duration_s = 2.0 * 3600.0;
  cfg.cpu_jobs = 40;
  cfg.gpu_jobs = 20;
  return workload::trace_to_csv(workload::TraceGenerator(cfg).generate());
}

ServerConfig tiny_server_config(const std::string& tag, double speedup) {
  ServerConfig config;
  config.session.policy = sim::Policy::kCoda;
  config.session.config.engine.cluster.node_count = 8;
  config.session.config.horizon_s = 2.0 * 3600.0;
  config.session.config.drain_slack_s = 86400.0;
  config.session.speedup = speedup;
  config.session.base_trace_csv = tiny_trace_csv(11);
  config.journal_path =
      "/tmp/coda_service_test_" + tag + "_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal";
  config.unix_socket_path =
      "/tmp/coda_service_test_" + tag + "_" +
      std::to_string(static_cast<long long>(::getpid())) + ".sock";
  return config;
}

std::string submit_row(int cores, double work) {
  workload::JobSpec job;
  job.kind = workload::JobKind::kCpu;
  job.cpu_cores = cores;
  job.cpu_work_core_s = work;
  job.mem_bw_gbps = 1.0;
  job.llc_mb = 2.0;
  return workload::job_to_csv_row(job);
}

TEST(Server, JournalReplayReproducesLiveReportByteForByte) {
  // As-fast-as-possible pacing: the engine reaches the horizon at once and
  // every live SUBMIT lands at nextafter(horizon) — the collision-heaviest
  // injection point, which is exactly what replay must reproduce.
  ServerConfig config = tiny_server_config("afap", 0.0);
  const std::string journal_path = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->ping().ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = client->submit_row(submit_row(2 + i, 600.0 * (i + 1)));
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ok()) << resp->payload;
  }
  // Duplicate id: 1 is a base-trace job.
  {
    workload::JobSpec job;
    job.id = 1;
    job.kind = workload::JobKind::kCpu;
    job.cpu_work_core_s = 10.0;
    auto resp = client->submit_row(workload::job_to_csv_row(job));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->kind, Response::Kind::kErr);
  }
  {
    auto resp = client->status(999999);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->kind, Response::Kind::kErr);
    EXPECT_EQ(resp->code, util::ErrorCode::kNotFound);
  }
  auto drained = client->drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->ok()) << drained->payload;
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
  ASSERT_TRUE(server.drained());

  const std::string live_report = server.report_text();
  ASSERT_FALSE(live_report.empty());
  auto replayed = replay_journal_file(journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(sim::serialize_report(*replayed), live_report);
  // The report file codad leaves on disk is the same bytes.
  std::FILE* f = std::fopen((journal_path + ".report").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string on_disk;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    on_disk.append(buf, n);
  }
  std::fclose(f);
  EXPECT_EQ(on_disk, live_report);
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
}

TEST(Server, PacedSubmissionsReplayByteForByte) {
  // Fast-but-paced: the 2-hour session compresses to ~70ms of wall time,
  // so the three SUBMITs land at scattered mid-run virtual times instead
  // of piling up at the horizon.
  ServerConfig config = tiny_server_config("paced", 100000.0);
  const std::string journal_path = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = client->submit_row(submit_row(2, 300.0));
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ok()) << resp->payload;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  ASSERT_TRUE(client->drain().ok());
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();

  auto replayed = replay_journal_file(journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(sim::serialize_report(*replayed), server.report_text());
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
}

TEST(Server, ConnectionLimitAnswersBusy) {
  ServerConfig config = tiny_server_config("connlimit", 0.0);
  const std::string journal_path = config.journal_path;
  config.journal_path.clear();  // journaling not under test here
  config.limits.max_connections = 1;
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  auto first = Client::connect(endpoint);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->ping().ok());  // proves the slot is held

  auto second = Client::connect(endpoint);
  ASSERT_TRUE(second.ok());  // connect() succeeds; the acceptor then
                             // answers BUSY and closes.
  auto resp = second->call("PING");
  // Either we read the BUSY line, or the server closed before our write
  // landed — both are the backpressure path, never a hang.
  if (resp.ok()) {
    EXPECT_EQ(resp->kind, Response::Kind::kBusy);
    EXPECT_GT(resp->retry_after_ms, 0);
  }
  ASSERT_TRUE(first->shutdown().ok());
  server.wait();
  (void)journal_path;
}

TEST(Server, ShutdownAnswersEveryInflightCommand) {
  // Regression: a command drained into the same mailbox batch as SHUTDOWN
  // used to be discarded unanswered, leaving its connection blocked forever
  // on its reply slot and deadlocking wait(). Hammer the mailbox from
  // several connections while SHUTDOWN lands; every call must resolve with
  // a reply or a clean disconnect, and wait() must return.
  ServerConfig config = tiny_server_config("shutdownrace", 0.0);
  config.journal_path.clear();  // journaling not under test here
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  std::vector<std::thread> pingers;
  for (int p = 0; p < 4; ++p) {
    pingers.emplace_back([&endpoint] {
      auto client = Client::connect(endpoint);
      if (!client.ok()) {
        return;
      }
      // Runs until the server closes the socket; a dropped reply would
      // hang this call (and the test) forever.
      while (client->call("PING").ok()) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto admin = Client::connect(endpoint);
  ASSERT_TRUE(admin.ok());
  ASSERT_TRUE(admin->shutdown().ok());
  server.wait();
  for (auto& t : pingers) {
    t.join();
  }
}

// ---------------------------------------------------------------- journal

TEST(Journal, RejectsCorruptInput) {
  EXPECT_FALSE(parse_journal("").ok());
  EXPECT_FALSE(parse_journal("CODA_JOURNAL v99\n").ok());
  // Valid magic but missing the required horizon.
  EXPECT_FALSE(parse_journal("CODA_JOURNAL v1\npolicy CODA\n").ok());
}

TEST(Journal, WriterProducesReparsableSession) {
  SessionSpec session;
  session.policy = sim::Policy::kDrf;
  session.config.horizon_s = 1234.5;
  session.config.engine.cluster.node_count = 5;
  session.speedup = 60.0;
  session.base_trace_csv = workload::trace_csv_header() + "\n";
  const std::string path =
      "/tmp/coda_journal_roundtrip_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal";
  {
    auto writer = JournalWriter::open(path, session);
    ASSERT_TRUE(writer.ok()) << writer.error().message;
    ASSERT_TRUE(writer->append_submit(17.25, 9, submit_row(2, 60.0)).ok());
    writer->note("mid-session comment");
    ASSERT_TRUE(writer->append_submit(18.5, 10, submit_row(1, 30.0)).ok());
  }
  auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->session.policy, sim::Policy::kDrf);
  EXPECT_EQ(loaded->session.config.engine.cluster.node_count, 5);
  EXPECT_DOUBLE_EQ(loaded->session.config.horizon_s, 1234.5);
  EXPECT_EQ(loaded->session.base_trace_csv, session.base_trace_csv);
  ASSERT_EQ(loaded->submissions.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->submissions[0].virtual_time, 17.25);
  EXPECT_EQ(loaded->submissions[0].job_id, 9u);
  EXPECT_DOUBLE_EQ(loaded->submissions[1].virtual_time, 18.5);
  EXPECT_EQ(loaded->submissions[1].job_id, 10u);
  std::remove(path.c_str());
}

TEST(Journal, OpenReplacesAnExistingFileInOneRename) {
  // SNAPSHOT truncates a journal by reopening it. A rename leaves the old
  // inode whole (a second link still reads it), so a crash mid-write can
  // never leave a torn header; truncating in place would empty the link.
  SessionSpec session;
  session.config.horizon_s = 100.0;
  const std::string path =
      "/tmp/coda_journal_rename_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal";
  const std::string old_bytes = serialize_session_header(session) +
                                format_submit_entry(1.5, 7, submit_row(1, 30.0));
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(old_bytes.data(), 1, old_bytes.size(), f),
              old_bytes.size());
    std::fclose(f);
  }
  const std::string link = path + ".link";
  ASSERT_EQ(::link(path.c_str(), link.c_str()), 0);
  {
    auto writer = JournalWriter::open(path, session);
    ASSERT_TRUE(writer.ok()) << writer.error().message;
    EXPECT_EQ(writer->bytes(), serialize_session_header(session).size());
  }
  auto fresh = load_journal(path);
  ASSERT_TRUE(fresh.ok()) << fresh.error().message;
  EXPECT_TRUE(fresh->submissions.empty());
  auto old = load_journal(link);
  ASSERT_TRUE(old.ok()) << old.error().message;
  EXPECT_EQ(old->submissions.size(), 1u);
  std::remove(path.c_str());
  std::remove(link.c_str());
}

TEST(Journal, Uint64FieldsAboveInt64MaxRoundTrip) {
  // noise_seed and job ids are written with %llu; values >= 2^63 must
  // parse back (a signed parser rejects them, making the journal fail its
  // own replay).
  SessionSpec session;
  session.config.horizon_s = 100.0;
  session.config.engine.noise_seed = 0x8000000000000001ull;
  const std::string path =
      "/tmp/coda_journal_u64_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal";
  const uint64_t big_id = 0xFFFFFFFFFFFFFFF0ull;
  {
    auto writer = JournalWriter::open(path, session);
    ASSERT_TRUE(writer.ok()) << writer.error().message;
    ASSERT_TRUE(writer->append_submit(1.5, big_id, submit_row(1, 30.0)).ok());
  }
  auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->session.config.engine.noise_seed, 0x8000000000000001ull);
  ASSERT_EQ(loaded->submissions.size(), 1u);
  EXPECT_EQ(loaded->submissions[0].job_id, big_id);
  std::remove(path.c_str());
}

// ------------------------------------------------ journal v2 config block

// A SessionSpec with every journaled knob off its default — the adversarial
// input for header round-trip and live-vs-replay tests.
SessionSpec non_default_session() {
  SessionSpec session;
  session.policy = sim::Policy::kCoda;
  session.speedup = 0.0;
  auto& c = session.config;
  c.horizon_s = 2.0 * 3600.0;
  c.drain_slack_s = 86400.0;
  auto& cluster = c.engine.cluster;
  cluster.node_count = 8;
  cluster.node.cores = 24;
  cluster.node.mem_bw_gbps = 120.0;
  cluster.mba_fraction = 0.25;
  cluster.cpu_only_node_count = 2;
  cluster.cpu_only_node.cores = 32;
  cluster.cpu_only_node.mba_capable = false;
  c.engine.util_noise_stddev = 0.05;
  c.engine.noise_seed = 99;
  c.engine.record_events = true;
  c.engine.incremental_recompute = false;
  c.retry.enabled = true;
  c.retry.backoff_base_s = 45.0;
  c.retry.backoff_max_s = 900.0;
  c.retry.max_retries = 3;
  c.failures.node_mtbf_s = 1800.0;
  c.failures.outage_s = 450.0;
  c.failures.seed = 77;
  c.coda.allocator.search_mode = core::SearchMode::kStepwise;
  c.coda.allocator.profile_step_s = 60.0;
  c.coda.allocator.improvement_eps = 0.01;
  c.coda.allocator.max_cores = 20;
  c.coda.eliminator.bw_threshold = 0.6;
  c.coda.eliminator.mba_throttle_factor = 0.4;
  c.coda.eliminator.release_when_calm = true;
  c.coda.eliminator.release_threshold = 0.5;
  c.coda.reserved_cores_per_node = 16;
  c.coda.four_gpu_node_fraction = 0.25;
  c.coda.multi_array_enabled = false;
  c.coda.cpu_preemption_enabled = false;
  c.coda.static_bw_cap_gbps = 100.0;
  return session;
}

TEST(Journal, V1FixtureParsesWithDefaultConfig) {
  // A verbatim header from the previous release (nine legacy keys, no
  // config block). It must keep loading, with every v2 field taking the
  // library default — which is exactly what the v1 daemon ran with.
  const std::string v1 =
      "CODA_JOURNAL v1\n"
      "policy DRF\n"
      "nodes 5\n"
      "metrics_period 0x1.ep+5\n"
      "frag_min_cpus 2\n"
      "noise_stddev 0x0p+0\n"
      "noise_seed 12345\n"
      "horizon 0x1.c2p+12\n"
      "drain_slack 0x1.518p+17\n"
      "speedup 0x1.c2p+11\n"
      "base_trace_bytes 0\n";
  auto parsed = parse_journal(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->session.policy, sim::Policy::kDrf);
  EXPECT_EQ(parsed->session.config.engine.cluster.node_count, 5);
  EXPECT_DOUBLE_EQ(parsed->session.config.horizon_s, 7200.0);
  // Spot-check defaults across the config structs v1 never recorded.
  const sim::ExperimentConfig defaults;
  EXPECT_EQ(parsed->session.config.retry.enabled, defaults.retry.enabled);
  EXPECT_EQ(parsed->session.config.retry.max_retries,
            defaults.retry.max_retries);
  EXPECT_DOUBLE_EQ(parsed->session.config.failures.node_mtbf_s,
                   defaults.failures.node_mtbf_s);
  EXPECT_EQ(parsed->session.config.coda.multi_array_enabled,
            defaults.coda.multi_array_enabled);
  EXPECT_EQ(parsed->session.config.coda.allocator.search_mode,
            defaults.coda.allocator.search_mode);
  EXPECT_EQ(parsed->session.config.engine.cluster.cpu_only_node_count,
            defaults.engine.cluster.cpu_only_node_count);
  // A v1 header must not smuggle in v2 config keys.
  EXPECT_FALSE(parse_journal("CODA_JOURNAL v1\n"
                             "horizon 0x1p+10\n"
                             "config.retry.enabled 1\n"
                             "base_trace_bytes 0\n")
                   .ok());
}

TEST(Journal, V2RejectsUnknownDuplicateAndMissingConfigKeys) {
  const std::string header = serialize_session_header(non_default_session());
  const std::string marker = "base_trace_bytes";
  const auto at = header.find(marker);
  ASSERT_NE(at, std::string::npos);

  // Unknown key: a journal from a future build with a field this build
  // does not understand must fail loudly, not replay under a wrong config.
  std::string unknown = header;
  unknown.insert(at, "config.retry.jitter 0x1p+0\n");
  auto r = parse_journal(unknown);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("unknown config key"), std::string::npos)
      << r.error().message;

  // Duplicate key, `config.` and legacy alike: last-wins would replay
  // `nodes 8` followed by `nodes 7` on 7 nodes.
  const std::string line = "config.retry.enabled 1\n";
  const auto line_at = header.find(line);
  ASSERT_NE(line_at, std::string::npos);
  std::string dup = header;
  dup.insert(at, line);
  EXPECT_FALSE(parse_journal(dup).ok());
  std::string dup_legacy = header;
  dup_legacy.insert(at, "nodes 7\n");
  r = parse_journal(dup_legacy);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("duplicate"), std::string::npos)
      << r.error().message;

  // Missing key: a v2 header must carry the complete config block.
  std::string missing = header;
  missing.erase(line_at, line.size());
  r = parse_journal(missing);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("config.retry.enabled"),
            std::string::npos)
      << r.error().message;
}

TEST(Journal, RejectsOutOfRangeNumbers) {
  // Overflowing doubles and ints must be parse errors, not +inf / UB —
  // the ERANGE discipline trace_io already applies.
  const std::string stem = "CODA_JOURNAL v1\nhorizon ";
  EXPECT_FALSE(parse_journal(stem + "1e999\nbase_trace_bytes 0\n").ok());
  EXPECT_FALSE(
      parse_journal(stem + "0x1p+99999\nbase_trace_bytes 0\n").ok());
  EXPECT_FALSE(parse_journal("CODA_JOURNAL v1\nhorizon 0x1p+10\n"
                             "nodes 99999999999999999999\n"
                             "base_trace_bytes 0\n")
                   .ok());
  // An int field takes only values that fit an int: a wrapping cast would
  // replay 4294967297 nodes as 1 and 4294967298 as 2.
  EXPECT_FALSE(parse_journal("CODA_JOURNAL v1\nhorizon 0x1p+10\n"
                             "nodes 4294967297\nbase_trace_bytes 0\n")
                   .ok());
  EXPECT_FALSE(parse_journal("CODA_JOURNAL v1\nhorizon 0x1p+10\n"
                             "frag_min_cpus 4294967298\nbase_trace_bytes 0\n")
                   .ok());

  // Values that parse but that the engine asserts on when it builds the
  // session are refused where the header enters (sim::validate_config),
  // for legacy and `config.` keys alike. Values the engine tolerates
  // still load.
  using Edit = void (*)(sim::ExperimentConfig&);
  const auto header_with = [](Edit edit) {
    SessionSpec session;
    session.config.horizon_s = 3600.0;
    edit(session.config);
    return serialize_session_header(session);
  };
  const Edit aborting[] = {
      [](sim::ExperimentConfig& c) { c.engine.cluster.node_count = 0; },
      [](sim::ExperimentConfig& c) { c.engine.cluster.node_count = -3; },
      [](sim::ExperimentConfig& c) {
        c.engine.cluster.cpu_only_node_count = -1;
      },
      [](sim::ExperimentConfig& c) {
        c.engine.cluster.cpu_only_node_count = 1;
        c.engine.cluster.cpu_only_node.cores = -1;
      },
      [](sim::ExperimentConfig& c) { c.engine.cluster.cpu_only_node.gpus = 1; },
      [](sim::ExperimentConfig& c) { c.engine.cluster.mba_fraction = 2.0; },
      [](sim::ExperimentConfig& c) { c.engine.cluster.node.gpus = -1; },
      [](sim::ExperimentConfig& c) { c.engine.cluster.node.cores = -1; },
      [](sim::ExperimentConfig& c) { c.engine.metrics_period_s = 0.0; },
      [](sim::ExperimentConfig& c) { c.coda.eliminator.check_period_s = 0.0; },
      [](sim::ExperimentConfig& c) {
        c.failures.node_mtbf_s = 600.0;
        c.failures.outage_s = 0.0;
      },
  };
  for (size_t i = 0; i < std::size(aborting); ++i) {
    auto parsed = parse_journal(header_with(aborting[i]));
    ASSERT_FALSE(parsed.ok()) << "case " << i;
    EXPECT_EQ(parsed.error().code, util::ErrorCode::kInvalidArgument)
        << "case " << i << ": " << parsed.error().message;
  }
  const Edit tolerated[] = {
      [](sim::ExperimentConfig& c) { c.failures.outage_s = 0.0; },
      [](sim::ExperimentConfig& c) { c.coda.allocator.min_cores = 9; },
      [](sim::ExperimentConfig& c) { c.coda.allocator.profile_step_s = 0.0; },
      [](sim::ExperimentConfig& c) {
        c.coda.reservation_update_period_s = -1.0;
      },
  };
  for (size_t i = 0; i < std::size(tolerated); ++i) {
    auto parsed = parse_journal(header_with(tolerated[i]));
    EXPECT_TRUE(parsed.ok()) << "case " << i << ": "
                             << parsed.error().message;
  }
}

// The persisted bytes themselves, not just their self-consistency: each
// digest is CacheKeyHasher::mix(text).hex() of a journal header or a report
// blob, recorded before the report writer moved onto state::serde and the
// header onto the sim/experiment.h field table. A reordered header line or
// a changed token format fails here even when the text still round-trips.
// The report rows run non_default_session()'s config (failures, retry,
// noise, CPU-only nodes, CODA ablations) over one day of the standard trace.
TEST(Journal, PinnedHeaderAndReportDigests) {
  const auto digest = [](const std::string& text) {
    sim::CacheKeyHasher h;
    h.mix(text);
    return h.hex();
  };
  SessionSpec default_session;
  default_session.config.horizon_s = 3600.0;
  const std::string default_header = serialize_session_header(default_session);
  EXPECT_EQ(default_header.size(), 1927u);
  EXPECT_EQ(digest(default_header), "c7347a3d925ef6cf");
  const std::string non_default_header =
      serialize_session_header(non_default_session());
  EXPECT_EQ(non_default_header.size(), 1933u);
  EXPECT_EQ(digest(non_default_header), "8822783df8653ae8");

  workload::TraceConfig day = sim::standard_week_trace(7);
  day.duration_s = 86400.0;
  day.cpu_jobs /= 7;
  day.gpu_jobs /= 7;
  const auto trace = workload::TraceGenerator(day).generate();
  sim::ExperimentConfig config = non_default_session().config;
  config.horizon_s = 0.0;
  config.drain_slack_s = 2.0 * 86400.0;
  config.engine.incremental_recompute = true;
  config.engine.record_events = false;
  const std::pair<sim::Policy, const char*> rows[] = {
      {sim::Policy::kFifo, "99f9271326ff1a91"},
      {sim::Policy::kDrf, "441a5521086ff9d1"},
      {sim::Policy::kCoda, "919bc426cba66aa8"},
  };
  for (const auto& [policy, expected] : rows) {
    EXPECT_EQ(digest(sim::serialize_report(
                  sim::run_experiment(policy, trace, config))),
              expected)
        << sim::to_string(policy);
  }
}

TEST(Journal, RandomizedSessionHeaderRoundTrips) {
  // Property: for any SessionSpec, writing a journal and loading it back
  // reproduces every config field bit-for-bit — asserted by comparing the
  // re-serialized header text, which encodes doubles as hexfloats.
  // Draws stay in normal double range: strtod flags subnormals ERANGE on
  // glibc and the parser (deliberately) treats that as corruption.
  util::Rng rng(20260807);
  const std::string path =
      "/tmp/coda_journal_fuzz_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal";
  for (int iter = 0; iter < 20; ++iter) {
    SessionSpec session;
    session.policy = static_cast<sim::Policy>(rng.uniform_int(0, 2));
    session.speedup = rng.uniform(0.0, 1e6);
    auto& c = session.config;
    c.horizon_s = rng.uniform(1.0, 1e9);
    c.drain_slack_s = rng.uniform(0.0, 1e7);
    auto& cluster = c.engine.cluster;
    cluster.node_count = static_cast<int>(rng.uniform_int(1, 500));
    cluster.node.cores = static_cast<int>(rng.uniform_int(1, 128));
    cluster.node.gpus = static_cast<int>(rng.uniform_int(0, 16));
    cluster.node.mem_bw_gbps = rng.uniform(1.0, 1000.0);
    cluster.node.pcie_gbps = rng.uniform(1.0, 128.0);
    cluster.node.llc_mb = rng.uniform(1.0, 256.0);
    cluster.node.mba_capable = rng.bernoulli(0.5);
    cluster.mba_fraction = rng.uniform(0.0, 1.0);
    cluster.cpu_only_node_count = static_cast<int>(rng.uniform_int(0, 50));
    cluster.cpu_only_node.cores = static_cast<int>(rng.uniform_int(1, 128));
    cluster.cpu_only_node.mem_bw_gbps = rng.uniform(1.0, 1000.0);
    c.engine.metrics_period_s = rng.uniform(1.0, 3600.0);
    c.engine.frag_min_cpus = static_cast<int>(rng.uniform_int(1, 8));
    c.engine.util_noise_stddev = rng.uniform(0.0, 0.5);
    c.engine.noise_seed = rng.next_u64();
    c.engine.record_events = rng.bernoulli(0.5);
    c.engine.incremental_recompute = rng.bernoulli(0.5);
    c.retry.enabled = rng.bernoulli(0.5);
    c.retry.backoff_base_s = rng.uniform(1.0, 600.0);
    c.retry.backoff_max_s = rng.uniform(600.0, 86400.0);
    c.retry.max_retries = static_cast<int>(rng.uniform_int(0, 100));
    c.failures.node_mtbf_s = rng.uniform(0.0, 1e6);
    c.failures.outage_s = rng.uniform(1.0, 1e5);
    c.failures.seed = rng.next_u64();
    c.coda.allocator.search_mode =
        static_cast<core::SearchMode>(rng.uniform_int(0, 2));
    c.coda.allocator.profile_step_s = rng.uniform(1.0, 600.0);
    c.coda.allocator.max_profile_steps =
        static_cast<int>(rng.uniform_int(1, 50));
    c.coda.allocator.improvement_eps = rng.uniform(0.0, 0.1);
    c.coda.allocator.plateau_util = rng.uniform(0.0, 1.0);
    c.coda.allocator.min_cores = static_cast<int>(rng.uniform_int(1, 4));
    c.coda.allocator.max_cores = static_cast<int>(rng.uniform_int(4, 128));
    c.coda.eliminator.enabled = rng.bernoulli(0.5);
    c.coda.eliminator.check_period_s = rng.uniform(1.0, 600.0);
    c.coda.eliminator.bw_threshold = rng.uniform(0.0, 1.0);
    c.coda.eliminator.util_drop_tolerance = rng.uniform(0.0, 0.2);
    c.coda.eliminator.mba_throttle_factor = rng.uniform(0.0, 1.0);
    c.coda.eliminator.release_when_calm = rng.bernoulli(0.5);
    c.coda.eliminator.release_threshold = rng.uniform(0.0, 1.0);
    c.coda.reserved_cores_per_node = static_cast<int>(rng.uniform_int(0, 64));
    c.coda.four_gpu_node_fraction = rng.uniform(0.0, 1.0);
    c.coda.reservation_update_period_s = rng.uniform(60.0, 1e5);
    c.coda.multi_array_enabled = rng.bernoulli(0.5);
    c.coda.cpu_preemption_enabled = rng.bernoulli(0.5);
    c.coda.static_bw_cap_gbps = rng.uniform(0.0, 500.0);

    {
      auto writer = JournalWriter::open(path, session);
      ASSERT_TRUE(writer.ok()) << writer.error().message;
    }
    auto loaded = load_journal(path);
    ASSERT_TRUE(loaded.ok()) << "iter " << iter << ": "
                             << loaded.error().message;
    EXPECT_EQ(serialize_session_header(loaded->session),
              serialize_session_header(session))
        << "iter " << iter;
    // Bit-exactness spot check on a hexfloat field (text equality above
    // already implies it; this documents the invariant directly).
    EXPECT_EQ(std::memcmp(&loaded->session.config.failures.node_mtbf_s,
                          &c.failures.node_mtbf_s, sizeof(double)),
              0);
  }
  std::remove(path.c_str());
}

TEST(Server, StartRefusesConfigsTheEngineAbortsOn) {
  // What `codad --mba-fraction 2` and `codad --mtbf 600 --outage-s 0` ask
  // for: both used to pass flag parsing and abort in an engine assert.
  using Edit = void (*)(sim::ExperimentConfig&);
  const Edit edits[] = {
      [](sim::ExperimentConfig& c) { c.engine.cluster.mba_fraction = 2.0; },
      [](sim::ExperimentConfig& c) {
        c.failures.node_mtbf_s = 600.0;
        c.failures.outage_s = 0.0;
      },
  };
  for (size_t i = 0; i < std::size(edits); ++i) {
    ServerConfig config = tiny_server_config("badconfig", 0.0);
    edits[i](config.session.config);
    Server server(std::move(config));
    const util::Status status = server.start();
    ASSERT_FALSE(status.ok()) << "case " << i;
    EXPECT_EQ(status.error().code, util::ErrorCode::kInvalidArgument)
        << "case " << i << ": " << status.error().message;
  }
}

TEST(Server, NonDefaultSessionReplaysByteForByte) {
  // The headline bugfix scenario: a session with every knob off default —
  // retry backoff, Poisson failure injection, utilization noise, CPU-only
  // nodes, CODA ablations. Its journal must record the full config (v2)
  // and replay to the daemon's exact report bytes. Under the v1 format
  // this replayed under defaults and diverged.
  ServerConfig config = tiny_server_config("nondefault", 0.0);
  config.session = non_default_session();
  config.session.base_trace_csv = tiny_trace_csv(11);
  const std::string journal_path = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto resp = client->submit_row(submit_row(2 + i, 600.0 * (i + 1)));
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ok()) << resp->payload;
  }
  ASSERT_TRUE(client->drain().ok());
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
  ASSERT_TRUE(server.drained());

  const std::string live_report = server.report_text();
  ASSERT_FALSE(live_report.empty());

  auto journal = load_journal(journal_path);
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  SessionSpec expected = non_default_session();
  expected.base_trace_csv = tiny_trace_csv(11);
  const std::string expected_header = serialize_session_header(expected);
  EXPECT_EQ(expected_header.rfind("CODA_JOURNAL v2\n", 0), 0u);
  EXPECT_EQ(serialize_session_header(journal->session), expected_header);

  auto replayed = replay_journal_file(journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  // The injected failures actually fired (seed 77 / MTBF 1800s over the
  // 2-hour horizon is a deterministic, non-empty outage schedule), and the
  // non-default retry policy shaped the run both live and offline.
  EXPECT_GT(replayed->node_failures, 0);
  EXPECT_EQ(sim::serialize_report(*replayed), live_report);
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
}

// ------------------------------------------------- pipelining and shards

TEST(LineReader, WholeBatchOfCommandsInOneChunk) {
  // A pipelining client writes a whole window in one send(); one recv()
  // must frame every command.
  std::string stream;
  for (int i = 0; i < 16; ++i) {
    stream += "CID " + std::to_string(i) + " PING\n";
  }
  LineReader reader(256);
  std::vector<std::string> lines;
  ASSERT_TRUE(reader.feed(stream.data(), stream.size(), &lines));
  ASSERT_EQ(lines.size(), 16u);
  EXPECT_EQ(lines[0], "CID 0 PING");
  EXPECT_EQ(lines[15], "CID 15 PING");
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(LineReader, ChunkSplitMidCommandAcrossBatches) {
  // A read boundary in the middle of one command of a multi-command batch:
  // complete lines frame immediately, the partial one carries over.
  LineReader reader(256);
  std::vector<std::string> lines;
  const std::string first = "PING\nSTATUS 7\nSUBM";
  const std::string second = "IT 1,2,cpu\nPING\n";
  ASSERT_TRUE(reader.feed(first.data(), first.size(), &lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(reader.pending_bytes(), 4u);  // "SUBM"
  ASSERT_TRUE(reader.feed(second.data(), second.size(), &lines));
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[2], "SUBMIT 1,2,cpu");
  EXPECT_EQ(lines[3], "PING");
}

TEST(LineReader, FeedViewsMatchesFeedAcrossSplits) {
  // The zero-copy path the server uses must frame exactly like feed(),
  // whether a line sits inside one chunk or spans the carry buffer.
  const std::string stream = "CID 1 SHARD 0 PING\r\nSTATUS 5\nPI";
  for (size_t chunk : {size_t{1}, size_t{3}, stream.size()}) {
    LineReader reader(64);
    std::vector<std::string> lines;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      const size_t n = std::min(chunk, stream.size() - off);
      ASSERT_TRUE(reader.feed_views(
          stream.data() + off, n,
          [&lines](std::string_view line) { lines.emplace_back(line); }));
    }
    ASSERT_EQ(lines.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(lines[0], "CID 1 SHARD 0 PING");
    EXPECT_EQ(lines[1], "STATUS 5");
    EXPECT_EQ(reader.pending_bytes(), 2u);  // "PI"
  }
}

TEST(Protocol, EnvelopeParsing) {
  auto bare = parse_envelope("PING");
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare->has_cid);
  EXPECT_EQ(bare->shard, -1);

  auto cid = parse_envelope("CID 42 STATUS 7");
  ASSERT_TRUE(cid.ok());
  EXPECT_TRUE(cid->has_cid);
  EXPECT_EQ(cid->cid, 42u);
  EXPECT_EQ(cid->request.verb, Verb::kStatus);

  // Both prefixes, either order.
  for (const char* line :
       {"CID 9 SHARD 3 PING", "SHARD 3 CID 9 PING"}) {
    auto env = parse_envelope(line);
    ASSERT_TRUE(env.ok()) << line;
    EXPECT_TRUE(env->has_cid);
    EXPECT_EQ(env->cid, 9u);
    EXPECT_EQ(env->shard, 3);
    EXPECT_EQ(env->request.verb, Verb::kPing);
  }

  EXPECT_FALSE(parse_envelope("CID 1 CID 2 PING").ok());      // duplicate
  EXPECT_FALSE(parse_envelope("SHARD 0 SHARD 1 PING").ok());  // duplicate
  EXPECT_FALSE(parse_envelope("CID x PING").ok());
  EXPECT_FALSE(parse_envelope("SHARD 9999999 PING").ok());    // out of range
  EXPECT_FALSE(parse_envelope("CID 7").ok());                 // no request
}

// The client side builds every request line through format_request. Each
// verb under each envelope must give the line the client code used to
// spell by hand (Client's convenience verbs, coda_ctl's `SHARD k ` prefix,
// run_bench's `CID n SHARD k ` prefix) and parse back to the verb,
// argument, CID and shard it was built from.
TEST(Protocol, RequestLinesRoundTrip) {
  struct Case {
    Verb verb;
    const char* arg;
    const char* line;
  };
  const Case cases[] = {
      {Verb::kPing, "", "PING"},
      {Verb::kSubmit,
       "0,0,cpu,0.000,Alexnet,1,1,0,0.0,1,1,0,0,0,4,900.000,1.000,0.000,"
       "2.000,0,0.000,0.000",
       "SUBMIT 0,0,cpu,0.000,Alexnet,1,1,0,0.0,1,1,0,0,0,4,900.000,1.000,"
       "0.000,2.000,0,0.000,0.000"},
      {Verb::kStatus, "18446744073709551615", "STATUS 18446744073709551615"},
      {Verb::kCluster, "", "CLUSTER"},
      {Verb::kMetrics, "", "METRICS"},
      {Verb::kDrain, "", "DRAIN"},
      {Verb::kShutdown, "", "SHUTDOWN"},
      {Verb::kAuth, "secret", "AUTH secret"},
      {Verb::kSnapshot, "", "SNAPSHOT"},
  };
  ASSERT_EQ(std::size(cases), static_cast<size_t>(Verb::kSnapshot) + 1);
  struct Prefix {
    std::optional<uint64_t> cid;
    int shard;
    const char* text;
  };
  const Prefix prefixes[] = {
      {std::nullopt, -1, ""},
      {7, -1, "CID 7 "},
      {std::nullopt, 3, "SHARD 3 "},
      {18446744073709551615ull, 0, "CID 18446744073709551615 SHARD 0 "},
  };
  for (const Case& c : cases) {
    for (const Prefix& p : prefixes) {
      const std::string line = format_request(c.verb, c.arg, p.shard, p.cid);
      EXPECT_EQ(line, std::string(p.text) + c.line);
      auto env = parse_envelope(line);
      ASSERT_TRUE(env.ok()) << line << ": " << env.error().message;
      EXPECT_EQ(env->request.verb, c.verb) << line;
      EXPECT_EQ(env->request.arg, c.arg) << line;
      EXPECT_EQ(env->has_cid, p.cid.has_value()) << line;
      EXPECT_EQ(env->cid, p.cid.value_or(0)) << line;
      EXPECT_EQ(env->shard, p.shard) << line;
    }
    EXPECT_EQ(verb_named(to_string(c.verb)), c.verb);
  }
  // A verb that takes no argument drops one; names are case-sensitive.
  EXPECT_EQ(format_request(Verb::kPing, "extra"), "PING");
  EXPECT_EQ(verb_named("ping"), std::nullopt);
  EXPECT_EQ(verb_named("FROB"), std::nullopt);
  // codad's CID echo on a reply is the same prefix.
  std::string reply;
  append_prefix(&reply, 9);
  reply += format_ok("pong");
  auto tagged = parse_tagged_response(reply);
  ASSERT_TRUE(tagged.ok()) << reply;
  EXPECT_EQ(reply, "CID 9 OK pong");
  EXPECT_TRUE(tagged->has_cid);
  EXPECT_EQ(tagged->cid, 9u);
}

// A seeded mutation loop over the wire path. Recorded request lines are
// cut, spliced, bit-flipped and padded into oversized numbers and lines,
// then framed whole and in random chunks (LineReader::feed_views), parsed
// as envelopes, routed by tenant and parsed as job rows; mutated replies go
// through parse_tagged_response. Under the sanitizer lanes the point is
// that no input crashes or trips UB; here, that every chunking frames the
// same lines and every recorded line still parses.
TEST(Protocol, SeededMutationsOfWireBytesParseSafely) {
  std::vector<std::string> requests = {
      "PING",          "CID 7 PING",  "SHARD 1 CID 2 STATUS 42",
      "STATUS 18446744073709551615",  "AUTH secret",
      "CLUSTER",       "METRICS",     "SNAPSHOT",
      "DRAIN",         "SHARD 0 DRAIN", "SHUTDOWN",
  };
  auto trace_cfg = sim::standard_week_trace(3);
  trace_cfg.duration_s = 3600.0;
  trace_cfg.cpu_jobs = 4;
  trace_cfg.gpu_jobs = 4;
  for (const auto& job : workload::TraceGenerator(trace_cfg).generate()) {
    const std::string row = workload::job_to_csv_row(job);
    requests.push_back("SUBMIT " + row);
    requests.push_back("CID " + std::to_string(job.id) + " SHARD 3 SUBMIT " +
                       row);
  }
  for (const std::string& line : requests) {
    auto env = parse_envelope(line);
    ASSERT_TRUE(env.ok()) << line << ": " << env.error().message;
    if (env->request.verb == Verb::kSubmit) {
      EXPECT_TRUE(workload::job_from_csv_row(env->request.arg).ok()) << line;
    }
  }
  // HTTP lines ride the same framing; the protocol parser refuses them.
  std::vector<std::string> inputs = requests;
  inputs.push_back("GET /metrics HTTP/1.0");
  inputs.push_back("Host: localhost");
  const std::vector<std::string> replies = {
      format_ok("id=3 vt=1.500"),
      "CID 9 " + format_ok("pong shard=0 vt=0.000"),
      format_err(util::ErrorCode::kNotFound, "unknown job 7"),
      "CID 1 " + format_err(util::ErrorCode::kParseError, "bad row"),
      format_busy(100),
      "CID 18446744073709551615 " + format_busy(5),
  };
  for (const std::string& line : replies) {
    EXPECT_TRUE(parse_tagged_response(line).ok()) << line;
  }

  constexpr size_t kMaxLine = 512;
  // How far the mutated inputs got: each stage must be reached.
  int poisoned = 0;
  int refused = 0;
  int mutated_rows = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    const auto below = [&rng](size_t n) {  // uniform in [0, n]
      return static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n)));
    };
    const auto pick = [&below](const std::vector<std::string>& from) {
      return from[below(from.size() - 1)];
    };
    const auto mutate = [&](std::string s,
                            const std::vector<std::string>& from) {
      switch (rng.uniform_int(0, 4)) {
        case 0:  // cut
          s.resize(below(s.size()));
          break;
        case 1: {  // splice with another recording
          const std::string other = pick(from);
          s = s.substr(0, below(s.size())) + other.substr(below(other.size()));
          break;
        }
        case 2:  // bit flips
          for (int64_t k = rng.uniform_int(1, 4); k > 0 && !s.empty(); --k) {
            s[below(s.size() - 1)] ^=
                static_cast<char>(1 << rng.uniform_int(0, 7));
          }
          break;
        case 3:  // an oversized number
          s.insert(below(s.size()),
                   std::string(static_cast<size_t>(rng.uniform_int(20, 400)),
                               '9'));
          break;
        default:  // padded past the line limit
          s += std::string(kMaxLine + below(64), s.empty() ? 'x' : s.back());
          break;
      }
      return s;
    };

    for (int i = 0; i < 2000; ++i) {
      std::string stream;
      for (int64_t k = rng.uniform_int(1, 6); k > 0; --k) {
        std::string line = pick(inputs);
        if (rng.bernoulli(0.7)) {
          line = mutate(std::move(line), inputs);
        }
        stream += line + (rng.bernoulli(0.2) ? "\r\n" : "\n");
      }

      LineReader whole(kMaxLine);
      std::vector<std::string> lines;
      const bool whole_ok = whole.feed(stream.data(), stream.size(), &lines);
      LineReader chunked(kMaxLine);
      std::vector<std::string> chunk_lines;
      bool chunked_ok = true;
      for (size_t off = 0; off < stream.size() && chunked_ok;) {
        const size_t n = std::min<size_t>(1 + below(63), stream.size() - off);
        chunked_ok = chunked.feed_views(
            stream.data() + off, n,
            [&chunk_lines](std::string_view l) { chunk_lines.emplace_back(l); });
        off += n;
      }
      ASSERT_EQ(chunk_lines, lines) << "seed " << seed << " stream " << i;
      ASSERT_EQ(chunked_ok, whole_ok) << "seed " << seed << " stream " << i;
      poisoned += whole_ok ? 0 : 1;

      for (const std::string& line : lines) {
        auto env = parse_envelope(line);
        const bool recorded = std::find(requests.begin(), requests.end(),
                                        line) != requests.end();
        EXPECT_TRUE(env.ok() || !recorded) << line;
        if (!env.ok()) {
          EXPECT_EQ(env.error().code, util::ErrorCode::kParseError) << line;
          ++refused;
          continue;
        }
        if (env->request.verb == Verb::kSubmit) {
          (void)tenant_of_csv_row(env->request.arg);
          const auto job = workload::job_from_csv_row(env->request.arg);
          EXPECT_TRUE(job.ok() || !recorded) << line;
          mutated_rows += recorded ? 0 : 1;
        }
      }
      const auto reply = parse_tagged_response(mutate(pick(replies), replies));
      EXPECT_TRUE(reply.ok() || reply.error().code ==
                                    util::ErrorCode::kParseError);
    }
  }
  EXPECT_GT(poisoned, 0);
  EXPECT_GT(refused, 0);
  EXPECT_GT(mutated_rows, 0);
}

TEST(Mailbox, BatchPushAcceptsPrefixUpToCapacity) {
  Mailbox<int> box(4);
  std::vector<int> batch{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(box.try_push_batch(&batch), 4u);  // capacity bound
  std::vector<int> drained;
  box.drain(&drained);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0], 1);
  EXPECT_EQ(drained[3], 4);
  box.close();
  std::vector<int> more{7};
  EXPECT_EQ(box.try_push_batch(&more), 0u);  // closed accepts nothing
}

ServerConfig sharded_server_config(const std::string& tag, int shards) {
  ServerConfig config = tiny_server_config(tag, 0.0);
  config.limits.shards = shards;
  return config;
}

TEST(Server, PipelinedCidsCompleteAcrossShards) {
  ServerConfig config = sharded_server_config("pipeline", 2);
  config.journal_path.clear();
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());
  ASSERT_EQ(server.shard_count(), 2);

  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  // A whole window written before reading anything, alternating shards:
  // replies may interleave across shards but every CID must come back
  // exactly once, stamped by the shard that served it.
  constexpr int kWindow = 32;
  for (int i = 0; i < kWindow; ++i) {
    const std::string line = "CID " + std::to_string(100 + i) + " SHARD " +
                             std::to_string(i % 2) + " PING";
    ASSERT_TRUE(client->send(line).ok());
  }
  std::vector<bool> seen(kWindow, false);
  for (int i = 0; i < kWindow; ++i) {
    auto tagged = client->recv_tagged();
    ASSERT_TRUE(tagged.ok()) << tagged.error().message;
    ASSERT_TRUE(tagged->has_cid);
    const int idx = static_cast<int>(tagged->cid) - 100;
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kWindow);
    EXPECT_FALSE(seen[static_cast<size_t>(idx)]) << "duplicate CID";
    seen[static_cast<size_t>(idx)] = true;
    EXPECT_TRUE(tagged->response.ok());
    const std::string want_shard = "shard=" + std::to_string(idx % 2);
    EXPECT_NE(tagged->response.payload.find(want_shard), std::string::npos)
        << tagged->response.payload;
  }
  // Un-CID'd replies still come back in request order after the window.
  auto plain = client->call("PING");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->ok());
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
}

TEST(Server, TwoShardJournalsReplayAndMatchSingleShardRuns) {
  // Shard isolation: each shard of a 2-shard session must journal exactly
  // its own submissions, replay byte-identically, AND match the report of
  // a fresh single-shard server fed the same submissions — proving the
  // shards really are independent deterministic engines.
  ServerConfig config = sharded_server_config("twoshard", 2);
  const std::string stem = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  std::vector<std::string> shard_reports(2);
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto r0 = client->call("SHARD 0 SUBMIT " + submit_row(2, 600.0));
    ASSERT_TRUE(r0.ok());
    EXPECT_TRUE(r0->ok()) << r0->payload;
    auto r1 = client->call("SHARD 1 SUBMIT " + submit_row(4, 1200.0));
    ASSERT_TRUE(r1.ok());
    EXPECT_TRUE(r1->ok()) << r1->payload;
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    ASSERT_TRUE(server.drained());
    shard_reports[0] = server.report_text(0);
    shard_reports[1] = server.report_text(1);
  }
  ASSERT_FALSE(shard_reports[0].empty());
  ASSERT_FALSE(shard_reports[1].empty());
  // The different submissions must have produced different outcomes.
  EXPECT_NE(shard_reports[0], shard_reports[1]);

  for (int k = 0; k < 2; ++k) {
    const std::string journal = stem + ".shard" + std::to_string(k);
    auto replayed = replay_journal_file(journal);
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_EQ(sim::serialize_report(*replayed),
              shard_reports[static_cast<size_t>(k)])
        << "shard " << k;
    std::remove(journal.c_str());
    std::remove((journal + ".report").c_str());
  }

  // Same-seed single-shard servers, one per shard's submission stream.
  for (int k = 0; k < 2; ++k) {
    ServerConfig single =
        tiny_server_config("single" + std::to_string(k), 0.0);
    single.journal_path.clear();
    const Endpoint ep{single.unix_socket_path, -1};
    Server server(std::move(single));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(ep);
    ASSERT_TRUE(client.ok());
    auto resp = client->submit_row(
        k == 0 ? submit_row(2, 600.0) : submit_row(4, 1200.0));
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ok()) << resp->payload;
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    EXPECT_EQ(server.report_text(0), shard_reports[static_cast<size_t>(k)])
        << "single-shard run " << k;
  }
}

// One HTTP/1.0 exchange over the server's unix socket: sends `request`,
// returns everything the server writes before it closes the connection.
std::string http_exchange(const std::string& socket_path,
                          const std::string& request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_TRUE(::send(fd, request.data(), request.size(), 0) >= 0);
  std::string body;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    body.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return body;
}

TEST(Server, HttpMetricsServedOnSameListener) {
  ServerConfig config = sharded_server_config("http", 2);
  config.journal_path.clear();
  const std::string socket_path = config.unix_socket_path;
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  const std::string resp =
      http_exchange(socket_path, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK", 0), 0u) << resp.substr(0, 80);
  EXPECT_NE(resp.find("application/openmetrics-text"), std::string::npos);
  // Serving-layer block plus one block per shard, labelled.
  EXPECT_NE(resp.find("coda_serve_connections_active"), std::string::npos);
  EXPECT_NE(resp.find("coda_shard_virtual_time{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(resp.find("coda_shard_virtual_time{shard=\"1\"}"),
            std::string::npos);
  // OpenMetrics exposition must close with the EOF marker.
  const std::string tail = "# EOF\n";
  ASSERT_GE(resp.size(), tail.size());
  EXPECT_EQ(resp.substr(resp.size() - tail.size()), tail);

  // Line by line: the serving-layer block (seven metrics, in this order),
  // then one block per shard, each closing on its drained gauge, then EOF.
  const size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::vector<std::string> lines;
  std::istringstream body(resp.substr(body_at + 4));
  for (std::string line; std::getline(body, line);) {
    lines.push_back(line);
  }
  const std::pair<const char*, const char*> serving[] = {
      {"coda_serve_connections_active", "gauge"},
      {"coda_serve_connections_accepted_total", "counter"},
      {"coda_serve_connections_rejected_total", "counter"},
      {"coda_serve_connections_dropped_total", "counter"},
      {"coda_serve_accept_errors_total", "counter"},
      {"coda_serve_commands_routed_total", "counter"},
      {"coda_serve_busy_rejections_total", "counter"},
  };
  size_t at = 0;
  for (const auto& [name, type] : serving) {
    ASSERT_LT(at + 1, lines.size());
    EXPECT_EQ(lines[at], std::string("# TYPE ") + name + " " + type);
    const std::string prefix = std::string(name) + " ";
    ASSERT_EQ(lines[at + 1].rfind(prefix, 0), 0u) << lines[at + 1];
    unsigned long long value = 0;
    EXPECT_EQ(util::parse_number(lines[at + 1].substr(prefix.size()), &value),
              util::ParseStatus::kOk)
        << lines[at + 1];
    at += 2;
  }
  for (int shard = 0; shard < 2; ++shard) {
    const std::string label = util::strfmt("{shard=\"%d\"} ", shard);
    bool closed = false;
    while (!closed) {
      ASSERT_LT(at + 1, lines.size()) << "shard " << shard;
      const std::string& type_line = lines[at];
      const std::string& value_line = lines[at + 1];
      ASSERT_EQ(type_line.rfind("# TYPE coda_", 0), 0u) << type_line;
      const std::string name =
          type_line.substr(7, type_line.find(' ', 7) - 7);
      EXPECT_EQ(type_line, "# TYPE " + name + " gauge");
      EXPECT_EQ(value_line.rfind(name + label, 0), 0u) << value_line;
      closed = name == "coda_shard_drained";
      at += 2;
    }
  }
  ASSERT_EQ(at + 1, lines.size());
  EXPECT_EQ(lines[at], "# EOF");

  const std::string miss =
      http_exchange(socket_path, "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(miss.rfind("HTTP/1.0 404", 0), 0u) << miss.substr(0, 80);

  server.request_shutdown();
  server.wait();
}

// The poll(2) fallback serves non-Linux builds and hosts where
// epoll_create fails; CODA_SERVE_FORCE_POLL=1 selects it here so the same
// protocol runs over it: CID-tagged SUBMIT and STATUS on two shards, a
// metrics scrape, and DRAIN.
TEST(Server, PollBackendServesATwoShardSession) {
  struct ForcePoll {  // declared first: unset after the server is gone
    ForcePoll() { ::setenv("CODA_SERVE_FORCE_POLL", "1", 1); }
    ~ForcePoll() { ::unsetenv("CODA_SERVE_FORCE_POLL"); }
  } force_poll;
  EXPECT_FALSE(Poller().using_epoll());

  ServerConfig config = sharded_server_config("poll", 2);
  config.journal_path.clear();
  const std::string socket_path = config.unix_socket_path;
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());
  auto client = Client::connect(Endpoint{socket_path, -1});
  ASSERT_TRUE(client.ok());

  // Both SUBMITs go out before either reply is read; CID k goes to shard k.
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(client
                    ->send("CID " + std::to_string(k) + " SHARD " +
                           std::to_string(k) + " SUBMIT " +
                           submit_row(2 + k, 600.0))
                    .ok());
  }
  std::vector<std::string> ids(2);
  for (int i = 0; i < 2; ++i) {
    auto tagged = client->recv_tagged();
    ASSERT_TRUE(tagged.ok()) << tagged.error().message;
    ASSERT_TRUE(tagged->has_cid);
    ASSERT_LT(tagged->cid, 2u);
    const std::string& payload = tagged->response.payload;
    ASSERT_TRUE(tagged->response.ok()) << payload;
    ASSERT_EQ(payload.rfind("id=", 0), 0u) << payload;
    ids[tagged->cid] = payload.substr(3, payload.find(' ') - 3);
  }
  for (int k = 0; k < 2; ++k) {
    const std::string cid = std::to_string(10 + k);
    ASSERT_TRUE(client
                    ->send("CID " + cid + " SHARD " + std::to_string(k) +
                           " STATUS " + ids[static_cast<size_t>(k)])
                    .ok());
    auto tagged = client->recv_tagged();
    ASSERT_TRUE(tagged.ok()) << tagged.error().message;
    EXPECT_EQ(tagged->cid, 10u + static_cast<uint64_t>(k));
    EXPECT_TRUE(tagged->response.ok()) << tagged->response.payload;
    EXPECT_EQ(tagged->response.payload.rfind(
                  "id=" + ids[static_cast<size_t>(k)] + " state=", 0),
              0u)
        << tagged->response.payload;
  }

  const std::string metrics =
      http_exchange(socket_path, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK", 0), 0u) << metrics.substr(0, 80);
  EXPECT_NE(metrics.find("coda_shard_virtual_time{shard=\"1\"}"),
            std::string::npos);

  auto drained = client->drain();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->ok()) << drained->payload;
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
  EXPECT_TRUE(server.drained());
  EXPECT_NE(server.report_text(0), server.report_text(1));
}

// ------------------------------------------------- auth & snapshot/restore

std::string read_file_or_empty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {};
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

long long file_size_or(const std::string& path, long long fallback) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size)
                                        : fallback;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(Server, AuthGatesEverythingButPing) {
  ServerConfig config = tiny_server_config("auth", 0.0);
  config.journal_path.clear();
  config.auth_token = "sekrit";
  const std::string socket_path = config.unix_socket_path;
  const Endpoint endpoint{socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  // PING is the liveness probe — it must answer before authentication.
  auto ping = client->ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->ok());
  // Everything else is denied until AUTH succeeds.
  auto denied = client->cluster();
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->kind, Response::Kind::kErr);
  EXPECT_EQ(denied->code, util::ErrorCode::kPermissionDenied);
  // A wrong token is refused and does not flip the connection to authed.
  auto bad = client->auth("wrong");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->kind, Response::Kind::kErr);
  EXPECT_EQ(bad->code, util::ErrorCode::kPermissionDenied);
  denied = client->metrics();
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied->kind, Response::Kind::kErr);
  // The right token unlocks the session for this connection only.
  auto good = client->auth("sekrit");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok()) << good->payload;
  auto cluster = client->cluster();
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE(cluster->ok()) << cluster->payload;

  // A second connection starts unauthenticated — auth is per connection,
  // not per process.
  auto other = Client::connect(endpoint);
  ASSERT_TRUE(other.ok());
  auto still_denied = other->cluster();
  ASSERT_TRUE(still_denied.ok());
  EXPECT_EQ(still_denied->kind, Response::Kind::kErr);
  EXPECT_EQ(still_denied->code, util::ErrorCode::kPermissionDenied);

  // The HTTP scrape path refuses too (token-bearing scrapes are not part
  // of the wire protocol; operators must front it with a local proxy).
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_GE(::send(fd, request.data(), request.size(), 0), 0);
    std::string body;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      body.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(body.rfind("HTTP/1.0 401", 0), 0u) << body.substr(0, 80);
  }

  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
}

TEST(Server, SnapshotRequiresJournal) {
  ServerConfig config = tiny_server_config("snapnojournal", 0.0);
  config.journal_path.clear();
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());
  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  auto resp = client->snapshot();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->kind, Response::Kind::kErr);
  EXPECT_EQ(resp->code, util::ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
}

// A SUBMIT whose int column lies outside int is refused. The row parser
// used to cast the value to int, so 4294967297 nodes loaded as a 1-node
// gang.
TEST(Server, SubmitRefusesAnIntColumnOutsideInt) {
  ServerConfig config = tiny_server_config("intrange", 0.0);
  config.journal_path.clear();
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());
  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  workload::JobSpec gang;
  gang.id = 9001;
  gang.kind = workload::JobKind::kGpuTraining;
  gang.model = perfmodel::ModelId::kResnet50;
  gang.iterations = 100.0;
  gang.requested_cpus = 2;
  const std::string row = workload::job_to_csv_row(gang);
  const std::string one_node = "9001,0,gpu,0.000,Resnet50,1,";
  ASSERT_EQ(row.rfind(one_node, 0), 0u) << row;
  auto refused = client->submit_row("9001,0,gpu,0.000,Resnet50,4294967297," +
                                    row.substr(one_node.size()));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->kind, Response::Kind::kErr);
  EXPECT_EQ(refused->code, util::ErrorCode::kParseError);
  EXPECT_NE(refused->payload.find(
                "column 'nodes' value '4294967297' is out of range"),
            std::string::npos)
      << refused->payload;
  auto status = client->status(9001);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->code, util::ErrorCode::kNotFound) << status->payload;
  auto accepted = client->submit_row(row);
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->ok()) << accepted->payload;
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
}

TEST(Server, SnapshotRestoreResumesByteIdentically) {
  // The tentpole guarantee, end to end: an interrupted daemon (SNAPSHOT,
  // then killed without draining) restarted with --restore must finish
  // with the exact report bytes of an uninterrupted daemon fed the same
  // submissions. AFAP pacing makes the two runs' injection instants
  // deterministic, so the uninterrupted twin is a fair byte reference.
  const std::vector<std::string> rows = {
      submit_row(2, 600.0),  submit_row(3, 1200.0), submit_row(4, 1800.0),
      submit_row(5, 2400.0), submit_row(6, 3000.0), submit_row(7, 3600.0)};

  // Reference: uninterrupted session, all six submissions.
  std::string ref_report;
  {
    ServerConfig config = tiny_server_config("snapref", 0.0);
    const std::string journal_path = config.journal_path;
    const Endpoint endpoint{config.unix_socket_path, -1};
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    for (const std::string& row : rows) {
      auto resp = client->submit_row(row);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    ASSERT_TRUE(server.drained());
    ref_report = server.report_text();
    ASSERT_FALSE(ref_report.empty());
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".report").c_str());
  }

  // Interrupted: three submissions, SNAPSHOT (truncates the journal),
  // three more, then SHUTDOWN without an explicit DRAIN. A graceful
  // shutdown still finishes the session at exit (so a report exists,
  // mirroring SIGTERM) — but the restore path below ignores that and
  // rebuilds purely from snapshot + journal tail, which is exactly what
  // a kill -9 leaves behind (serve_smoke.sh exercises the real kill -9).
  ServerConfig config = tiny_server_config("snapcut", 0.0);
  config.journal_fsync = true;  // the satellite flag, exercised live
  const std::string journal_path = config.journal_path;
  const std::string socket_path = config.unix_socket_path;
  const Endpoint endpoint{socket_path, -1};
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 3; ++i) {
      auto resp = client->submit_row(rows[static_cast<size_t>(i)]);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    const long long before = file_size_or(journal_path, -1);
    ASSERT_GT(before, 0);
    auto snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    EXPECT_NE(snap->payload.find("seq=1"), std::string::npos)
        << snap->payload;
    // Compaction: the journal shrank back to its header — the three
    // S-lines now live inside the snapshot.
    const long long after = file_size_or(journal_path, -1);
    ASSERT_GT(after, 0);
    EXPECT_LT(after, before);
    EXPECT_NE(snap->payload.find(
                  "truncated=" + std::to_string(before - after) + " "),
              std::string::npos)
        << snap->payload;
    auto tail = load_journal(journal_path);
    ASSERT_TRUE(tail.ok()) << tail.error().message;
    EXPECT_TRUE(tail->submissions.empty());
    for (int i = 3; i < 6; ++i) {
      auto resp = client->submit_row(rows[static_cast<size_t>(i)]);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    // Graceful exit drained the session (the SIGTERM guarantee); the
    // journal tail and snapshot on disk are unaffected by that drain.
    EXPECT_TRUE(server.drained());
  }

  const std::string snap_path = journal_path + ".SNAP.1";
  ASSERT_GT(file_size_or(snap_path, -1), 0);

  // Offline restore: snapshot + journal tail replays to the reference
  // bytes (this is what `coda_cli replay --snapshot` runs).
  {
    auto replayed = replay_from_snapshot(snap_path, journal_path);
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_EQ(sim::serialize_report(*replayed), ref_report);
  }

  // Live restore: a fresh daemon on the same journal with restore=true
  // resumes the session and drains to the reference bytes.
  {
    ServerConfig restored = tiny_server_config("snapcut", 0.0);
    restored.restore = true;
    Server server(std::move(restored));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    // The restore counters surface through METRICS.
    auto metrics = client->metrics();
    ASSERT_TRUE(metrics.ok());
    ASSERT_TRUE(metrics->ok()) << metrics->payload;
    EXPECT_NE(metrics->payload.find("restore_ms"), std::string::npos)
        << metrics->payload;
    EXPECT_NE(metrics->payload.find("snapshots_taken"), std::string::npos);
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    ASSERT_TRUE(server.drained());
    EXPECT_EQ(server.report_text(), ref_report);
  }

  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
  std::remove(snap_path.c_str());
}

TEST(Server, PacedSnapshotReplaysFromSnapshotByteForByte) {
  // Mid-run snapshot under wall-clock pacing: submissions land at
  // scattered virtual times, the capture point is wherever the clock
  // happened to be, and the snapshot + truncated-journal pair must still
  // reproduce the live session's exact report offline.
  ServerConfig config = tiny_server_config("snappaced", 100000.0);
  const std::string journal_path = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  Server server(std::move(config));
  ASSERT_TRUE(server.start().ok());

  auto client = Client::connect(endpoint);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 2; ++i) {
    auto resp = client->submit_row(submit_row(2, 300.0));
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->ok()) << resp->payload;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto snap = client->snapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(snap->ok()) << snap->payload;
  for (int i = 0; i < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto resp = client->submit_row(submit_row(3, 450.0));
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->ok()) << resp->payload;
  }
  ASSERT_TRUE(client->drain().ok());
  ASSERT_TRUE(client->shutdown().ok());
  server.wait();
  ASSERT_TRUE(server.drained());

  const std::string live_report = server.report_text();
  ASSERT_FALSE(live_report.empty());
  auto replayed = replay_from_snapshot(journal_path + ".SNAP.1",
                                       journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(sim::serialize_report(*replayed), live_report);
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
  std::remove((journal_path + ".SNAP.1").c_str());
}

TEST(Server, SecondSnapshotSupersedesFirstAcrossRestores) {
  // Two snapshots in one session: restore must pick .SNAP.2, reject a
  // stale-journal pairing, and still land on the uninterrupted bytes.
  const std::vector<std::string> rows = {
      submit_row(2, 600.0), submit_row(3, 1200.0), submit_row(4, 1800.0),
      submit_row(5, 2400.0)};
  std::string ref_report;
  {
    ServerConfig config = tiny_server_config("snap2ref", 0.0);
    const std::string journal_path = config.journal_path;
    const Endpoint endpoint{config.unix_socket_path, -1};
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    for (const std::string& row : rows) {
      auto resp = client->submit_row(row);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    ref_report = server.report_text();
    std::remove(journal_path.c_str());
    std::remove((journal_path + ".report").c_str());
  }

  ServerConfig config = tiny_server_config("snap2cut", 0.0);
  const std::string journal_path = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto submit_one = [&client, &rows](int i) {
      auto resp = client->submit_row(rows[static_cast<size_t>(i)]);
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    };
    submit_one(0);
    auto snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    submit_one(1);
    submit_one(2);
    snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    EXPECT_NE(snap->payload.find("seq=2"), std::string::npos)
        << snap->payload;
    submit_one(3);
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
  }

  // find_latest_snapshot picks seq 2.
  auto latest = state::find_latest_snapshot(journal_path + ".SNAP.");
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_EQ(*latest, journal_path + ".SNAP.2");

  auto replayed = replay_from_snapshot(*latest, journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(sim::serialize_report(*replayed), ref_report);

  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
  std::remove((journal_path + ".SNAP.1").c_str());
  std::remove((journal_path + ".SNAP.2").c_str());
}

TEST(Server, RestoreShardRejectsCrossEpochJournal) {
  // A snapshot paired with a journal whose entries predate it (vt <=
  // snapshot vt) is a different truncation epoch — restoring would replay
  // jobs the snapshot already contains. restore_shard must refuse.
  ServerConfig config = tiny_server_config("snapepoch", 100000.0);
  const std::string journal_path = config.journal_path;
  const Endpoint endpoint{config.unix_socket_path, -1};
  std::string pre_snapshot_journal;
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto resp = client->submit_row(submit_row(2, 300.0));
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp->ok()) << resp->payload;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pre_snapshot_journal = read_file_or_empty(journal_path);
    ASSERT_FALSE(pre_snapshot_journal.empty());
    auto snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
  }
  // Re-plant the pre-snapshot journal next to the snapshot: its S-line's
  // vt is before the capture point.
  write_file(journal_path, pre_snapshot_journal);
  auto shard = restore_shard(journal_path + ".SNAP.1", journal_path);
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.error().code, util::ErrorCode::kFailedPrecondition);
  EXPECT_NE(shard.error().message.find("truncation epoch"),
            std::string::npos)
      << shard.error().message;
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".SNAP.1").c_str());
}

TEST(Server, RestoreWithoutSnapshotReplaysTheJournal) {
  // A kill -9 before any SNAPSHOT leaves the journal alone, holding every
  // acknowledged SUBMIT. --restore replays it from t=0 and keeps appending
  // to it; starting fresh would truncate it to its header and lose them.
  ServerConfig config = tiny_server_config("nosnap", 0.0);
  const std::string journal_path = config.journal_path;
  const std::string crashed = journal_path + ".crashed";
  const Endpoint endpoint{config.unix_socket_path, -1};
  std::string ref_report;
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 3; ++i) {
      auto resp = client->submit_row(submit_row(2 + i, 600.0 * (i + 1)));
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    // Acknowledged means durable: this copy is what a kill -9 leaves.
    write_file(crashed, read_file_or_empty(journal_path));
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    ref_report = server.report_text();
    ASSERT_FALSE(ref_report.empty());
  }

  ServerConfig restart = tiny_server_config("nosnap", 0.0);
  restart.journal_path = crashed;
  restart.restore = true;
  {
    Server server(std::move(restart));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    EXPECT_EQ(server.report_text(), ref_report);
  }
  auto journal = load_journal(crashed);
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  EXPECT_EQ(journal->submissions.size(), 3u);
  for (const std::string& path : {journal_path, journal_path + ".report",
                                  crashed, crashed + ".report"}) {
    std::remove(path.c_str());
  }
}

TEST(Server, RestoreFailsClosedOnATornJournal) {
  // SNAPSHOT, three acknowledged SUBMITs, then a crash that tears the
  // journal's last line. --restore must refuse to start and leave both
  // files as they were, so that nothing acknowledged is overwritten.
  ServerConfig config = tiny_server_config("torn", 0.0);
  const std::string journal_path = config.journal_path;
  const std::string snap_path = journal_path + ".SNAP.1";
  const Endpoint endpoint{config.unix_socket_path, -1};
  std::string crashed;
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    for (int i = 0; i < 3; ++i) {
      auto resp = client->submit_row(submit_row(2 + i, 600.0 * (i + 1)));
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    crashed = read_file_or_empty(journal_path);
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
  }
  ASSERT_GT(crashed.size(), 7u);
  write_file(journal_path, crashed.substr(0, crashed.size() - 7));
  const std::string journal_bytes = read_file_or_empty(journal_path);
  const std::string snap_bytes = read_file_or_empty(snap_path);
  ASSERT_FALSE(snap_bytes.empty());

  ServerConfig restart = tiny_server_config("torn", 0.0);
  restart.restore = true;
  Server server(std::move(restart));
  const util::Status status = server.start();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("unterminated line"),
            std::string::npos)
      << status.error().message;
  EXPECT_EQ(read_file_or_empty(journal_path), journal_bytes);
  EXPECT_EQ(read_file_or_empty(snap_path), snap_bytes);
  std::remove(journal_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(Server, CrashInsideSnapshotResumesFromTheSnapshotAlone) {
  // A crash after SNAPSHOT wrote J.SNAP.1 but before it truncated the
  // journal leaves the full journal beside the snapshot. --restore refuses
  // that pair (each entry predates the snapshot or reuses an id it holds)
  // and keeps both files; removing only the journal then resumes from the
  // snapshot, which holds every acknowledged entry.
  ServerConfig config = tiny_server_config("snapcrash", 0.0);
  const std::string journal_path = config.journal_path;
  const std::string snap_path = journal_path + ".SNAP.1";
  const Endpoint endpoint{config.unix_socket_path, -1};
  std::string full_journal;
  std::string ref_report;
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 3; ++i) {
      auto resp = client->submit_row(submit_row(2 + i, 600.0 * (i + 1)));
      ASSERT_TRUE(resp.ok());
      ASSERT_TRUE(resp->ok()) << resp->payload;
    }
    full_journal = read_file_or_empty(journal_path);
    auto snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    ref_report = server.report_text();
    ASSERT_FALSE(ref_report.empty());
  }
  write_file(journal_path, full_journal);
  const std::string snap_bytes = read_file_or_empty(snap_path);
  ASSERT_FALSE(snap_bytes.empty());
  {
    ServerConfig restart = tiny_server_config("snapcrash", 0.0);
    restart.restore = true;
    Server server(std::move(restart));
    EXPECT_FALSE(server.start().ok());
    EXPECT_EQ(read_file_or_empty(journal_path), full_journal);
    EXPECT_EQ(read_file_or_empty(snap_path), snap_bytes);
  }
  std::remove(journal_path.c_str());
  {
    ServerConfig restart = tiny_server_config("snapcrash", 0.0);
    restart.restore = true;
    Server server(std::move(restart));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->drain().ok());
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
    EXPECT_EQ(server.report_text(), ref_report);
  }
  for (const std::string& path :
       {journal_path, journal_path + ".report", snap_path}) {
    std::remove(path.c_str());
  }
}

TEST(Server, RestoreFailsWhenTheSnapshotDirectoryCannotBeRead) {
  // An unreadable directory is not "no snapshot": falling back to the
  // journal alone (or to a fresh session) could rebuild a session that
  // lacks every job a compacted journal moved into a snapshot.
  ServerConfig config = tiny_server_config("snapdir", 0.0);
  const std::string not_a_dir = config.journal_path + ".file";
  write_file(not_a_dir, "not a directory");
  config.journal_path = not_a_dir + "/journal";
  config.restore = true;
  Server server(std::move(config));
  const util::Status status = server.start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, util::ErrorCode::kIoError)
      << status.error().message;
  std::remove(not_a_dir.c_str());
}

TEST(Server, RestoreShardRejectsATailEntryReusingAnId) {
  // A post-snapshot entry for a job the restored session already holds
  // (base job 1 here) would be injected twice: it is refused with an
  // error before it can reach the engine's duplicate-id assert.
  ServerConfig config = tiny_server_config("snapdup", 0.0);
  const std::string journal_path = config.journal_path;
  const std::string snap_path = journal_path + ".SNAP.1";
  const Endpoint endpoint{config.unix_socket_path, -1};
  {
    Server server(std::move(config));
    ASSERT_TRUE(server.start().ok());
    auto client = Client::connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto snap = client->snapshot();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(snap->ok()) << snap->payload;
    ASSERT_TRUE(client->shutdown().ok());
    server.wait();
  }
  auto snap = state::load_snapshot_file(snap_path);
  ASSERT_TRUE(snap.ok()) << snap.error().message;
  write_file(journal_path,
             read_file_or_empty(journal_path) +
                 format_submit_entry(snap->meta.virtual_time + 1.0, 1,
                                     submit_row(2, 600.0)));
  auto shard = restore_shard(snap_path, journal_path);
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.error().code, util::ErrorCode::kParseError);
  EXPECT_NE(shard.error().message.find("reuses an id"), std::string::npos)
      << shard.error().message;
  std::remove(journal_path.c_str());
  std::remove((journal_path + ".report").c_str());
  std::remove(snap_path.c_str());
}

TEST(Journal, ReplayRefusesEntriesTheEngineAbortsOn) {
  // Each journal below would reach an engine or event-queue assert (exit
  // 134) if it loaded; `coda_cli replay --journal` must return an error.
  const std::string path =
      "/tmp/coda_service_test_hostile_" +
      std::to_string(static_cast<long long>(::getpid())) + ".journal";
  const std::string header =
      serialize_session_header(tiny_server_config("hostile", 0.0).session);
  const std::string row = submit_row(2, 600.0);
  const std::string entry = format_submit_entry(100.0, 5000, row);
  const std::string cases[] = {
      entry + entry,                              // a repeated S line
      format_submit_entry(100.0, 1, row),         // reuses base job 1's id
      "S -0x1p+4 5000 " + row + "\n",             // in the simulated past
      "S inf 5000 " + row + "\n",                 // never due
      "S nan 5000 " + row + "\n",
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    write_file(path, header + cases[i]);
    auto replayed = replay_journal_file(path);
    ASSERT_FALSE(replayed.ok()) << "case " << i;
    EXPECT_EQ(replayed.error().code, util::ErrorCode::kParseError)
        << "case " << i << ": " << replayed.error().message;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coda::service
