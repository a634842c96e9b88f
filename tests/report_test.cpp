// Tests for the analysis outputs: the scheduling event log and the CSV
// report exporter.
#include <gtest/gtest.h>

#include "csv_read.h"
#include "sched/fifo.h"
#include "sim/engine.h"
#include "sim/event_log.h"
#include "sim/experiment.h"
#include "sim/report_io.h"
#include "workload/trace_gen.h"

namespace coda::sim {
namespace {

workload::JobSpec cpu_spec(cluster::JobId id, int cores, double work) {
  workload::JobSpec spec;
  spec.id = id;
  spec.kind = workload::JobKind::kCpu;
  spec.cpu_cores = cores;
  spec.cpu_work_core_s = work;
  spec.mem_bw_gbps = 1.0;
  return spec;
}

TEST(EventLog, DisabledRecordsNothing) {
  EventLog log(false);
  log.record(1.0, EventKind::kArrival, 1);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.enabled());
}

TEST(EventLog, CountsAndPerJobFilter) {
  EventLog log(true);
  log.record(1.0, EventKind::kArrival, 1);
  log.record(2.0, EventKind::kStart, 1, 0, 4);
  log.record(3.0, EventKind::kArrival, 2);
  log.record(4.0, EventKind::kFinish, 1);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.count(EventKind::kArrival), 2u);
  EXPECT_EQ(log.count(EventKind::kFinish), 1u);
  EXPECT_EQ(log.count(EventKind::kEvict), 0u);
  const auto job1 = log.for_job(1);
  ASSERT_EQ(job1.size(), 3u);
  EXPECT_EQ(job1[1].kind, EventKind::kStart);
  EXPECT_DOUBLE_EQ(job1[1].value, 4.0);
}

TEST(EventLog, EngineRecordsFullLifecycle) {
  sched::FifoScheduler fifo;
  EngineConfig config;
  config.cluster.node_count = 2;
  config.record_events = true;
  ClusterEngine engine(config, &fifo);
  engine.inject(cpu_spec(1, 2, 100.0), 5.0);
  engine.schedule_node_outage(1, 10.0, 20.0);
  engine.drain(1e5);

  const auto& log = engine.event_log();
  EXPECT_EQ(log.count(EventKind::kArrival), 1u);
  EXPECT_EQ(log.count(EventKind::kStart), 1u);
  EXPECT_EQ(log.count(EventKind::kFinish), 1u);
  EXPECT_EQ(log.count(EventKind::kNodeFail), 1u);
  EXPECT_EQ(log.count(EventKind::kNodeRecover), 1u);
  const auto job = log.for_job(1);
  ASSERT_GE(job.size(), 3u);
  EXPECT_EQ(job.front().kind, EventKind::kArrival);
  EXPECT_DOUBLE_EQ(job.front().t, 5.0);
  EXPECT_EQ(job.back().kind, EventKind::kFinish);
}

TEST(EventLog, EvictionRecordedOnFailure) {
  sched::FifoScheduler fifo;
  EngineConfig config;
  config.cluster.node_count = 1;
  config.record_events = true;
  ClusterEngine engine(config, &fifo);
  engine.inject(cpu_spec(1, 2, 1e6), 0.0);
  engine.run_until(1.0);
  ASSERT_TRUE(engine.fail_node(0).ok());
  const auto& log = engine.event_log();
  EXPECT_EQ(log.count(EventKind::kEvict), 1u);
  // The evicted job restarts after recovery.
  ASSERT_TRUE(engine.recover_node(0).ok());
  engine.run_until(2.0);
  EXPECT_EQ(log.count(EventKind::kStart), 2u);
}

TEST(EventLog, SaveCsvRoundTrips) {
  EventLog log(true);
  log.record(1.5, EventKind::kStart, 7, 3, 12.0);
  log.record(2.5, EventKind::kBwCap, 8, 0, 25.5);
  const std::string path = testing::TempDir() + "/coda_events.csv";
  ASSERT_TRUE(log.save_csv(path).ok());
  auto doc = test::read_csv_file(path);
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[0][1], "start");
  EXPECT_EQ(doc->rows[0][2], "7");
  EXPECT_EQ(doc->rows[1][1], "bw_cap");
  EXPECT_EQ(doc->rows[1][4], "25.500");
}

TEST(EventKindNames, AllDistinct) {
  std::set<std::string> names;
  for (int k = 0; k <= static_cast<int>(EventKind::kAbandon); ++k) {
    names.insert(to_string(static_cast<EventKind>(k)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(EventKind::kAbandon) + 1);
}

TEST(ReportIo, SerializationRoundTripsFailureFields) {
  ExperimentReport report;
  report.scheduler = "CODA";
  report.submitted = 3;
  report.completed = 1;
  report.abandoned = 1;
  report.node_failures = 2;
  report.evictions = 4;
  report.restarts = 3;
  report.busy_gpu_s = 10.5;
  report.wasted_gpu_s = 1.25;
  report.gpu_goodput = 1.0 - 1.25 / 10.5;
  report.busy_core_s = 700.0;
  report.wasted_core_s = 50.0;
  report.cpu_goodput = 1.0 - 50.0 / 700.0;

  JobRecord rec;
  rec.spec.id = 9;
  rec.spec.kind = workload::JobKind::kCpu;
  rec.spec.cpu_cores = 2;
  rec.spec.cpu_work_core_s = 100.0;
  rec.spec.checkpoint_interval_s = 600.0;
  rec.spec.checkpoint_overhead_s = 5.0;
  rec.evict_count = 2;
  rec.restart_count = 1;
  rec.abandoned = true;
  rec.busy_core_s = 123.5;
  rec.wasted_core_s = 25.0;
  report.records.push_back(rec);

  const std::string blob = serialize_report(report);
  auto parsed = deserialize_report(blob);
  ASSERT_TRUE(parsed.ok());
  // Hexfloat serialization is lossless: byte equality is full equality.
  EXPECT_EQ(serialize_report(*parsed), blob);
  EXPECT_EQ(parsed->abandoned, 1u);
  EXPECT_EQ(parsed->node_failures, 2);
  EXPECT_EQ(parsed->evictions, 4);
  EXPECT_EQ(parsed->restarts, 3);
  EXPECT_DOUBLE_EQ(parsed->gpu_goodput, report.gpu_goodput);
  EXPECT_DOUBLE_EQ(parsed->cpu_goodput, report.cpu_goodput);
  ASSERT_EQ(parsed->records.size(), 1u);
  const auto& r = parsed->records[0];
  EXPECT_EQ(r.evict_count, 2);
  EXPECT_EQ(r.restart_count, 1);
  EXPECT_TRUE(r.abandoned);
  EXPECT_DOUBLE_EQ(r.busy_core_s, 123.5);
  EXPECT_DOUBLE_EQ(r.wasted_core_s, 25.0);
  EXPECT_DOUBLE_EQ(r.spec.checkpoint_interval_s, 600.0);
  EXPECT_DOUBLE_EQ(r.spec.checkpoint_overhead_s, 5.0);
}

TEST(ReportIo, SavesThreeCsvFiles) {
  auto cfg = standard_week_trace(3);
  cfg.duration_s = 0.1 * 86400.0;
  cfg.cpu_jobs = 100;
  cfg.gpu_jobs = 60;
  const auto trace = workload::TraceGenerator(cfg).generate();
  const auto report = run_experiment(Policy::kCoda, trace);

  const std::string dir = testing::TempDir();
  ASSERT_TRUE(save_report_csv(report, dir, "t").ok());

  auto summary = test::read_csv_file(dir + "/t_summary.csv");
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->rows.size(), 1u);
  EXPECT_EQ(summary->rows[0][0], "CODA");
  EXPECT_EQ(summary->rows[0][1], std::to_string(trace.size()));
  ASSERT_TRUE(test::column(*summary, "gpu_goodput").ok());

  auto series = test::read_csv_file(dir + "/t_series.csv");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->rows.size(), report.gpu_active_series.size());
  ASSERT_TRUE(test::column(*series, "gpu_util").ok());

  auto jobs = test::read_csv_file(dir + "/t_jobs.csv");
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ(jobs->rows.size(), trace.size());
  ASSERT_TRUE(test::column(*jobs, "queue_s").ok());
  ASSERT_TRUE(test::column(*jobs, "wasted_gpu_s").ok());
}

TEST(ReportIo, FailsOnUnwritableDirectory) {
  ExperimentReport report;
  EXPECT_FALSE(save_report_csv(report, "/nonexistent_dir_xyz", "t").ok());
}

}  // namespace
}  // namespace coda::sim
