// Span tracing from outside the library, for the traced run only.
//
// The engine reaches the scheduler through the virtual sched::Scheduler
// interface and the scheduler reaches the engine through SchedulerEnv
// callbacks and the two telemetry interfaces. SchedulerProxy sits on both
// seams: the engine is handed the proxy, which forwards every virtual call
// to the real policy scheduler inside a span, and in attach() it wraps the
// env callbacks and telemetry sources the same way before passing them on.
// Every forwarded call runs the same library code it would untraced — in
// particular pressure_screen is forwarded to the engine's override rather
// than left to BandwidthSource's all-nodes default — so report bytes do not
// change.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "sched/scheduler.h"
#include "telemetry/mbm.h"

namespace perfbench {

enum SpanKind : uint8_t {
  kReplay = 0,        // one timed replay window (root span)
  kSchedSubmit,
  kSchedFinished,
  kSchedEvicted,
  kSchedKick,
  kSchedPendingJobs,  // the four metrics-tick probes
  kSchedPendingGpu,
  kSchedMinDemand,
  kSchedReclaimable,
  kSimStartJob,       // SchedulerEnv callbacks into the engine
  kSimPreemptJob,
  kSimResizeJob,
  kSimSetBwCap,
  kSimClearBwCap,
  kTelPressureScreen,  // BandwidthSource / GpuUtilSource probes
  kTelSample,
  kTelPressure,
  kTelGpuUtil,
  kStateCapture,
  kStateParse,
  kStateRestore,
  kSpanKindCount,
};

const char* span_name(SpanKind kind);

class Tracer {
 public:
  // Per-name totals over every span recorded (kept in full).
  struct Aggregate {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  // total minus time covered by child spans
  };

  // The first this many spans are stored one by one; all are aggregated.
  static constexpr size_t kMaxStoredSpans = 100000;

  Tracer() = default;
  // Proxies and open spans hold the tracer's address.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_replay(uint32_t replay_id) { replay_ = replay_id; }
  void begin(SpanKind kind);
  void end();

  double total_s(SpanKind kind) const { return agg_[kind].total_ns * 1e-9; }
  double self_s(SpanKind kind) const { return agg_[kind].self_ns * 1e-9; }
  uint64_t calls(SpanKind kind) const { return agg_[kind].calls; }
  // Time inside replay spans not covered by a scheduler-proxy or telemetry
  // span. Engine callbacks fired from the engine's own periodic ticks (not
  // from a scheduler call) count here.
  double replay_outside_probes_s() const {
    return static_cast<double>(agg_[kReplay].total_ns - probe_ns_) * 1e-9;
  }
  uint64_t spans_recorded() const { return recorded_; }

  // Writes the per-name aggregates and the stored spans (the first
  // kMaxStoredSpans, each with its parent index) as JSON lines.
  bool write(const std::string& path) const;

 private:
  struct Frame {
    SpanKind kind = kReplay;
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    uint32_t stored = 0;  // index into stored_, or kNone
  };
  struct Stored {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t parent = 0;  // index into stored_, or kNone
    uint32_t replay = 0;
    SpanKind kind = kReplay;
  };
  static constexpr uint32_t kNone = 0xffffffffu;

  uint32_t replay_ = 0;
  uint64_t recorded_ = 0;
  uint32_t probes_open_ = 0;  // open scheduler-proxy and telemetry spans
  uint64_t probe_ns_ = 0;     // outermost such spans inside replay spans
  Aggregate agg_[kSpanKindCount];
  std::vector<Frame> stack_;
  std::vector<Stored> stored_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->begin(kind);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->end();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

class TracedBandwidth : public coda::telemetry::BandwidthSource {
 public:
  TracedBandwidth(const coda::telemetry::BandwidthSource* inner,
                  Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  coda::telemetry::NodeBandwidthSample sample(
      coda::cluster::NodeId node) const override;
  void sample_into(coda::cluster::NodeId node,
                   coda::telemetry::NodeBandwidthSample* out) const override;
  double pressure(coda::cluster::NodeId node) const override;
  void pressure_screen(size_t node_count,
                       std::vector<coda::cluster::NodeId>* ids,
                       std::vector<double>* out) const override;

 private:
  const coda::telemetry::BandwidthSource* inner_;
  Tracer* tracer_;
};

class TracedGpuUtil : public coda::telemetry::GpuUtilSource {
 public:
  TracedGpuUtil(const coda::telemetry::GpuUtilSource* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  double gpu_utilization(coda::cluster::JobId job) const override;

 private:
  const coda::telemetry::GpuUtilSource* inner_;
  Tracer* tracer_;
};

class SchedulerProxy : public coda::sched::Scheduler {
 public:
  SchedulerProxy(coda::sched::Scheduler* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  // The engine holds the proxy's address.
  SchedulerProxy(const SchedulerProxy&) = delete;
  SchedulerProxy& operator=(const SchedulerProxy&) = delete;

  const char* name() const override { return inner_->name(); }
  void attach(const coda::sched::SchedulerEnv& env) override;
  void submit(const coda::workload::JobSpec& spec) override;
  void on_job_finished(const coda::workload::JobSpec& spec) override;
  void on_job_evicted(const coda::workload::JobSpec& spec) override;
  void kick() override;
  size_t pending_jobs() const override;
  size_t pending_gpu_jobs() const override;
  std::optional<PendingGpuDemand> min_pending_gpu_demand() const override;
  int reclaimable_cpus(coda::cluster::NodeId node) const override;
  void save_state(coda::state::Writer* w) const override {
    inner_->save_state(w);
  }
  void load_state(coda::state::Reader* r,
                  const coda::sched::SpecMap& specs) override {
    inner_->load_state(r, specs);
  }

 private:
  coda::sched::Scheduler* inner_;
  Tracer* tracer_;
  std::unique_ptr<TracedBandwidth> bandwidth_;
  std::unique_ptr<TracedGpuUtil> gpu_util_;
};

}  // namespace perfbench
