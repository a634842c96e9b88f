#include "tracer.h"

#include <cstdio>

namespace perfbench {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

bool is_probe(SpanKind kind) {
  return (kind >= kSchedSubmit && kind <= kSchedReclaimable) ||
         (kind >= kTelPressureScreen && kind <= kTelGpuUtil);
}

}  // namespace

const char* span_name(SpanKind kind) {
  static const char* const kNames[kSpanKindCount] = {
      "replay",
      "sched.submit",
      "sched.on_job_finished",
      "sched.on_job_evicted",
      "sched.kick",
      "sched.pending_jobs",
      "sched.pending_gpu_jobs",
      "sched.min_pending_gpu_demand",
      "sched.reclaimable_cpus",
      "sim.start_job",
      "sim.preempt_job",
      "sim.resize_job",
      "sim.set_bw_cap",
      "sim.clear_bw_cap",
      "telemetry.pressure_screen",
      "telemetry.sample",
      "telemetry.pressure",
      "telemetry.gpu_util",
      "state.capture",
      "state.parse",
      "state.restore",
  };
  return kNames[kind];
}

void Tracer::begin(SpanKind kind) {
  uint32_t stored = kNone;
  if (is_probe(kind)) {
    ++probes_open_;
  }
  if (stored_.size() < kMaxStoredSpans) {
    stored = static_cast<uint32_t>(stored_.size());
    const uint32_t parent = stack_.empty() ? kNone : stack_.back().stored;
    stored_.push_back({0, 0, parent, replay_, kind});
  }
  stack_.push_back({kind, now_ns(), 0, stored});
}

void Tracer::end() {
  const uint64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const uint64_t dur = t - f.start_ns;
  Aggregate& a = agg_[f.kind];
  a.calls += 1;
  a.total_ns += dur;
  a.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (is_probe(f.kind) && --probes_open_ == 0 && !stack_.empty() &&
      stack_.front().kind == kReplay) {
    probe_ns_ += dur;
  }
  if (f.stored != kNone) {
    stored_[f.stored].start_ns = f.start_ns;
    stored_[f.stored].end_ns = t;
  }
  ++recorded_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out,
               "{\"spans_recorded\": %llu, \"spans_stored\": %zu}\n",
               static_cast<unsigned long long>(recorded_), stored_.size());
  for (int k = 0; k < kSpanKindCount; ++k) {
    const Aggregate& a = agg_[k];
    std::fprintf(out,
                 "{\"aggregate\": \"%s\", \"calls\": %llu, \"total_ns\": "
                 "%llu, \"self_ns\": %llu}\n",
                 span_name(static_cast<SpanKind>(k)),
                 static_cast<unsigned long long>(a.calls),
                 static_cast<unsigned long long>(a.total_ns),
                 static_cast<unsigned long long>(a.self_ns));
  }
  const uint64_t t0 = stored_.empty() ? 0 : stored_.front().start_ns;
  for (size_t i = 0; i < stored_.size(); ++i) {
    const Stored& s = stored_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"replay\": %u}\n",
                 i, span_name(s.kind),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.replay);
  }
  return std::fclose(out) == 0;
}

// ---- telemetry proxies ----

coda::telemetry::NodeBandwidthSample TracedBandwidth::sample(
    coda::cluster::NodeId node) const {
  ScopedSpan span(tracer_, kTelSample);
  return inner_->sample(node);
}

void TracedBandwidth::sample_into(
    coda::cluster::NodeId node,
    coda::telemetry::NodeBandwidthSample* out) const {
  ScopedSpan span(tracer_, kTelSample);
  inner_->sample_into(node, out);
}

double TracedBandwidth::pressure(coda::cluster::NodeId node) const {
  ScopedSpan span(tracer_, kTelPressure);
  return inner_->pressure(node);
}

void TracedBandwidth::pressure_screen(size_t node_count,
                                      std::vector<coda::cluster::NodeId>* ids,
                                      std::vector<double>* out) const {
  ScopedSpan span(tracer_, kTelPressureScreen);
  inner_->pressure_screen(node_count, ids, out);
}

double TracedGpuUtil::gpu_utilization(coda::cluster::JobId job) const {
  ScopedSpan span(tracer_, kTelGpuUtil);
  return inner_->gpu_utilization(job);
}

// ---- scheduler proxy ----

void SchedulerProxy::attach(const coda::sched::SchedulerEnv& env) {
  coda::sched::SchedulerEnv wrapped = env;
  Tracer* t = tracer_;
  wrapped.start_job = [t, f = env.start_job](
                          coda::cluster::JobId id,
                          const coda::sched::Placement& p) {
    ScopedSpan span(t, kSimStartJob);
    return f(id, p);
  };
  wrapped.preempt_job = [t, f = env.preempt_job](coda::cluster::JobId id,
                                                 bool keep) {
    ScopedSpan span(t, kSimPreemptJob);
    return f(id, keep);
  };
  wrapped.resize_job = [t, f = env.resize_job](coda::cluster::JobId id,
                                               coda::cluster::NodeId node,
                                               int cpus) {
    ScopedSpan span(t, kSimResizeJob);
    return f(id, node, cpus);
  };
  wrapped.set_bw_cap = [t, f = env.set_bw_cap](coda::cluster::NodeId node,
                                               coda::cluster::JobId id,
                                               double cap) {
    ScopedSpan span(t, kSimSetBwCap);
    return f(node, id, cap);
  };
  wrapped.clear_bw_cap = [t, f = env.clear_bw_cap](coda::cluster::NodeId node,
                                                   coda::cluster::JobId id) {
    ScopedSpan span(t, kSimClearBwCap);
    f(node, id);
  };
  bandwidth_ = std::make_unique<TracedBandwidth>(env.bandwidth, t);
  gpu_util_ = std::make_unique<TracedGpuUtil>(env.gpu_util, t);
  wrapped.bandwidth = bandwidth_.get();
  wrapped.gpu_util = gpu_util_.get();
  inner_->attach(wrapped);
}

void SchedulerProxy::submit(const coda::workload::JobSpec& spec) {
  ScopedSpan span(tracer_, kSchedSubmit);
  inner_->submit(spec);
}

void SchedulerProxy::on_job_finished(const coda::workload::JobSpec& spec) {
  ScopedSpan span(tracer_, kSchedFinished);
  inner_->on_job_finished(spec);
}

void SchedulerProxy::on_job_evicted(const coda::workload::JobSpec& spec) {
  ScopedSpan span(tracer_, kSchedEvicted);
  inner_->on_job_evicted(spec);
}

void SchedulerProxy::kick() {
  ScopedSpan span(tracer_, kSchedKick);
  inner_->kick();
}

size_t SchedulerProxy::pending_jobs() const {
  ScopedSpan span(tracer_, kSchedPendingJobs);
  return inner_->pending_jobs();
}

size_t SchedulerProxy::pending_gpu_jobs() const {
  ScopedSpan span(tracer_, kSchedPendingGpu);
  return inner_->pending_gpu_jobs();
}

std::optional<coda::sched::Scheduler::PendingGpuDemand>
SchedulerProxy::min_pending_gpu_demand() const {
  ScopedSpan span(tracer_, kSchedMinDemand);
  return inner_->min_pending_gpu_demand();
}

int SchedulerProxy::reclaimable_cpus(coda::cluster::NodeId node) const {
  ScopedSpan span(tracer_, kSchedReclaimable);
  return inner_->reclaimable_cpus(node);
}

}  // namespace perfbench
