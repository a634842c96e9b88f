#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/experiment.h"
#include "workload/trace_gen.h"

namespace perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  if (q == 0.5 && v.size() % 2 == 0) {
    std::sort(v.begin(), v.end());
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

std::string fnv1a_hex(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

using coda::workload::JobSpec;
using coda::workload::TraceGenerator;

constexpr double kDay = 86400.0;

// The paper's evaluation horizon: the standard week's shape stretched to 30
// days at the paper's monthly CPU-job count (bench_full_month_replay's trace).
std::vector<JobSpec> month_trace(uint64_t seed) {
  auto cfg = coda::sim::standard_week_trace(seed);
  cfg.duration_s = 30.0 * kDay;
  cfg.cpu_jobs = 75000;
  cfg.gpu_jobs = 37500;
  return TraceGenerator(cfg).generate();
}

// bench_scale's full-profile 10k-node cell.
std::vector<JobSpec> scale_trace(uint64_t seed) {
  return TraceGenerator(coda::workload::scale_profile(10000, 15000, 22500,
                                                      kDay, seed))
      .generate();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Serves the month's first two weeks, about 52k SUBMITs at 7.5k/s.
      {"month-paper",
       "standard_week_trace(seed) over 30 days, 75000 CPU + 37500 GPU jobs",
       80, month_trace, 14.0 * kDay},
      {"scale-10k",
       "scale_profile(10000 nodes, 15000 GPU, 22500 CPU jobs, 1 day, seed)",
       10000, scale_trace, kDay},
  };
  return all;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Result::op(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, what);
}

void Result::ops(uint64_t attempted, uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: FAILED %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

}  // namespace perfbench
