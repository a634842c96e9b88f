// Shared helpers for the benchmark binary: clocks, order statistics, report
// digests, the workload table and the result accumulator every stage writes
// its metrics and operation counts into.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "workload/job.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Heap allocations made so far by this process (counting operator new in
// alloc_counter.cpp). Only differences between two reads mean anything.
uint64_t allocations();

// Process high-water resident set size in MB.
double peak_rss_mb();

// Median and nearest-rank percentile (q in [0, 1]) of a sample; 0 when empty.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);

// 64-bit FNV-1a of `bytes`, as 16 lowercase hex digits.
std::string fnv1a_hex(std::string_view bytes);

// One benchmark input: a seeded job stream on a cluster of `nodes` servers.
// The replay stage replays the whole stream; the serve session of the traced
// run sends the jobs submitted before `serve_horizon_s` to a live server.
struct Workload {
  std::string name;
  const char* trace_desc = "";
  int nodes = 80;
  std::vector<coda::workload::JobSpec> (*make_trace)(uint64_t seed) = nullptr;
  double serve_horizon_s = 0.0;
};

const Workload* find_workload(std::string_view name);

// Metrics, operation counts and check failures of one run.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Counts one attempted operation; `ok` false marks it failed and logs why.
  void op(bool ok, const std::string& what);
  void ops(uint64_t attempted, uint64_t failed, const std::string& what);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Expected report digests for this run's seed, keyed "FIFO"/"DRF"/"CODA";
// empty when the seed has no recorded digests.
using DigestMap = std::map<std::string, std::string>;

}  // namespace perfbench
