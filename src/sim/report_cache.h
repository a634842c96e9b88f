// Persistent, content-addressed cache of ExperimentReports shared by every
// bench binary. A cache key is a hash of everything that determines a
// replay's outcome — the full trace contents, the policy, the engine and
// CODA configuration, and the report-format schema version — so the ~24
// bench binaries stop re-simulating identical week replays.
//
// Entries live one-per-file under the cache directory ($CODA_CACHE_DIR, or
// ./.report_cache/ — i.e. <build>/.report_cache/ when benches run from the
// build tree). Files carry a schema version and a payload checksum; corrupt
// or stale entries are detected on load and silently treated as misses.
// CODA_NO_CACHE=1 disables the cache entirely (cold-run timing).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>

#include "sim/experiment.h"
#include "util/result.h"

namespace coda::sim {

// FNV-1a 64-bit accumulator used to derive cache keys. Doubles are mixed by
// bit pattern, so any config/trace change — however small — changes the key.
class CacheKeyHasher {
 public:
  void mix_bytes(const void* data, size_t n);
  void mix(uint64_t v) { mix_bytes(&v, sizeof(v)); }
  void mix(int64_t v) { mix_bytes(&v, sizeof(v)); }
  void mix(int v) { mix(static_cast<int64_t>(v)); }
  void mix(bool v) { mix(static_cast<int64_t>(v ? 1 : 0)); }
  template <typename E, std::enable_if_t<std::is_enum_v<E>, int> = 0>
  void mix(E v) {
    mix(static_cast<int64_t>(v));
  }
  // Any other integer widens to 64 bits too (a TenantId, say).
  template <typename I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  void mix(I v) {
    if constexpr (std::is_signed_v<I>) {
      mix(static_cast<int64_t>(v));
    } else {
      mix(static_cast<uint64_t>(v));
    }
  }
  void mix(double v);
  void mix(const std::string& s);

  // 16-hex-digit digest; used as the cache file name.
  std::string hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// Key for one (policy, trace, config) replay. Hashes every JobSpec in the
// trace through fields(JobSpec), the list snapshots and reports persist,
// every ExperimentConfig field (the CODA_EXPERIMENT_CONFIG_FIELDS
// table in sim/experiment.h) and kReportFormatVersion.
std::string experiment_cache_key(Policy policy,
                                 const std::vector<workload::JobSpec>& trace,
                                 const ExperimentConfig& config);

class ReportCache {
 public:
  // `directory` empty => default_dir(). The directory is created lazily on
  // the first store.
  explicit ReportCache(std::string directory = {});

  // $CODA_CACHE_DIR, or ".report_cache" relative to the working directory.
  static std::string default_dir();

  const std::string& directory() const { return dir_; }
  bool enabled() const { return enabled_; }
  std::string path_for(const std::string& key) const;

  // Returns the cached report for `key`, or nullopt on miss — including
  // every failure mode (absent file, wrong schema, checksum mismatch,
  // parse error). A corrupt entry is deleted so the rerun can replace it.
  std::optional<ExperimentReport> load(const std::string& key) const;

  // Persists `report` under `key` (atomic write-then-rename, so concurrent
  // bench binaries never observe a half-written entry).
  util::Status store(const std::string& key,
                     const ExperimentReport& report) const;

 private:
  std::string dir_;
  bool enabled_ = true;  // false when CODA_NO_CACHE=1
};

}  // namespace coda::sim
