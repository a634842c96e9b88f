#include "sim/report_cache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include <unistd.h>

#include "sim/report_io.h"
#include "state/serde.h"
#include "util/strings.h"

namespace coda::sim {

namespace {

constexpr const char* kCacheMagic = "CODA_REPORT_CACHE";

}  // namespace

void CacheKeyHasher::mix_bytes(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ull;
  }
}

void CacheKeyHasher::mix(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void CacheKeyHasher::mix(const std::string& s) {
  mix(s.size());
  mix_bytes(s.data(), s.size());
}

std::string CacheKeyHasher::hex() const {
  return util::strfmt("%016llx", static_cast<unsigned long long>(state_));
}

std::string experiment_cache_key(Policy policy,
                                 const std::vector<workload::JobSpec>& trace,
                                 const ExperimentConfig& config) {
  CacheKeyHasher h;
  h.mix(kReportFormatVersion);
  h.mix(static_cast<int>(policy));
#define CODA_MIX_FIELD(wire_key, member) h.mix(config.member);
  CODA_EXPERIMENT_CONFIG_FIELDS(CODA_MIX_FIELD, CODA_MIX_FIELD)
#undef CODA_MIX_FIELD
  h.mix(trace.size());
  for (const auto& spec : trace) {
    std::apply([&h](const auto&... field) { (h.mix(field), ...); },
               fields(spec));
  }
  return h.hex();
}

ReportCache::ReportCache(std::string directory) : dir_(std::move(directory)) {
  if (dir_.empty()) {
    dir_ = default_dir();
  }
  const char* off = std::getenv("CODA_NO_CACHE");
  if (off != nullptr && off[0] != '\0' && off[0] != '0') {
    enabled_ = false;
  }
}

std::string ReportCache::default_dir() {
  const char* env = std::getenv("CODA_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  return ".report_cache";
}

std::string ReportCache::path_for(const std::string& key) const {
  return dir_ + "/" + key + ".report";
}

std::optional<ExperimentReport> ReportCache::load(
    const std::string& key) const {
  if (!enabled_) {
    return std::nullopt;
  }
  const std::string path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = buffer.str();

  // Header: "CODA_REPORT_CACHE <schema> <payload-bytes> <payload-fnv1a>\n",
  // then exactly <payload-bytes> bytes of serialize_report text.
  state::Reader r(file);
  r.expect(kCacheMagic);
  const int schema = r.i32();
  const uint64_t payload_bytes = r.u64();
  const std::string_view checksum = r.token();
  const std::string_view payload = r.bytes(payload_bytes);
  CacheKeyHasher h;
  h.mix_bytes(payload.data(), payload.size());
  if (r.ok() && schema == kReportFormatVersion && r.remainder().empty() &&
      checksum == h.hex()) {
    auto report = deserialize_report(payload);
    if (report.ok()) {
      return std::move(report).value();
    }
  }
  // Corrupt or stale: drop the entry so the recomputed report replaces it.
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return std::nullopt;
}

util::Status ReportCache::store(const std::string& key,
                                const ExperimentReport& report) const {
  if (!enabled_) {
    return util::Status::Ok();
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot create cache dir " + dir_};
  }
  const std::string payload = serialize_report(report);
  CacheKeyHasher checksum;
  checksum.mix_bytes(payload.data(), payload.size());
  const std::string header =
      util::strfmt("%s %d %zu %s\n", kCacheMagic, kReportFormatVersion,
                   payload.size(), checksum.hex().c_str());

  // Write-then-rename keeps concurrent readers (other bench binaries) from
  // ever seeing a partial entry.
  const std::string tmp = util::strfmt(
      "%s.tmp.%d", path_for(key).c_str(), static_cast<int>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Error{util::ErrorCode::kIoError, "cannot write " + tmp};
    }
    out << header << payload;
    if (!out) {
      return util::Error{util::ErrorCode::kIoError, "short write to " + tmp};
    }
  }
  std::filesystem::rename(tmp, path_for(key), ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return util::Error{util::ErrorCode::kIoError,
                       "cannot publish cache entry for " + key};
  }
  return util::Status::Ok();
}

}  // namespace coda::sim
