// Report persistence: CSV export of experiment reports (plot-ready files
// for the time series, the per-job queueing samples and the headline
// summary) plus a lossless text (de)serialization of the whole
// ExperimentReport used by the on-disk report cache (report_cache.h).
#pragma once

#include <string>
#include <string_view>

#include "sim/experiment.h"
#include "util/result.h"

namespace coda::sim {

// Writes three files under `directory`:
//   <prefix>_summary.csv  — one row of headline metrics
//   <prefix>_series.csv   — t, gpu_active, gpu_util, cpu_active, cpu_util
//   <prefix>_jobs.csv     — per-job kind/tenant/queue/processing/latency
// Fails with kIoError when the directory is not writable.
util::Status save_report_csv(const ExperimentReport& report,
                             const std::string& directory,
                             const std::string& prefix);

// Version of the full-report text format below. Bump whenever the
// serialized field set changes; the report cache treats version mismatches
// as misses and recomputes.
// v2: checkpoint fields in JobSpec; failure/recovery accounting (evictions,
// restarts, abandoned, busy/wasted resource-seconds, goodput).
inline constexpr int kReportFormatVersion = 2;

// Serializes every field of `report` into a line-oriented text blob,
// written and read through state::serde (state/serde.h). Doubles are C
// hexfloats, so deserialize_report() round-trips bit-for-bit:
// serialize(deserialize(s)) == s and two reports are equal iff their
// serializations are byte-identical.
std::string serialize_report(const ExperimentReport& report);

// Parses a blob produced by serialize_report. Fails with kParseError on any
// structural damage (wrong magic/version, truncation, malformed fields).
util::Result<ExperimentReport> deserialize_report(std::string_view text);

}  // namespace coda::sim
