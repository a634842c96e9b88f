// CSV serialization of job traces so experiments can archive and replay the
// exact workload (and so external traces can be imported).
#pragma once

#include <string>
#include <vector>

#include "util/result.h"
#include "workload/job.h"

namespace coda::workload {

// Serializes a trace to CSV text (header + one row per job).
std::string trace_to_csv(const std::vector<JobSpec>& trace);

// Parses a trace from CSV text produced by trace_to_csv (or hand-written
// with the same columns). Fails with kParseError on malformed rows, a
// repeated id, or a submit time that is negative or not finite.
util::Result<std::vector<JobSpec>> trace_from_csv(const std::string& text);

// The model a trace or SUBMIT row names: the exact name of one of
// perfmodel::kAllModels ("Resnet50", not "resnet50"); kParseError for any
// other text.
util::Result<perfmodel::ModelId> model_from_string(const std::string& name);

// File-level convenience wrappers.
util::Status save_trace(const std::string& path,
                        const std::vector<JobSpec>& trace);
util::Result<std::vector<JobSpec>> load_trace(const std::string& path);

// ---- single-row helpers (service wire format / journal entries) ----
// The daemon's SUBMIT verb carries one CSV row in this column order; the
// command journal stores the row verbatim and replay re-parses it through
// the same code path, so a spec never round-trips through lossy
// re-serialization.

// The canonical header line ("id,tenant,kind,...", no trailing newline).
std::string trace_csv_header();

// Serializes one job as a single CSV row (no header, no newline): each
// row of trace_to_csv.
std::string job_to_csv_row(const JobSpec& job);

// Parses a single CSV row with the canonical columns: each data line of
// trace_from_csv, with the same strict validation. A row holding '\n' is
// refused (neither the wire nor the journal can deliver one).
util::Result<JobSpec> job_from_csv_row(const std::string& row);

}  // namespace coda::workload
