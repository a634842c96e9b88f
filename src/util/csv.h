// Minimal CSV writer for reports, the event log and characterization
// tables. Only the subset they need: comma separator, no quoting (fields
// are numeric or simple identifiers), first row is a header. Nothing in the
// simulator reads CSV back through it; traces have their own codec
// (workload/trace_io.h).
#pragma once

#include <string>
#include <vector>

#include "util/result.h"

namespace coda::util {

struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// Serializes a document (no escaping; callers must not embed commas).
std::string to_csv(const CsvDocument& doc);

// Writes a document to a file; kIoError on failure.
Status write_csv_file(const std::string& path, const CsvDocument& doc);

}  // namespace coda::util
