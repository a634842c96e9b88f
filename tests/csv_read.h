// Reading CSV back, for tests only: the simulator writes its CSV files
// (reports, the event log, characterization tables) through util::to_csv
// and never reads one, so the reader lives here.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "util/csv.h"
#include "util/result.h"
#include "util/strings.h"

namespace coda::test {

// Index of a header column; kNotFound error when absent.
inline util::Result<size_t> column(const util::CsvDocument& doc,
                                   const std::string& name) {
  for (size_t i = 0; i < doc.header.size(); ++i) {
    if (doc.header[i] == name) {
      return i;
    }
  }
  return util::Error{util::ErrorCode::kNotFound,
                     "no CSV column named '" + name + "'"};
}

// Parses CSV text: comma separator, no quoting, first row is the header.
// Fails with kParseError if any row has a different field count than the
// header, or if there is no header.
inline util::Result<util::CsvDocument> parse_csv(const std::string& text) {
  util::CsvDocument doc;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (util::trim(line).empty()) {
      continue;
    }
    auto fields = util::split(line, ',');
    if (first) {
      doc.header = std::move(fields);
      first = false;
      continue;
    }
    if (fields.size() != doc.header.size()) {
      return util::Error{
          util::ErrorCode::kParseError,
          util::strfmt("CSV line %zu has %zu fields, header has %zu", line_no,
                       fields.size(), doc.header.size())};
    }
    doc.rows.push_back(std::move(fields));
  }
  if (first) {
    return util::Error{util::ErrorCode::kParseError, "CSV input is empty"};
  }
  return doc;
}

// Reads and parses a CSV file; kIoError if unreadable.
inline util::Result<util::CsvDocument> read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::Error{util::ErrorCode::kIoError,
                       "cannot open '" + path + "' for read"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_csv(buf.str());
}

}  // namespace coda::test
