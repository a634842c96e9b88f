#include "util/csv.h"

#include <fstream>

#include "util/strings.h"

namespace coda::util {

std::string to_csv(const CsvDocument& doc) {
  std::string out = join(doc.header, ",") + "\n";
  for (const auto& row : doc.rows) {
    out += join(row, ",") + "\n";
  }
  return out;
}

Status write_csv_file(const std::string& path, const CsvDocument& doc) {
  std::ofstream out(path);
  if (!out) {
    return Error{ErrorCode::kIoError, "cannot open '" + path + "' for write"};
  }
  out << to_csv(doc);
  if (!out) {
    return Error{ErrorCode::kIoError, "write to '" + path + "' failed"};
  }
  return Status::Ok();
}

}  // namespace coda::util
