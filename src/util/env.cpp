#include "util/env.h"

#include <cstdlib>
#include <limits>

#include "util/logging.h"
#include "util/parse.h"

namespace coda::util {

int env_int(const char* name, int fallback, int min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    return fallback;
  }
  auto parsed =
      parse_strict_int(raw, min_value, std::numeric_limits<int>::max());
  if (!parsed.ok()) {
    CODA_LOG_WARN("ignoring %s=%s (%s); using %d", name, raw,
                  parsed.error().message.c_str(), fallback);
    return fallback;
  }
  return static_cast<int>(*parsed);
}

double env_double(const char* name, double fallback, double min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    return fallback;
  }
  auto parsed = parse_strict_double(raw, min_value);
  if (!parsed.ok()) {
    CODA_LOG_WARN("ignoring %s=%s (not a number >= %g); using %g", name, raw,
                  min_value, fallback);
    return fallback;
  }
  return *parsed;
}

}  // namespace coda::util
