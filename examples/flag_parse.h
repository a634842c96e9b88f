// Strict --flag value parsing shared by the example binaries (codad,
// coda_ctl, coda_cli).
//
// The old pattern — std::atoi / std::atof on flag values — turned typos
// into silent behavior changes: `--speedup fast` became 0 (as-fast-as-
// possible mode) and `--port abc` bound an ephemeral port. These helpers
// demand the whole value parse (util::parse_strict_*, util/parse.h) and
// exit(2) naming the flag and the rejected value otherwise — the same core
// trace_io, the journal and util::env parse through.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "util/parse.h"

namespace coda::examples {

using FlagMap = std::map<std::string, std::string>;

// Collects `--key value` pairs from argv[from..]. Calls `usage` and exits
// on a bare non-flag token or a trailing valueless flag.
inline FlagMap parse_flag_pairs(int argc, char** argv, int from,
                                void (*usage)()) {
  FlagMap flags;
  for (int i = from; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
      usage();
      std::exit(2);
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag '%s' is missing its value\n", argv[i]);
      usage();
      std::exit(2);
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

inline std::string flag_or(const FlagMap& flags, const std::string& key,
                           const std::string& fallback) {
  auto it = flags.find(key);
  return it != flags.end() ? it->second : fallback;
}

[[noreturn]] inline void flag_die(const std::string& key,
                                  const std::string& value,
                                  const std::string& why) {
  std::fprintf(stderr, "--%s %s: %s\n", key.c_str(), value.c_str(),
               why.c_str());
  std::exit(2);
}

// Integer flag: whole-string parse, >= min_value, fits an int.
inline int flag_int(const FlagMap& flags, const std::string& key,
                    int fallback, int min_value) {
  auto it = flags.find(key);
  if (it == flags.end()) {
    return fallback;
  }
  auto parsed = util::parse_strict_int(it->second, min_value,
                                       std::numeric_limits<int>::max());
  if (!parsed.ok()) {
    flag_die(key, it->second, parsed.error().message);
  }
  return static_cast<int>(*parsed);
}

// Double flag: whole-string parse (no ERANGE), >= min_value.
inline double flag_double(const FlagMap& flags, const std::string& key,
                          double fallback,
                          double min_value = -std::numeric_limits<double>::infinity()) {
  auto it = flags.find(key);
  if (it == flags.end()) {
    return fallback;
  }
  auto parsed = util::parse_strict_double(it->second, min_value);
  if (!parsed.ok()) {
    flag_die(key, it->second, parsed.error().message);
  }
  return *parsed;
}

// Full-range u64 flag (seeds).
inline uint64_t flag_u64(const FlagMap& flags, const std::string& key,
                         uint64_t fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) {
    return fallback;
  }
  auto parsed = util::parse_strict_u64(it->second);
  if (!parsed.ok()) {
    flag_die(key, it->second, parsed.error().message);
  }
  return static_cast<uint64_t>(*parsed);
}

// Boolean flag: exactly "0" or "1".
inline bool flag_bool(const FlagMap& flags, const std::string& key,
                      bool fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) {
    return fallback;
  }
  if (it->second == "0") {
    return false;
  }
  if (it->second == "1") {
    return true;
  }
  flag_die(key, it->second, "expected 0 or 1");
}

}  // namespace coda::examples
