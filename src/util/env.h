// Strict environment-variable parsing shared by every knob that reads a
// number from the environment (CODA_JOBS, the CODA_SERVE_* service limits).
//
// The old pattern — std::atoi and silently falling back — turned typos like
// CODA_JOBS=abc or CODA_JOBS=0 into "use all cores" with no hint that the
// setting was ignored. These helpers demand the whole value parse (through
// util/parse.h), enforce a lower bound, and log one warning naming the
// variable and the rejected value before falling back.
#pragma once

namespace coda::util {

// Reads integer env var `name`. Returns `fallback` when the variable is
// unset or empty. When it is set but malformed, below `min_value` or too
// large for an int, logs a warning naming the variable and the rejected
// value, then returns `fallback`.
int env_int(const char* name, int fallback, int min_value = 1);

// Same contract for doubles (used by pacing/rate knobs).
double env_double(const char* name, double fallback, double min_value);

}  // namespace coda::util
