// The tree's one text -> number parser core. The persisted-text readers
// (journal header, trace CSV, and state::serde for snapshots and report
// blobs), the wire protocol and the knob readers (environment variables,
// example flags) all parse numbers here, so they agree on what a number is:
//
//   * the whole text is the number: no leading whitespace, no trailing junk;
//   * an out-of-range value is an error, never a clamped HUGE_VAL or
//     LLONG_MAX (glibc strtod also flags subnormals);
//   * integers are base-10 digits with an optional '-' for signed types
//     only: no '+', and no sign at all for an unsigned value (strtoull
//     would wrap "-1");
//   * doubles accept anything strtod does, hexfloats included.
#pragma once

#include <limits>
#include <string>
#include <string_view>

#include "util/result.h"

namespace coda::util {

enum class ParseStatus { kOk, kMalformed, kOutOfRange };

// The core: writes *out only on kOk, never allocates. Integers parse in
// place (std::from_chars). strtod needs a NUL terminator, so a double in a
// string_view is copied to a stack buffer, and refused past 63 chars; the
// std::string overload parses in place, with no length limit.
ParseStatus parse_number(std::string_view text, long long* out);
ParseStatus parse_number(std::string_view text, int* out);
ParseStatus parse_number(std::string_view text, unsigned long long* out);
ParseStatus parse_number(std::string_view text, double* out);
ParseStatus parse_number(const std::string& text, double* out);

// Message-building wrappers over the core. Fail with kParseError when the
// text is not a number (or is out of range), and with kInvalidArgument
// when it parses but falls outside [min_value, max_value].
Result<long long> parse_strict_int(
    const std::string& text, long long min_value,
    long long max_value = std::numeric_limits<long long>::max());
Result<double> parse_strict_double(const std::string& text, double min_value);
// Full u64 range (seeds, job ids).
Result<unsigned long long> parse_strict_u64(const std::string& text);

}  // namespace coda::util
