#include "util/parse.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "util/strings.h"

namespace coda::util {

namespace {

constexpr size_t kMaxViewChars = 63;

template <typename T>
ParseStatus parse_integer(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (stop != end || ec == std::errc::invalid_argument) {
    return ParseStatus::kMalformed;
  }
  if (ec == std::errc::result_out_of_range) {
    return ParseStatus::kOutOfRange;
  }
  *out = value;
  return ParseStatus::kOk;
}

// `s` is NUL-terminated at s[n]. No number starts with a byte <= ' ', and
// refusing those up front keeps strtod's leading-whitespace skip out.
ParseStatus parse_double(const char* s, size_t n, double* out) {
  if (n == 0 || static_cast<unsigned char>(s[0]) <= ' ') {
    return ParseStatus::kMalformed;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s, &end);
  if (end != s + n) {
    return ParseStatus::kMalformed;
  }
  if (errno == ERANGE) {
    return ParseStatus::kOutOfRange;
  }
  *out = value;
  return ParseStatus::kOk;
}

// The wrappers' shared message for a text the core refused.
Error not_a(const std::string& text, ParseStatus status, const char* what) {
  if (text.empty()) {
    return Error{ErrorCode::kParseError, "empty value"};
  }
  return Error{ErrorCode::kParseError,
               status == ParseStatus::kOutOfRange
                   ? strfmt("'%s' is out of range", text.c_str())
                   : strfmt("'%s' is not %s", text.c_str(), what)};
}

}  // namespace

ParseStatus parse_number(std::string_view text, long long* out) {
  return parse_integer(text, out);
}
ParseStatus parse_number(std::string_view text, int* out) {
  return parse_integer(text, out);
}
ParseStatus parse_number(std::string_view text, unsigned long long* out) {
  return parse_integer(text, out);
}
ParseStatus parse_number(std::string_view text, double* out) {
  if (text.empty() || text.size() > kMaxViewChars) {
    return ParseStatus::kMalformed;
  }
  char buf[kMaxViewChars + 1];
  std::memcpy(buf, text.data(), text.size());
  buf[text.size()] = '\0';
  return parse_double(buf, text.size(), out);
}
ParseStatus parse_number(const std::string& text, double* out) {
  return parse_double(text.c_str(), text.size(), out);
}

Result<long long> parse_strict_int(const std::string& text,
                                   long long min_value, long long max_value) {
  long long v = 0;
  if (const ParseStatus s = parse_number(text, &v); s != ParseStatus::kOk) {
    return not_a(text, s, "an integer");
  }
  if (v < min_value) {
    return Error{ErrorCode::kInvalidArgument,
                 strfmt("%lld is below the minimum %lld", v, min_value)};
  }
  if (v > max_value) {
    return Error{ErrorCode::kInvalidArgument,
                 strfmt("%lld is above the maximum %lld", v, max_value)};
  }
  return v;
}

Result<double> parse_strict_double(const std::string& text,
                                   double min_value) {
  double v = 0.0;
  if (const ParseStatus s = parse_number(text, &v); s != ParseStatus::kOk) {
    return not_a(text, s, "a number");
  }
  if (v < min_value) {
    return Error{ErrorCode::kInvalidArgument,
                 strfmt("%g is below the minimum %g", v, min_value)};
  }
  return v;
}

Result<unsigned long long> parse_strict_u64(const std::string& text) {
  unsigned long long v = 0;
  if (const ParseStatus s = parse_number(text, &v); s != ParseStatus::kOk) {
    return not_a(text, s, "an unsigned integer");
  }
  return v;
}

}  // namespace coda::util
