#include "state/serde.h"

#include <cstdio>
#include <limits>

#include "util/parse.h"

namespace coda::state {

namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view strip(std::string_view s) {
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

// Pops the next whitespace-separated token off `*rest`; empty view when the
// line is exhausted.
std::string_view pop_token(std::string_view* rest) {
  std::string_view s = *rest;
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  size_t end = 0;
  while (end < s.size() && !is_space(s[end])) {
    ++end;
  }
  *rest = s.substr(end);
  return s.substr(0, end);
}

}  // namespace

void Writer::put_f64(double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "%a", v);
  sep();
  out_.append(buf, static_cast<size_t>(n));
}

void Writer::put_u64(uint64_t v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%llu",
                              static_cast<unsigned long long>(v));
  sep();
  out_.append(buf, static_cast<size_t>(n));
}

void Writer::put_i64(int64_t v) {
  char buf[32];
  const int n =
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  sep();
  out_.append(buf, static_cast<size_t>(n));
}

void Writer::put_token(std::string_view token) {
  sep();
  out_.append(token.data(), token.size());
}

bool Reader::next() {
  if (failed_) {
    return false;
  }
  while (pos_ < text_.size()) {
    const size_t eol = text_.find('\n', pos_);
    const size_t end = eol == std::string_view::npos ? text_.size() : eol;
    std::string_view line = strip(text_.substr(pos_, end - pos_));
    pos_ = eol == std::string_view::npos ? text_.size() : eol + 1;
    ++line_no_;
    if (line.empty()) {
      continue;
    }
    rest_ = line;
    key_ = pop_token(&rest_);
    return true;
  }
  key_ = std::string_view();
  rest_ = std::string_view();
  return false;
}

bool Reader::expect(std::string_view key) {
  if (!next()) {
    if (!failed_) {
      fail("unexpected end of input; expected '" + std::string(key) + "'");
    }
    return false;
  }
  if (key_ != key) {
    fail("expected key '" + std::string(key) + "', got '" +
         std::string(key_) + "'");
    return false;
  }
  return true;
}

bool Reader::expect_row() {
  if (!next()) {
    if (!failed_) {
      fail("unexpected end of input; expected a row");
    }
    return false;
  }
  // next() split the first token off as the key; put it back in front.
  rest_ = std::string_view(key_.data(),
                           static_cast<size_t>(rest_.data() + rest_.size() -
                                               key_.data()));
  key_ = std::string_view();
  return true;
}

double Reader::f64() {
  double value = 0.0;
  const std::string_view tok = token();
  if (!failed_ && util::parse_number(tok, &value) != util::ParseStatus::kOk) {
    fail("bad float token '" + std::string(tok) + "'");
    return 0.0;
  }
  return value;
}

uint64_t Reader::u64(uint64_t max) {
  unsigned long long value = 0;
  const std::string_view tok = token();
  if (!failed_ && util::parse_number(tok, &value) != util::ParseStatus::kOk) {
    fail("bad unsigned token '" + std::string(tok) + "'");
    return 0;
  }
  if (value > max) {
    fail("integer " + std::string(tok) + " does not fit its field");
    return 0;
  }
  return value;
}

int64_t Reader::i64(int64_t min, int64_t max) {
  long long value = 0;
  const std::string_view tok = token();
  if (!failed_ && util::parse_number(tok, &value) != util::ParseStatus::kOk) {
    fail("bad integer token '" + std::string(tok) + "'");
    return 0;
  }
  if (value < min || value > max) {
    fail("integer " + std::string(tok) + " does not fit its field");
    return 0;
  }
  return value;
}

int Reader::i32() {
  return static_cast<int>(i64(std::numeric_limits<int>::min(),
                              std::numeric_limits<int>::max()));
}

bool Reader::b() {
  const uint64_t value = u64();
  if (!failed_ && value > 1) {
    fail("bad bool token (want 0/1)");
    return false;
  }
  return value != 0;
}

std::string_view Reader::token() {
  if (failed_) {
    return std::string_view();
  }
  const std::string_view tok = pop_token(&rest_);
  if (tok.empty()) {
    fail("missing value token on line with key '" + std::string(key_) + "'");
  }
  return tok;
}

std::string_view Reader::bytes(size_t n) {
  if (failed_) {
    return std::string_view();
  }
  if (text_.size() - pos_ < n) {
    fail("truncated blob: want " + std::to_string(n) + " bytes, have " +
         std::to_string(text_.size() - pos_));
    return std::string_view();
  }
  const std::string_view out = text_.substr(pos_, n);
  pos_ += n;
  // Blob payloads end mid-line from the reader's perspective; count the
  // newlines they contain so later errors still report useful lines.
  for (char c : out) {
    if (c == '\n') {
      ++line_no_;
    }
  }
  return out;
}

util::Status Reader::status() const {
  if (!failed_) {
    return util::Status::Ok();
  }
  return util::Error{util::ErrorCode::kParseError,
                     "parse error at line " +
                         std::to_string(line_no_) + ": " + error_};
}

void Reader::fail(const std::string& message) {
  if (failed_) {
    return;
  }
  failed_ = true;
  error_ = message;
}

}  // namespace coda::state
