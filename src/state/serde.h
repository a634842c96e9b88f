// Line-oriented, deterministic text (de)serialization: the codec for
// session snapshots (src/state) and report blobs (sim/report_io); the
// service journal writes its header through Writer too.
//
// Format conventions: one record per '\n'-terminated line, a leading key
// token followed by space-separated value tokens; doubles as C hexfloats
// ("%a" — bit-exact round trips), bools as 0/1, integers in decimal. Numbers
// parse through util/parse.h. Rows are symmetric by construction: a record
// lists its persisted members once, as fields(r) (util/fields.h), which
// Writer writes and Reader::read fills. Any mismatch (wrong key, missing
// token, malformed number, a value its field cannot hold) poisons the
// Reader with a line-numbered error instead of propagating garbage into a
// restored engine.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/result.h"

namespace coda::state {

namespace detail {
// std::tuple, std::pair, std::array: whatever std::apply unpacks.
template <typename T>
concept TupleLike = requires { std::tuple_size<T>::value; };
}  // namespace detail

class Writer {
 public:
  // Appends `key` followed by each value as a space-separated token and a
  // terminating newline. Value types: floating point -> hexfloat, bool ->
  // 0/1, signed/unsigned integers and enums -> decimal, string-ish ->
  // verbatim token (must not contain whitespace or newlines), a tuple-like
  // (a record's fields(r), a std::array) -> each element in order.
  template <typename... Ts>
  void line(std::string_view key, Ts&&... values) {
    add(key, std::forward<Ts>(values)...);
    end_line();
  }

  // The open-line form of line(), for rows whose length is data (value
  // lists) or that carry no key: each add() appends its values to the
  // current line, space-separated, and end_line() terminates it.
  template <typename... Ts>
  void add(Ts&&... values) {
    (put(std::forward<Ts>(values)), ...);
  }
  void end_line() {
    out_.push_back('\n');
    open_ = false;
  }

  void reserve(size_t bytes) { out_.reserve(bytes); }

  // Appends raw bytes verbatim (length-prefixed blobs; the caller writes
  // the length on its own line first).
  void raw(std::string_view bytes) { out_.append(bytes.data(), bytes.size()); }

  const std::string& text() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void put_f64(double v);
  void put_u64(uint64_t v);
  void put_i64(int64_t v);
  void put_token(std::string_view token);
  // Separates a token from the previous one on the same line.
  void sep() {
    if (open_) {
      out_.push_back(' ');
    }
    open_ = true;
  }

  template <typename T>
  void put(T&& v) {
    using D = std::decay_t<T>;
    if constexpr (detail::TupleLike<D>) {
      std::apply([this](const auto&... e) { (put(e), ...); }, v);
    } else if constexpr (std::is_same_v<D, bool>) {
      put_u64(v ? 1 : 0);
    } else if constexpr (std::is_floating_point_v<D>) {
      put_f64(static_cast<double>(v));
    } else if constexpr (std::is_enum_v<D>) {
      put_i64(static_cast<int64_t>(v));
    } else if constexpr (std::is_integral_v<D> && std::is_unsigned_v<D>) {
      put_u64(static_cast<uint64_t>(v));
    } else if constexpr (std::is_integral_v<D>) {
      put_i64(static_cast<int64_t>(v));
    } else {
      put_token(std::string_view(v));
    }
  }

  std::string out_;
  bool open_ = false;  // the current line holds a token
};

// Sticky-error token reader over a serialized text. Usage:
//
//   Reader r(text);
//   if (!r.expect("magic")) ...            // next line, key must match
//   uint64_t n = r.u64();                  // next token on the line
//   for (size_t i = 0; i < n && r.ok(); ++i) { ... }
//   r.read(id, fields(rec));               // typed tokens, left to right
//   if (auto st = r.status(); !st.ok()) return st.error();
//
// After the first failure every getter returns a zero value and ok() is
// false; status() carries the first error with its line number. Loops must
// therefore guard on ok() — a corrupt count cannot spin them forever.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  // Advances to the next non-empty line; false at end of input (not an
  // error — callers that require a line use expect()).
  bool next();
  // next() + requires the line's key to equal `key`; poisons on mismatch
  // or end of input. Returns ok().
  bool expect(std::string_view key);
  // next() for a key-less row: poisons at end of input, and every token on
  // the line, the first included, is a value.
  bool expect_row();
  std::string_view key() const { return key_; }

  // Next whitespace-separated value token on the current line. Missing or
  // malformed tokens, and integers outside [min, max], poison the reader
  // and return zero values.
  double f64();
  uint64_t u64(uint64_t max = std::numeric_limits<uint64_t>::max());
  int64_t i64(int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max());
  int i32();  // i64 bounded to int
  bool b();
  std::string_view token();

  // The typed read, mirror of Writer::put: fills each destination with the
  // next token on the line, parsed by its type. Doubles and bools read as
  // f64()/b(); any other integer or enum is range-checked against the
  // destination (an enum against its underlying type), never narrowed; a
  // std::string takes the token; a tuple-like (a record's fields(r), a
  // std::array) reads element by element. The comma fold sequences the
  // reads left to right. Returns ok().
  template <typename... Ts>
  bool read(Ts&&... out) {
    (get(out), ...);
    return ok();
  }

  // Consumes exactly `n` raw bytes starting right after the current line's
  // newline (length-prefixed blob payload). Poisons on truncated input.
  std::string_view bytes(size_t n);

  bool ok() const { return !failed_; }
  util::Status status() const;
  size_t line_number() const { return line_no_; }

  // Unconsumed tail of the input (everything after the current line). The
  // snapshot container uses it to split one file into independently parsed
  // sections without copying the text up front.
  std::string_view remainder() const { return text_.substr(pos_); }

  // Records an external validation failure at the current line (e.g. an
  // unknown job id) through the same sticky-error channel.
  void fail(const std::string& message);

 private:
  template <typename T>
  void get(T& out) {
    if constexpr (detail::TupleLike<T>) {
      std::apply([this](auto&... e) { (get(e), ...); }, out);
    } else if constexpr (std::is_same_v<T, bool>) {
      out = b();
    } else if constexpr (std::is_floating_point_v<T>) {
      out = f64();
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> v{};
      get(v);
      out = static_cast<T>(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      out = static_cast<T>(u64(std::numeric_limits<T>::max()));
    } else if constexpr (std::is_integral_v<T>) {
      out = static_cast<T>(
          i64(std::numeric_limits<T>::min(), std::numeric_limits<T>::max()));
    } else {
      out = T(token());
    }
  }

  std::string_view text_;
  size_t pos_ = 0;        // start of the unconsumed remainder
  std::string_view key_;  // first token of the current line
  std::string_view rest_; // unconsumed value tokens of the current line
  size_t line_no_ = 0;
  bool failed_ = false;
  std::string error_;
};

}  // namespace coda::state
