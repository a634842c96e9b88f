// Persisted field lists. A struct whose members are written and read back
// one row at a time (session snapshots, report blobs) lists them once,
// inside its definition, in row order:
//
//   struct Foo {
//     int a = 0;
//     double b = 0.0;
//     friend auto fields(util::FieldsOf<Foo> auto& f) {
//       return std::tie(f.a, f.b);
//     }
//   };
//
// On a const Foo the tuple ties const references, which state::Writer
// writes; on a mutable Foo, plain references, which state::Reader::read
// fills. The writer and the reader walk the same list, so they cannot
// drift apart. Call it unqualified: argument-dependent lookup finds it.
#pragma once

#include <concepts>
#include <tuple>
#include <type_traits>

namespace coda::util {

// `R` is T or const T.
template <typename R, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<R>, T>;

}  // namespace coda::util
