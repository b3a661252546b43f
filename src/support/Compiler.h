//===- support/Compiler.h - Portable compiler helpers ---------*- C++ -*-===//
//
// Part of the tilgc project: a reproduction of "Generational Stack
// Collection and Profile-Driven Pretenuring" (Cheng, Harper, Lee, PLDI'98).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small portable helpers used throughout the library: unreachable markers,
/// branch-prediction hints and the cache-line size.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_SUPPORT_COMPILER_H
#define TILGC_SUPPORT_COMPILER_H

#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace tilgc {

/// Alignment that keeps an object off the cache lines of its heap
/// neighbours, so one thread's writes to it cannot slow another thread's
/// reads of them (false sharing). 64 bytes on x86-64 and most AArch64.
inline constexpr size_t CacheLineBytes = 64;

/// Reports an internal invariant violation and aborts.
///
/// Used by TILGC_UNREACHABLE; not intended to be called directly.
[[noreturn]] inline void reportUnreachable(const char *Msg, const char *File,
                                           unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line, Msg);
  std::abort();
}

} // namespace tilgc

/// Marks a point in the program that must never be executed.
#define TILGC_UNREACHABLE(msg)                                                 \
  ::tilgc::reportUnreachable(msg, __FILE__, __LINE__)

#if defined(__GNUC__) || defined(__clang__)
#define TILGC_LIKELY(x) (__builtin_expect(!!(x), 1))
#define TILGC_UNLIKELY(x) (__builtin_expect(!!(x), 0))
#else
#define TILGC_LIKELY(x) (x)
#define TILGC_UNLIKELY(x) (x)
#endif

#endif // TILGC_SUPPORT_COMPILER_H
