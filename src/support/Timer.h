//===- support/Timer.h - Accumulating wall-clock timers -------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Accumulating timers used to split execution time into the paper's
/// Total / GC / Client and GC-stack / GC-copy buckets. The paper used UNIX
/// virtual timers; we use steady_clock, which preserves the shapes the
/// evaluation cares about.
///
/// One clock: monotonicNs() is the only steady_clock read behind every
/// Timer and every telemetry stamp (GcTelemetry::nowNs forwards to it), so
/// a stamp read once can feed both. Timer::start/stop and TimerScope take
/// an optional stamp the caller already read: a pause-budget mark slice
/// reads the clock at its two ends and hands both stamps to GcTime,
/// CopyTime, its telemetry event and phase, and its mark deadline. A clock
/// read costs tens of nanoseconds, about as much as a near-empty slice's
/// marking work.
///
/// Misuse discipline: the checks here used to be assert-only, which meant
/// an NDEBUG build silently *discarded* accumulated time on a double
/// start() and returned a stale total from seconds() mid-region.
/// Consistent with the project's removal of NDEBUG-erased checks, misuse
/// is now tolerated-and-counted in every build mode:
///
///  * start() on a running timer nests (a depth counter); the original
///    start point — and therefore the accumulated total — is preserved,
///    and the misuse is counted.
///  * stop() at depth zero is a counted no-op; an inner stop() just
///    unwinds one nesting level (only the outermost stop accumulates).
///  * seconds() is a live read: while running it includes the elapsed
///    time of the open region instead of returning a stale total.
///  * reset() while running is counted, zeroes the total and restarts
///    the open region at now (the depth is preserved).
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_SUPPORT_TIMER_H
#define TILGC_SUPPORT_TIMER_H

#include "support/Compiler.h"

#include <cstdint>

namespace tilgc {

/// Monotonic nanoseconds since the first call in this process. Out of
/// line, so the epoch's one-time initialization is not inlined into every
/// timed region.
uint64_t monotonicNs();

/// An accumulating stopwatch with counted misuse tolerance (see the file
/// comment).
class Timer {
public:
  void start() { start(monotonicNs()); }

  /// Starts at \p NowNs, a monotonicNs() stamp the caller already read.
  void start(uint64_t NowNs) {
    if (TILGC_UNLIKELY(Depth != 0)) {
      ++Depth;
      ++MisuseCount;
      return; // Keep the outer region's start point.
    }
    Depth = 1;
    BeginNs = NowNs;
  }

  void stop() { stop(monotonicNs()); }

  /// Stops at \p NowNs, a monotonicNs() stamp the caller already read.
  void stop(uint64_t NowNs) {
    if (TILGC_UNLIKELY(Depth == 0)) {
      ++MisuseCount;
      return;
    }
    if (--Depth != 0)
      return; // Inner stop of a (misused) nest: outermost stop accumulates.
    AccumulatedNs += static_cast<int64_t>(NowNs - BeginNs);
  }

  /// Total accumulated time in seconds — a live read: an open region
  /// contributes its elapsed time so far.
  double seconds() const {
    int64_t Ns = AccumulatedNs;
    if (TILGC_UNLIKELY(Depth != 0))
      Ns += static_cast<int64_t>(monotonicNs() - BeginNs);
    return static_cast<double>(Ns) * 1e-9;
  }

  /// Resets the accumulated total to zero. Counted as misuse while
  /// running; the open region restarts at now.
  void reset() {
    if (TILGC_UNLIKELY(Depth != 0)) {
      ++MisuseCount;
      BeginNs = monotonicNs();
    }
    AccumulatedNs = 0;
  }

  bool isRunning() const { return Depth != 0; }

  /// Current start/stop nesting depth (1 while properly running).
  unsigned depth() const { return Depth; }

  /// Lifetime count of tolerated misuses: nested starts, unmatched stops,
  /// and resets while running. Surfaced as GcStats::timerMisuses().
  uint64_t misuses() const { return MisuseCount; }

private:
  uint64_t BeginNs = 0;
  int64_t AccumulatedNs = 0;
  unsigned Depth = 0;
  uint64_t MisuseCount = 0;
};

/// RAII region that accumulates into a Timer.
class TimerScope {
public:
  explicit TimerScope(Timer &T) : T(T) { T.start(); }
  /// Opens the region at \p BeginNs, a stamp the caller already read.
  TimerScope(Timer &T, uint64_t BeginNs) : T(T) { T.start(BeginNs); }
  ~TimerScope() {
    if (Open)
      T.stop();
  }
  TimerScope(const TimerScope &) = delete;
  TimerScope &operator=(const TimerScope &) = delete;

  /// Closes the region early at \p EndNs, a stamp the caller already
  /// read; the destructor then leaves the timer alone.
  void stopAt(uint64_t EndNs) {
    if (Open) {
      Open = false;
      T.stop(EndNs);
    }
  }

private:
  Timer &T;
  bool Open = true;
};

/// RAII region that *pauses* a running Timer (e.g. to exclude GC time from a
/// client timer).
class TimerPause {
public:
  explicit TimerPause(Timer &T) : T(T), WasRunning(T.isRunning()) {
    if (WasRunning)
      T.stop();
  }
  ~TimerPause() {
    if (WasRunning)
      T.start();
  }
  TimerPause(const TimerPause &) = delete;
  TimerPause &operator=(const TimerPause &) = delete;

private:
  Timer &T;
  bool WasRunning;
};

} // namespace tilgc

#endif // TILGC_SUPPORT_TIMER_H
