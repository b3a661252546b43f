//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, deterministic fault injector for torturing the collector's
/// failure paths (MMTk/JikesRVM harness tradition). Each named injection
/// point counts its dynamic crossings; an armed point fires on a configured
/// crossing window [FireAt, FireAt + FireCount). Arming from a seed maps
/// (seed, point) through splitMix64 so a one-word seed reproduces an entire
/// fault schedule.
///
/// Cost discipline: every instrumented site guards itself with
/// `TILGC_UNLIKELY(FaultInjector::enabled())` — a single relaxed atomic
/// load of a global flag that is false in production — so the disarmed
/// injector adds one well-predicted branch to the paths it watches and
/// nothing else. Crossings are only counted while some point is armed,
/// which also keeps the schedule deterministic for a given armed set.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_SUPPORT_FAULTINJECTOR_H
#define TILGC_SUPPORT_FAULTINJECTOR_H

#include "support/Compiler.h"
#include "support/Random.h"

#include <atomic>
#include <cstdint>

namespace tilgc {

/// Named injection points, wired through heap/ and gc/.
enum class FaultPoint : unsigned {
  /// Space::allocate returns null on a mutator-path allocation, driving the
  /// collector's OOM escalation ladder. Suppressed while a collection is in
  /// progress (ScopedGcPhase): a failed evacuation copy is terminal, not a
  /// recoverable refusal.
  SpaceAllocNull,
  /// A parallel mark worker sleeps mid-trace, skewing the termination
  /// protocol's timing.
  WorkerStall,
  /// A parallel mark worker throws mid-trace; the mark must degrade to a
  /// serial re-trace instead of deadlocking.
  WorkerThrow,
  /// Collectors poison evacuated from-space regardless of VerifyLevel, so
  /// any stale from-space read trips the misaligned-pointer check.
  FromSpacePoison,
  /// A mutator thread sleeps just before parking at a safepoint poll,
  /// stretching the rendezvous window while the other threads sit stopped
  /// (multi-mutator torture).
  SafepointStall,
  /// The MarkCompact controlling thread throws out of the MARK or PLAN
  /// phase (both still mutation-free); the generational collector must
  /// fail over to a semispace major for that collection.
  MarkPlanThrow,
  /// The dirty-card sweep throws mid-run; the collector must recover by
  /// degrading to a full tenured-space walk (the pre-crossing-map
  /// behavior) for that minor collection.
  CardSweepThrow,
  /// Mutator::refillTlab pretends the nursery refused the block handout,
  /// forcing the mutator onto the stop-the-world slow allocation path.
  TlabRefillFail,
  /// A mutator skips its safepoint poll entirely and keeps running for a
  /// bounded interval — the watchdog's canonical prey: the rendezvous
  /// stretches far past any reasonable deadline but must still complete.
  SafepointNoShow,
  /// Space::reserve sees the host allocator fail; the space must retry
  /// with bounded backoff before escalating to the structured fatal.
  HostGrowFail,
};

/// Anchors the per-point array size to the enum: extending FaultPoint
/// without updating this alias fails the static_asserts below and the
/// -Wswitch check in pointName, so the name table and counters can never
/// silently desync.
inline constexpr FaultPoint LastFaultPoint = FaultPoint::HostGrowFail;

class FaultInjector {
public:
  static constexpr unsigned NumPoints =
      static_cast<unsigned>(LastFaultPoint) + 1;
  static_assert(NumPoints == 10,
                "FaultPoint changed: update LastFaultPoint, pointName, and "
                "the torture matrices that enumerate points");
  /// FireCount value meaning "once triggered, fire on every crossing".
  static constexpr uint64_t Forever = ~static_cast<uint64_t>(0);

  /// The process-wide injector instance.
  static FaultInjector &global();

  /// One relaxed load; false unless some point is armed. Gate every
  /// instrumented site on this (under TILGC_UNLIKELY) before touching
  /// per-point state.
  static bool enabled() {
    return AnyArmed.load(std::memory_order_relaxed);
  }

  /// Arms \p P to fire on crossings [FireAt, FireAt + FireCount).
  /// Crossings are 1-based: FireAt == 1 fires on the first crossing.
  void arm(FaultPoint P, uint64_t FireAt, uint64_t FireCount = 1);

  /// Arms \p P at a crossing derived deterministically from \p Seed,
  /// uniform in [1, Window].
  void armFromSeed(FaultPoint P, uint64_t Seed, uint64_t Window,
                   uint64_t FireCount = 1);

  void disarm(FaultPoint P);

  /// Disarms every point and zeroes all counters.
  void reset();

  /// Counts a crossing of \p P and reports whether the fault fires there.
  /// Only call behind enabled(); crossings of SpaceAllocNull inside a
  /// collection phase neither count nor fire.
  bool shouldFire(FaultPoint P);

  /// Dynamic crossings counted while armed (diagnostics / tests).
  uint64_t crossings(FaultPoint P) const {
    return Points[index(P)].Crossings.load(std::memory_order_relaxed);
  }

  /// Times \p P actually fired.
  uint64_t fired(FaultPoint P) const {
    return Points[index(P)].Fired.load(std::memory_order_relaxed);
  }

  /// Human-readable point name for diagnostics.
  static const char *pointName(FaultPoint P);

  /// RAII marker for "a collection is running": SpaceAllocNull is a
  /// mutator-path fault, and a copy destination running dry mid-evacuation
  /// is a different (terminal) failure, so alloc-null injection is
  /// suppressed while any collector phase is live.
  class ScopedGcPhase {
  public:
    ScopedGcPhase() { GcDepth.fetch_add(1, std::memory_order_relaxed); }
    ~ScopedGcPhase() { GcDepth.fetch_sub(1, std::memory_order_relaxed); }
    ScopedGcPhase(const ScopedGcPhase &) = delete;
    ScopedGcPhase &operator=(const ScopedGcPhase &) = delete;
  };

private:
  struct Point {
    std::atomic<bool> Armed{false};
    std::atomic<uint64_t> FireAt{0};
    std::atomic<uint64_t> FireCount{0};
    std::atomic<uint64_t> Crossings{0};
    std::atomic<uint64_t> Fired{0};
  };

  static unsigned index(FaultPoint P) { return static_cast<unsigned>(P); }
  void recomputeAnyArmed();

  Point Points[NumPoints];
  static std::atomic<bool> AnyArmed;
  static std::atomic<int> GcDepth;
};

} // namespace tilgc

#endif // TILGC_SUPPORT_FAULTINJECTOR_H
