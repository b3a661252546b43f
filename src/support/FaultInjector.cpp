//===- support/FaultInjector.cpp - Deterministic fault injection ----------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

using namespace tilgc;

std::atomic<bool> FaultInjector::AnyArmed{false};
std::atomic<int> FaultInjector::GcDepth{0};

FaultInjector &FaultInjector::global() {
  static FaultInjector FI;
  return FI;
}

void FaultInjector::arm(FaultPoint P, uint64_t FireAt, uint64_t FireCount) {
  Point &Pt = Points[index(P)];
  Pt.FireAt.store(FireAt, std::memory_order_relaxed);
  Pt.FireCount.store(FireCount, std::memory_order_relaxed);
  Pt.Crossings.store(0, std::memory_order_relaxed);
  Pt.Fired.store(0, std::memory_order_relaxed);
  Pt.Armed.store(true, std::memory_order_release);
  recomputeAnyArmed();
}

void FaultInjector::armFromSeed(FaultPoint P, uint64_t Seed, uint64_t Window,
                                uint64_t FireCount) {
  if (Window == 0)
    Window = 1;
  uint64_t State = Seed ^ (0x9e3779b97f4a7c15ULL * (index(P) + 1));
  uint64_t Mixed = splitMix64(State);
  arm(P, 1 + Mixed % Window, FireCount);
}

void FaultInjector::disarm(FaultPoint P) {
  Points[index(P)].Armed.store(false, std::memory_order_release);
  recomputeAnyArmed();
}

void FaultInjector::reset() {
  for (unsigned I = 0; I < NumPoints; ++I) {
    Point &Pt = Points[I];
    Pt.Armed.store(false, std::memory_order_relaxed);
    Pt.FireAt.store(0, std::memory_order_relaxed);
    Pt.FireCount.store(0, std::memory_order_relaxed);
    Pt.Crossings.store(0, std::memory_order_relaxed);
    Pt.Fired.store(0, std::memory_order_relaxed);
  }
  AnyArmed.store(false, std::memory_order_release);
}

bool FaultInjector::shouldFire(FaultPoint P) {
  // Mutator-path alloc faults must not perturb (or be perturbed by)
  // collection-internal allocation; see ScopedGcPhase.
  if (P == FaultPoint::SpaceAllocNull &&
      GcDepth.load(std::memory_order_relaxed) > 0)
    return false;

  Point &Pt = Points[index(P)];
  uint64_t Crossing = Pt.Crossings.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!Pt.Armed.load(std::memory_order_acquire))
    return false;

  uint64_t FireAt = Pt.FireAt.load(std::memory_order_relaxed);
  uint64_t FireCount = Pt.FireCount.load(std::memory_order_relaxed);
  if (Crossing < FireAt)
    return false;
  if (FireCount != Forever && Crossing >= FireAt + FireCount)
    return false;
  Pt.Fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

const char *FaultInjector::pointName(FaultPoint P) {
  // Exhaustive by construction: no default, so -Wswitch flags any enum
  // entry missing a name, and the trailing return is unreachable.
  switch (P) {
  case FaultPoint::SpaceAllocNull:
    return "space-alloc-null";
  case FaultPoint::WorkerStall:
    return "worker-stall";
  case FaultPoint::WorkerThrow:
    return "worker-throw";
  case FaultPoint::FromSpacePoison:
    return "from-space-poison";
  case FaultPoint::SafepointStall:
    return "safepoint-stall";
  case FaultPoint::MarkPlanThrow:
    return "mark-plan-throw";
  case FaultPoint::CardSweepThrow:
    return "card-sweep-throw";
  case FaultPoint::TlabRefillFail:
    return "tlab-refill-fail";
  case FaultPoint::SafepointNoShow:
    return "safepoint-no-show";
  case FaultPoint::HostGrowFail:
    return "host-grow-fail";
  }
  return "unknown";
}

void FaultInjector::recomputeAnyArmed() {
  bool Any = false;
  for (unsigned I = 0; I < NumPoints; ++I)
    Any |= Points[I].Armed.load(std::memory_order_relaxed);
  AnyArmed.store(Any, std::memory_order_release);
}
