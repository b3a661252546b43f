//===- gc/SemispaceCollector.cpp - Cheney semispace collector -------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/SemispaceCollector.h"

#include "gc/HeapVerifier.h"
#include "support/Table.h"

#include <algorithm>
#include <cstring>

using namespace tilgc;

SemispaceCollector::SemispaceCollector(const CollectorEnv &Env,
                                       const GcOptions &Opts)
    : Collector(Env, Opts) {
  size_t PerSpace =
      std::clamp<size_t>(Opts.BudgetBytes / 2, 16u << 10, 4u << 20);
  SpaceA.reserve(PerSpace);
  SpaceB.reserve(PerSpace);
  noteFootprint();
}

void SemispaceCollector::noteFootprint() {
  size_t F = SpaceA.capacityBytes() + SpaceB.capacityBytes();
  if (F > Stats.MaxFootprintBytes)
    Stats.MaxFootprintBytes = F;
}

Word *SemispaceCollector::allocate(ObjectKind Kind, uint32_t LenWords,
                                   uint32_t PtrMask, uint32_t SiteId) {
  Word Descriptor = header::make(Kind, LenWords, PtrMask);
  Word Meta = makeMeta(SiteId);
  Word *Payload = Active->allocate(Descriptor, Meta);
  if (TILGC_UNLIKELY(!Payload)) {
    collectInternal(objectTotalBytes(Descriptor), GcTrigger::SpaceFull);
    // Remake the metadata: the birth stamp may have ticked past a KB
    // boundary, and more importantly the collection consumed the old one.
    Meta = makeMeta(SiteId);
    Payload = Active->allocate(Descriptor, Meta);
    // Terminal rung of the OOM ladder (the collection either grew the heap
    // or was stopped by the hard cap and threw already): a catchable,
    // structured failure in every build mode.
    if (TILGC_UNLIKELY(!Payload))
      throwHeapExhausted(objectTotalBytes(Descriptor),
                         OomStage::RetryAfterMajor);
  }
  accountAllocation(Kind, Descriptor, SiteId);
  std::memset(Payload, 0, static_cast<size_t>(LenWords) * sizeof(Word));
  return Payload;
}

void SemispaceCollector::collect(bool Major) {
  (void)Major; // Semispace collections are always full collections.
  collectInternal(0, GcTrigger::Explicit);
}

void SemispaceCollector::collectInternal(size_t NeedBytes, GcTrigger Trigger) {
  TimerScope GcScope(Stats.GcTime);
  FaultInjector::ScopedGcPhase GcPhase;

  // Inactive has sat idle since the last collection.
  checkIdleSpacePoison("semispace");

  // Worst case the to-space must absorb: everything live plus the
  // allocation that triggered us.
  size_t WorstCase = Active->usedBytes() + NeedBytes;

  // Hard-cap pre-flight, BEFORE any object moves: if the peak footprint of
  // this collection (to-space grown to the worst case if it needs growing)
  // exceeds the cap, refuse catchably while the heap is still intact and
  // verifiable. Unconditional when a cap is set — the post-collection
  // resize's MinSize floor may legally pre-provision a to-space the cap
  // cannot absorb, and this check is where that breach becomes a throw
  // instead of unbounded ratcheting growth.
  if (TILGC_UNLIKELY(Opts.HardLimitBytes) &&
      Active->capacityBytes() +
              std::max(Inactive->capacityBytes(), WorstCase) >
          Opts.HardLimitBytes)
    throwHeapExhausted(NeedBytes ? NeedBytes : WorstCase,
                       OomStage::HardCapPreflight);

  ++Stats.NumGC;
  ++Stats.NumMajorGC;
  Tel.beginCollection(GcGeneration::Major, Trigger, Stats.NumGC);
  accountStackAtGC();
  scanRoots();

  if (Inactive->capacityBytes() < WorstCase) {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Resize);
    if (WorstCase * 2 > Opts.BudgetBytes)
      ++Stats.BudgetOverruns;
    Inactive->reserve(WorstCase);
  }
  noteFootprint();

  // Copy phase. Every object moves, so reused stack roots are processed
  // too — the marker win here is only the avoided re-decoding.
  Evacuator::Config C;
  C.From = {Active, nullptr, nullptr};
  C.Dest = Inactive;
  C.Profiler = Env.Profiler;
  C.CountSurvivedFirst = true;
  Stats.MajorBytesMoved += evacuate(
      C, {&Roots.FreshSlotRoots, &Roots.ReusedSlotRoots, &Roots.RegRoots});

  sweepDeaths(*Active);

  LiveBytes = Inactive->usedBytes();
  if (LiveBytes > Stats.MaxLiveBytes)
    Stats.MaxLiveBytes = LiveBytes;

  // Swap and resize. Resizing toward r = SemispaceTargetLiveness means
  // sizing each semispace at live/r; the empty space is resized now, the
  // full one catches up at the next collection.
  {
    GcTelemetry::PhaseScope ResizePS(Tel, GcPhase::Resize);
    std::swap(Active, Inactive);
    size_t Desired = static_cast<size_t>(
        static_cast<double>(LiveBytes) / Opts.SemispaceTargetLiveness);
    size_t MinSize = LiveBytes + NeedBytes + (4u << 10);
    size_t MaxSize = std::max<size_t>(Opts.BudgetBytes / 2, MinSize);
    Desired = std::clamp(Desired, MinSize, MaxSize);
    // Under a hard cap, never reserve an empty space the cap could not
    // absorb — but never below MinSize (this collection already succeeded;
    // the next one's pre-flight throws if MinSize itself breaches the cap).
    if (TILGC_UNLIKELY(Opts.HardLimitBytes)) {
      size_t Room = hardCapRoom(Active->capacityBytes());
      Desired = std::clamp(Desired, MinSize, std::max(Room, MinSize));
    }
    Inactive->reserve(Desired);
    noteFootprint();
    // Shrink the live space too (soft limit): a factor below 1 must take
    // effect even though the storage cannot be reallocated under the data.
    Active->setSoftLimitBytes(Desired);

    if (TILGC_UNLIKELY(shouldPoison())) {
      Inactive->poisonFreeSpace();
      watchIdleSpace(*Inactive);
    }
  }
  maybeVerifyHeap("semispace");
  Tel.endCollection();
}

bool SemispaceCollector::verifyHeapNow(std::string &Error) const {
  HeapVerifier V;
  V.addSpace(Active, "active");
  V.setPoisonPattern(Space::PoisonPattern);
  return V.verifyHeap(Error);
}

void SemispaceCollector::appendHeapState(std::string &Out) const {
  Out += formatString("semispace collector '%s': budget %zu bytes, ",
                      Opts.Name.empty() ? "<unnamed>" : Opts.Name.c_str(),
                      Opts.BudgetBytes);
  Out += Opts.HardLimitBytes
             ? formatString("hard limit %zu bytes\n", Opts.HardLimitBytes)
             : std::string("no hard limit\n");
  Out += formatString("  %-12s %10zu / %10zu bytes used\n", "active",
                      Active->usedBytes(), Active->capacityBytes());
  Out += formatString("  %-12s %10zu / %10zu bytes used\n", "inactive",
                      Inactive->usedBytes(), Inactive->capacityBytes());
}

void SemispaceCollector::forEachLiveObject(
    const std::function<void(Word *, Word)> &Fn) const {
  Active->walk([&](Word *Payload, Word Descriptor, bool Forwarded) {
    if (!Forwarded)
      Fn(Payload, Descriptor);
  });
}
