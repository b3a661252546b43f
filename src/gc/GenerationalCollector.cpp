//===- gc/GenerationalCollector.cpp - Two-generation collector ------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/GenerationalCollector.h"

#include "gc/HeapVerifier.h"
#include "support/Table.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

using namespace tilgc;

GenerationalCollector::GenerationalCollector(const CollectorEnv &Env,
                                             const GcOptions &Opts)
    : Collector(Env, Opts),
      RS(Opts.Barrier, NurseryA, NurseryB, Stats, Tel, Pool.get()) {
  size_t NurserySize = std::clamp<size_t>(Opts.BudgetBytes / 4, 8u << 10,
                                          Opts.NurseryLimitBytes);
  NurseryA.reserve(NurserySize);
  if (AgedTenuring())
    NurseryB.reserve(NurserySize);

  size_t NurseryFoot = NurserySize * (AgedTenuring() ? 2 : 1);
  size_t TenuredSize =
      Opts.BudgetBytes > NurseryFoot ? (Opts.BudgetBytes - NurseryFoot) / 2 : 0;
  TenuredSize = std::max(TenuredSize, NurserySize + (16u << 10));
  TenuredA.reserve(TenuredSize);
  RS.rebind(TenuredA);
  if (Opts.MajorGc == MajorGcKind::Semispace) {
    TenuredB.reserve(TenuredSize);
  } else {
    // Mark-compact keeps a single standing tenured space: TenuredB stays
    // unreserved (capacity 0) until a growth fallback transiently needs it,
    // and the region overlay binds to the live space from the start.
    Regions.attach(TenuredA);
  }

  for (const PretenureDecision &Dec : Opts.Pretenure) {
    if (Dec.SiteId >= PretenureFlag.size())
      PretenureFlag.resize(Dec.SiteId + 1, 0);
    PretenureFlag[Dec.SiteId] = Dec.EliminateScan ? 2 : 1;
  }

  // Pretenuring audit: each PretenureFlag flip is reported with the
  // promotion-rate evidence behind it (observers register via CollectorEnv
  // before construction, so they see these).
  if (TILGC_UNLIKELY(Tel.armed())) {
    for (const PretenureDecision &Dec : Opts.Pretenure) {
      PretenureAudit A;
      A.SiteId = Dec.SiteId;
      A.Pretenured = true;
      A.EliminateScan = Dec.EliminateScan;
      A.OldFraction = Dec.OldFraction;
      A.Threshold = Dec.OldCutoff;
      A.AllocBytes = Dec.AllocBytes;
      A.AllocCount = Dec.AllocCount;
      A.SurvivedFirstGC = Dec.SurvivedFirstCount;
      Tel.notePretenureDecision(A);
    }
  }

  if (Opts.GcDeadlineMicros)
    // Bark diagnostics read the in-flight phase from a relaxed atomic the
    // telemetry plane only publishes when someone is watching.
    Tel.enableLivePhase();

  RootBatch.reserve(1024);
  MinorCrossGen.reserve(256);
  noteFootprint();
}

size_t GenerationalCollector::footprintBytes() const {
  return NurseryFrom->capacityBytes() * (AgedTenuring() ? 2 : 1) +
         TenuredFrom->capacityBytes() + TenuredTo->capacityBytes() +
         LOS.liveBytes();
}

void GenerationalCollector::noteFootprint() {
  size_t F = footprintBytes();
  if (F > Stats.MaxFootprintBytes)
    Stats.MaxFootprintBytes = F;
}

Word *GenerationalCollector::allocate(ObjectKind Kind, uint32_t LenWords,
                                      uint32_t PtrMask, uint32_t SiteId) {
  // Pause-budget mode: allocation is the slice safepoint — exactly the
  // paper's safe-point discipline, reused. The mutator's bump path stays
  // open during a cycle, but its slice fence sends the allocation that
  // finds a slice due here (as does every slow-path allocation).
  if (TILGC_UNLIKELY(Cycle) && Cycle->sliceDue(*NurseryFrom))
    Cycle->runSlice();

  Word Descriptor = header::make(Kind, LenWords, PtrMask);
  uint64_t Total = objectTotalBytes(Descriptor);
  size_t PayloadBytes = static_cast<size_t>(LenWords) * sizeof(Word);

  // Large arrays live in the mark-sweep region (paper §2.1). Collect
  // *before* allocating: a collection after the fact would reclaim the
  // still-unreachable newborn.
  if (Kind != ObjectKind::Record && Total >= Opts.LargeObjectThresholdBytes) {
    bool Collected = false;
    if (footprintBytes() + Total > Opts.BudgetBytes &&
        LOSAllocSinceGC + Total >= Opts.BudgetBytes / 8) {
      TimerScope Gc(Stats.GcTime);
      if (TILGC_UNLIKELY(incrementalModeActive()) && !Cycle &&
          !Opts.UseStackMarkers) {
        // Budget mode: soft LOS pressure opens a cycle instead of paying a
        // stop-the-world major here; the reclaim arrives at the cycle's
        // finish (the footprint may overshoot the soft budget until then —
        // the same trade the paper's soft k*Min budget already makes).
        // Marker configurations skip this site: snapshotting roots here
        // needs a mid-epoch stack scan, which only a markerless scan can
        // do without breaking the §5 reuse invariant.
        Cycle.emplace(*this, GcTrigger::LargeObjectPressure);
      } else if (!Cycle) {
        doMajor(0, GcTrigger::LargeObjectPressure);
        Collected = true;
      }
      // A live cycle is already collecting toward this pressure: let the
      // slices run rather than forcing the finish for a soft threshold.
    }
    // LOS backing storage comes straight from the host, so the hard cap is
    // enforced here rather than by a failing space. One major collection
    // may free dead large objects before the ladder gives up.
    if (TILGC_UNLIKELY(Opts.HardLimitBytes &&
                       footprintBytes() + Total > Opts.HardLimitBytes)) {
      if (!Collected) {
        TimerScope Gc(Stats.GcTime);
        doMajor(0, GcTrigger::LargeObjectPressure);
      }
      if (footprintBytes() + Total > Opts.HardLimitBytes)
        throwHeapExhausted(Total, OomStage::RetryAfterMajor);
    }
    Word *Payload = LOS.allocate(Descriptor, makeMeta(SiteId));
    NewLargeObjects.push_back(Payload);
    // Large objects born during an incremental cycle are allocated black:
    // they postdate the snapshot, so the finish seeds them rather than
    // relying on a mark bit the slices never set.
    if (TILGC_UNLIKELY(Cycle))
      Cycle->noteLargeObject(Payload, Total);
    LOSAllocSinceGC += Total;
    noteFootprint();
    accountAllocation(Kind, Descriptor, SiteId);
    std::memset(Payload, 0, PayloadBytes);
    return Payload;
  }

  // Pretenured sites allocate directly into the tenured generation (§6).
  if (SiteId < PretenureFlag.size() && PretenureFlag[SiteId]) {
    Word *Payload = TenuredFrom->allocate(Descriptor, makeMeta(SiteId));
    if (TILGC_UNLIKELY(!Payload)) {
      {
        TimerScope Gc(Stats.GcTime);
        doMajor(Total, GcTrigger::PretenuredSiteFull);
      }
      Payload = TenuredFrom->allocate(Descriptor, makeMeta(SiteId));
      if (TILGC_UNLIKELY(!Payload))
        throwHeapExhausted(Total, OomStage::RetryAfterMajor);
    }
    notePretenuredRun(Payload, Descriptor, PretenureFlag[SiteId] == 2);
    RS.noteTenuredObject(Payload - HeaderWords, objectTotalWords(Descriptor));
    Stats.PretenuredBytes += Total;
    accountAllocation(Kind, Descriptor, SiteId);
    std::memset(Payload, 0, PayloadBytes);
    return Payload;
  }

  // Everything else: the nursery, behind the OOM escalation ladder —
  // retry after a minor, retry after a major (which reserves tenured room
  // and may grow under the hard cap), then a tenured-fallback last resort,
  // then a catchable HeapExhausted. Active in every build mode.
  Word *Payload = NurseryFrom->allocate(Descriptor, makeMeta(SiteId));
  if (TILGC_UNLIKELY(!Payload)) {
    {
      TimerScope Gc(Stats.GcTime);
      doMinor(0, GcTrigger::NurseryFull);
    }
    Payload = NurseryFrom->allocate(Descriptor, makeMeta(SiteId));
    if (TILGC_UNLIKELY(!Payload)) {
      // Aged tenuring can leave the nursery nearly full of young
      // survivors; a major collection promotes them all. doMajor(Total)
      // also reserves tenured room for the object in case it never fits
      // the nursery at all.
      {
        TimerScope Gc(Stats.GcTime);
        doMajor(Total, GcTrigger::OomLadder);
      }
      Payload = NurseryFrom->allocate(Descriptor, makeMeta(SiteId));
      if (TILGC_UNLIKELY(!Payload)) {
        // The object exceeds even an empty nursery: fall back to the
        // tenured generation, registered like a pretenured run so its
        // initializing stores are scanned at the next minor collection.
        Payload = TenuredFrom->allocate(Descriptor, makeMeta(SiteId));
        if (TILGC_UNLIKELY(!Payload))
          throwHeapExhausted(Total, OomStage::TenuredFallback);
        notePretenuredRun(Payload, Descriptor, /*NoScan=*/false);
        RS.noteTenuredObject(Payload - HeaderWords,
                             objectTotalWords(Descriptor));
      }
    }
  }
  accountAllocation(Kind, Descriptor, SiteId);
  std::memset(Payload, 0, PayloadBytes);
  return Payload;
}

void GenerationalCollector::collect(bool Major) {
  TimerScope Gc(Stats.GcTime);
  if (Major)
    doMajor(0, GcTrigger::Explicit);
  else
    doMinor(0, GcTrigger::Explicit);
}

void GenerationalCollector::notePretenuredRun(Word *Payload, Word Descriptor,
                                              bool NoScan) {
  Word *Begin = Payload - HeaderWords;
  Word *End = Begin + objectTotalWords(Descriptor);
  if (!Runs.empty() && Runs.back().End == Begin &&
      Runs.back().NoScan == NoScan) {
    Runs.back().End = End;
    return;
  }
  Runs.push_back(Run{Begin, End, NoScan});
}

template <typename SlotFn>
void GenerationalCollector::forEachOldToYoungRoot(SlotFn Fn) {
  // Write-barrier output. (Phase scopes are siblings, so phase durations
  // never nest and their sum stays below the pause; they are no-ops outside
  // a collection, e.g. under the pre-minor audit.)
  RS.forEachSlot(Fn);

  GcTelemetry::PhaseScope PS(Tel, GcPhase::SsbFilter);
  // The pretenured region (§6): "we remember the area of the older
  // generation that has been directly allocated into and scan this region
  // ... a win over copying since copying objects is slower than only
  // scanning them." §7.2 scan-eliminated runs are skipped outright.
  for (const Run &R : Runs) {
    uint64_t Bytes =
        static_cast<uint64_t>(R.End - R.Begin) * sizeof(Word);
    if (R.NoScan) {
      Stats.PretenuredScanSkippedBytes += Bytes;
      continue;
    }
    Stats.PretenuredScannedBytes += Bytes;
    Word *P = R.Begin;
    while (P < R.End) {
      Word *Payload = P + HeaderWords;
      Word Descriptor = descriptorOf(Payload);
      forEachPointerField(Payload, [&](Word *Field) { Fn(Field); });
      P += objectTotalWords(Descriptor);
    }
  }

  // Large objects allocated since the last collection: their initializing
  // stores bypassed the barrier, so scan them like the pretenured region.
  for (Word *Payload : NewLargeObjects)
    forEachPointerField(Payload, [&](Word *Field) { Fn(Field); });
}

void GenerationalCollector::doMinor(size_t NeedTenuredBytes,
                                    GcTrigger Trigger) {
  FaultInjector::ScopedGcPhase GcPhase;
  if (TILGC_UNLIKELY(Opts.VerifyLevel >= 2))
    auditRememberedSets();

  // The tenured generation must be able to absorb every survivor.
  if (TenuredFrom->freeBytes() < NurseryFrom->usedBytes() + NeedTenuredBytes) {
    // The minor never starts: the chained major is the whole collection
    // (and the only telemetry event).
    doMajor(NeedTenuredBytes, GcTrigger::TenuredPressure);
    return;
  }

  // The watchdog window covers a tenured-pressure chained major too
  // (armGcWatchdog is depth-counted), so one deadline bounds the whole
  // pause the mutator observes.
  CollectionScope Scope(*this, GcGeneration::Minor, Trigger);

  Evacuator::Config C;
  C.From = {NurseryFrom, nullptr, nullptr};
  C.Dest = TenuredFrom;
  if (AgedTenuring()) {
    C.DestYoung = NurseryTo;
    C.PromoteAgeThreshold = Opts.PromoteAgeThreshold;
    MinorCrossGen.clear();
    C.CrossGenOut = &MinorCrossGen;
  }
  C.LOS = &LOS;
  C.TraceLOS = false;
  C.Profiler = Env.Profiler;
  C.CountSurvivedFirst = true;
  C.CrossDest = RS.crossDest();

  // Batched root pipeline: gather the heap-side roots (barrier output,
  // pretenured regions, new large objects) into one contiguous span, then
  // hand whole spans to the engine in the serial order — stack, registers,
  // the §5 reused-frame policy, promotion-created cross-generation slots,
  // heap batch. Every gathered slot address is stable during a minor
  // collection (the slots live outside the nursery), so gather-then-forward
  // is equivalent to forwarding during enumeration.
  uint64_t SsbBefore = Stats.SSBEntriesProcessed;
  uint64_t CardsBefore = Stats.CardsScanned;
  uint64_t DirtyBefore = RS.cards().numDirtyCards();
  {
    TimerScope T(Stats.StackTime); // Root gathering (phases inside).
    RootBatch.clear();
    forEachOldToYoungRoot([&](Word *Slot) { RootBatch.push_back(Slot); });
  }
  if (GcEvent *Ev = Tel.currentEvent()) {
    Ev->SsbEntriesProcessed = Stats.SSBEntriesProcessed - SsbBefore;
    Ev->DirtyCards = DirtyBefore;
    Ev->CardsScanned = Stats.CardsScanned - CardsBefore;
  }

  // Promote-all + markers: roots in unchanged frames were redirected to
  // the tenured generation by the previous collection and cannot point
  // into the nursery — skip them entirely (the heart of §5). Under aged
  // tenuring young survivors keep moving, so they must be processed.
  bool ProcessReused = !Opts.UseStackMarkers || AgedTenuring();
  if (!ProcessReused && TILGC_UNLIKELY(Opts.VerifyLevel >= 2)) {
    // Level-2 audit of the invariant behind the skip: a root in an
    // unchanged frame can never point into the nursery. (O(reused roots),
    // the very cost §5 eliminates, hence audit-only.)
    for (const Word *Slot : Roots.ReusedSlotRoots)
      if (*Slot && inNursery(reinterpret_cast<const Word *>(*Slot)))
        fatalError("stack-reuse audit failed at minor GC #%llu: slot %p of "
                   "a reused (unchanged) frame holds nursery pointer %llx, "
                   "which the minor collection would skip",
                   (unsigned long long)Stats.NumGC, (const void *)Slot,
                   (unsigned long long)*Slot);
  }

  uint64_t TenuredUsedBefore = TenuredFrom->usedBytes();
  evacuate(C, {&Roots.FreshSlotRoots, &Roots.RegRoots,
               ProcessReused ? &Roots.ReusedSlotRoots : nullptr,
               &CrossGenSlots, &RootBatch});

  if (AgedTenuring()) {
    // Keep only real heap slots: stack slots and registers are rescanned
    // from scratch every collection and their storage gets reused.
    CrossGenSlots.clear();
    for (Word *Slot : MinorCrossGen)
      if (!mutatorOwnsSlot(Slot))
        CrossGenSlots.push_back(Slot);
  }

  {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Resize);
    sweepDeaths(*NurseryFrom);
    NurseryFrom->reset();
    if (TILGC_UNLIKELY(shouldPoison()))
      NurseryFrom->poisonFreeSpace();
    if (AgedTenuring())
      std::swap(NurseryFrom, NurseryTo);

    RS.clearAfterGC();
    Runs.clear();
    NewLargeObjects.clear();
  }

  LiveBytes = TenuredFrom->usedBytes() + LOS.liveBytes() +
              (AgedTenuring() ? NurseryFrom->usedBytes() : 0);
  // (MaxLiveBytes is only sampled after *full* collections: after a minor
  // one the tenured generation still holds promoted-but-dead data.)

  maybeVerifyHeap("minor");

  // Promote-all minors put every survivor in the tenured generation; under
  // aged tenuring the tenured used-delta is the truthful figure.
  if (GcEvent *Ev = Tel.currentEvent())
    Ev->BytesPromoted = TenuredFrom->usedBytes() - TenuredUsedBefore;

  // Tenured pressure. In pause-budget mode a cycle starts early — once
  // tenured free space drops below half the space (or three nursery-loads,
  // whichever is larger) — so the slices cover roughly the second half of
  // every inter-major period. The long runway is what keeps finishes rare
  // relative to slices: high-promotion workloads can eat a nursery-load
  // of tenured headroom in a single minor, and a small heap's whole
  // tenured space is only a handful of nursery-loads, so a threshold
  // keyed to the nursery alone leaves near-sliceless cycles whose
  // stop-the-world finishes dominate the pause profile. The cycle opens
  // inside this minor's pause, so its root and young seeding is charged to
  // the minor's event and IncrementalMark phase.
  bool Opened = false;
  if (TILGC_UNLIKELY(Cycle)) {
    // Re-anchor the slice schedule on the nursery's fill (aged-tenuring
    // survivors stay young), so the next slice costs one stride of fresh
    // allocation.
    Cycle->armNextSlice(NurseryFrom->usedBytes());
  } else if (TILGC_UNLIKELY(incrementalModeActive()) &&
             TenuredFrom->freeBytes() <
                 std::max<size_t>(3 * NurseryFrom->capacityBytes(),
                                  TenuredFrom->capacityBytes() / 2)) {
    Cycle.emplace(*this, GcTrigger::TenuredPressure);
    Opened = true;
  }
  endCollectionEvent();

  // If the next nursery-load might not fit, collect the old generation now
  // (a separate telemetry event — the minor's is closed). An already-live
  // cycle that still hits the stock threshold is out of runway and is
  // force-finished via doMajor.
  if (!Opened && TenuredFrom->freeBytes() < NurseryFrom->capacityBytes())
    doMajor(0, GcTrigger::TenuredPressure); // finishes a live cycle
}

bool GenerationalCollector::verifyHeapNow(std::string &Error) const {
  HeapVerifier V;
  V.addSpace(TenuredFrom, "tenured");
  V.addSpace(NurseryFrom, "nursery");
  if (AgedTenuring())
    V.addSpace(NurseryTo, "nursery-to");
  V.setLOS(&LOS);
  V.setPoisonPattern(Space::PoisonPattern);
  return V.verifyHeap(Error);
}

void GenerationalCollector::auditRememberedSets() {
  // The covered set: exactly the slots the upcoming minor collection will
  // process as heap-side roots (barrier output, scanned pretenured runs,
  // new large objects) plus the promotion-created cross-generation slots.
  // forEachOldToYoungRoot is reused so the audit can never drift from the
  // collector; the stat counters it bumps are restored (the audit is an
  // observer, not a collection).
  std::unordered_set<const Word *> Covered;
  uint64_t SavedSSB = Stats.SSBEntriesProcessed;
  uint64_t SavedScanned = Stats.PretenuredScannedBytes;
  uint64_t SavedSkipped = Stats.PretenuredScanSkippedBytes;
  uint64_t SavedCards = Stats.CardsScanned;
  uint64_t SavedCardSlots = Stats.CardSlotsVisited;
  forEachOldToYoungRoot([&](Word *Slot) { Covered.insert(Slot); });
  Stats.SSBEntriesProcessed = SavedSSB;
  Stats.PretenuredScannedBytes = SavedScanned;
  Stats.PretenuredScanSkippedBytes = SavedSkipped;
  Stats.CardsScanned = SavedCards;
  Stats.CardSlotsVisited = SavedCardSlots;
  for (Word *Slot : CrossGenSlots)
    Covered.insert(Slot);

  auto CheckFields = [&](Word *Payload, const char *Where) {
    forEachPointerField(Payload, [&](Word *Field) {
      Word Bits = *Field;
      if (!Bits)
        return;
      if (!inNursery(reinterpret_cast<const Word *>(Bits)))
        return;
      if (Covered.count(Field))
        return;
      fatalError("remembered-set audit failed before minor GC #%llu: %s "
                 "slot %p holds young pointer %llx not covered by the "
                 "write barrier, the cross-generation set, or a scanned "
                 "pretenured run",
                 (unsigned long long)(Stats.NumGC + 1), Where, (void *)Field,
                 (unsigned long long)Bits);
    });
  };
  TenuredFrom->walk([&](Word *Payload, Word, bool Forwarded) {
    assert(!Forwarded && "forwarded object between collections");
    (void)Forwarded;
    CheckFields(Payload, "tenured");
  });
  LOS.walk([&](Word *Payload, Word) { CheckFields(Payload, "LOS"); });
}

void GenerationalCollector::doMajor(size_t NeedTenuredBytes,
                                    GcTrigger Trigger) {
  // A live pause-budget cycle owns the major machinery: any demand for a
  // full collection — tenured pressure, the OOM ladder, an explicit
  // collect(), the LOS hard limit — completes the in-flight mark and runs
  // the stock compaction on top of it instead of starting a second major.
  if (TILGC_UNLIKELY(Cycle))
    Cycle->finish(NeedTenuredBytes, Trigger);
  else if (Opts.MajorGc == MajorGcKind::MarkCompact)
    doMajorMarkCompact(NeedTenuredBytes, Trigger);
  else
    doMajorSemispace(NeedTenuredBytes, Trigger);
}

void GenerationalCollector::doMajorSemispace(size_t NeedTenuredBytes,
                                             GcTrigger Trigger) {
  FaultInjector::ScopedGcPhase GcPhase;

  // TenuredTo has sat idle since the last major.
  checkIdleSpacePoison("major");

  size_t Incoming = TenuredFrom->usedBytes() + NurseryFrom->usedBytes() +
                    (AgedTenuring() ? NurseryTo->usedBytes() : 0);
  size_t Reserve = Incoming + NeedTenuredBytes;

  // Hard-cap pre-flight, BEFORE any object moves: if the peak footprint of
  // this collection (to-space grown to the worst case if it needs growing)
  // exceeds the cap, refuse catchably while the heap is still intact and
  // verifiable. Unconditional when a cap is set — the post-major resize's
  // MinSize floor may legally pre-provision a to-space the cap cannot
  // absorb, and this check is where that breach becomes a throw instead of
  // unbounded ratcheting growth.
  if (TILGC_UNLIKELY(Opts.HardLimitBytes)) {
    size_t ToCap = std::max(TenuredTo->capacityBytes(), Reserve);
    size_t Peak = footprintBytes() - TenuredTo->capacityBytes() + ToCap;
    if (Peak > Opts.HardLimitBytes)
      throwHeapExhausted(NeedTenuredBytes ? NeedTenuredBytes : Reserve,
                         OomStage::HardCapPreflight);
  }

  CollectionScope Scope(*this, GcGeneration::Major, Trigger);
  evacuateMajorInto(Reserve);

  {
    GcTelemetry::PhaseScope ResizePS(Tel, GcPhase::Resize);

    // Resize the now-empty to-space toward the target liveness ratio within
    // the memory budget (the live space's capacity catches up next major).
    size_t NurseryFoot =
        NurseryFrom->capacityBytes() * (AgedTenuring() ? 2 : 1);
    size_t Desired = static_cast<size_t>(static_cast<double>(LiveBytes) /
                                         Opts.TenuredTargetLiveness);
    size_t MinSize = TenuredFrom->usedBytes() + NurseryFrom->capacityBytes() +
                     NeedTenuredBytes + (16u << 10);
    size_t MaxSize = MinSize;
    size_t NonTenured = NurseryFoot + LOS.liveBytes();
    if (Opts.BudgetBytes > NonTenured + 2 * MinSize)
      MaxSize = (Opts.BudgetBytes - NonTenured) / 2;
    else
      ++Stats.BudgetOverruns;
    Desired = std::clamp(Desired, MinSize, MaxSize);
    // Under a hard cap, never reserve a to-space the cap could not absorb at
    // the next major — but never below MinSize either (this allocation
    // already succeeded; if MinSize itself breaches the cap, the next
    // major's pre-flight throws before moving anything).
    if (TILGC_UNLIKELY(Opts.HardLimitBytes)) {
      size_t Room = hardCapRoom(NonTenured + TenuredFrom->capacityBytes());
      Desired = std::clamp(Desired, MinSize, std::max(Room, MinSize));
    }
    TenuredTo->reserve(Desired);
    noteFootprint();

    // TenuredTo now sits idle until the next major: its poison doubles as
    // a wild-write trap checked at that major's entry.
    if (poisonAfterMajor(*TenuredTo))
      watchIdleSpace(*TenuredTo);
  }
  finishMajorEvent();
}

void GenerationalCollector::evacuateMajorInto(size_t ReserveBytes) {
  if (TenuredTo->capacityBytes() < ReserveBytes) {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Resize);
    TenuredTo->reserve(ReserveBytes);
  }
  noteFootprint();
  // Bind the card overlays to the destination (after any growth above):
  // promotions recorded during this evacuation must survive the swap, so
  // nothing re-binds afterwards — they already cover the new TenuredFrom.
  RS.rebind(*TenuredTo);

  Evacuator::Config C;
  C.From = {NurseryFrom, AgedTenuring() ? NurseryTo : nullptr, TenuredFrom};
  C.Dest = TenuredTo;
  C.LOS = &LOS;
  C.TraceLOS = true;
  C.Profiler = Env.Profiler;
  C.CountSurvivedFirst = true;
  C.CrossDest = RS.crossDest();

  // Everything moves in a major collection: reused roots are processed,
  // the saving is only the avoided re-decoding of unchanged frames.
  uint64_t Moved = evacuate(
      C, {&Roots.FreshSlotRoots, &Roots.RegRoots, &Roots.ReusedSlotRoots});
  Stats.MajorBytesMoved += Moved;
  if (GcEvent *Ev = Tel.currentEvent())
    Ev->BytesMoved = Moved;

  {
    GcTelemetry::PhaseScope ResizePS(Tel, GcPhase::Resize);

    sweepLOS();
    forEachYoungSpace([&](Space &S) { sweepDeaths(S); });
    sweepDeaths(*TenuredFrom);
    std::swap(TenuredFrom, TenuredTo);
    resetAfterMajor();
  }
}

void GenerationalCollector::sweepLOS() {
  uint64_t NowKB = allocStampKB();
  LOS.sweep([&](Word *Payload, Word) {
    if (Env.Profiler) {
      Word Meta = metaOf(Payload);
      Env.Profiler->onDeath(meta::site(Meta), NowKB - meta::birthKB(Meta));
    }
  });
}

void GenerationalCollector::resetAfterMajor() {
  forEachYoungSpace([](Space &S) { S.reset(); });
  RS.clearAfterGC();
  Runs.clear();
  NewLargeObjects.clear();
  CrossGenSlots.clear(); // A major promotes everything: no old->young left.
  LOSAllocSinceGC = 0;
  LiveBytes = TenuredFrom->usedBytes() + LOS.liveBytes();
  if (LiveBytes > Stats.MaxLiveBytes)
    Stats.MaxLiveBytes = LiveBytes;
}

void GenerationalCollector::doMajorMarkCompact(size_t NeedTenuredBytes,
                                               GcTrigger Trigger) {
  FaultInjector::ScopedGcPhase GcPhase;
  CollectionScope Scope(*this, GcGeneration::Major, Trigger);

  // After FailoverStickyLimit consecutive failovers the mark-compact engine
  // is not trusted with another attempt: every later major runs the
  // semispace fallback directly (same roots, same observable results).
  if (TILGC_UNLIKELY(McStickyDisabled)) {
    runMajorEvacuationFallback(NeedTenuredBytes);
    finishMajorEvent();
    return;
  }

  MarkCompact M(markCompactConfig(/*Abortable=*/true));
  runMarkCompact(M, NeedTenuredBytes);
}

GenerationalCollector::CollectionScope::CollectionScope(
    GenerationalCollector &C, GcGeneration Gen, GcTrigger Trigger)
    // Count and open the event before the watchdog arms, so a bark names
    // this collection's sequence number.
    : Watch((++C.Stats.NumGC, C.Stats.NumMajorGC += Gen == GcGeneration::Major,
             C.Tel.beginCollection(Gen, Trigger, C.Stats.NumGC), C)) {
  C.accountStackAtGC();
  C.scanRoots();
}

MarkCompact::Config GenerationalCollector::markCompactConfig(bool Abortable) {
  MarkCompact::Config MCC;
  MCC.Young = {NurseryFrom, AgedTenuring() ? NurseryTo : nullptr};
  MCC.Tenured = TenuredFrom;
  MCC.Regions = &Regions;
  MCC.LOS = &LOS;
  MCC.Profiler = Env.Profiler;
  MCC.Telemetry = &Tel;
  MCC.CrossDest = RS.crossDest();
  MCC.Pool = Pool.get();
  if (Abortable && Opts.GcDeadlineMicros &&
      Opts.WatchdogEscalation != WatchdogPolicy::Report)
    // Watchdog-requested recovery: mark/plan abort points poll this latch
    // and throw MarkPlanFault, which runMarkCompact turns into an engine
    // failover.
    MCC.AbortFlag = WD.recoverFlag();
  return MCC;
}

void GenerationalCollector::runMarkCompact(MarkCompact &M,
                                           size_t NeedTenuredBytes) {
  {
    TimerScope T(Stats.StackTime);
    GcTelemetry::PhaseScope PS(Tel, GcPhase::RootHandoff);
    // Majors process reused roots too: everything moves, so the §5 saving
    // is only the avoided re-decoding of unchanged frames. The spans feed
    // the fixup's root-slot rewriting (and a stock mark's trace; an
    // incremental mark consumes the root *values*, seeded at its close).
    M.addRootSpan(Roots.FreshSlotRoots.data(), Roots.FreshSlotRoots.size());
    M.addRootSpan(Roots.RegRoots.data(), Roots.RegRoots.size());
    M.addRootSpan(Roots.ReusedSlotRoots.data(), Roots.ReusedSlotRoots.size());
  }
  bool FailedOver = false;
  try {
    {
      TimerScope T(Stats.CopyTime);
      if (Cycle) // A cycle's finish: M holds the incremental mark.
        Cycle->closeMark();
      else
        M.mark(); // Mark phase scope inside.
    }
    Stats.MarkWorkerFaults += M.workerFaults();
    if (M.serialRecovered())
      ++Stats.MarkSerialRecoveries;

    completeMarkedMajor(M, NeedTenuredBytes);
    ConsecutiveMcFailovers = 0;
  } catch (const MarkPlanFault &) {
    // Engine failover: the mark/plan phases are mutation-free, so the heap
    // is exactly as the mutator left it. Abandon the mark-compact attempt
    // (an incremental cycle's mark is lost with it) and finish this
    // collection with a semispace evacuation instead.
    ++Stats.MajorEngineFailovers;
    if (++ConsecutiveMcFailovers >= FailoverStickyLimit)
      McStickyDisabled = true;
    if (GcEvent *Ev = Tel.currentEvent())
      Ev->EngineFailover = true;
    // The aborted mark may have left a partial LOS mark set; clear it
    // WITHOUT sweeping (an unmarked-but-live object must not be freed).
    // The fallback evacuation re-marks live LOS objects via its own trace.
    LOS.clearMarks();
    FailedOver = true;
  }

  if (TILGC_UNLIKELY(FailedOver))
    runMajorEvacuationFallback(NeedTenuredBytes);

  finishMajorEvent();
}

/// Completes a major collection whose mark phase already ran: consumes the
/// plan, compacts in place or grows through an evacuating swap, sweeps, and
/// rebinds the card/crossing overlays. Factored out of doMajorMarkCompact
/// so the pause-budget finish can run the identical completion on top of an
/// incrementally-built mark. The plan/pre-commit fault points live here, so
/// this may throw MarkPlanFault — callers own the failover.
void GenerationalCollector::completeMarkedMajor(MarkCompact &M,
                                                size_t NeedTenuredBytes) {
  // Decide in place vs grow while nothing has moved. The floor leaves the
  // next minor collection's worst case (a full nursery) so compaction does
  // not immediately pressure-chain into another major.
  size_t Planned = M.plannedTenuredBytes();
  size_t Floor = Planned + NeedTenuredBytes + NurseryFrom->capacityBytes() +
                 (16u << 10);

  if (Floor <= TenuredFrom->capacityBytes()) {
    // Hard pre-commit barrier: the last point where this collection can
    // still be abandoned. compact() begins destructive memmoves; past this
    // line abort requests are ignored and the engine must finish.
    M.preCommitCheck();
    // In-place compaction: nothing is reserved and the footprint can only
    // shrink, so there is no hard-cap pre-flight on this path — the
    // unconditional pre-flight (and its sticky exhaustion) was only ever a
    // semispace-reservation workaround.
    uint64_t NowKB = allocStampKB();
    if (Env.Profiler)
      M.forEachDeadTenured([&](Word *Payload) {
        Word Meta = metaOf(Payload);
        Env.Profiler->onDeath(meta::site(Meta), NowKB - meta::birthKB(Meta));
      });
    {
      TimerScope T(Stats.CopyTime);
      M.compact(); // Fixup + Compact phase scopes inside.
    }
    Stats.BytesCopied += M.markedLiveBytes();
    Stats.ObjectsCopied += M.markedObjects();
    Stats.MajorBytesMoved += M.bytesMoved();
    Stats.CrossingMapUpdates += M.crossingMapUpdates();
    if (GcEvent *Ev = Tel.currentEvent()) {
      Ev->BytesCopied = M.markedLiveBytes();
      Ev->ObjectsCopied = M.markedObjects();
      Ev->BytesMoved = M.bytesMoved();
      Ev->RegionsTotal = static_cast<uint32_t>(M.regionsTotal());
      Ev->RegionsDense = static_cast<uint32_t>(M.regionsDense());
      Ev->RegionsEvacuated = static_cast<uint32_t>(M.regionsEvacuated());
      Ev->Workers = Opts.GcThreads;
      Ev->WorkerFaults = M.workerFaults();
      Ev->SerialRecovery = M.serialRecovered();
    }
    {
      GcTelemetry::PhaseScope ResizePS(Tel, GcPhase::Resize);
      // The mark left exactly the live set's LOS bits set — what the sweep
      // consumes. Tenured deaths were reported via forEachDeadTenured above
      // (compaction destroys them); young deaths go through the
      // forwarding-based sweep as usual.
      sweepLOS();
      forEachYoungSpace([&](Space &S) { sweepDeaths(S); });
      resetAfterMajor();

      // The reclaimed tail past the rewound frontier is the mark-compact
      // analog of evacuated from-space. Promotions legally consume it, so
      // it never arms the idle-space wild-write check.
      poisonAfterMajor(*TenuredFrom);
    }
  } else {
    // The plan does not fit: grow through one evacuating swap, releasing
    // the old space afterwards so the 2x reservation is transient rather
    // than standing. The LOS is swept first — the mark is complete, and
    // the evacuation's TraceLOS re-marking needs clean mark bits.
    {
      GcTelemetry::PhaseScope ResizePS(Tel, GcPhase::Resize);
      sweepLOS();
    }

    size_t Desired = static_cast<size_t>(
        static_cast<double>(M.markedLiveBytes() + LOS.liveBytes()) /
        Opts.TenuredTargetLiveness);
    size_t NurseryFoot =
        NurseryFrom->capacityBytes() * (AgedTenuring() ? 2 : 1);
    size_t NonTenured = NurseryFoot + LOS.liveBytes();
    size_t MaxSize = Floor;
    // Only one tenured space stands in mark-compact mode, so the budget
    // share is the full remainder rather than half of it.
    if (Opts.BudgetBytes > NonTenured + Floor)
      MaxSize = Opts.BudgetBytes - NonTenured;
    else
      ++Stats.BudgetOverruns;
    Desired = std::clamp(Desired, Floor, std::max(MaxSize, Floor));
    if (TILGC_UNLIKELY(Opts.HardLimitBytes)) {
      // The transient evacuation peak is the standing footprint plus the
      // new reservation (TenuredTo's capacity is 0 in this mode).
      size_t Room = hardCapRoom(footprintBytes());
      if (Floor > Room) {
        // Catchable refusal with the heap intact: nothing has moved, the
        // LOS sweep only freed garbage and cleared mark bits, and no state
        // is sticky — a retry after the mutator drops data can succeed.
        Tel.endCollection();
        throwHeapExhausted(NeedTenuredBytes ? NeedTenuredBytes : Floor,
                           OomStage::HardCapPreflight);
      }
      Desired = std::clamp(Desired, Floor, std::max(Room, Floor));
    }

    if (GcEvent *Ev = Tel.currentEvent()) {
      // The census of the abandoned plan explains why the space grew
      // (captured before the region overlay re-binds to the grown space).
      Ev->RegionsTotal = static_cast<uint32_t>(M.regionsTotal());
      Ev->RegionsDense = static_cast<uint32_t>(M.regionsDense());
      Ev->RegionsEvacuated = static_cast<uint32_t>(M.regionsEvacuated());
    }

    evacuateAndReleaseOld(Desired);
  }
}

/// Closes out a major collection event: verification, deterministic event
/// fields, telemetry end, footprint sample. Shared by every major path
/// (semispace, mark-compact success, failover, sticky fallback).
void GenerationalCollector::finishMajorEvent() {
  // Every major either evacuated into a space the remembered set was
  // re-bound to, or compacted in place (same reservation).
  assert(RS.boundTo(*TenuredFrom) && "remembered set lost the tenured space");
  maybeVerifyHeap("major");
  endCollectionEvent();
  noteFootprint();
}

void GenerationalCollector::endCollectionEvent() {
  bool Switched = RS.takeSwitchedLatch();
  if (GcEvent *Ev = Tel.currentEvent()) {
    Ev->BytesPretenured = Stats.PretenuredBytes - PretenuredBytesAtLastGC;
    Ev->CrossingMapUpdates = Stats.CrossingMapUpdates - CrossingUpdatesAtLastGC;
    Ev->HybridSwitched = Switched;
  }
  PretenuredBytesAtLastGC = Stats.PretenuredBytes;
  CrossingUpdatesAtLastGC = Stats.CrossingMapUpdates;
  Tel.endCollection();
}

void GenerationalCollector::runMajorEvacuationFallback(size_t NeedTenuredBytes) {
  // Semispace-for-this-collection: one evacuating swap through a transient
  // to-space (TenuredTo stands at capacity 0 in mark-compact mode),
  // released afterwards so the 2x reservation never becomes standing. The
  // reservation leaves the next minor's worst case so the fallback does not
  // immediately pressure-chain into another major.
  size_t Incoming = TenuredFrom->usedBytes() + NurseryFrom->usedBytes() +
                    (AgedTenuring() ? NurseryTo->usedBytes() : 0);
  size_t Reserve =
      Incoming + NeedTenuredBytes + NurseryFrom->capacityBytes() + (16u << 10);

  // Hard-cap pre-flight before anything moves: refuse catchably with the
  // heap intact (the aborted mark mutated nothing).
  if (TILGC_UNLIKELY(Opts.HardLimitBytes) &&
      Reserve > hardCapRoom(footprintBytes())) {
    Tel.endCollection();
    throwHeapExhausted(NeedTenuredBytes ? NeedTenuredBytes : Reserve,
                       OomStage::HardCapPreflight);
  }

  evacuateAndReleaseOld(Reserve);
}

void GenerationalCollector::evacuateAndReleaseOld(size_t ReserveBytes) {
  evacuateMajorInto(ReserveBytes);
  GcTelemetry::PhaseScope ResizePS(Tel, GcPhase::Resize);
  // Drop the swap's source: mark-compact keeps one standing tenured space,
  // so the old reservation is released rather than recycled. The fresh
  // reservation has a fresh epoch, so the region overlay re-binds to it,
  // which also discards any partial mark/plan state an aborted engine left.
  TenuredTo->release();
  Regions.attach(*TenuredFrom);
  poisonAfterMajor(*TenuredFrom);
}

bool GenerationalCollector::poisonAfterMajor(Space &Tenured) {
  if (TILGC_LIKELY(!shouldPoison()))
    return false;
  forEachYoungSpace([](Space &S) { S.poisonFreeSpace(); });
  Tenured.poisonFreeSpace();
  return true;
}

void GenerationalCollector::armGcWatchdog() {
  if (TILGC_LIKELY(Opts.GcDeadlineMicros == 0))
    return;
  if (WatchDepth++ > 0)
    return; // Chained collection: the outer window keeps ticking.
  WD.clearRecoverRequest();
  WatchdogBark Proto;
  Proto.What = WatchdogBark::Kind::GcCycle;
  Proto.Seq = Stats.NumGC;
  Proto.DeadlineMicros = Opts.GcDeadlineMicros;
  Proto.Policy = Opts.WatchdogEscalation;
  // Captured on this (the collecting) thread while the heap is quiescent;
  // the supervisor must not walk spaces that are in motion at expiry.
  Proto.Detail = "heap state at cycle entry:\n";
  appendHeapState(Proto.Detail);
  GcTelemetry *T = &Tel;
  WD.arm(
      std::move(Proto), Opts.GcDeadlineMicros,
      [T](WatchdogBark &B) {
        B.WhenNs = GcTelemetry::nowNs();
        B.PhaseOrdinal = T->livePhaseOrdinal();
      },
      [T](const WatchdogBark &B) { T->noteWatchdogBark(B); });
}

void GenerationalCollector::disarmGcWatchdog() {
  if (TILGC_LIKELY(Opts.GcDeadlineMicros == 0))
    return;
  if (--WatchDepth > 0)
    return;
  WD.disarm();
}

void GenerationalCollector::appendHeapState(std::string &Out) const {
  Out += formatString("generational collector '%s': budget %zu bytes, ",
                      Opts.Name.empty() ? "<unnamed>" : Opts.Name.c_str(),
                      Opts.BudgetBytes);
  Out += Opts.HardLimitBytes
             ? formatString("hard limit %zu bytes\n", Opts.HardLimitBytes)
             : std::string("no hard limit\n");
  auto Line = [&](const char *Name, const Space &S) {
    Out += formatString("  %-12s %10zu / %10zu bytes used\n", Name,
                        S.usedBytes(), S.capacityBytes());
  };
  Line("nursery", *NurseryFrom);
  if (AgedTenuring())
    Line("nursery-to", *NurseryTo);
  Line("tenured", *TenuredFrom);
  Line("tenured-to", *TenuredTo);
  Out += formatString("  %-12s %10zu live bytes in %zu objects\n", "LOS",
                      LOS.liveBytes(), LOS.objectCount());
  Out += formatString("  pending: %zu SSB entries, %zu pretenured runs, %zu "
                      "new large objects\n",
                      RS.log().size(), Runs.size(), NewLargeObjects.size());
}

void GenerationalCollector::forEachLiveObject(
    const std::function<void(Word *, Word)> &Fn) const {
  auto WalkSpace = [&](const Space &S) {
    S.walk([&](Word *Payload, Word Descriptor, bool Forwarded) {
      if (!Forwarded)
        Fn(Payload, Descriptor);
    });
  };
  forEachYoungSpace(WalkSpace);
  WalkSpace(*TenuredFrom);
  LOS.walk([&](Word *Payload, Word Descriptor) { Fn(Payload, Descriptor); });
}
