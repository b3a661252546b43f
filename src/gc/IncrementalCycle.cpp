//===- gc/IncrementalCycle.cpp - Pause-budget incremental cycle -----------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/IncrementalCycle.h"

#include "gc/GenerationalCollector.h"

#include <algorithm>
#include <unordered_set>

using namespace tilgc;

IncrementalCycle::IncrementalCycle(GenerationalCollector &GC, GcTrigger Trigger)
    // Not abortable: slices poll the watchdog's recover request themselves
    // and answer it with a stop-the-world finish, not an engine abort — the
    // accumulated mark is exactly what makes the finish fast.
    : GC(GC), MC(GC.markCompactConfig(/*Abortable=*/false)),
      // Everything the old generation gains after this point (promotions,
      // pretenured allocation, tenured fallback) is cycle-era: seeded at
      // finish rather than traced by slices, so slices never race the
      // frontier.
      TenuredDeltaFrom(GC.TenuredFrom->frontier()), Trigger(Trigger),
      StrideBytes(std::max<size_t>(256, GC.nurseryCapacity() / 128)) {
  assert(GC.incrementalModeActive() && "cycle start outside budget mode");
  if (Trigger == GcTrigger::LargeObjectPressure) {
    // Mid-epoch start: the last collection's root scan is stale.
    assert(!GC.Opts.UseStackMarkers && "mid-epoch marker scan would break §5");
    GC.scanRoots();
  }
  MC.beginIncremental();
  GC.SatbMarkingLive = true;
  ++GC.IncCycleCount;
  // Cycle-long watchdog hold: one deadline bounds the whole cycle, slices
  // and finish nest inside it (armGcWatchdog is depth-counted). A Recover
  // bark is answered at the next slice.
  GC.armGcWatchdog();
  armNextSlice(GC.NurseryFrom->usedBytes());

  // Snapshot the roots. SATB only covers heap stores (writeField); stack
  // and register mutations have no barrier, so an object reachable *only*
  // from the stack at snapshot time must be seeded now — the mutator may
  // launder its pointer into an already-black heap object and then drop
  // the stack slot, and the finish rescan would miss it.
  GcTelemetry::PhaseScope PS(GC.Tel, GcPhase::IncrementalMark);
  seedRoots();
  // Snapshot the young objects' edges. Young-at-snapshot objects are never
  // traced (the engine drops young pointers until the finish), so their
  // pointer fields now are exactly their snapshot edges: seeding them here
  // keeps a tenured object whose only snapshot path runs through a young
  // one, even if a minor later kills that young mediator. Later overwrites
  // of those fields are logged by the deletion barrier, and objects born
  // after the snapshot are seeded wholesale at the finish, so this is the
  // cycle's only young walk.
  GC.forEachYoungSpace([&](const Space &S) {
    S.walk([&](Word *Payload, Word Descriptor, bool) {
      forEachPointerFieldWith(Descriptor, Payload,
                              [&](Word *Field) { MC.markSeed(*Field); });
    });
  });
}

IncrementalCycle::~IncrementalCycle() {
  GC.SatbMarkingLive = false;
  GC.InlineFence = Collector::noFence();
  GC.disarmGcWatchdog(); // Releases the cycle-long hold taken at start.
}

void IncrementalCycle::setFence() {
  // Rounded up to whole words, so the frontier lies below the fence
  // exactly when the nursery's fill is below the watermark.
  GC.InlineFence =
      LosBytesSinceSlice >= StrideBytes
          ? nullptr
          : GC.NurseryFrom->baseAddr() +
                (NextSliceNurseryBytes + sizeof(Word) - 1) / sizeof(Word);
}

void IncrementalCycle::armNextSlice(size_t NurseryUsed) {
  NextSliceNurseryBytes = NurseryUsed + StrideBytes;
  setFence();
}

void IncrementalCycle::noteLargeObject(Word *Payload, uint64_t Bytes) {
  NewLOS.push_back(Payload);
  LosBytesSinceSlice += Bytes;
  setFence();
}

void IncrementalCycle::seedRoots() {
  const RootSet &R = GC.Roots;
  for (const auto *Span : {&R.FreshSlotRoots, &R.RegRoots, &R.ReusedSlotRoots})
    for (Word *Slot : *Span)
      MC.markSeed(*Slot);
}

void IncrementalCycle::runSlice() {
  // A slice reads the clock at its two ends; both stamps feed GcTime,
  // CopyTime, the slice's event and IncrementalMark phase, and its mark
  // deadline.
  uint64_t BeginNs = monotonicNs();
  TimerScope Gc(GC.Stats.GcTime, BeginNs);
  FaultInjector::ScopedGcPhase InGc;
  ++GC.Stats.NumGC; // A slice counts as a collection; NumMajorGC is
                    // bumped once, by the finishing collection.
  ++GC.IncSliceCount;
  GC.Tel.beginCollection(GcGeneration::Major, Trigger, GC.Stats.NumGC,
                         BeginNs);
  GenerationalCollector::GcWatchScope WatchScope(GC);
  TimerScope Copy(GC.Stats.CopyTime, BeginNs);
  GC.Tel.enterPhase(GcPhase::IncrementalMark, BeginNs);
  // Budget half the pause for the whole slice: the histogram's percentile
  // reports bucket upper edges (2x resolution), so a half-budget target
  // keeps the reported p99 under the full budget. The grey drain runs to
  // the absolute deadline BeginNs + HalfNs.
  uint64_t HalfNs = static_cast<uint64_t>(GC.Opts.MaxPauseMicros) * 1000 / 2;
  uint64_t DeadlineNs = BeginNs + HalfNs;
  if (!Satb.empty()) {
    // The deletion-barrier backlog first: its entries are exactly the
    // snapshot edges the mutator severed since the last slice. The drain
    // spends part of the budget; if it spent all of it, the grey drain
    // still gets a floor of HalfNs/16 + 1 past it, so marking always
    // advances even behind a mutation storm.
    for (Word Bits : Satb)
      MC.markSeed(Bits);
    Satb.clear();
    uint64_t NowNs = monotonicNs();
    if (NowNs >= DeadlineNs)
      DeadlineNs = NowNs + HalfNs / 16 + 1;
  }
  MC.markStep(DeadlineNs);
  uint64_t EndNs = monotonicNs();
  GC.Tel.exitPhase(GcPhase::IncrementalMark, EndNs);
  Copy.stopAt(EndNs);
  if (TILGC_UNLIKELY(GC.Opts.VerifyLevel >= 2)) {
    // Inside the pause and GcTime, outside the phase.
    audit();
    EndNs = monotonicNs();
  }
  GC.Tel.endCollection(EndNs);
  // Re-arm both pacing legs relative to the current fill so every slice
  // costs one stride of fresh allocation (the LOS leg first: the fence
  // reads it).
  LosBytesSinceSlice = 0;
  armNextSlice(GC.NurseryFrom->usedBytes());

  // Watchdog Recover escalation: the supervisor decided the cycle has
  // overstayed its deadline. Fall back to the stop-the-world completion —
  // the mark accumulated so far is kept, not discarded.
  if (TILGC_UNLIKELY(GC.WD.recoverRequested())) {
    GC.WD.clearRecoverRequest();
    finish(0, Trigger); // *this is gone from here on.
    EndNs = monotonicNs(); // The finish is GC time too.
  }
  Gc.stopAt(EndNs);
}

void IncrementalCycle::finish(size_t NeedTenuredBytes,
                              GcTrigger MajorTrigger) {
  assert(GC.Cycle && &*GC.Cycle == this && "finish of a dead cycle");
  FaultInjector::ScopedGcPhase InGc;
  GenerationalCollector::CollectionScope Scope(GC, GcGeneration::Major,
                                               MajorTrigger);
  // Unconditional teardown at scope exit: normal completion, engine
  // failover, and the grow path's catchable HeapExhausted refusal all
  // leave the collector cycle-free with the SATB barrier lowered.
  struct CycleTeardown {
    GenerationalCollector &C;
    ~CycleTeardown() { C.Cycle.reset(); }
  } Teardown{GC};
  GC.runMarkCompact(MC, NeedTenuredBytes);
}

template <typename FnT>
void IncrementalCycle::forEachCycleEraObject(FnT Fn) const {
  GC.forEachYoungSpace([&](const Space &S) {
    S.walk([&](Word *Payload, Word, bool Forwarded) {
      if (!Forwarded)
        Fn(Payload);
    });
  });
  GC.TenuredFrom->walk([&](Word *Payload, Word, bool Forwarded) {
    if (!Forwarded && inTenuredDelta(Payload))
      Fn(Payload);
  });
  for (Word *Payload : NewLOS)
    Fn(Payload);
}

void IncrementalCycle::closeMark() {
  GcTelemetry::PhaseScope PS(GC.Tel, GcPhase::IncrementalMark);
  // Close the snapshot: fresh roots, the deletion-barrier backlog, and
  // every cycle-era object, then drain to empty. Dead cycle-era objects
  // ride along as the cycle's one-epoch float.
  MC.enableYoungMarking();
  seedRoots();
  for (Word Bits : Satb)
    MC.markSeed(Bits);
  Satb.clear();
  forEachCycleEraObject(
      [&](Word *Payload) { MC.markSeed(reinterpret_cast<Word>(Payload)); });
  MC.markStep(~0ull); // No deadline: drain to empty.
  MC.finishIncrementalMark();
}

bool IncrementalCycle::marked(const Word *P) const {
  return MC.incrementalMarked(P) || GC.LOS.isMarked(P);
}

bool IncrementalCycle::inTenuredDelta(const Word *P) const {
  return GC.TenuredFrom->contains(P) && P - HeaderWords >= TenuredDeltaFrom;
}

void IncrementalCycle::recordSatb(Word OldBits) {
  Word *P = reinterpret_cast<Word *>(OldBits);
  // Young values need no record: a young-at-snapshot object's snapshot
  // edges were seeded when the cycle opened, and the finish seeds every
  // young survivor wholesale. Already black or grey: the snapshot edge is
  // preserved by the mark.
  if (P && !GC.inNursery(P) && !marked(P))
    Satb.push_back(OldBits);
}

void IncrementalCycle::audit() const {
  // Markerless scans cannot resolve stub keys on a marker-bearing stack,
  // and a marker-updating scan between collections would re-anchor frames
  // without redirecting their roots (breaking the §5 reuse invariant), so
  // the audit runs only in markerless configurations.
  if (GC.Opts.UseStackMarkers)
    return;

  // Actual roots right now, via scratch state (the collection-time Roots
  // member must survive untouched for the eventual finish).
  RootSet ARoots;
  ScanStats AStats;
  for (const MutatorContext &C : GC.Contexts)
    StackScanner::scan(*C.Stack, *C.Regs, nullptr, nullptr, ARoots, AStats,
                       GC.Opts.CompiledScanPlans);

  // Simulate the finish drain: seeds are what the finish would seed; the
  // expansion stops at black objects (marked and already scanned — the
  // finish will not rescan them). Visited is therefore exactly the set of
  // objects the finish would still scan given today's mark state. The grey
  // objects enter first, so every other marked object is black.
  std::unordered_set<const Word *> Visited;
  std::vector<Word *> Work;
  MC.forEachGrey([&](Word *P) {
    if (Visited.insert(P).second)
      Work.push_back(P);
  });
  auto Consider = [&](Word Bits) {
    Word *P = reinterpret_cast<Word *>(Bits);
    if (P && !marked(P) && Visited.insert(P).second)
      Work.push_back(P);
  };
  // Ground truth: the full reachable closure from the actual roots,
  // expanding through everything. Every member must be retained by the
  // finish — already marked, or young/delta/new-LOS (seeded wholesale), or
  // in the simulated scan set. A miss is a lost snapshot edge: the
  // white-behind-black state the SATB barrier exists to prevent. This
  // closure and the exemption check are deliberately the audit's own code,
  // not shared with the finish, so the check stays independent of it.
  std::unordered_set<const Word *> Reach;
  std::vector<Word *> RWork;
  auto Expand = [&](Word Bits) {
    Word *P = reinterpret_cast<Word *>(Bits);
    if (P && Reach.insert(P).second)
      RWork.push_back(P);
  };
  for (const auto *Span : {&ARoots.FreshSlotRoots, &ARoots.RegRoots})
    for (Word *Slot : *Span) {
      Consider(*Slot);
      Expand(*Slot);
    }
  for (Word Bits : Satb)
    Consider(Bits);
  forEachCycleEraObject(
      [&](Word *Payload) { Consider(reinterpret_cast<Word>(Payload)); });
  auto Drain = [](std::vector<Word *> &W, auto Visit) {
    while (!W.empty()) {
      Word *P = W.back();
      W.pop_back();
      forEachPointerField(P, [&](Word *F) { Visit(*F); });
    }
  };
  Drain(Work, Consider);
  Drain(RWork, Expand);
  std::unordered_set<const Word *> NewLosSet(NewLOS.begin(), NewLOS.end());
  for (const Word *P : Reach) {
    if (Visited.count(P) || GC.inNursery(P) || inTenuredDelta(P) ||
        NewLosSet.count(P) || marked(P))
      continue;
    fatalError("tilgc: tricolor invariant violated: live object %p is "
               "unreachable by the finishing collection (cycle %llu, after "
               "%llu slices): lost SATB record",
               static_cast<const void *>(P),
               static_cast<unsigned long long>(GC.IncCycleCount),
               static_cast<unsigned long long>(GC.IncSliceCount));
  }
}
