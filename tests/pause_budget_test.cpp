//===- tests/pause_budget_test.cpp - Pause-budget incremental major GC ----===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pause-budget SLO mode (GcOptions::MaxPauseMicros): the mark phase of a
/// mark-compact major is sliced into allocation-safepoint increments with a
/// SATB deletion barrier filling the gaps between slices. Contracts proved
/// here:
///
///  * MaxPauseMicros = 0 (the default) is bit-identical to stock behavior:
///    all 11 workloads produce the same checksum AND the same deterministic
///    GcStats tuple, with zero incremental machinery engaged.
///  * A budgeted run's deterministic event stream is pinned by digest, so a
///    restructuring of the cycle cannot move a slice, a trigger or a byte.
///  * A budgeted run is still correct: every workload's checksum matches
///    its reference, the heap verifies, and cycles actually run in slices
///    (many slices per cycle, majors complete through the finish path).
///  * Any full-collection demand arriving while a cycle is live (explicit
///    collect(true)) force-finishes the cycle instead of double-collecting.
///  * The tricolor invariant holds under a seeded mutation storm designed
///    to hide edges from an incremental marker: VerifyLevel >= 2 audits the
///    mark state between slices and fatalErrors on any lost object — and
///    does fire on a snapshot edge dropped without a SATB record.
///  * Group mode: K mutators under a budget replay their thread-local SATB
///    backlogs at safepoint merges; totals and checksums stay exact.
///  * Supervision: a GC watchdog with WatchdogPolicy::Recover that barks
///    mid-cycle force-finishes the cycle (cooperative recovery), and the
///    run still completes correctly. A plan fault injected into a finish
///    fails over to the semispace evacuation like a stock major's.
///  * Accounting: a slice's event opens and closes on the same two clock
///    stamps as its IncrementalMark phase, and the allocation-paced slice
///    count for a fixed workload does not move (with aged tenuring too).
///    The inline path's slice fence is exact: a slice runs at precisely
///    the allocation that finds its watermark reached, at the first small
///    allocation after a large object makes the LOS leg due, one stride
///    after a large-object-pressure opening, and never without a budget.
///  * The young-mediator case: a tenured object reachable at the snapshot
///    only through a young object that a minor then kills is kept by the
///    cycle's one young-edge seed.
///  * A budget on any engine other than the generational mark-compact one
///    is rejected when the Mutator is built, not silently dropped.
///
/// Suite names all contain "PauseBudget" so CI can run the whole plane with
/// --gtest_filter=*PauseBudget* on both the debug and NDEBUG binaries (this
/// file is linked into the resilience twin).
///
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "observe/EventRecorder.h"
#include "runtime/MutatorGroup.h"
#include "support/FaultInjector.h"
#include "support/Random.h"
#include "workloads/MLLib.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

using MajorGcKind = GenerationalCollector::MajorGcKind;

constexpr double PbScale = 0.1;

uint32_t sitePb() {
  static const uint32_t S = AllocSiteRegistry::global().define("pbtest.site");
  return S;
}

uint32_t keyPb() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "pbtest.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer(),
       Trace::pointer()}));
  return K;
}

GenerationalCollector &genGC(Mutator &M) {
  return static_cast<GenerationalCollector &>(M.collector());
}

MutatorConfig budgetConfig(uint32_t MaxPauseMicros) {
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.MaxPauseMicros = MaxPauseMicros;
  return C;
}

/// Every deterministic (thread-count independent, time-free) GcStats field.
/// The zero-budget differential compares this whole tuple: the incremental
/// mode must not perturb a single collection, copy, promotion, barrier, or
/// profile decision when it is off.
using StatsKey =
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t>;

StatsKey statsKey(const GcStats &S) {
  return {S.NumGC,
          S.NumMajorGC,
          S.BytesAllocated,
          S.ObjectsAllocated,
          S.RecordBytesAllocated,
          S.ArrayBytesAllocated,
          S.BytesCopied,
          S.ObjectsCopied,
          S.MaxLiveBytes,
          S.MaxFootprintBytes,
          S.MajorBytesMoved,
          S.FramesScanned,
          S.FramesReused,
          S.SlotsVisited,
          S.PlanWordsScanned,
          S.MaxFramesAtGC,
          S.FramesAtGCSum,
          S.NewFramesSum,
          S.FramesAtGCSamples,
          S.SSBEntriesProcessed,
          S.CardsScanned,
          S.CardSlotsVisited,
          S.CrossingMapUpdates,
          S.HybridSwitches,
          S.PretenuredBytes,
          S.PretenuredScannedBytes,
          S.PretenuredScanSkippedBytes};
}

struct ZeroRun {
  uint64_t Checksum = 0;
  StatsKey Stats;
};

ZeroRun zeroRun(size_t WIdx, bool ExplicitZero) {
  Workload &W = *allWorkloads()[WIdx];
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  if (ExplicitZero)
    C.MaxPauseMicros = 0;
  Mutator M(C);
  ZeroRun R;
  R.Checksum = W.run(M, PbScale);
  R.Stats = statsKey(M.gcStats());
  GenerationalCollector &GC = genGC(M);
  EXPECT_EQ(GC.incrementalCycles(), 0u) << W.name();
  EXPECT_EQ(GC.incrementalSlices(), 0u) << W.name();
  EXPECT_FALSE(GC.incrementalCycleLive()) << W.name();
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// MaxPauseMicros = 0 is bit-identical to stock mark-compact.
//===----------------------------------------------------------------------===//

TEST(PauseBudgetDifferential, ZeroBudgetIsBitIdenticalOnAllWorkloads) {
  for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx) {
    Workload &W = *allWorkloads()[WIdx];
    ZeroRun Default = zeroRun(WIdx, /*ExplicitZero=*/false);
    ZeroRun Explicit = zeroRun(WIdx, /*ExplicitZero=*/true);
    ASSERT_EQ(Default.Checksum, W.expected(PbScale))
        << W.name() << ": stock run is itself wrong";
    EXPECT_EQ(Explicit.Checksum, Default.Checksum) << W.name();
    EXPECT_EQ(Explicit.Stats, Default.Stats)
        << W.name() << ": MaxPauseMicros=0 perturbed the deterministic "
        << "GcStats tuple — a disabled-mode path leaked into the stock run";
  }
}

namespace {

/// FNV-1a digest of every event's deterministic keys: Seq, generation,
/// trigger, the byte and object counters, frames at GC, SSB and card
/// counts, the region census and the engine-failover flag. Timing fields
/// are left out, so a budgeted run's digest depends only on the slice
/// schedule (allocation-paced) and the final mark set (SATB makes it
/// independent of how far each slice got).
struct EventStreamDigest : GcObserver {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  uint64_t Events = 0;

  void mix(uint64_t V) {
    for (unsigned I = 0; I < 8; ++I) {
      Hash ^= (V >> (8 * I)) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  }
  void onGcEnd(const GcEvent &E) override {
    ++Events;
    for (uint64_t V :
         {E.Seq, static_cast<uint64_t>(E.Gen),
          static_cast<uint64_t>(E.Trigger), E.BytesCopied, E.BytesPromoted,
          E.BytesMoved, E.BytesPretenured, E.ObjectsCopied, E.FramesAtGC,
          E.SsbEntriesProcessed, E.DirtyCards, E.CardsScanned,
          static_cast<uint64_t>(E.RegionsTotal),
          static_cast<uint64_t>(E.RegionsDense),
          static_cast<uint64_t>(E.RegionsEvacuated),
          static_cast<uint64_t>(E.EngineFailover)})
      mix(V);
  }
};

std::pair<uint64_t, uint64_t> budgetedDigest(const char *Name) {
  Workload &W = *findWorkload(Name);
  EventStreamDigest D;
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/200);
  C.VerifyLevel = 0;
  C.Observer = &D;
  Mutator M(C);
  EXPECT_EQ(W.run(M, PbScale), W.expected(PbScale)) << Name;
  // A final explicit major finishes a cycle the run left live, so the
  // digest covers a finish's mark set too.
  M.collect(/*Major=*/true);
  return {D.Events, D.Hash};
}

} // namespace

TEST(PauseBudgetDifferential, BudgetedEventStreamIsPinned) {
  // Knuth-Bendix runs ten cycles at this budget. FFT's one cycle is the
  // only one any workload opens from large-object pressure (the start that
  // rescans the roots).
  EXPECT_EQ(budgetedDigest("Knuth-Bendix"),
            std::make_pair(uint64_t{3731}, uint64_t{5006193022656737499u}));
  EXPECT_EQ(budgetedDigest("FFT"),
            std::make_pair(uint64_t{30}, uint64_t{11388899914658696504u}));
}

//===----------------------------------------------------------------------===//
// Budgeted runs stay correct and genuinely slice the mark.
//===----------------------------------------------------------------------===//

TEST(PauseBudgetCorrectness, AllWorkloadsMatchChecksumsUnderBudget) {
  uint64_t TotalCycles = 0;
  uint64_t TotalSlices = 0;
  for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx) {
    Workload &W = *allWorkloads()[WIdx];
    Mutator M(budgetConfig(/*MaxPauseMicros=*/200));
    EXPECT_EQ(W.run(M, PbScale), W.expected(PbScale)) << W.name();
    std::string Err;
    EXPECT_TRUE(M.verifyHeap(Err)) << W.name() << ": " << Err;
    GenerationalCollector &GC = genGC(M);
    TotalCycles += GC.incrementalCycles();
    TotalSlices += GC.incrementalSlices();
  }
  // Across the suite the mode must have engaged: some workloads reach
  // tenured pressure and start cycles, and each cycle runs many bounded
  // slices rather than one monolithic mark.
  EXPECT_GT(TotalCycles, 0u) << "no workload ever started a cycle; the "
                                "start trigger is dead";
  EXPECT_GT(TotalSlices, 4 * TotalCycles)
      << "cycles ran but barely sliced; the slice schedule is dead";
}

TEST(PauseBudgetCorrectness, ExplicitMajorForceFinishesLiveCycle) {
  Mutator M(budgetConfig(/*MaxPauseMicros=*/100));
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  // Grow a retained list until promotions push tenured occupancy over the
  // cycle-start threshold. The start trigger fires once tenured free space
  // drops below half the space (or three nursery-loads, whichever is
  // larger), well before the stock major threshold, so a live cycle is
  // observable well before any forced finish.
  int64_t I = 0;
  while (!GC.incrementalCycleLive() && I < 500000)
    F.set(1, consInt(M, sitePb(), I++, slot(F, 1)));
  ASSERT_TRUE(GC.incrementalCycleLive())
      << "retained churn never started a cycle";
  // The loop above exits the moment the cycle goes live, which is before a
  // stride of allocation has elapsed: drive more allocation so at least
  // one slice actually runs before the forced finish.
  for (int64_t Stop = I + 200000;
       GC.incrementalCycleLive() && GC.incrementalSlices() == 0 && I < Stop;)
    F.set(1, consInt(M, sitePb(), I++, slot(F, 1)));
  ASSERT_TRUE(GC.incrementalCycleLive())
      << "cycle finished on its own before the explicit major";
  EXPECT_GT(GC.incrementalSlices(), 0u);

  uint64_t MajorsBefore = M.gcStats().NumMajorGC;
  M.collect(/*Major=*/true);
  // The explicit full-collection demand routed through the finish path:
  // exactly one major completed and the cycle state tore down.
  EXPECT_FALSE(GC.incrementalCycleLive());
  EXPECT_EQ(M.gcStats().NumMajorGC, MajorsBefore + 1);
  EXPECT_EQ(GC.satbPending(), 0u);
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;

  // The list survived every slice, finish, and compaction.
  int64_t Expect = I - 1;
  Value Cell = F.get(1);
  for (int Steps = 0; Steps < 1000 && !Cell.isNull(); ++Steps) {
    EXPECT_EQ(headInt(Cell), Expect--);
    Cell = tail(Cell);
  }
}

//===----------------------------------------------------------------------===//
// Slice accounting: a slice's two clock stamps feed every consumer.
//===----------------------------------------------------------------------===//

namespace {

/// Checks every mark slice's event as it closes. A slice is a major event
/// whose only phase is IncrementalMark; a finish always runs other phases
/// (at least its root scan), so the count must match incrementalSlices().
struct SliceAccountingAudit : GcObserver {
  uint64_t Slices = 0;
  uint64_t Mismatches = 0;
  std::string FirstMismatch;

  void onGcEnd(const GcEvent &E) override {
    constexpr unsigned Mark = static_cast<unsigned>(GcPhase::IncrementalMark);
    if (E.Gen != GcGeneration::Major || E.PhaseBeginNs[Mark] == 0)
      return;
    for (unsigned I = 0; I < NumGcPhases; ++I)
      if (I != Mark && E.PhaseBeginNs[I] != 0)
        return;
    ++Slices;
    uint64_t MarkNs = E.PhaseDurNs[Mark];
    if (MarkNs == E.PauseNs && MarkNs == E.phaseTotalNs())
      return;
    if (Mismatches++ == 0)
      FirstMismatch = "seq " + std::to_string(E.Seq) + ": incremental-mark " +
                      std::to_string(MarkNs) + " ns, pause " +
                      std::to_string(E.PauseNs) + " ns, phase total " +
                      std::to_string(E.phaseTotalNs()) + " ns";
  }
};

} // namespace

TEST(PauseBudgetAccounting, SliceMarkPhaseIsItsWholePause) {
  // Knuth-Bendix runs ten cycles at this budget, so slices interleave with
  // finishes and minors.
  Workload &W = *findWorkload("Knuth-Bendix");
  SliceAccountingAudit Audit;
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/200);
  C.VerifyLevel = 0; // Level 2 audits inside the pause, outside the phase.
  C.Observer = &Audit;
  Mutator M(C);
  ASSERT_EQ(W.run(M, PbScale), W.expected(PbScale));
  GenerationalCollector &GC = genGC(M);

  // The slice schedule is allocation-paced, so the count is exact: a
  // change to how a slice is timed must not move it.
  EXPECT_EQ(GC.incrementalCycles(), 10u);
  EXPECT_EQ(GC.incrementalSlices(), 3683u);
  EXPECT_EQ(Audit.Slices, GC.incrementalSlices())
      << "some slice event ran a phase besides incremental-mark";
  // One stamp opens the slice's event and its phase, one closes both.
  EXPECT_EQ(Audit.Mismatches, 0u) << Audit.FirstMismatch;
}

TEST(PauseBudgetAccounting, AgedTenuringRearmsFromNurseryFill) {
  // Under aged tenuring a minor's young survivors stay in the nursery, so
  // the slice watermark is re-armed one stride past the nursery's fill, not
  // past an empty nursery: every slice costs one stride of fresh
  // allocation.
  Workload &W = *findWorkload("Knuth-Bendix");
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/200);
  C.PromoteAgeThreshold = 3;
  Mutator M(C);
  ASSERT_EQ(W.run(M, PbScale), W.expected(PbScale));
  EXPECT_EQ(genGC(M).incrementalSlices(), 3260u);
}

namespace {

/// Allocation distance between slices (IncrementalCycle's stride).
size_t strideBytes(const GenerationalCollector &GC) {
  return std::max<size_t>(256, GC.nurseryCapacity() / 128);
}

/// The fence a nursery watermark of \p WatermarkBytes must produce.
const Word *fenceAt(const GenerationalCollector &GC, size_t WatermarkBytes) {
  return GC.nursery().baseAddr() +
         (WatermarkBytes + sizeof(Word) - 1) / sizeof(Word);
}

/// Collections so far other than mark slices (which bump NumGC too).
uint64_t collections(Mutator &M) {
  return M.gcStats().NumGC - genGC(M).incrementalSlices();
}

} // namespace

TEST(PauseBudgetAccounting, InlineFenceRunsEachSliceAtItsWatermark) {
  Mutator M(budgetConfig(/*MaxPauseMicros=*/200));
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  EXPECT_EQ(M.collector().inlineFence(), Collector::noFence());
  // Garbage only: the first minor opens the cycle (a 1 MiB heap's tenured
  // space is under three nursery-loads), and with nothing promoted no
  // tenured pressure finishes it.
  for (int64_t I = 0; !GC.incrementalCycleLive() && I < 500000; ++I)
    consInt(M, sitePb(), I, slot(F, 2));
  ASSERT_TRUE(GC.incrementalCycleLive());
  // Run to the first slice on the nursery leg: from there the watermark is
  // the fill before the slicing allocation plus one stride.
  const size_t Stride = strideBytes(GC);
  size_t Watermark = 0;
  for (uint64_t S0 = GC.incrementalSlices(); GC.incrementalSlices() == S0;) {
    Watermark = GC.nursery().usedBytes() + Stride;
    consInt(M, sitePb(), 0, slot(F, 2));
  }
  ASSERT_EQ(GC.incrementalSlices(), 1u);

  // Every later allocation: a slice runs exactly when it starts at or past
  // the watermark, and the fence always sits at the watermark's address.
  // Checked until the next minor moves the schedule.
  const uint64_t Collections = collections(M);
  unsigned Checked = 0;
  for (;;) {
    ASSERT_EQ(M.collector().inlineFence(), fenceAt(GC, Watermark));
    size_t Used = GC.nursery().usedBytes();
    uint64_t Before = GC.incrementalSlices();
    consInt(M, sitePb(), 0, slot(F, 2));
    if (collections(M) != Collections)
      break;
    uint64_t Ran = GC.incrementalSlices() - Before;
    ASSERT_EQ(Ran, Used >= Watermark ? 1u : 0u)
        << "fill " << Used << " B, watermark " << Watermark << " B";
    if (Ran) {
      Watermark = Used + Stride;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 20u) << "too few slices between two minors";
  // The minor emptied the nursery and re-armed one stride past it.
  ASSERT_TRUE(GC.incrementalCycleLive());
  EXPECT_EQ(M.collector().inlineFence(), fenceAt(GC, Stride));

  // A large object that makes the LOS leg due runs no slice itself, closes
  // the fence, and the next small allocation runs exactly one slice.
  uint64_t Before = GC.incrementalSlices();
  uint32_t Words = static_cast<uint32_t>(Stride / sizeof(Word)) + 512;
  ASSERT_GE(Words * sizeof(Word), M.config().LargeObjectThresholdBytes);
  M.allocNonPtrArray(sitePb(), Words);
  EXPECT_EQ(GC.incrementalSlices(), Before);
  EXPECT_EQ(M.collector().inlineFence(), nullptr);
  Before = GC.incrementalSlices();
  consInt(M, sitePb(), 0, slot(F, 2));
  EXPECT_EQ(GC.incrementalSlices(), Before + 1);
  EXPECT_NE(M.collector().inlineFence(), nullptr);

  M.collect(/*Major=*/true);
  EXPECT_FALSE(GC.incrementalCycleLive());
  EXPECT_EQ(M.collector().inlineFence(), Collector::noFence());
}

TEST(PauseBudgetAccounting, LargeObjectCycleSlicesOneStrideAfterOpening) {
  // A cycle opened by large-object pressure starts between collections,
  // so the mutator's fast-path epoch does not change; the fence still
  // holds its first slice to one stride of nursery allocation. Large
  // objects here are smaller than a stride, so the opening one leaves the
  // LOS leg idle.
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/200);
  C.LargeObjectThresholdBytes = 1024;
  Mutator M(C);
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  const size_t Stride = strideBytes(GC);
  constexpr uint32_t ArrayWords = 128; // 1,040 bytes with its header
  ASSERT_LT((ArrayWords + HeaderWords) * sizeof(Word), Stride);
  // One small allocation first, so the fast path is cached for this epoch.
  F.set(1, consInt(M, sitePb(), -1, slot(F, 1)));
  for (int I = 0; !GC.incrementalCycleLive() && I < 10000; ++I)
    M.allocNonPtrArray(sitePb(), ArrayWords);
  ASSERT_TRUE(GC.incrementalCycleLive()) << "LOS pressure opened no cycle";
  ASSERT_EQ(GC.incrementalSlices(), 0u);
  const size_t Watermark = GC.nursery().usedBytes() + Stride;
  EXPECT_EQ(M.collector().inlineFence(), fenceAt(GC, Watermark));
  for (int I = 0; I < 100000 && GC.incrementalSlices() == 0; ++I) {
    size_t Used = GC.nursery().usedBytes();
    consInt(M, sitePb(), I, slot(F, 1));
    ASSERT_EQ(GC.incrementalSlices(), Used >= Watermark ? 1u : 0u)
        << "fill " << Used << " B, watermark " << Watermark << " B";
  }
  EXPECT_EQ(GC.incrementalSlices(), 1u);
}

TEST(PauseBudgetAccounting, ZeroBudgetNeverRaisesTheFence) {
  // No budget, no cycle: minors, majors and large objects all leave the
  // inline path unfenced.
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/0);
  Mutator M(C);
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  for (int64_t I = 0; I < 300000; ++I) {
    F.set(1, consInt(M, sitePb(), I, slot(F, 1)));
    if (I % 4096 == 0)
      F.set(1, Value::null());
    if (I % 1024 == 0)
      M.allocNonPtrArray(sitePb(), 1024);
    ASSERT_EQ(M.collector().inlineFence(), Collector::noFence()) << I;
  }
  EXPECT_GT(M.gcStats().NumMajorGC, 0u);
  EXPECT_EQ(GC.incrementalCycles(), 0u);
}

//===----------------------------------------------------------------------===//
// Tricolor torture: seeded mutation between slices, audited at VerifyLevel 2.
//===----------------------------------------------------------------------===//

TEST(PauseBudgetTricolor, SeededMutationStormSurvivesSliceAudits) {
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/50);
  C.VerifyLevel = 2; // audit the mark state after every slice
  Mutator M(C);
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  // Deterministic xorshift storm: every shape an incremental marker can be
  // lied to with — overwrite edges below already-marked cells (the SATB
  // deletion-barrier case), drop roots whose referents were only reachable
  // from the snapshot (the root-snapshot case), and launder a pointer
  // through a store-then-sever chain (the young-mediator case).
  // TILGC_TORTURE_SEED (CI's seed matrix) picks another storm; the OR
  // keeps the xorshift state nonzero.
  uint64_t Rng = 0x9E3779B97F4A7C15ULL;
  if (const char *E = std::getenv("TILGC_TORTURE_SEED")) {
    uint64_t Seed = std::strtoull(E, nullptr, 10);
    Rng = splitMix64(Seed) | 1;
  }
  auto Rand = [&] {
    Rng ^= Rng << 13, Rng ^= Rng >> 7, Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < 60000; ++I) {
    unsigned R = 1 + Rand() % 3;
    F.set(R, consInt(M, sitePb(), static_cast<int64_t>(I), slot(F, R)));
    switch (Rand() % 8) {
    case 0: // overwrite a tail: the old edge must be SATB-snapshotted
      if (!F.get(1).isNull() && !F.get(2).isNull())
        M.writeField(F.get(1), 1, F.get(2), /*IsPointerField=*/true);
      break;
    case 1: // drop a root outright
      F.set(1 + Rand() % 3, Value::null());
      break;
    case 2: // launder: store into an old cell, then sever the only root
      if (!F.get(2).isNull() && !F.get(3).isNull()) {
        M.writeField(F.get(2), 1, F.get(3), /*IsPointerField=*/true);
        F.set(3, Value::null());
      }
      break;
    case 3: // swap two roots through the frame (no barrier on stack moves)
      F.set(3, F.get(1));
      F.set(1, Value::null());
      break;
    default:
      break;
    }
  }
  // The audit fatalErrors on any lost object, so surviving the storm IS
  // the assertion; the counters prove the audit actually had cycles and
  // slices to check.
  EXPECT_GT(GC.incrementalCycles(), 0u);
  EXPECT_GT(GC.incrementalSlices(), GC.incrementalCycles());
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

TEST(PauseBudgetTricolorDeath, AuditCatchesLostSnapshotEdge) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A holder H (the only root) heads a long tenured list whose last cell
  // is the only snapshot path to X. After the first slice H is black and
  // the list's tail is still white. Storing X into H and clearing the tail
  // with initField, which has no SATB barrier, loses X's snapshot edge:
  // the next slice's audit must name it.
  auto Scenario = [] {
    MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/1);
    C.VerifyLevel = 2;
    Mutator M(C);
    GenerationalCollector &GC = genGC(M);
    Frame F(M, keyPb());
    constexpr int64_t Cells = 6000; // fits the nursery: no minor while built
    F.set(2, consInt(M, sitePb(), -1, slot(F, 4)));     // X
    F.set(3, consInt(M, sitePb(), Cells, slot(F, 2)));  // last cell -> X
    for (int64_t I = Cells - 1; I > 0; --I)
      F.set(3, consInt(M, sitePb(), I, slot(F, 3)));
    F.set(1, consPtr(M, sitePb(), slot(F, 4), slot(F, 3))); // H = (null, list)
    F.set(2, Value::null());
    F.set(3, Value::null());
    // Garbage until the promoting minor opens a cycle and one slice ran.
    for (int64_t I = 0; GC.incrementalSlices() == 0 && I < 2000000; ++I)
      consInt(M, sitePb(), I, slot(F, 4));
    if (GC.incrementalSlices() == 0 || !GC.incrementalCycleLive())
      return; // no death: the scenario never reached a live slice
    Value Last = tail(F.get(1));
    for (int64_t I = 1; I < Cells; ++I)
      Last = tail(Last);
    Value X = tail(Last);
    M.writeField(F.get(1), 0, X, /*IsPointerField=*/true);
    M.initField(Last, 1, Value::null()); // the lost SATB record
    for (int64_t I = 0; GC.incrementalSlices() < 2 && I < 2000000; ++I)
      consInt(M, sitePb(), I, slot(F, 4));
  };
  EXPECT_DEATH(Scenario(), "tricolor invariant violated");
}

TEST(PauseBudgetTricolor, YoungMediatorSurvivesItsMinor) {
  // T is tenured and reachable at the snapshot only through a young Y.
  // After a slice the mutator stores T into a black holder H (the barrier
  // logs H's old value, null), drops Y, and a minor kills Y. Slices never
  // trace young objects, so the only record of the snapshot edge Y -> T is
  // the young-edge seed taken when the cycle opened; the VerifyLevel 2
  // audit after the next slice checks that T is still retained. The cycle
  // opens from large-object pressure, between collections, so the nursery
  // holds Y at the snapshot; the heap is large enough that the minor which
  // tenures T and H opens none.
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/1000);
  C.BudgetBytes = 8u << 20;
  C.VerifyLevel = 2;
  Mutator M(C);
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  F.set(1, consPtr(M, sitePb(), slot(F, 4), slot(F, 4))); // H
  F.set(3, consInt(M, sitePb(), 4242, slot(F, 4)));       // T
  M.collect(/*Major=*/false);
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));
  ASSERT_TRUE(GC.inTenured(F.get(3).asPtr()));
  ASSERT_FALSE(GC.incrementalCycleLive());
  F.set(2, consPtr(M, sitePb(), slot(F, 3), slot(F, 4))); // Y = (T, null)
  F.set(3, Value::null());
  for (int I = 0; !GC.incrementalCycleLive() && I < 256; ++I)
    M.allocNonPtrArray(sitePb(), 8192);
  ASSERT_TRUE(GC.incrementalCycleLive()) << "LOS pressure opened no cycle";
  ASSERT_TRUE(GC.inNursery(F.get(2).asPtr()));
  for (int64_t I = 0; GC.incrementalSlices() == 0 && I < 100000; ++I)
    consInt(M, sitePb(), I, slot(F, 4));
  ASSERT_EQ(GC.incrementalSlices(), 1u);

  M.writeField(F.get(1), 0, Mutator::getField(F.get(2), 0),
               /*IsPointerField=*/true);
  F.set(2, Value::null());
  M.collect(/*Major=*/false);
  ASSERT_TRUE(GC.incrementalCycleLive());
  ASSERT_EQ(M.gcStats().NumMajorGC, 0u);
  for (int64_t I = 0; GC.incrementalSlices() < 2 && I < 100000; ++I)
    consInt(M, sitePb(), I, slot(F, 4));
  ASSERT_EQ(GC.incrementalSlices(), 2u);

  M.collect(/*Major=*/true);
  EXPECT_EQ(headInt(Mutator::getField(F.get(1), 0)), 4242);
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

TEST(PauseBudgetTricolor, WorkloadsUnderSliceAuditsMatchChecksums) {
  // Three structurally different workloads, each fully audited between
  // slices. Small scale: the audit recomputes a reachability closure per
  // slice, so this is deliberately the expensive configuration.
  const double Scale = 0.04;
  const size_t Picks[] = {0, allWorkloads().size() / 2,
                          allWorkloads().size() - 1};
  for (size_t WIdx : Picks) {
    Workload &W = *allWorkloads()[WIdx];
    MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/100);
    C.VerifyLevel = 2;
    Mutator M(C);
    EXPECT_EQ(W.run(M, Scale), W.expected(Scale)) << W.name();
    std::string Err;
    EXPECT_TRUE(M.verifyHeap(Err)) << W.name() << ": " << Err;
  }
}

//===----------------------------------------------------------------------===//
// Group mode: thread-local SATB backlogs merge at safepoints.
//===----------------------------------------------------------------------===//

TEST(PauseBudgetGroup, BudgetedGroupMatchesSerialTotals) {
  const double Scale = 0.04;
  const size_t Picks[] = {1, allWorkloads().size() - 2};
  for (unsigned K : {2u, 8u}) {
    for (size_t WIdx : Picks) {
      Workload &W = *allWorkloads()[WIdx];
      MutatorConfig C;
      C.Kind = CollectorKind::Generational;
      C.BudgetBytes = 4u << 20;
      C.MajorGc = MajorGcKind::MarkCompact;

      uint64_t SerialSum, SerialBytes;
      {
        Mutator SM(C);
        SerialSum = W.run(SM, Scale);
        SerialBytes = SM.gcStats().BytesAllocated;
      }
      ASSERT_EQ(SerialSum, W.expected(Scale)) << W.name();

      C.MaxPauseMicros = 150;
      MutatorGroup G(C, K);
      std::vector<uint64_t> Sums(K);
      G.run([&](Mutator &M, unsigned I) { Sums[I] = W.run(M, Scale); });
      for (unsigned I = 0; I < K; ++I)
        EXPECT_EQ(Sums[I], SerialSum)
            << W.name() << " K=" << K << " thread " << I;
      EXPECT_EQ(G.gcStats().BytesAllocated, K * SerialBytes)
          << W.name() << " K=" << K;
      std::string Err;
      EXPECT_TRUE(G.mutator(0).verifyHeap(Err)) << W.name() << ": " << Err;
    }
  }
}

//===----------------------------------------------------------------------===//
// Supervision: a Recover bark mid-cycle force-finishes cooperatively.
//===----------------------------------------------------------------------===//

TEST(PauseBudgetResilience, RecoverBarkForceFinishesCycle) {
  EventRecorder Rec;
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/100);
  // An incremental cycle spans nursery epochs of mutator time, so its
  // wall-clock lifetime dwarfs any sane GC deadline: with the cycle
  // watchdog armed at start and a 1ms deadline, every cycle barks. Under
  // Recover the next slice must observe the latch and finish the cycle
  // stop-the-world rather than letting the SLO mode turn a hung cycle
  // into an unbounded one.
  C.GcDeadlineMicros = 1000;
  C.WatchdogEscalation = WatchdogPolicy::Recover;
  C.Observer = &Rec;
  Mutator M(C);
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  for (int64_t I = 0; I < 300000; ++I) {
    F.set(1, consInt(M, sitePb(), I, slot(F, 1)));
    if (I % 64 == 0)
      F.set(2, F.get(1)); // retain a trailing window
    if (I % 4096 == 0)
      F.set(1, Value::null());
  }
  EXPECT_GT(GC.incrementalCycles(), 0u);
  EXPECT_GT(M.gcStats().NumMajorGC, 0u)
      << "no cycle ever finished: recover latch never honored";
  EXPECT_FALSE(Rec.barks().empty())
      << "1ms deadline across whole cycles never barked";
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

namespace {

/// Drives a retained list until a cycle is live and has sliced, forces
/// the finish (with a plan fault injected into it when \p InjectPlanFault),
/// then keeps allocating through later cycles. Returns a checksum of the
/// retained list.
uint64_t runFinishWithPlanFault(bool InjectPlanFault) {
  Mutator M(budgetConfig(/*MaxPauseMicros=*/100));
  GenerationalCollector &GC = genGC(M);
  Frame F(M, keyPb());
  int64_t I = 0;
  auto Grow = [&] {
    F.set(1, consInt(M, sitePb(), I, slot(F, 1)));
    if (++I % 1024 == 0)
      F.set(1, Value::null()); // bound the retained data
  };
  while (!GC.incrementalCycleLive() && I < 500000)
    Grow();
  for (int64_t Stop = I + 200000;
       GC.incrementalCycleLive() && GC.incrementalSlices() == 0 && I < Stop;)
    Grow();
  EXPECT_TRUE(GC.incrementalCycleLive()) << "no live cycle to finish";
  EXPECT_GT(GC.incrementalSlices(), 0u);

  if (InjectPlanFault)
    // The next abort-point crossing is the finish's plan phase: the fault
    // lands after the cycle's mark closed, before anything moved.
    FaultInjector::global().arm(FaultPoint::MarkPlanThrow, 1,
                                /*FireCount=*/1);
  M.collect(/*Major=*/true);
  FaultInjector::global().reset();
  EXPECT_FALSE(GC.incrementalCycleLive());
  EXPECT_FALSE(M.collector().satbLive());
  EXPECT_EQ(GC.satbPending(), 0u);
  if (InjectPlanFault) {
    EXPECT_GE(M.gcStats().MajorEngineFailovers, 1u)
        << "the injected plan fault never reached the finish's failover";
    EXPECT_FALSE(GC.markCompactDisabled());
  }
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;

  // Later cycles still start, slice and finish on the mark-compact engine.
  for (int64_t Stop = I + 300000; I < Stop;)
    Grow();
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;

  uint64_t Sum = static_cast<uint64_t>(I);
  for (Value Cell = F.get(1); !Cell.isNull(); Cell = tail(Cell))
    Sum = Sum * 31 + static_cast<uint64_t>(headInt(Cell));
  return Sum;
}

} // namespace

TEST(PauseBudgetResilience, PlanFaultAtFinishFailsOverToEvacuation) {
  // The finish shares the stock major's failover: an injected plan fault
  // abandons the cycle's mark, the semispace evacuation completes the
  // collection, and the cycle state and SATB barrier are torn down.
  uint64_t Clean = runFinishWithPlanFault(/*InjectPlanFault=*/false);
  uint64_t Faulted = runFinishWithPlanFault(/*InjectPlanFault=*/true);
  EXPECT_EQ(Faulted, Clean);
}

//===----------------------------------------------------------------------===//
// Construction: a budget the configuration cannot honor is an error.
//===----------------------------------------------------------------------===//

TEST(PauseBudgetDeath, BudgetWithoutMarkCompactIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MutatorConfig C = budgetConfig(/*MaxPauseMicros=*/100);
  C.Name = "budget-semispace-major";
  C.MajorGc = MajorGcKind::Semispace;
  EXPECT_DEATH({ Mutator M(C); },
               "budget-semispace-major: MaxPauseMicros needs the "
               "generational collector with MajorGc = MarkCompact");
  C.Name = "budget-semispace-collector";
  C.Kind = CollectorKind::Semispace;
  EXPECT_DEATH({ Mutator M(C); },
               "budget-semispace-collector: MaxPauseMicros needs");
}
