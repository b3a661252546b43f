//===- tests/scan_plan_test.cpp - Compiled scan-plan tests -----------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled-scan-plan differential suite:
///
///  * unit tests of ScanPlan::compile (bitmask bits, side lists, register
///    transition masks, the duplicate-definition interpreter fallback);
///  * raw-scanner differentials: identical stacks scanned interpretively and
///    through compiled plans must yield the same root set, register roots
///    and semantic counters, with and without stack markers;
///  * whole-workload differentials: every Table 1 benchmark, compiled vs
///    interpretive, must produce the same checksum, collection cadence,
///    copy totals, scan counters and per-site profile (and therefore the
///    same derived pretenure set);
///  * thread-count differentials: a controlled deep-stack workload must
///    produce the same canonical heap hash and totals across GcThreads
///    {1, 2, 8} x {compiled, interpretive};
///  * the checked TraceTableRegistry lookup (aborts on bad keys in every
///    build mode) and container capacity reuse.
///
//===----------------------------------------------------------------------===//

#include "stack/ScanPlan.h"

#include "heap/StoreBuffer.h"
#include "profile/AllocSite.h"
#include "runtime/Mutator.h"
#include "stack/StackScanner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace tilgc;

namespace {

//===----------------------------------------------------------------------===//
// Plan compilation.
//===----------------------------------------------------------------------===//

/// Test layouts, registered once.
struct Keys {
  uint32_t Mixed; ///< 20 ptr + 20 nonptr + 2 callee-save + 2 compute.
  uint32_t Wide;  ///< 70 pointer slots: bitmask spans two words.
  uint32_t Dup;   ///< Defines r5 twice: forces the interpreter fallback.
  uint32_t Defs;  ///< Unique defs: r1 = ptr, r2 = nonptr, r3 = compute.

  static const Keys &get() {
    static Keys K = [] {
      auto &Reg = TraceTableRegistry::global();
      Keys K;

      // Slots 1..20 pointer, 21..40 non-pointer, 41 saves r6, 42 saves r7,
      // 43 = compute(slot 1), 44 = compute(slot 2).
      std::vector<Trace> Mixed;
      for (int I = 0; I < 20; ++I)
        Mixed.push_back(Trace::pointer());
      for (int I = 0; I < 20; ++I)
        Mixed.push_back(Trace::nonPointer());
      Mixed.push_back(Trace::calleeSave(6));
      Mixed.push_back(Trace::calleeSave(7));
      Mixed.push_back(Trace::computeFromSlot(1));
      Mixed.push_back(Trace::computeFromSlot(2));
      K.Mixed = Reg.define(FrameLayout("plan.mixed", Mixed,
                                       {RegAction{6, Trace::pointer()},
                                        RegAction{7, Trace::pointer()}}));

      K.Wide = Reg.define(
          FrameLayout("plan.wide", std::vector<Trace>(70, Trace::pointer())));

      K.Dup = Reg.define(FrameLayout("plan.dup", {Trace::pointer()},
                                     {RegAction{5, Trace::pointer()},
                                      RegAction{5, Trace::nonPointer()}}));

      K.Defs = Reg.define(FrameLayout("plan.defs",
                                      {Trace::pointer(), Trace::nonPointer()},
                                      {RegAction{1, Trace::pointer()},
                                       RegAction{2, Trace::nonPointer()},
                                       RegAction{3, Trace::computeFromReg(4)}}));
      return K;
    }();
    return K;
  }
};

TEST(ScanPlanTest, PointerBitmaskMatchesLayout) {
  const Keys &K = Keys::get();
  ScanPlan P =
      ScanPlan::compile(TraceTableRegistry::global().lookup(K.Mixed));
  ASSERT_EQ(P.NumSlots, 45u);
  ASSERT_EQ(P.PtrWords.size(), 1u);
  // Bit 0 (the key slot) must never be set; slots 1..20 are pointers.
  uint64_t Want = 0;
  for (uint32_t S = 1; S <= 20; ++S)
    Want |= uint64_t{1} << S;
  EXPECT_EQ(P.PtrWords[0], Want);

  ASSERT_EQ(P.CalleeSaves.size(), 2u);
  EXPECT_EQ(P.CalleeSaves[0].Slot, 41u);
  EXPECT_EQ(P.CalleeSaves[0].Reg, 6u);
  EXPECT_EQ(P.CalleeSaves[1].Slot, 42u);
  EXPECT_EQ(P.CalleeSaves[1].Reg, 7u);
  ASSERT_EQ(P.Computes.size(), 2u);
  EXPECT_EQ(P.Computes[0].Slot, 43u);
  EXPECT_EQ(P.Computes[1].Slot, 44u);

  EXPECT_FALSE(P.RegDefsNeedInterp);
  EXPECT_EQ(P.RegSetMask, (1u << 6) | (1u << 7));
  EXPECT_EQ(P.RegClearMask, 0u);
  EXPECT_TRUE(P.ComputeRegDefs.empty());
}

TEST(ScanPlanTest, WideFrameSpansTwoWords) {
  const Keys &K = Keys::get();
  ScanPlan P = ScanPlan::compile(TraceTableRegistry::global().lookup(K.Wide));
  ASSERT_EQ(P.NumSlots, 71u);
  ASSERT_EQ(P.PtrWords.size(), 2u);
  EXPECT_EQ(P.PtrWords[0], ~uint64_t{1}) << "slots 1..63 set, key bit clear";
  uint64_t Want = 0;
  for (uint32_t S = 64; S <= 70; ++S)
    Want |= uint64_t{1} << (S - 64);
  EXPECT_EQ(P.PtrWords[1], Want);
}

TEST(ScanPlanTest, RegisterTransitionMasks) {
  const Keys &K = Keys::get();
  ScanPlan P = ScanPlan::compile(TraceTableRegistry::global().lookup(K.Defs));
  EXPECT_FALSE(P.RegDefsNeedInterp);
  EXPECT_EQ(P.RegSetMask, 1u << 1);
  EXPECT_EQ(P.RegClearMask, 1u << 2);
  ASSERT_EQ(P.ComputeRegDefs.size(), 1u);
  EXPECT_EQ(P.ComputeRegDefs[0].Reg, 3u);
}

TEST(ScanPlanTest, DuplicateRegDefFallsBackToInterpreter) {
  const Keys &K = Keys::get();
  const FrameLayout &L = TraceTableRegistry::global().lookup(K.Dup);
  ScanPlan P = ScanPlan::compile(L);
  EXPECT_TRUE(P.RegDefsNeedInterp);
  EXPECT_EQ(P.RegSetMask, 0u);
  EXPECT_EQ(P.RegClearMask, 0u);
  EXPECT_TRUE(P.ComputeRegDefs.empty());
  ASSERT_EQ(P.InterpRegDefs.size(), 2u);
  EXPECT_EQ(P.InterpRegDefs[0].Reg, 5u);
  EXPECT_EQ(P.InterpRegDefs[1].Reg, 5u);
}

TEST(ScanPlanTest, CacheCompilesEachKeyOnce) {
  const Keys &K = Keys::get();
  ScanPlanCache &Cache = ScanPlanCache::global();
  const ScanPlan &P1 = Cache.plan(K.Mixed);
  size_t After = Cache.compiledCount();
  const ScanPlan &P2 = Cache.plan(K.Mixed);
  EXPECT_EQ(&P1, &P2) << "memoized plan must be stable";
  EXPECT_EQ(Cache.compiledCount(), After) << "no recompilation";
}

//===----------------------------------------------------------------------===//
// Checked registry lookup (satellite: fail loudly in release builds too).
//===----------------------------------------------------------------------===//

TEST(TraceTableDeathTest, UnknownKeyAbortsLoudly) {
  EXPECT_DEATH_IF_SUPPORTED(
      (void)TraceTableRegistry::global().lookup(0xDEADBEEFu),
      "not a registered trace table");
  EXPECT_DEATH_IF_SUPPORTED((void)TraceTableRegistry::global().lookup(StubKey),
                            "stub key leaked");
}

//===----------------------------------------------------------------------===//
// Raw-scanner differentials.
//===----------------------------------------------------------------------===//

/// Fake heap objects for pointer slots, and type descriptors for computes.
/// Static storage: the same addresses appear in every stack built by
/// buildStack, so root *values* identify slots across stacks.
Word FakeObjs[128];
Word DescYes[1] = {1}; ///< Compute descriptor: value IS a pointer.
Word DescNo[1] = {0};  ///< Compute descriptor: value is NOT a pointer.

/// Builds a deterministic stack of \p Depth frames cycling through the
/// Mixed / Wide / Dup layouts, filling pointer slots with distinct fake
/// object addresses and compute-described slots alternately pointer /
/// non-pointer.
void buildStack(ShadowStack &S, size_t Depth) {
  const Keys &K = Keys::get();
  for (size_t F = 0; F < Depth; ++F) {
    switch (F % 3) {
    case 0: {
      size_t B = S.pushFrame(K.Mixed, 45);
      for (uint32_t Slot = 1; Slot <= 20; ++Slot)
        if ((F + Slot) % 3 != 0) // Leave some pointer slots null.
          S.slot(B, Slot) =
              reinterpret_cast<Word>(&FakeObjs[(F * 7 + Slot) % 128]);
      for (uint32_t Slot = 21; Slot <= 40; ++Slot)
        S.slot(B, Slot) = 0x1000 + F * 64 + Slot; // Non-pointer garbage.
      S.slot(B, 41) = reinterpret_cast<Word>(&FakeObjs[(F * 11) % 128]);
      S.slot(B, 42) = reinterpret_cast<Word>(&FakeObjs[(F * 13) % 128]);
      // Slots 1 and 2 are the computes' type descriptors; overwrite them
      // with descriptor pointers (they are Pointer slots, still roots).
      S.slot(B, 1) = reinterpret_cast<Word>(F % 2 ? DescYes : DescNo);
      S.slot(B, 2) = reinterpret_cast<Word>(F % 2 ? DescNo : DescYes);
      S.slot(B, 43) = reinterpret_cast<Word>(&FakeObjs[(F * 17) % 128]);
      S.slot(B, 44) = reinterpret_cast<Word>(&FakeObjs[(F * 19) % 128]);
      break;
    }
    case 1: {
      size_t B = S.pushFrame(K.Wide, 71);
      for (uint32_t Slot = 1; Slot <= 70; ++Slot)
        if ((F + Slot) % 4 != 0)
          S.slot(B, Slot) =
              reinterpret_cast<Word>(&FakeObjs[(F * 5 + Slot) % 128]);
      break;
    }
    case 2: {
      size_t B = S.pushFrame(K.Dup, 2);
      S.slot(B, 1) = reinterpret_cast<Word>(&FakeObjs[(F * 3) % 128]);
      break;
    }
    }
  }
}

/// The multiset of root slot *contents* — address-independent, so it can be
/// compared across distinct stacks.
std::vector<Word> rootValues(const RootSet &Roots) {
  std::vector<Word> V;
  for (const Word *Slot : Roots.FreshSlotRoots)
    V.push_back(*Slot);
  for (const Word *Slot : Roots.ReusedSlotRoots)
    V.push_back(*Slot);
  std::sort(V.begin(), V.end());
  return V;
}

TEST(ScanDifferentialTest, MarkerlessScanYieldsIdenticalRoots) {
  ShadowStack S(1u << 16);
  buildStack(S, 40);
  RegisterFile Regs;

  RootSet InterpRoots, PlanRoots;
  ScanStats InterpStats, PlanStats;
  // Markerless scans are stack-read-only: the same stack can be scanned in
  // both modes back to back.
  StackScanner::scan(S, Regs, nullptr, nullptr, InterpRoots, InterpStats,
                     /*CompiledPlans=*/false);
  StackScanner::scan(S, Regs, nullptr, nullptr, PlanRoots, PlanStats,
                     /*CompiledPlans=*/true);

  EXPECT_EQ(rootValues(InterpRoots), rootValues(PlanRoots));
  EXPECT_EQ(InterpRoots.FreshSlotRoots.size(), PlanRoots.FreshSlotRoots.size());
  EXPECT_EQ(InterpRoots.RegRoots, PlanRoots.RegRoots);

  // Semantic counters are bit-identical.
  EXPECT_EQ(InterpStats.FramesScanned, PlanStats.FramesScanned);
  EXPECT_EQ(InterpStats.FramesReused, PlanStats.FramesReused);
  EXPECT_EQ(InterpStats.ComputesResolved, PlanStats.ComputesResolved);
  EXPECT_EQ(InterpStats.MarkersPlaced, PlanStats.MarkersPlaced);

  // SlotsVisited is the interpreted-slot count: the compiled mode visits
  // only the side lists. This stack mixes heavily pointer/non-pointer
  // frames, so the reduction must be at least 4x.
  EXPECT_EQ(PlanStats.PlanWordsScanned, 14u * 1 + 13u * 2 + 13u * 1)
      << "one bitmask word per Mixed/Dup frame, two per Wide frame";
  EXPECT_GT(InterpStats.SlotsVisited, 4 * PlanStats.SlotsVisited)
      << "compiled mode must eliminate at least 4x of the slot visits";
}

/// One marker-mode scan sequence: scan, push more frames, scan again (the
/// second scan replays the cached prefix). Returns per-scan root values and
/// the stats of both scans.
struct MarkerRun {
  std::vector<Word> Roots1, Roots2;
  ScanStats Stats1, Stats2;
};

MarkerRun runMarkerSequence(bool CompiledPlans) {
  ShadowStack S(1u << 16);
  RegisterFile Regs;
  MarkerManager Markers(7);
  ScanCache Cache;
  MarkerRun R;

  buildStack(S, 40);
  RootSet Roots;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, R.Stats1,
                     CompiledPlans);
  R.Roots1 = rootValues(Roots);

  buildStack(S, 10); // Grow the stack; frames below the markers unchanged.
  Roots.clear();
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, R.Stats2,
                     CompiledPlans);
  R.Roots2 = rootValues(Roots);
  return R;
}

TEST(ScanDifferentialTest, MarkeredScansMatchAcrossModes) {
  MarkerRun Interp = runMarkerSequence(false);
  MarkerRun Plan = runMarkerSequence(true);

  EXPECT_EQ(Interp.Roots1, Plan.Roots1);
  EXPECT_EQ(Interp.Roots2, Plan.Roots2);
  EXPECT_EQ(Interp.Stats1.FramesScanned, Plan.Stats1.FramesScanned);
  EXPECT_EQ(Interp.Stats1.MarkersPlaced, Plan.Stats1.MarkersPlaced);
  EXPECT_EQ(Interp.Stats2.FramesScanned, Plan.Stats2.FramesScanned);
  EXPECT_EQ(Interp.Stats2.FramesReused, Plan.Stats2.FramesReused);
  EXPECT_GT(Interp.Stats2.FramesReused, 0u)
      << "the second scan must actually replay cached frames";
  EXPECT_EQ(Interp.Stats2.MarkersPlaced, Plan.Stats2.MarkersPlaced);
  EXPECT_EQ(Interp.Stats1.ComputesResolved, Plan.Stats1.ComputesResolved);
  EXPECT_EQ(Interp.Stats2.ComputesResolved, Plan.Stats2.ComputesResolved);
  EXPECT_GT(Interp.Stats1.SlotsVisited, 4 * Plan.Stats1.SlotsVisited);
}

//===----------------------------------------------------------------------===//
// Whole-workload differentials (Table 1, serial).
//===----------------------------------------------------------------------===//

struct WorkloadOutcome {
  uint64_t Checksum;
  uint64_t NumGC;
  uint64_t BytesCopied;
  uint64_t ObjectsCopied;
  uint64_t FramesScanned;
  uint64_t FramesReused;
  uint64_t SlotsVisited;
  uint64_t SSBEntriesProcessed;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>> Sites;
  std::vector<std::pair<uint32_t, bool>> PretenureSet;
};

WorkloadOutcome runWorkloadOnce(Workload &W, bool CompiledPlans,
                                bool UseMarkers, double Scale) {
  // GcThreads = 1; the thread-count differential below covers the others.
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 1u << 20;
  Cfg.UseStackMarkers = UseMarkers;
  Cfg.CompiledScanPlans = CompiledPlans;
  Cfg.EnableProfiling = true;
  Mutator M(Cfg);

  WorkloadOutcome R;
  R.Checksum = W.run(M, Scale);
  const GcStats &St = M.gcStats();
  R.NumGC = St.NumGC;
  R.BytesCopied = St.BytesCopied;
  R.ObjectsCopied = St.ObjectsCopied;
  R.FramesScanned = St.FramesScanned;
  R.FramesReused = St.FramesReused;
  R.SlotsVisited = St.SlotsVisited;
  R.SSBEntriesProcessed = St.SSBEntriesProcessed;
  const HeapProfiler *P = M.profiler();
  for (uint32_t S = 0; S < P->numSites(); ++S) {
    const SiteStats &SS = P->site(S);
    R.Sites.emplace_back(SS.AllocBytes, SS.CopiedBytes,
                         SS.SurvivedFirstCount, SS.DeathCount);
  }
  for (const PretenureDecision &D : P->derivePretenureSet(0.8))
    R.PretenureSet.emplace_back(D.SiteId, D.EliminateScan);
  return R;
}

class WorkloadScanDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadScanDifferential, CompiledMatchesInterpretive) {
  const auto &Workloads = allWorkloads();
  ASSERT_LT(GetParam(), Workloads.size());
  Workload &W = *Workloads[GetParam()];
  const double Scale = 0.12;

  for (bool UseMarkers : {false, true}) {
    WorkloadOutcome I = runWorkloadOnce(W, false, UseMarkers, Scale);
    WorkloadOutcome C = runWorkloadOnce(W, true, UseMarkers, Scale);
    SCOPED_TRACE(std::string(W.name()) +
                 (UseMarkers ? " (markers)" : " (no markers)"));

    EXPECT_EQ(I.Checksum, W.expected(Scale));
    EXPECT_EQ(C.Checksum, I.Checksum);
    EXPECT_EQ(C.NumGC, I.NumGC);
    EXPECT_EQ(C.BytesCopied, I.BytesCopied);
    EXPECT_EQ(C.ObjectsCopied, I.ObjectsCopied);
    EXPECT_EQ(C.FramesScanned, I.FramesScanned);
    EXPECT_EQ(C.FramesReused, I.FramesReused);
    EXPECT_EQ(C.SSBEntriesProcessed, I.SSBEntriesProcessed);
    EXPECT_LE(C.SlotsVisited, I.SlotsVisited)
        << "compiled mode can only reduce interpreted slot visits";
    EXPECT_EQ(C.Sites, I.Sites) << "per-site profiles must be identical";
    EXPECT_EQ(C.PretenureSet, I.PretenureSet)
        << "pretenuring decisions must not depend on the scan mode";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadScanDifferential,
    ::testing::Range<size_t>(0, 11),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const auto &Workloads = allWorkloads();
      std::string Name = Info.param < Workloads.size()
                             ? Workloads[Info.param]->name()
                             : "pending" + std::to_string(Info.param);
      std::string Clean;
      for (char C : Name)
        if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
            (C >= '0' && C <= '9'))
          Clean += C;
      return Clean;
    });

//===----------------------------------------------------------------------===//
// Thread-count differential (controlled workload, pinned budgets).
//===----------------------------------------------------------------------===//

uint32_t diffSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("plan.diff");
  return S;
}

uint32_t diffFrameKey() {
  // A frame with real scan structure: two pointer locals, a callee-save of
  // r2, a non-pointer counter, and a compute described by slot 1.
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "plan.diff",
      {Trace::pointer(), Trace::pointer(), Trace::calleeSave(2),
       Trace::nonPointer(), Trace::computeFromSlot(1)},
      {RegAction{2, Trace::pointer()}}));
  return K;
}

uint32_t diffRootsKey() {
  static const uint32_t K = TraceTableRegistry::global().define(
      FrameLayout("plan.diffroots", {Trace::pointer()}));
  return K;
}

/// Deep-recursion workload: each level conses onto a list threaded through
/// frame slots, collections fire at fixed depths (explicitly — the pinned
/// budgets prevent any allocation-triggered GC), and unchanged lower frames
/// get reused by the marker machinery.
Value diffRecurse(Mutator &M, unsigned Depth, Value Tail) {
  Frame F(M, diffFrameKey());
  F.set(1, M.allocTypeDesc(true));
  F.set(2, Tail);
  Value Cell = M.allocRecord(diffSite(), 2, 0b10);
  M.initField(Cell, 0, Value::fromInt(Depth));
  M.initField(Cell, 1, F.get(2));
  F.set(2, Cell);
  F.set(5, F.get(2)); // The compute slot: described as pointer by slot 1.
  if (Depth % 40 == 0)
    M.collect(/*Major=*/false);
  if (Depth % 170 == 0)
    M.collect(/*Major=*/true);
  if (Depth == 0)
    return F.get(2); // Read from the slot after the collects above.
  return diffRecurse(M, Depth - 1, F.get(2));
}

/// Runs the recursion under a root frame, survives a final major
/// collection, and hashes the resulting list address-independently.
uint64_t diffMutate(Mutator &M) {
  Frame F(M, diffRootsKey());
  // No allocation happens between the deepest frame's slot read and this
  // store, so the returned Value is not stale.
  F.set(1, diffRecurse(M, 400, Value::null()));
  M.collect(/*Major=*/true);

  uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&](uint64_t V) { Hash = (Hash ^ V) * 1099511628211ULL; };
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    Mix(static_cast<uint64_t>(Mutator::getField(V, 0).bits()));
  return Hash;
}

struct DiffOutcome {
  uint64_t Hash;
  uint64_t NumGC;
  uint64_t BytesCopied;
  uint64_t ObjectsCopied;
  uint64_t FramesScanned;
  uint64_t FramesReused;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Sites;
};

DiffOutcome runDiffWorkload(unsigned Threads, bool CompiledPlans) {
  // Pinned budgets: only explicit collections fire, so the cadence cannot
  // shift with thread count or root order.
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 16u << 20;
  Cfg.SemispaceTargetLiveness = 1e-6;
  Cfg.TenuredTargetLiveness = 1e-6;
  Cfg.UseStackMarkers = true;
  Cfg.MarkerPeriod = 11;
  Cfg.CompiledScanPlans = CompiledPlans;
  Cfg.GcThreads = Threads;
  Cfg.EnableProfiling = true;
  Cfg.VerifyLevel = 2;
  Mutator M(Cfg);

  DiffOutcome R;
  R.Hash = diffMutate(M);
  const GcStats &St = M.gcStats();
  R.NumGC = St.NumGC;
  R.BytesCopied = St.BytesCopied;
  R.ObjectsCopied = St.ObjectsCopied;
  R.FramesScanned = St.FramesScanned;
  R.FramesReused = St.FramesReused;
  const HeapProfiler *P = M.profiler();
  for (uint32_t S = 0; S < P->numSites(); ++S) {
    const SiteStats &SS = P->site(S);
    R.Sites.emplace_back(SS.CopiedBytes, SS.SurvivedFirstCount,
                         SS.DeathCount);
  }
  return R;
}

class ScanPlanThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScanPlanThreads, CompiledMatchesInterpretiveAtEveryThreadCount) {
  static const DiffOutcome Baseline = runDiffWorkload(1, false);
  ASSERT_GT(Baseline.FramesReused, 0u)
      << "the controlled workload must exercise frame reuse";

  for (bool CompiledPlans : {false, true}) {
    DiffOutcome R = runDiffWorkload(GetParam(), CompiledPlans);
    SCOPED_TRACE(CompiledPlans ? "compiled" : "interpretive");
    EXPECT_EQ(R.Hash, Baseline.Hash);
    ASSERT_EQ(R.NumGC, Baseline.NumGC) << "collection cadence diverged";
    EXPECT_EQ(R.BytesCopied, Baseline.BytesCopied);
    EXPECT_EQ(R.ObjectsCopied, Baseline.ObjectsCopied);
    EXPECT_EQ(R.FramesScanned, Baseline.FramesScanned);
    EXPECT_EQ(R.FramesReused, Baseline.FramesReused);
    EXPECT_EQ(R.Sites, Baseline.Sites);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ScanPlanThreads,
                         ::testing::Values(1u, 2u, 8u));

//===----------------------------------------------------------------------===//
// Capacity reuse (satellite).
//===----------------------------------------------------------------------===//

TEST(CapacityReuseTest, RootSetClearKeepsCapacity) {
  RootSet R;
  R.reserve(512);
  size_t CapFresh = R.FreshSlotRoots.capacity();
  ASSERT_GE(CapFresh, 512u);
  Word Dummy = 0;
  for (int I = 0; I < 400; ++I)
    R.FreshSlotRoots.push_back(&Dummy);
  R.clear();
  EXPECT_TRUE(R.FreshSlotRoots.empty());
  EXPECT_EQ(R.FreshSlotRoots.capacity(), CapFresh);
}

TEST(CapacityReuseTest, StoreBufferClearKeepsCapacity) {
  StoreBuffer SSB;
  SSB.reserve(256);
  size_t Cap = SSB.entries().capacity();
  ASSERT_GE(Cap, 256u);
  Word Dummy = 0;
  for (int I = 0; I < 200; ++I)
    SSB.record(&Dummy); // Duplicates preserved by design.
  EXPECT_EQ(SSB.size(), 200u);
  EXPECT_EQ(SSB.totalRecorded(), 200u);
  SSB.clear();
  EXPECT_EQ(SSB.size(), 0u);
  EXPECT_EQ(SSB.entries().capacity(), Cap);
  EXPECT_EQ(SSB.totalRecorded(), 200u) << "lifetime count survives clears";
}

} // namespace
