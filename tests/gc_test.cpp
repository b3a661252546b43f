//===- tests/gc_test.cpp - Collector-level behavioral tests ----------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "workloads/MLLib.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t siteGc() {
  static const uint32_t S = AllocSiteRegistry::global().define("gctest.site");
  return S;
}

uint32_t keyGc() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "gctest.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

} // namespace

TEST(AgedTenuringTest, SurvivorsStayYoungUntilThreshold) {
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.PromoteAgeThreshold = 3;
  C.VerifyLevel = 1;
  Mutator M(C);
  Frame F(M, keyGc());
  F.set(1, consInt(M, siteGc(), 7, slot(F, 2)));
  auto &GC = static_cast<GenerationalCollector &>(M.collector());

  // Age 0 -> 1: stays young. Age 1 -> 2: stays young. Age 2 -> 3: tenured.
  M.collect(false);
  EXPECT_TRUE(GC.inNursery(F.get(1).asPtr())) << "age 1 must stay young";
  M.collect(false);
  EXPECT_TRUE(GC.inNursery(F.get(1).asPtr())) << "age 2 must stay young";
  M.collect(false);
  EXPECT_TRUE(GC.inTenured(F.get(1).asPtr()))
      << "age 3 reaches the threshold";
  EXPECT_EQ(headInt(F.get(1)), 7);
}

TEST(AgedTenuringTest, PromotionCreatedOldToYoungEdgeSurvives) {
  // The regression the heap verifier caught: promote a parent whose child
  // stays young; the edge exists in the old generation with no barrier
  // record. The next minor collection must still find the child.
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.PromoteAgeThreshold = 2;
  C.VerifyLevel = 1;
  Mutator M(C);
  Frame F(M, keyGc());
  auto &GC = static_cast<GenerationalCollector &>(M.collector());

  // Parent ages to 1 (one collection), then points at a fresh age-0 child;
  // the next collection promotes the parent (age 2) while the child stays
  // young (age 1): a collector-created old->young edge.
  F.set(1, M.allocRecord(siteGc(), 1, 0b1));
  M.collect(false); // Parent age 1, still young.
  ASSERT_TRUE(GC.inNursery(F.get(1).asPtr()));
  F.set(2, consInt(M, siteGc(), 99, slot(F, 3)));
  M.writeField(F.get(1), 0, F.get(2), true);
  F.set(2, Value::null());
  M.collect(false); // Parent promoted; child copied back young.
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));
  Value Child = Mutator::getField(F.get(1), 0);
  ASSERT_FALSE(Child.isNull());
  ASSERT_TRUE(GC.inNursery(Child.asPtr()));

  // Drop the stack reference to the child: the ONLY path is the untracked
  // old->young edge. The next minor collection must preserve it.
  M.collect(false);
  Child = Mutator::getField(F.get(1), 0);
  ASSERT_FALSE(Child.isNull());
  EXPECT_EQ(headInt(Child), 99);
}

TEST(SemispaceTest, GrowsPastBudgetWhenLiveDemandsIt) {
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = 64u << 10; // Far below the live set we will build.
  Mutator M(C);
  Frame F(M, keyGc());
  for (int I = 0; I < 10000; ++I) // ~320KB live.
    F.set(1, consInt(M, siteGc(), I, slot(F, 1)));
  EXPECT_GT(M.gcStats().BudgetOverruns, 0u);
  EXPECT_EQ(mllib::length(F.get(1)), 10000u);
}

TEST(SemispaceTest, ResizesTowardTargetLiveness) {
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = 32u << 20;
  C.SemispaceTargetLiveness = 0.5; // Spaces ~2x live: frequent GCs.
  Mutator M(C);
  Frame F(M, keyGc());
  // Small live set, lots of garbage: after the first collection the
  // spaces shrink toward 2x live, so collections keep happening even
  // though the budget would allow one huge space.
  for (int I = 0; I < 300000; ++I) {
    if (I % 3000 == 0)
      F.set(1, Value::null());
    F.set(1, consInt(M, siteGc(), I, slot(F, 1)));
  }
  EXPECT_GT(M.gcStats().NumGC, 5u);
}

TEST(GenerationalTest, MajorCollectionsReclaimTenuredGarbage) {
  MutatorConfig C;
  C.BudgetBytes = 512u << 10;
  C.VerifyLevel = 1;
  Mutator M(C);
  Frame F(M, keyGc());
  // Repeatedly build a list that survives one minor collection (promoted)
  // and then gets dropped: classic tenured garbage (the PIA pattern).
  for (int Round = 0; Round < 40; ++Round) {
    F.set(1, Value::null());
    for (int I = 0; I < 3000; ++I)
      F.set(1, consInt(M, siteGc(), I, slot(F, 1)));
    M.collect(false); // Promote.
  }
  F.set(1, Value::null());
  EXPECT_GT(M.gcStats().NumMajorGC, 0u)
      << "tenured pressure must trigger major collections";
  // After a final major, live data is near zero again.
  M.collect(true);
  EXPECT_LT(M.collector().liveBytesAfterLastGC(), 64u << 10);
}

TEST(GenerationalTest, CardBarrierCoversLargeObjectSlots) {
  MutatorConfig C;
  C.BudgetBytes = 512u << 10;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  Mutator M(C);
  Frame F(M, keyGc());
  // A large pointer array lives in the LOS; mutate it to hold the only
  // reference to a young object, then collect.
  F.set(1, M.allocPtrArray(siteGc(), 2048));
  M.collect(false); // The array is no longer "new".
  F.set(2, consInt(M, siteGc(), 31337, slot(F, 3)));
  M.writeField(F.get(1), 100, F.get(2), true);
  F.set(2, Value::null());
  M.collect(false);
  Value Kept = Mutator::getField(F.get(1), 100);
  ASSERT_FALSE(Kept.isNull());
  EXPECT_EQ(headInt(Kept), 31337);
}

TEST(GenerationalTest, StubPopRestoresOriginalKey) {
  MutatorConfig C;
  C.BudgetBytes = 256u << 10;
  C.UseStackMarkers = true;
  C.MarkerPeriod = 2;
  Mutator M(C);
  Frame Outer(M, keyGc());

  // Push enough frames that several get marked, collect, then pop through
  // the stubs by returning normally.
  struct Helper {
    static uint64_t nest(Mutator &M, int N) {
      Frame F(M, keyGc());
      F.set(1, consInt(M, siteGc(), N, slot(F, 2)));
      if (N == 0) {
        M.collect(false); // Places markers across the deep stack.
        return 0;
      }
      return nest(M, N - 1) + static_cast<uint64_t>(headInt(F.get(1)));
    }
  };
  uint64_t Got = Helper::nest(M, 64);
  EXPECT_EQ(Got, 64ull * 65 / 2);
  MarkerManager *MM = M.markerManager();
  ASSERT_NE(MM, nullptr);
  EXPECT_GT(MM->numStubPops(), 0u) << "pops must have gone through stubs";
  EXPECT_EQ(MM->numActiveMarkers(), 0u)
      << "all markers retired after unwinding";
}

TEST(GenerationalTest, SemispaceMarkersAlsoReuseDecodes) {
  // §7.1: generational stack collection with a non-generational collector.
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = 256u << 10;
  C.UseStackMarkers = true;
  Mutator M(C);

  struct Helper {
    static void deep(Mutator &M, int N) {
      Frame F(M, keyGc());
      F.set(1, consInt(M, siteGc(), N, slot(F, 2)));
      if (N > 0) {
        deep(M, N - 1);
        return;
      }
      for (int I = 0; I < 30000; ++I)
        F.set(3, consInt(M, siteGc(), I, slot(F, 2)));
    }
  };
  Helper::deep(M, 400);
  const GcStats &S = M.gcStats();
  EXPECT_GT(S.NumGC, 2u);
  EXPECT_GT(S.FramesReused, S.FramesScanned)
      << "deep stable prefix must be served from the cache";
}

//===----------------------------------------------------------------------===//
// Hybrid barrier: SSB until the flood heuristic trips, cards afterwards.
//===----------------------------------------------------------------------===//

TEST(HybridBarrierTest, FloodDegradesToCardsWithoutLosingPendingEntries) {
  MutatorConfig C;
  C.BudgetBytes = 512u << 10;
  C.Barrier = GenerationalCollector::BarrierKind::Hybrid;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, keyGc());

  // A tenured pointer array to flood stores into.
  F.set(1, M.allocPtrArray(siteGc(), 256));
  M.collect(false);
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));
  ASSERT_FALSE(GC.rememberedSet().inCardMode());
  uint64_t Threshold = GC.rememberedSet().floodThreshold();
  ASSERT_GT(Threshold, 0u);

  // A young child reachable ONLY through a pre-switch SSB entry: the switch
  // must replay it into a card mark or the child dies.
  F.set(2, consInt(M, siteGc(), 4242, slot(F, 3)));
  M.writeField(F.get(1), 7, F.get(2), /*IsPointerField=*/true);
  F.set(2, Value::null());

  // Peg-style flood: the same slot mutated far past the dirty-card
  // capacity of the whole tenured space.
  for (uint64_t I = 0; I <= Threshold; ++I)
    M.writeField(F.get(1), 100, Value::null(), /*IsPointerField=*/true);
  EXPECT_TRUE(GC.rememberedSet().inCardMode())
      << "flood heuristic never tripped";
  EXPECT_EQ(GC.rememberedSet().log().size(), 0u) << "pending SSB not drained";
  EXPECT_EQ(M.gcStats().HybridSwitches, 1u);
  EXPECT_EQ(M.gcStats().HybridSwitchEpoch, M.gcStats().NumGC + 1);

  M.collect(false);
  Value Kept = Mutator::getField(F.get(1), 7);
  ASSERT_FALSE(Kept.isNull()) << "replayed SSB entry lost at the switch";
  EXPECT_EQ(headInt(Kept), 4242);
  EXPECT_GT(M.gcStats().CardsScanned, 0u) << "post-switch minors scan cards";

  // The switch is sticky: further stores keep dirtying cards, not the SSB.
  M.writeField(F.get(1), 100, Value::null(), /*IsPointerField=*/true);
  EXPECT_EQ(GC.rememberedSet().log().size(), 0u);
  EXPECT_TRUE(GC.rememberedSet().inCardMode());
  EXPECT_EQ(M.gcStats().HybridSwitches, 1u);
}

TEST(HybridBarrierTest, FloodSwitchReleasesTheSlotLog) {
  // After the switch the slot log is never written again, so it must not
  // keep its flood-sized storage for the collector's lifetime.
  MutatorConfig C;
  C.BudgetBytes = 4u << 20;
  C.Barrier = GenerationalCollector::BarrierKind::Hybrid;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, keyGc());
  F.set(1, M.allocPtrArray(siteGc(), 256));
  M.collect(false);
  uint64_t Threshold = GC.rememberedSet().floodThreshold();
  ASSERT_GT(Threshold, StoreBuffer::ShrinkFloorEntries)
      << "the flood must outgrow the log's floor capacity";
  for (uint64_t I = 0; I <= Threshold; ++I)
    M.writeField(F.get(1), 100, Value::null(), /*IsPointerField=*/true);
  ASSERT_TRUE(GC.rememberedSet().inCardMode());
  for (int I = 0; I < 4; ++I)
    M.collect(false);
  EXPECT_LE(GC.rememberedSet().log().capacityEntries(),
            StoreBuffer::ShrinkFloorEntries);
}

TEST(HybridBarrierTest, QuietWorkloadStaysPreciseSsb) {
  // The same moderate mutation pattern under Hybrid and plain SSB: the
  // hybrid must never switch and must record exactly the same entries.
  auto run = [](GenerationalCollector::BarrierKind B) {
    MutatorConfig C;
    C.BudgetBytes = 1u << 20;
    C.Barrier = B;
    Mutator M(C);
    Frame F(M, keyGc());
    for (int Round = 0; Round < 50; ++Round) {
      for (int I = 0; I < 500; ++I)
        F.set(1, consInt(M, siteGc(), I, slot(F, 1)));
      M.writeField(F.get(1), 1, Value::null(), /*IsPointerField=*/true);
      if (Round % 10 == 0)
        F.set(1, Value::null());
    }
    auto &GC = static_cast<GenerationalCollector &>(M.collector());
    EXPECT_FALSE(GC.rememberedSet().inCardMode());
    EXPECT_EQ(M.gcStats().HybridSwitchEpoch, 0u);
    if (B == GenerationalCollector::BarrierKind::Hybrid) {
      // The card table + crossing map are maintained from construction so
      // promotions preceding a potential switch are already covered.
      EXPECT_GT(M.gcStats().CrossingMapUpdates, 0u);
      EXPECT_EQ(M.gcStats().CardsScanned, 0u)
          << "pre-switch hybrid must process roots through the SSB";
    }
    return GC.rememberedSet().log().totalRecorded();
  };
  uint64_t Ssb = run(GenerationalCollector::BarrierKind::SequentialStoreBuffer);
  uint64_t Hybrid = run(GenerationalCollector::BarrierKind::Hybrid);
  ASSERT_GT(Ssb, 0u);
  EXPECT_EQ(Hybrid, Ssb);
}

//===----------------------------------------------------------------------===//
// Barrier differential: every workload computes the same checksum and
// derives the same site profile and pretenure set under every write-barrier
// kind and every GcThreads setting.
//===----------------------------------------------------------------------===//

namespace {

constexpr double BarrierDiffScale = 0.1;

/// The deterministic outcome of one profiled workload run.
struct RunOutcome {
  uint64_t Checksum = 0;
  uint64_t ProfiledAllocBytes = 0;
  uint64_t ProfiledCopiedBytes = 0;
  std::vector<std::pair<uint32_t, bool>> PretenureSet; // (site, no-scan)
};

/// Counts collections whose event reports a hybrid log→cards switch.
struct SwitchCounter : GcObserver {
  unsigned Switched = 0;
  void onGcEnd(const GcEvent &E) override { Switched += E.HybridSwitched; }
};

RunOutcome profiledRun(size_t WIdx, GenerationalCollector::BarrierKind B,
                       unsigned Threads) {
  Workload &W = *allWorkloads()[WIdx];
  SwitchCounter Switches;
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 1u << 20;
  C.Barrier = B;
  C.GcThreads = Threads;
  C.EnableProfiling = true;
  C.Observer = &Switches;
  Mutator M(C);
  RunOutcome R;
  R.Checksum = W.run(M, BarrierDiffScale);
  if (B != GenerationalCollector::BarrierKind::Hybrid) {
    // Only the hybrid policy switches; CardMarking starts in card mode,
    // which is not a switch.
    EXPECT_EQ(M.gcStats().HybridSwitches, 0u) << W.name();
    EXPECT_EQ(M.gcStats().HybridSwitchEpoch, 0u) << W.name();
    EXPECT_EQ(Switches.Switched, 0u) << W.name();
  }
  const HeapProfiler *P = M.profiler();
  R.ProfiledAllocBytes = P->totalAllocBytes();
  R.ProfiledCopiedBytes = P->totalCopiedBytes();
  for (const PretenureDecision &D : P->derivePretenureSet())
    R.PretenureSet.emplace_back(D.SiteId, D.EliminateScan);
  return R;
}

const std::vector<RunOutcome> &serialSsbBaseline() {
  static const std::vector<RunOutcome> Baseline = [] {
    std::vector<RunOutcome> Out;
    for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx)
      Out.push_back(profiledRun(
          WIdx, GenerationalCollector::BarrierKind::SequentialStoreBuffer,
          1));
    return Out;
  }();
  return Baseline;
}

struct BarrierDiffCase {
  GenerationalCollector::BarrierKind Barrier;
  unsigned Threads;
  const char *Name;
};

class BarrierDifferential
    : public ::testing::TestWithParam<BarrierDiffCase> {};

} // namespace

TEST_P(BarrierDifferential, AllWorkloadsMatchSerialSsb) {
  const BarrierDiffCase &TC = GetParam();
  const std::vector<RunOutcome> &Baseline = serialSsbBaseline();
  ASSERT_EQ(Baseline.size(), allWorkloads().size());
  for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx) {
    Workload &W = *allWorkloads()[WIdx];
    ASSERT_EQ(Baseline[WIdx].Checksum, W.expected(BarrierDiffScale))
        << W.name() << ": baseline run is itself wrong";
    RunOutcome Got = profiledRun(WIdx, TC.Barrier, TC.Threads);
    EXPECT_EQ(Got.Checksum, Baseline[WIdx].Checksum)
        << W.name() << " under " << TC.Name;
    EXPECT_EQ(Got.ProfiledAllocBytes, Baseline[WIdx].ProfiledAllocBytes)
        << W.name() << " under " << TC.Name;
    EXPECT_EQ(Got.ProfiledCopiedBytes, Baseline[WIdx].ProfiledCopiedBytes)
        << W.name() << " under " << TC.Name;
    EXPECT_EQ(Got.PretenureSet, Baseline[WIdx].PretenureSet)
        << W.name() << " under " << TC.Name << ": pretenure set diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    BarriersByThreads, BarrierDifferential,
    ::testing::Values(
        BarrierDiffCase{
            GenerationalCollector::BarrierKind::SequentialStoreBuffer, 2,
            "ssb_t2"},
        BarrierDiffCase{
            GenerationalCollector::BarrierKind::SequentialStoreBuffer, 8,
            "ssb_t8"},
        BarrierDiffCase{
            GenerationalCollector::BarrierKind::FilteredStoreBuffer, 1,
            "filtered_t1"},
        BarrierDiffCase{
            GenerationalCollector::BarrierKind::FilteredStoreBuffer, 2,
            "filtered_t2"},
        BarrierDiffCase{
            GenerationalCollector::BarrierKind::FilteredStoreBuffer, 8,
            "filtered_t8"},
        BarrierDiffCase{GenerationalCollector::BarrierKind::CardMarking, 1,
                        "cards_t1"},
        BarrierDiffCase{GenerationalCollector::BarrierKind::CardMarking, 2,
                        "cards_t2"},
        BarrierDiffCase{GenerationalCollector::BarrierKind::CardMarking, 8,
                        "cards_t8"},
        BarrierDiffCase{GenerationalCollector::BarrierKind::Hybrid, 1,
                        "hybrid_t1"},
        BarrierDiffCase{GenerationalCollector::BarrierKind::Hybrid, 2,
                        "hybrid_t2"},
        BarrierDiffCase{GenerationalCollector::BarrierKind::Hybrid, 8,
                        "hybrid_t8"}),
    [](const ::testing::TestParamInfo<BarrierDiffCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// GcThreads invariance through the Mutator facade: a deterministic churn
// with barriered back-edges and explicit collections leaves the same live
// structure, copies the same bytes and objects, and records the same
// per-site profile at every thread count.
//===----------------------------------------------------------------------===//

namespace {

uint32_t siteFor(unsigned I) {
  static const uint32_t Base = [] {
    uint32_t First = AllocSiteRegistry::global().define("par.site0");
    for (int K = 1; K < 5; ++K)
      AllocSiteRegistry::global().define("par.site" + std::to_string(K));
    return First;
  }();
  return Base + (I % 5);
}

uint32_t rootsKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "par.roots", {Trace::pointer(), Trace::pointer(), Trace::pointer(),
                    Trace::pointer()}));
  return K;
}

/// Deterministic mutator workload: builds linked lists with shared tails
/// across four root slots, mutates old cells through the write barrier
/// (including cycle-creating back-edges), drops roots, and forces minor and
/// major collections along the way.
uint64_t mutate(Mutator &M) {
  Frame F(M, rootsKey());
  uint64_t Rng = 0x9E3779B97F4A7C15ULL;
  auto Rand = [&] {
    Rng ^= Rng << 13, Rng ^= Rng >> 7, Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < 6000; ++I) {
    unsigned R = 1 + Rand() % 4; // Frame slots are 1-based (0 is the key).
    // cons(I, F[R]) with a second pointer field sharing another root's list.
    Value Cell = M.allocRecord(siteFor(I), 3, 0b110);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(R));
    M.initField(Cell, 2, F.get(1 + Rand() % 4));
    F.set(R, Cell);
    if (I % 97 == 0) {
      // Barriered back-edge into an old cell: may create a cycle.
      Value Old = F.get(1 + R % 4);
      if (!Old.isNull())
        M.writeField(Old, 2, F.get(R), /*IsPointerField=*/true);
    }
    if (I % 211 == 0)
      F.set(1 + Rand() % 4, Value::null());
    if (I % 509 == 0)
      M.collect(/*Major=*/false);
    if (I % 1777 == 0)
      M.collect(/*Major=*/true);
  }
  M.collect(/*Major=*/true);

  // Address-independent hash over everything reachable from the frame.
  std::unordered_map<const Word *, uint64_t> Visited;
  uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&](uint64_t V) { Hash = (Hash ^ V) * 1099511628211ULL; };
  std::vector<Value> Stack;
  for (unsigned R = 1; R <= 4; ++R)
    Stack.push_back(F.get(R));
  while (!Stack.empty()) {
    Value V = Stack.back();
    Stack.pop_back();
    if (V.isNull()) {
      Mix(0x11);
      continue;
    }
    auto [It, Fresh] = Visited.emplace(V.asPtr(), Visited.size());
    Mix(It->second);
    if (!Fresh)
      continue;
    Mix(Mutator::getField(V, 0).bits());
    Stack.push_back(Mutator::getField(V, 1));
    Stack.push_back(Mutator::getField(V, 2));
  }
  return Hash;
}

struct ChurnOutcome {
  uint64_t Hash;
  uint64_t NumGC;
  uint64_t BytesCopied;
  uint64_t ObjectsCopied;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Sites;
};

ChurnOutcome runChurn(CollectorKind Kind, unsigned Threads,
                       unsigned PromoteAge) {
  // Configured so that only the workload's *explicit* collections trigger:
  // the tiny target-liveness ratios keep the resize policy from shrinking
  // spaces, so the same collections run at every thread count.
  MutatorConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.BudgetBytes = 16u << 20;
  Cfg.NurseryLimitBytes = 512u << 10;
  Cfg.SemispaceTargetLiveness = 1e-6; // live/r always clamps to the max:
  Cfg.TenuredTargetLiveness = 1e-6;   // spaces never shrink, no auto GCs.
  Cfg.GcThreads = Threads;
  Cfg.PromoteAgeThreshold = PromoteAge;
  Cfg.EnableProfiling = true;
  Cfg.VerifyLevel = 1;
  Mutator M(Cfg);
  ChurnOutcome R;
  R.Hash = mutate(M);
  R.NumGC = M.gcStats().NumGC;
  R.BytesCopied = M.gcStats().BytesCopied;
  R.ObjectsCopied = M.gcStats().ObjectsCopied;
  const HeapProfiler *P = M.profiler();
  for (uint32_t S = 0; S < P->numSites(); ++S) {
    const SiteStats &SS = P->site(S);
    R.Sites.emplace_back(SS.CopiedBytes, SS.SurvivedFirstCount,
                         SS.DeathCount);
  }
  return R;
}

class ParallelCollector : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(ParallelCollector, SemispaceMatchesSerial) {
  static const ChurnOutcome Serial =
      runChurn(CollectorKind::Semispace, 1, 1);
  ChurnOutcome R = runChurn(CollectorKind::Semispace, GetParam(), 1);
  EXPECT_EQ(R.Hash, Serial.Hash);
  ASSERT_EQ(R.NumGC, Serial.NumGC) << "collection cadence diverged";
  EXPECT_EQ(R.BytesCopied, Serial.BytesCopied);
  EXPECT_EQ(R.ObjectsCopied, Serial.ObjectsCopied);
  EXPECT_EQ(R.Sites, Serial.Sites);
}

TEST_P(ParallelCollector, GenerationalMatchesSerial) {
  static const ChurnOutcome Serial =
      runChurn(CollectorKind::Generational, 1, 1);
  ChurnOutcome R = runChurn(CollectorKind::Generational, GetParam(), 1);
  EXPECT_EQ(R.Hash, Serial.Hash);
  ASSERT_EQ(R.NumGC, Serial.NumGC) << "collection cadence diverged";
  EXPECT_EQ(R.BytesCopied, Serial.BytesCopied);
  EXPECT_EQ(R.ObjectsCopied, Serial.ObjectsCopied);
  EXPECT_EQ(R.Sites, Serial.Sites);
}

TEST_P(ParallelCollector, AgedTenuringStructureSurvives) {
  // Aged tenuring keeps survivors young across collections; the live
  // structure must be preserved exactly at every thread count.
  static const uint64_t SerialHash =
      runChurn(CollectorKind::Generational, 1, 3).Hash;
  EXPECT_EQ(runChurn(CollectorKind::Generational, GetParam(), 3).Hash,
            SerialHash);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelCollector,
                         ::testing::Values(2u, 8u));
