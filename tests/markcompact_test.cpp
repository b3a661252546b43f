//===- tests/markcompact_test.cpp - Region mark-compact major GC -----------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region-structured mark-compact major collector: RegionManager overlay
/// unit tests, behavioral smoke tests for the in-place and growth-fallback
/// paths, the 11-workload differential against the serial semispace-major
/// baseline across GcThreads 1/2/8, the schedule-invariance differential
/// against each engine's GcThreads = 1 run, the strictly-fewer-bytes-moved
/// claim, event-stream determinism, and VerifyLevel-3 / fault-injection
/// torture (this file is also linked into the NDEBUG resilience twin).
///
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "gc/MarkCompact.h"
#include "heap/RegionManager.h"
#include "observe/EventRecorder.h"
#include "observe/GcTelemetry.h"
#include "support/FaultInjector.h"
#include "workloads/MLLib.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

using MajorGcKind = GenerationalCollector::MajorGcKind;

uint32_t siteMc() {
  static const uint32_t S = AllocSiteRegistry::global().define("mctest.site");
  return S;
}

uint32_t keyMc() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "mctest.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// RegionManager overlay unit tests.
//===----------------------------------------------------------------------===//

TEST(RegionManagerTest, AttachSizesRegionSetToCapacity) {
  Space S;
  S.reserve(3 * RegionManager::RegionBytes + (16u << 10));
  RegionManager RM;
  RM.attach(S);
  ASSERT_TRUE(RM.boundTo(S));

  size_t CapWords = S.capacityBytes() / sizeof(Word);
  size_t Expect =
      (CapWords + RegionManager::RegionWords - 1) / RegionManager::RegionWords;
  ASSERT_EQ(RM.numRegions(), Expect);

  // Region extents tile the space exactly; only the tail may be short.
  size_t Sum = 0;
  for (size_t R = 0; R < RM.numRegions(); ++R) {
    size_t W = RM.regionCapacityWords(R);
    if (R + 1 < RM.numRegions()) {
      EXPECT_EQ(W, RegionManager::RegionWords);
    }
    EXPECT_EQ(RM.regionBegin(R), S.baseAddr() + R * RegionManager::RegionWords);
    EXPECT_EQ(RM.regionEnd(R), RM.regionBegin(R) + W);
    Sum += W;
  }
  EXPECT_EQ(Sum, CapWords);

  // Attribution is by address, region boundaries inclusive at the base.
  EXPECT_EQ(RM.regionOf(S.baseAddr()), 0u);
  EXPECT_EQ(RM.regionOf(S.baseAddr() + RegionManager::RegionWords), 1u);
  EXPECT_EQ(RM.regionOf(S.baseAddr() + RegionManager::RegionWords - 1), 0u);
}

TEST(RegionManagerTest, RebindAfterReReserveIsDetected) {
  Space S;
  S.reserve(2 * RegionManager::RegionBytes);
  RegionManager RM;
  RM.attach(S);
  ASSERT_TRUE(RM.boundTo(S));

  // Same space object, new reservation epoch: the overlay must know its
  // accounting is stale (this is the satellite-2 growth-fallback contract).
  S.release();
  S.reserve(4 * RegionManager::RegionBytes);
  EXPECT_FALSE(RM.boundTo(S));
  RM.attach(S);
  EXPECT_TRUE(RM.boundTo(S));
  EXPECT_EQ(RM.numRegions(),
            S.capacityBytes() / RegionManager::RegionBytes +
                (S.capacityBytes() % RegionManager::RegionBytes != 0));
}

TEST(RegionManagerTest, LivenessClassificationAndCandidates) {
  Space S;
  S.reserve(4 * RegionManager::RegionBytes);
  RegionManager RM;
  RM.attach(S);
  ASSERT_GE(RM.numRegions(), 4u);

  const Word *Base = S.baseAddr();
  size_t RW = RegionManager::RegionWords;
  // Region 0: dense (above the 0.75 default). Region 1: sparse. Region 2:
  // empty. Region 3: exactly at the threshold (>= compares dense).
  RM.addLive(Base + 10, (RW * 9) / 10);
  RM.addLive(Base + RW + 10, RW / 4);
  size_t Threshold = static_cast<size_t>(
      RegionManager::DefaultDenseFraction * static_cast<double>(RW));
  RM.addLive(Base + 3 * RW + 10, Threshold);

  size_t NumDense = RM.classify(RegionManager::DefaultDenseFraction);
  EXPECT_EQ(NumDense, 2u);
  EXPECT_TRUE(RM.isDense(0));
  EXPECT_FALSE(RM.isDense(1));
  EXPECT_FALSE(RM.isDense(2)) << "empty regions must always compact away";
  EXPECT_TRUE(RM.isDense(3));
  // Candidates = live but not dense: region 1 only (2 holds nothing).
  EXPECT_EQ(RM.numEvacuationCandidates(), 1u);

  // clearPlan keeps the binding but resets the accounting.
  RM.clearPlan();
  EXPECT_TRUE(RM.boundTo(S));
  EXPECT_EQ(RM.liveWords(0), 0u);
  EXPECT_EQ(RM.classify(RegionManager::DefaultDenseFraction), 0u);
  EXPECT_EQ(RM.numEvacuationCandidates(), 0u);
}

TEST(RegionManagerTest, WalkStartRecordsFirstHeaderOnly) {
  Space S;
  S.reserve(2 * RegionManager::RegionBytes);
  RegionManager RM;
  RM.attach(S);
  const Word *Base = S.baseAddr();
  EXPECT_EQ(RM.firstHeader(0), nullptr);
  RM.noteWalkStart(Base + 5);
  RM.noteWalkStart(Base + 9); // Later header in the same region: ignored.
  RM.noteWalkStart(Base + RegionManager::RegionWords + 3);
  EXPECT_EQ(RM.firstHeader(0), Base + 5);
  EXPECT_EQ(RM.firstHeader(1), Base + RegionManager::RegionWords + 3);
}

//===----------------------------------------------------------------------===//
// Incremental mark step: the deadline and its one-batch progress floor.
//===----------------------------------------------------------------------===//

TEST(MarkCompactTest, MarkStepPastDeadlineScansOneBatchThenDrains) {
  // N parents, each pointing at its own child: the seeded grey set (the
  // parents) spans several 64-object batches, and the drain must reach
  // the children through the parents.
  constexpr size_t N = 200;
  Space S;
  S.reserve(RegionManager::RegionBytes);
  RegionManager RM;
  RM.attach(S);
  std::vector<Word *> Objects;
  for (size_t I = 0; I < N; ++I) {
    Word *Child = S.allocate(header::make(ObjectKind::Record, 2), 0);
    Word *Parent = S.allocate(header::make(ObjectKind::Record, 2, 0b01), 0);
    ASSERT_NE(Child, nullptr);
    ASSERT_NE(Parent, nullptr);
    Child[0] = Child[1] = Parent[1] = 0;
    Parent[0] = reinterpret_cast<Word>(Child);
    Objects.push_back(Child);
    Objects.push_back(Parent);
  }

  MarkCompact::Config Cfg;
  Cfg.Tenured = &S;
  Cfg.Regions = &RM;
  MarkCompact M(Cfg);
  M.beginIncremental();
  for (size_t I = 1; I < Objects.size(); I += 2)
    M.markSeed(reinterpret_cast<Word>(Objects[I]));
  auto GreyCount = [&] {
    size_t Count = 0;
    M.forEachGrey([&](Word *) { ++Count; });
    return Count;
  };
  ASSERT_EQ(GreyCount(), N);

  // A deadline already past still scans one batch of 64. The grey stack is
  // LIFO, so each parent's child is scanned right after it: the batch
  // blackens 32 parents and their 32 children.
  uint64_t PastNs = GcTelemetry::nowNs();
  EXPECT_FALSE(M.markStep(PastNs)) << "returned done with grey work left";
  EXPECT_EQ(GreyCount(), N - 32);

  // Every further call advances by one batch until the set drains: 2N
  // scans take ceil(2N / 64) calls in all.
  size_t Calls = 1;
  while (!M.markStep(PastNs))
    ASSERT_LT(++Calls, 2 * N) << "markStep made no progress";
  EXPECT_EQ(Calls + 1, (2 * N + 63) / 64);
  EXPECT_EQ(GreyCount(), 0u);
  for (Word *P : Objects)
    EXPECT_TRUE(M.incrementalMarked(P));

  // The mark closes like a stock one: everything is live and contiguous,
  // so the plan keeps every byte in place.
  M.finishIncrementalMark();
  EXPECT_EQ(M.plannedTenuredBytes(), S.usedBytes());
  EXPECT_EQ(M.markedObjects(), 2 * N);
  EXPECT_EQ(M.bytesMoved(), 0u);
}

//===----------------------------------------------------------------------===//
// Behavioral smoke: the in-place compactor and the growth fallback.
//===----------------------------------------------------------------------===//

TEST(MarkCompactTest, InPlaceMajorPreservesLiveDataAndReclaims) {
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.VerifyLevel = 1;
  Mutator M(C);
  Frame F(M, keyMc());

  // The PIA pattern: promote garbage rounds, then one stable list.
  for (int Round = 0; Round < 20; ++Round) {
    F.set(1, Value::null());
    for (int I = 0; I < 2000; ++I)
      F.set(1, consInt(M, siteMc(), I, slot(F, 1)));
    M.collect(false); // Promote.
  }
  F.set(2, Value::null());
  for (int I = 0; I < 500; ++I)
    F.set(2, consInt(M, siteMc(), I, slot(F, 2)));
  F.set(1, Value::null());

  M.collect(true);
  EXPECT_GT(M.gcStats().NumMajorGC, 0u);
  EXPECT_EQ(mllib::length(F.get(2)), 500u);
  EXPECT_EQ(headInt(F.get(2)), 499);
  // Tenured garbage was actually reclaimed, not just marked.
  EXPECT_LT(M.collector().liveBytesAfterLastGC(), 128u << 10);

  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

TEST(MarkCompactTest, GrowthFallbackPreservesLiveData) {
  // A live set that cannot fit the initial tenured reservation: the
  // compactor must take the transient evacuating-growth path (and rebind
  // the region overlay to the grown space) without losing anything.
  MutatorConfig C;
  C.BudgetBytes = 16u << 20;
  C.NurseryLimitBytes = 64u << 10;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.VerifyLevel = 1;
  Mutator M(C);
  Frame F(M, keyMc());
  for (int I = 0; I < 60000; ++I) // ~1.9MB live, all reachable.
    F.set(1, consInt(M, siteMc(), I, slot(F, 1)));
  M.collect(true);
  EXPECT_EQ(mllib::length(F.get(1)), 60000u);
  EXPECT_EQ(sumInt(F.get(1)), 60000ll * 59999 / 2);
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

TEST(MarkCompactTest, AgedTenuringMatchesSemispaceMajorContract) {
  // Both major engines promote every young survivor regardless of age (the
  // semispace major sets no DestYoung); minors alone respect the threshold.
  // The compactor must reproduce both halves of that contract.
  for (MajorGcKind K : {MajorGcKind::Semispace, MajorGcKind::MarkCompact}) {
    MutatorConfig C;
    C.BudgetBytes = 1u << 20;
    C.MajorGc = K;
    C.PromoteAgeThreshold = 3;
    C.VerifyLevel = 1;
    Mutator M(C);
    Frame F(M, keyMc());
    F.set(1, consInt(M, siteMc(), 7, slot(F, 2)));
    auto &GC = static_cast<GenerationalCollector &>(M.collector());

    M.collect(false);
    EXPECT_TRUE(GC.inNursery(F.get(1).asPtr()))
        << "minor at age 1 must keep the object young";
    M.collect(true);
    EXPECT_TRUE(GC.inTenured(F.get(1).asPtr()))
        << "a major promotes all young survivors, whatever their age";
    EXPECT_EQ(headInt(F.get(1)), 7);
  }
}

TEST(MarkCompactTest, LargeObjectsSurviveAndDieAcrossCompaction) {
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.VerifyLevel = 1;
  Mutator M(C);
  Frame F(M, keyMc());

  F.set(1, M.allocPtrArray(siteMc(), 2048)); // LOS-resident.
  F.set(2, consInt(M, siteMc(), 123, slot(F, 3)));
  M.writeField(F.get(1), 17, F.get(2), /*IsPointerField=*/true);
  F.set(2, Value::null());
  M.collect(true); // LOS object marked through, child kept via its slot.
  Value Kept = Mutator::getField(F.get(1), 17);
  ASSERT_FALSE(Kept.isNull());
  EXPECT_EQ(headInt(Kept), 123);

  F.set(1, Value::null()); // Now LOS garbage: the mark-sweep must take it.
  uint64_t LiveBefore = M.collector().liveBytesAfterLastGC();
  M.collect(true);
  EXPECT_LT(M.collector().liveBytesAfterLastGC(), LiveBefore);
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

TEST(MarkCompactTest, SlidCrossingMetadataKeepsOldToYoungEdge) {
  // Crossing-map rebuild after a slide: a tenured parent preceded by a
  // region of tenured garbage slides down during compaction; a subsequent
  // old->young store must still be findable through the rebuilt card and
  // crossing metadata at the parent's NEW address.
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.VerifyLevel = 2; // Pre-minor remembered-set completeness audit.
  Mutator M(C);
  Frame F(M, keyMc());
  auto &GC = static_cast<GenerationalCollector &>(M.collector());

  // Tenured garbage ahead of the parent, then drop the garbage.
  for (int I = 0; I < 8000; ++I)
    F.set(1, consInt(M, siteMc(), I, slot(F, 1)));
  F.set(2, M.allocRecord(siteMc(), 2, 0b11));
  M.collect(false); // Promote everything.
  ASSERT_TRUE(GC.inTenured(F.get(2).asPtr()));
  F.set(1, Value::null());
  M.collect(true); // Compaction slides the parent toward the base.
  ASSERT_TRUE(GC.inTenured(F.get(2).asPtr()));

  // The only path to the child is the post-slide old->young edge.
  F.set(3, consInt(M, siteMc(), 777, slot(F, 1)));
  M.writeField(F.get(2), 0, F.get(3), /*IsPointerField=*/true);
  F.set(3, Value::null());
  M.collect(false);
  Value Child = Mutator::getField(F.get(2), 0);
  ASSERT_FALSE(Child.isNull()) << "old->young edge lost after the slide";
  EXPECT_EQ(headInt(Child), 777);
}

//===----------------------------------------------------------------------===//
// The bytes-moved claim: against a retained stable prefix, the compactor
// moves strictly less than the evacuating semispace major, which re-copies
// every live tenured byte at every major.
//===----------------------------------------------------------------------===//

namespace {

struct MovedOutcome {
  uint64_t Checksum = 0;
  uint64_t MajorBytesMoved = 0;
  uint64_t NumMajorGC = 0;
  uint64_t MaxFootprint = 0;
};

constexpr double McDiffScale = 0.1;

MovedOutcome movedRun(size_t WIdx, MajorGcKind K) {
  Workload &W = *allWorkloads()[WIdx];
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = K;
  Mutator M(C);
  MovedOutcome R;
  {
    // A stable tenured prefix retained across the whole workload: the
    // population an evacuating major re-copies and a compactor leaves put.
    Frame F(M, keyMc());
    for (int I = 0; I < 3000; ++I)
      F.set(1, consInt(M, siteMc(), I, slot(F, 1)));
    M.collect(true); // Tenure the prefix.
    R.Checksum = W.run(M, McDiffScale);
    M.collect(true); // ">= 2 majors" holds even for quiet workloads.
    EXPECT_EQ(mllib::length(F.get(1)), 3000u) << W.name();
  }
  R.MajorBytesMoved = M.gcStats().MajorBytesMoved;
  R.NumMajorGC = M.gcStats().NumMajorGC;
  R.MaxFootprint = M.gcStats().MaxFootprintBytes;
  return R;
}

} // namespace

TEST(MarkCompactTest, MovesStrictlyFewerBytesThanSemispaceOnAllWorkloads) {
  for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx) {
    Workload &W = *allWorkloads()[WIdx];
    MovedOutcome SS = movedRun(WIdx, MajorGcKind::Semispace);
    MovedOutcome MC = movedRun(WIdx, MajorGcKind::MarkCompact);
    EXPECT_EQ(SS.Checksum, W.expected(McDiffScale)) << W.name();
    EXPECT_EQ(MC.Checksum, SS.Checksum) << W.name();
    ASSERT_GE(SS.NumMajorGC, 2u) << W.name();
    ASSERT_GE(MC.NumMajorGC, 2u) << W.name();
    EXPECT_LT(MC.MajorBytesMoved, SS.MajorBytesMoved)
        << W.name() << ": the compactor must move strictly fewer bytes";
    EXPECT_GT(MC.MajorBytesMoved, 0u)
        << W.name() << ": promotions during a major still count as moved";
  }
}

//===----------------------------------------------------------------------===//
// Differential: every workload computes the same checksum and derives the
// same site profile and pretenure set under both major-GC engines and every
// GcThreads setting (the gc_test.cpp barrier differential, rotated onto the
// MajorGc axis).
//===----------------------------------------------------------------------===//

namespace {

struct McRunOutcome {
  uint64_t Checksum = 0;
  uint64_t ProfiledAllocBytes = 0;
  uint64_t ProfiledCopiedBytes = 0;
  std::vector<std::pair<uint32_t, bool>> PretenureSet; // (site, no-scan)
  // The collection schedule and its cost under the k*Min budget.
  uint64_t NumGC = 0;
  uint64_t NumMajorGC = 0;
  uint64_t BytesCopied = 0;
  uint64_t MaxFootprintBytes = 0;
};

McRunOutcome mcProfiledRun(size_t WIdx, MajorGcKind K, unsigned Threads) {
  Workload &W = *allWorkloads()[WIdx];
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = K;
  C.GcThreads = Threads;
  C.EnableProfiling = true;
  Mutator M(C);
  McRunOutcome R;
  R.Checksum = W.run(M, McDiffScale);
  const HeapProfiler *P = M.profiler();
  R.ProfiledAllocBytes = P->totalAllocBytes();
  R.ProfiledCopiedBytes = P->totalCopiedBytes();
  for (const PretenureDecision &D : P->derivePretenureSet())
    R.PretenureSet.emplace_back(D.SiteId, D.EliminateScan);
  const GcStats &S = M.gcStats();
  R.NumGC = S.NumGC;
  R.NumMajorGC = S.NumMajorGC;
  R.BytesCopied = S.BytesCopied;
  R.MaxFootprintBytes = S.MaxFootprintBytes;
  return R;
}

/// Every workload's GcThreads = 1 run under major engine \p K.
const std::vector<McRunOutcome> &serialBaseline(MajorGcKind K) {
  auto Runs = [](MajorGcKind K) {
    std::vector<McRunOutcome> Out;
    for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx)
      Out.push_back(mcProfiledRun(WIdx, K, 1));
    return Out;
  };
  static const std::vector<McRunOutcome> Semispace =
      Runs(MajorGcKind::Semispace);
  if (K == MajorGcKind::Semispace)
    return Semispace;
  static const std::vector<McRunOutcome> MarkCompact =
      Runs(MajorGcKind::MarkCompact);
  return MarkCompact;
}

struct MajorDiffCase {
  MajorGcKind Major;
  unsigned Threads;
  const char *Name;
};

class MajorGcDifferential
    : public ::testing::TestWithParam<MajorDiffCase> {};

} // namespace

TEST_P(MajorGcDifferential, AllWorkloadsMatchSerialSemispaceMajor) {
  const MajorDiffCase &TC = GetParam();
  const std::vector<McRunOutcome> &Baseline =
      serialBaseline(MajorGcKind::Semispace);
  ASSERT_EQ(Baseline.size(), allWorkloads().size());
  for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx) {
    Workload &W = *allWorkloads()[WIdx];
    ASSERT_EQ(Baseline[WIdx].Checksum, W.expected(McDiffScale))
        << W.name() << ": baseline run is itself wrong";
    McRunOutcome Got = mcProfiledRun(WIdx, TC.Major, TC.Threads);
    EXPECT_EQ(Got.Checksum, Baseline[WIdx].Checksum)
        << W.name() << " under " << TC.Name;
    EXPECT_EQ(Got.ProfiledAllocBytes, Baseline[WIdx].ProfiledAllocBytes)
        << W.name() << " under " << TC.Name;
    // Copied bytes are engine-dependent (the compactor's whole point is to
    // copy less), so unlike the barrier differential they are never compared
    // across the MajorGc axis — only the profile DERIVATIONS must agree.
    EXPECT_EQ(Got.PretenureSet, Baseline[WIdx].PretenureSet)
        << W.name() << " under " << TC.Name << ": pretenure set diverged";
  }
}

// Schedule invariance: GcThreads changes who runs the mark, fixup and card
// sweep, never what the collector decides. Against the same engine's
// serial run, every workload collects exactly as often, copies exactly as
// much and peaks at exactly the same footprint, so a GcThreads > 1 run
// stays inside the k*Min budget its serial run was measured under.
TEST_P(MajorGcDifferential, ScheduleMatchesSameEngineSerialRun) {
  const MajorDiffCase &TC = GetParam();
  const std::vector<McRunOutcome> &Serial = serialBaseline(TC.Major);
  for (size_t WIdx = 0; WIdx < allWorkloads().size(); ++WIdx) {
    const char *Name = allWorkloads()[WIdx]->name();
    McRunOutcome Got = mcProfiledRun(WIdx, TC.Major, TC.Threads);
    EXPECT_EQ(Got.NumGC, Serial[WIdx].NumGC) << Name << " under " << TC.Name;
    EXPECT_EQ(Got.NumMajorGC, Serial[WIdx].NumMajorGC)
        << Name << " under " << TC.Name;
    EXPECT_EQ(Got.BytesCopied, Serial[WIdx].BytesCopied)
        << Name << " under " << TC.Name;
    EXPECT_EQ(Got.MaxFootprintBytes, Serial[WIdx].MaxFootprintBytes)
        << Name << " under " << TC.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MajorsByThreads, MajorGcDifferential,
    ::testing::Values(
        MajorDiffCase{MajorGcKind::Semispace, 2, "semispace_t2"},
        MajorDiffCase{MajorGcKind::Semispace, 8, "semispace_t8"},
        MajorDiffCase{MajorGcKind::MarkCompact, 1, "markcompact_t1"},
        MajorDiffCase{MajorGcKind::MarkCompact, 2, "markcompact_t2"},
        MajorDiffCase{MajorGcKind::MarkCompact, 8, "markcompact_t8"}),
    [](const ::testing::TestParamInfo<MajorDiffCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Event-stream determinism: the deterministic GcEvent slice is bit-identical
// across GcThreads in mark-compact mode (observe_test.cpp's parallel
// determinism contract, extended to the new engine).
//===----------------------------------------------------------------------===//

namespace {

/// The deterministic event slice (mirrors observe_test.cpp's EventKey).
using McEventKey =
    std::tuple<uint64_t, int, int, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t, uint64_t, bool, uint64_t,
               uint64_t, uint64_t>;

void mcChurn(Mutator &M) {
  Frame F(M, keyMc());
  uint64_t Rng = 0x9E3779B97F4A7C15ULL;
  auto Rand = [&] {
    Rng ^= Rng << 13, Rng ^= Rng >> 7, Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < 5000; ++I) {
    unsigned R = 1 + Rand() % 2;
    F.set(R, consInt(M, siteMc(), static_cast<int64_t>(I), slot(F, R)));
    if (I % 97 == 0 && !F.get(1).isNull())
      M.writeField(F.get(1), 1, F.get(2), /*IsPointerField=*/true);
    if (I % 211 == 0)
      F.set(1 + Rand() % 2, Value::null());
    if (I % 509 == 0)
      M.collect(/*Major=*/false);
    if (I % 1777 == 0)
      M.collect(/*Major=*/true);
  }
  M.collect(/*Major=*/true);
}

std::vector<McEventKey> mcEventStream(unsigned Threads) {
  EventRecorder Rec;
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 16u << 20;
  Cfg.NurseryLimitBytes = 512u << 10;
  // Explicit collections only: resize targets far below live, so spaces
  // never shrink into an allocation-triggered collection.
  Cfg.TenuredTargetLiveness = 1e-6;
  Cfg.MajorGc = MajorGcKind::MarkCompact;
  Cfg.GcThreads = Threads;
  Cfg.Observer = &Rec;
  Mutator M(Cfg);
  mcChurn(M);
  EXPECT_EQ(Rec.dropped(), 0u);
  std::vector<McEventKey> Keys;
  for (size_t I = 0; I < Rec.size(); ++I) {
    const GcEvent &E = Rec.event(I);
    Keys.emplace_back(E.Seq, static_cast<int>(E.Gen),
                      static_cast<int>(E.Trigger), E.BytesCopied,
                      E.ObjectsCopied, E.FramesAtGC, E.FramesScanned,
                      E.FramesReused, E.SsbEntriesProcessed, E.BytesPretenured,
                      E.CrossingMapUpdates, E.HybridSwitched, E.BytesPromoted,
                      E.DirtyCards, E.CardsScanned);
  }
  return Keys;
}

} // namespace

TEST(MarkCompactTest, EventStreamDeterministicAcrossThreads) {
  std::vector<McEventKey> Serial = mcEventStream(1);
  ASSERT_GT(Serial.size(), 3u);
  EXPECT_EQ(mcEventStream(2), Serial);
  EXPECT_EQ(mcEventStream(8), Serial);
}

TEST(MarkCompactTest, MajorEventsCarryRegionCensus) {
  EventRecorder Rec;
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.Observer = &Rec;
  Mutator M(C);
  mcChurn(M);
  ASSERT_EQ(Rec.dropped(), 0u);
  uint64_t Majors = 0;
  for (size_t I = 0; I < Rec.size(); ++I) {
    const GcEvent &E = Rec.event(I);
    if (E.Gen != GcGeneration::Major)
      continue;
    ++Majors;
    EXPECT_GT(E.RegionsTotal, 0u) << "major event " << E.Seq;
    EXPECT_LE(E.RegionsDense + E.RegionsEvacuated, E.RegionsTotal)
        << "major event " << E.Seq;
    EXPECT_LE(E.BytesMoved, E.BytesCopied)
        << "moved bytes exceed marked-live in event " << E.Seq;
  }
  EXPECT_GT(Majors, 0u);
}

//===----------------------------------------------------------------------===//
// Torture: VerifyLevel 3 audits and injected worker faults. These also run
// in the NDEBUG resilience twin, proving the post-compact heap walks and the
// serial mark recovery survive assert-stripped builds.
//===----------------------------------------------------------------------===//

TEST(MarkCompactTortureTest, VerifyLevel3SurvivesChurn) {
  MutatorConfig C;
  C.BudgetBytes = 1u << 20;
  C.MajorGc = MajorGcKind::MarkCompact;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.VerifyLevel = 3; // Post-GC walks + poisoning with integrity checks.
  C.Name = "mc.verify3";
  Mutator M(C);
  mcChurn(M);
  std::string Err;
  EXPECT_TRUE(M.verifyHeap(Err)) << Err;
}

TEST(MarkCompactTortureTest, ParallelMarkRecoversFromWorkerFaults) {
  FaultInjector::global().reset();
  FaultInjector::global().arm(FaultPoint::WorkerThrow, 3,
                              FaultInjector::Forever);
  {
    MutatorConfig C;
    C.BudgetBytes = 1u << 20;
    C.MajorGc = MajorGcKind::MarkCompact;
    C.GcThreads = 4;
    C.VerifyLevel = 1;
    C.Name = "mc.workerthrow";
    Mutator M(C);
    Frame F(M, keyMc());
    for (int Round = 0; Round < 10; ++Round) {
      F.set(1, Value::null());
      for (int I = 0; I < 3000; ++I)
        F.set(1, consInt(M, siteMc(), I, slot(F, 1)));
      M.collect(Round % 2 == 0);
    }
    EXPECT_EQ(mllib::length(F.get(1)), 3000u);
    EXPECT_EQ(headInt(F.get(1)), 2999);
    // Faults fired in the parallel mark; every major that faulted must
    // have recovered serially.
    const GcStats &S = M.gcStats();
    EXPECT_GT(S.MarkWorkerFaults, 0u);
    EXPECT_EQ(S.MarkSerialRecoveries > 0, S.MarkWorkerFaults > 0);
    std::string Err;
    EXPECT_TRUE(M.verifyHeap(Err)) << Err;
  }
  FaultInjector::global().reset();
}
