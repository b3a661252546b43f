//===- tests/observe_test.cpp - Telemetry-plane tests ---------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry plane's invariants, bottom up:
///
///  * Timer misuse is tolerated-and-counted in every build mode (this file
///    is also compiled into the NDEBUG twin binary): nested starts keep the
///    outer region, unmatched stops are no-ops, seconds() reads live.
///  * PauseHistogram bucket math, percentile estimates and merging.
///  * StoreBuffer's shrink policy bounds retention after an SSB flood.
///  * Per-collection GcEvents: phase times fit inside the pause, histogram
///    counts sum to NumGC, triggers classify correctly, and the
///    deterministic event fields are identical across GcThreads — the
///    telemetry twin of the parallel-evacuator determinism suite.
///  * The chrome://tracing exporter emits valid JSON with per-worker
///    tracks, and the recorder's ring stays bounded.
///
//===----------------------------------------------------------------------===//

#include "observe/EventRecorder.h"
#include "observe/GcTelemetry.h"
#include "observe/PauseHistogram.h"
#include "observe/TraceExporter.h"

#include "heap/StoreBuffer.h"
#include "runtime/Mutator.h"
#include "support/FaultInjector.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace tilgc;

namespace {

//===----------------------------------------------------------------------===//
// Timer misuse discipline (support/Timer.h).
//===----------------------------------------------------------------------===//

void spinFor(double Seconds) {
  Timer T;
  T.start();
  while (T.seconds() < Seconds) {
  }
}

TEST(TimerMisuse, NestedStartPreservesOuterRegion) {
  Timer T;
  T.start();
  spinFor(2e-4);
  T.start(); // Misuse: must NOT restart the region.
  EXPECT_EQ(T.misuses(), 1u);
  EXPECT_EQ(T.depth(), 2u);
  T.stop(); // Inner stop: unwinds the nest, accumulates nothing yet.
  EXPECT_TRUE(T.isRunning());
  T.stop();
  EXPECT_FALSE(T.isRunning());
  // The accumulated region spans the outer start, so it contains the spin.
  EXPECT_GE(T.seconds(), 2e-4);
  EXPECT_EQ(T.misuses(), 1u);
}

TEST(TimerMisuse, StopAtZeroIsCountedNoOp) {
  Timer T;
  T.stop();
  T.stop();
  EXPECT_EQ(T.misuses(), 2u);
  EXPECT_EQ(T.seconds(), 0.0);
  EXPECT_FALSE(T.isRunning());
  // The timer still works normally afterwards.
  T.start();
  T.stop();
  EXPECT_EQ(T.misuses(), 2u);
}

TEST(TimerMisuse, SecondsReadsLiveWhileRunning) {
  Timer T;
  T.start();
  spinFor(2e-4);
  double Mid = T.seconds(); // Old behavior returned a stale 0 here.
  EXPECT_GE(Mid, 2e-4);
  T.stop();
  EXPECT_GE(T.seconds(), Mid);
}

TEST(TimerMisuse, ResetWhileRunningCountedAndRestarts) {
  Timer T;
  T.start();
  spinFor(2e-4);
  T.reset();
  EXPECT_EQ(T.misuses(), 1u);
  EXPECT_TRUE(T.isRunning()); // Depth preserved; region restarted at now.
  T.stop();
  EXPECT_LT(T.seconds(), 2e-4);
}

//===----------------------------------------------------------------------===//
// PauseHistogram.
//===----------------------------------------------------------------------===//

TEST(PauseHistogramTest, BucketEdges) {
  EXPECT_EQ(PauseHistogram::bucketFor(0), 0u);
  EXPECT_EQ(PauseHistogram::bucketFor(1), 1u);
  EXPECT_EQ(PauseHistogram::bucketFor(2), 1u);
  EXPECT_EQ(PauseHistogram::bucketFor(3), 1u);
  EXPECT_EQ(PauseHistogram::bucketFor(4), 2u);
  EXPECT_EQ(PauseHistogram::bucketFor(1023), 9u);
  EXPECT_EQ(PauseHistogram::bucketFor(1024), 10u);
  EXPECT_EQ(PauseHistogram::bucketFor(~0ull), 63u);
  // Every value maps to a bucket whose inclusive upper edge contains it.
  for (uint64_t V : {0ull, 1ull, 7ull, 4096ull, 123456789ull, ~0ull})
    EXPECT_GE(PauseHistogram::upperEdgeNs(PauseHistogram::bucketFor(V)), V);
}

TEST(PauseHistogramTest, PercentilesAndExtremes) {
  PauseHistogram H;
  EXPECT_EQ(H.p99Ns(), 0u);
  // 99 fast pauses and one slow outlier.
  for (int I = 0; I < 99; ++I)
    H.record(1000);
  H.record(1u << 20);
  EXPECT_EQ(H.count(), 100u);
  EXPECT_EQ(H.minNs(), 1000u);
  EXPECT_EQ(H.maxNs(), 1u << 20);
  // p50 lands in the 1000ns bucket: the estimate is its upper edge, which
  // is within the bucket's 2x resolution of the true value.
  EXPECT_GE(H.p50Ns(), 1000u);
  EXPECT_LT(H.p50Ns(), 2048u);
  // p99 is the 99th sample (still fast); p100 via percentileNs hits max.
  EXPECT_LT(H.p99Ns(), 2048u);
  EXPECT_EQ(H.percentileNs(1.0), 1u << 20);
  EXPECT_EQ(H.meanNs(), (99u * 1000u + (1u << 20)) / 100u);
}

TEST(PauseHistogramTest, MergeCombinesCountsAndExtremes) {
  PauseHistogram A, B;
  A.record(100);
  A.record(200);
  B.record(50);
  B.record(1u << 30);
  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.minNs(), 50u);
  EXPECT_EQ(A.maxNs(), 1u << 30);
  EXPECT_EQ(A.sumNs(), 100u + 200u + 50u + (1u << 30));
}

TEST(PauseHistogramTest, RankEdgesReportExactExtremes) {
  // Regression: percentileNs used to widen the rank-1 and rank-Count
  // samples to their bucket's inclusive upper edge, so p50 of {512, 2048}
  // came back 1023 and p100 came back 4095 — a bench comparing "p99 <=
  // budget" would then fail on runs that were actually inside budget.
  PauseHistogram H;
  H.record(512);
  H.record(2048);
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.p50Ns(), 512u);                // rank 1 == tracked min, exact
  EXPECT_EQ(H.p99Ns(), 2048u);               // rank Count == tracked max
  EXPECT_EQ(H.percentileNs(1.0), 2048u);
  // The common bench shape — one major ran — must report the sample
  // itself at every quantile, not its bucket edge.
  PauseHistogram One;
  One.record(777777);
  EXPECT_EQ(One.p50Ns(), 777777u);
  EXPECT_EQ(One.p90Ns(), 777777u);
  EXPECT_EQ(One.p99Ns(), 777777u);
  // Interior ranks still estimate via bucket edges (2x resolution).
  PauseHistogram M;
  for (int I = 0; I < 10; ++I)
    M.record(1000);
  M.record(5000);
  M.record(900000);
  EXPECT_GE(M.p50Ns(), 1000u);
  EXPECT_LT(M.p50Ns(), 2048u);
  EXPECT_EQ(M.percentileNs(1.0), 900000u);
}

//===----------------------------------------------------------------------===//
// StoreBuffer shrink policy.
//===----------------------------------------------------------------------===//

TEST(StoreBufferShrink, RetentionDecaysAfterFlood) {
  StoreBuffer SSB;
  Word Dummy = 0;
  // A Peg-style flood pins a large backing capacity...
  for (int I = 0; I < 200000; ++I)
    SSB.record(&Dummy);
  SSB.clear();
  size_t FloodCap = SSB.capacityEntries();
  ASSERT_GE(FloodCap, 200000u);

  // ...then quiet epochs (a handful of entries per collection). After
  // ShrinkAfterClears consecutive low-fill clears, one halving step.
  for (unsigned C = 0; C < StoreBuffer::ShrinkAfterClears; ++C) {
    EXPECT_EQ(SSB.capacityEntries(), FloodCap) << "shrank too early";
    for (int I = 0; I < 8; ++I)
      SSB.record(&Dummy);
    SSB.clear();
  }
  EXPECT_EQ(SSB.shrinks(), 1u);
  EXPECT_LE(SSB.capacityEntries(), FloodCap / 2 + 1);

  // Kept-quiet buffers decay geometrically to the floor and stop there.
  for (int Round = 0; Round < 200; ++Round)
    SSB.clear();
  EXPECT_GE(SSB.capacityEntries(), StoreBuffer::ShrinkFloorEntries / 2);
  EXPECT_LE(SSB.capacityEntries(), StoreBuffer::ShrinkFloorEntries * 2);
  uint64_t Shrinks = SSB.shrinks();
  for (int Round = 0; Round < 50; ++Round)
    SSB.clear();
  EXPECT_EQ(SSB.shrinks(), Shrinks) << "shrank below the floor";

  // One refill resets the streak: no shrink on the next few clears.
  for (int I = 0; I < 300000; ++I)
    SSB.record(&Dummy);
  SSB.clear();
  size_t Cap = SSB.capacityEntries();
  SSB.clear();
  EXPECT_EQ(SSB.capacityEntries(), Cap);
}

TEST(StoreBufferShrink, HighFillNeverShrinks) {
  StoreBuffer SSB;
  Word Dummy = 0;
  for (int I = 0; I < 100000; ++I)
    SSB.record(&Dummy);
  SSB.clear();
  size_t Cap = SSB.capacityEntries();
  // Refilling to >= 25% every epoch keeps the capacity pinned.
  for (int Round = 0; Round < 64; ++Round) {
    for (size_t I = 0; I < Cap / 2; ++I)
      SSB.record(&Dummy);
    SSB.clear();
  }
  EXPECT_EQ(SSB.capacityEntries(), Cap);
  EXPECT_EQ(SSB.shrinks(), 0u);
}

//===----------------------------------------------------------------------===//
// GcTelemetry unit behavior.
//===----------------------------------------------------------------------===//

TEST(GcTelemetryUnit, DisarmedCollectionsStillFeedHistograms) {
  GcTelemetry Tel;
  EXPECT_FALSE(Tel.armed());
  Tel.beginCollection(GcGeneration::Minor, GcTrigger::Explicit, 1);
  EXPECT_EQ(Tel.currentEvent(), nullptr); // Event plane is off.
  Tel.endCollection();
  EXPECT_EQ(Tel.histogram(GcGeneration::Minor).count(), 1u);
  EXPECT_EQ(Tel.histogram(GcGeneration::Major).count(), 0u);
}

TEST(GcTelemetryUnit, ArmedEventCarriesPhasesWithinPause) {
  GcTelemetry Tel;
  EventRecorder Rec;
  Tel.addObserver(&Rec);
  ASSERT_TRUE(Tel.armed());

  Tel.beginCollection(GcGeneration::Major, GcTrigger::SpaceFull, 7);
  ASSERT_NE(Tel.currentEvent(), nullptr);
  {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::StackScan);
    spinFor(1e-4);
  }
  {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Copy);
    spinFor(1e-4);
  }
  // Re-entering a phase accumulates rather than overwrites.
  {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Copy);
    spinFor(1e-4);
  }
  Tel.endCollection();

  ASSERT_EQ(Rec.size(), 1u);
  const GcEvent &E = Rec.event(0);
  EXPECT_EQ(E.Seq, 7u);
  EXPECT_EQ(E.Gen, GcGeneration::Major);
  EXPECT_EQ(E.Trigger, GcTrigger::SpaceFull);
  EXPECT_GT(E.PauseNs, 0u);
  // Each phase holds at least its own spins (same clock). Comparing two
  // phases instead would let a preempted StackScan outgrow Copy.
  EXPECT_GE(E.PhaseDurNs[unsigned(GcPhase::StackScan)], 100000u);
  EXPECT_GE(E.PhaseDurNs[unsigned(GcPhase::Copy)], 200000u);
  EXPECT_LE(E.phaseTotalNs(), E.PauseNs);
  // Phase scopes outside a collection are no-ops, not corruption.
  {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Resize);
  }
  EXPECT_EQ(Rec.size(), 1u);
}

TEST(EventRecorderTest, RingIsBoundedOldestFirst) {
  EventRecorder Rec(4);
  GcTelemetry Tel;
  Tel.addObserver(&Rec);
  for (uint64_t S = 1; S <= 6; ++S) {
    Tel.beginCollection(GcGeneration::Minor, GcTrigger::Explicit, S);
    Tel.endCollection();
  }
  EXPECT_EQ(Rec.size(), 4u);
  EXPECT_EQ(Rec.dropped(), 2u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Rec.event(I).Seq, 3 + I) << "ring order broken at " << I;
}

//===----------------------------------------------------------------------===//
// Collector-level invariants through the Mutator facade.
//===----------------------------------------------------------------------===//

uint32_t obsSite(unsigned I) {
  static const uint32_t Base = [] {
    uint32_t First = AllocSiteRegistry::global().define("obs.site0");
    for (int K = 1; K < 4; ++K)
      AllocSiteRegistry::global().define("obs.site" + std::to_string(K));
    return First;
  }();
  return Base + (I % 4);
}

uint32_t obsRootsKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "obs.roots", {Trace::pointer(), Trace::pointer(), Trace::pointer(),
                    Trace::pointer()}));
  return K;
}

/// Deterministic churn: linked lists across four roots, barriered
/// back-edges, periodic explicit minor/major collections.
void churn(Mutator &M, unsigned Iters = 5000) {
  Frame F(M, obsRootsKey());
  uint64_t Rng = 0x9E3779B97F4A7C15ULL;
  auto Rand = [&] {
    Rng ^= Rng << 13, Rng ^= Rng >> 7, Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < Iters; ++I) {
    unsigned R = 1 + Rand() % 4;
    Value Cell = M.allocRecord(obsSite(I), 3, 0b110);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(R));
    M.initField(Cell, 2, F.get(1 + Rand() % 4));
    F.set(R, Cell);
    if (I % 97 == 0) {
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
}

/// Explicit-collections-only config (see parallel_evacuator_test.cpp: pad
/// waste must not shift the collection cadence across thread counts).
MutatorConfig explicitOnlyConfig(CollectorKind Kind, unsigned Threads) {
  MutatorConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.BudgetBytes = 16u << 20;
  Cfg.NurseryLimitBytes = 512u << 10;
  Cfg.SemispaceTargetLiveness = 1e-6;
  Cfg.TenuredTargetLiveness = 1e-6;
  Cfg.GcThreads = Threads;
  return Cfg;
}

TEST(ObserveInvariants, HistogramCountsSumToNumGC) {
  for (CollectorKind Kind :
       {CollectorKind::Generational, CollectorKind::Semispace}) {
    MutatorConfig Cfg;
    Cfg.Kind = Kind;
    Cfg.BudgetBytes = 4u << 20;
    Mutator M(Cfg);
    churn(M);
    const GcStats &S = M.gcStats();
    ASSERT_GT(S.NumGC, 0u);
    const GcTelemetry &Tel = M.telemetry();
    EXPECT_EQ(Tel.histogram(GcGeneration::Minor).count() +
                  Tel.histogram(GcGeneration::Major).count(),
              S.NumGC);
    EXPECT_EQ(Tel.histogram(GcGeneration::Major).count(), S.NumMajorGC);
    // The collectors drive the split timers correctly: no misuse, ever.
    EXPECT_EQ(S.timerMisuses(), 0u);
    // Stack scan and copy happen inside the GC window.
    EXPECT_GE(S.gcSeconds() + 1e-3, S.stackSeconds() + S.copySeconds());
  }
}

TEST(ObserveInvariants, EventStreamCompleteAndPhasesFit) {
  EventRecorder Rec;
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 4u << 20;
  Cfg.Observer = &Rec;
  Mutator M(Cfg);
  churn(M);
  const GcStats &S = M.gcStats();
  ASSERT_EQ(Rec.size() + Rec.dropped(), S.NumGC)
      << "every collection must emit exactly one event";
  uint64_t PrevSeq = 0;
  uint64_t Majors = 0;
  for (size_t I = 0; I < Rec.size(); ++I) {
    const GcEvent &E = Rec.event(I);
    EXPECT_GT(E.Seq, PrevSeq) << "events out of order";
    PrevSeq = E.Seq;
    EXPECT_GT(E.EndNs, E.BeginNs);
    EXPECT_LE(E.phaseTotalNs(), E.PauseNs)
        << "phase times exceed the pause in event " << E.Seq;
    // Every collection scans the stack and stamps the depth.
    EXPECT_GT(E.PhaseDurNs[unsigned(GcPhase::StackScan)], 0u);
    EXPECT_GT(E.FramesAtGC, 0u);
    EXPECT_EQ(E.FramesScanned + E.FramesReused, E.FramesAtGC);
    Majors += E.Gen == GcGeneration::Major;
  }
  EXPECT_EQ(Majors, S.NumMajorGC);
}

TEST(ObserveInvariants, TriggersClassifyAllocationVsExplicit) {
  // Semispace under allocation pressure: SpaceFull triggers, then one
  // explicit full collection at the end.
  EventRecorder Rec;
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Semispace;
  Cfg.BudgetBytes = 256u << 10;
  Cfg.Observer = &Rec;
  {
    Mutator M(Cfg);
    Frame F(M, obsRootsKey());
    for (unsigned I = 0; I < 20000; ++I)
      F.set(1, M.allocRecord(obsSite(I), 3, 0b110));
    M.collect(/*Major=*/true);
  }
  ASSERT_GE(Rec.size(), 2u);
  bool SawSpaceFull = false;
  for (size_t I = 0; I + 1 < Rec.size(); ++I) {
    EXPECT_EQ(Rec.event(I).Trigger, GcTrigger::SpaceFull);
    SawSpaceFull = true;
  }
  EXPECT_TRUE(SawSpaceFull);
  EXPECT_EQ(Rec.event(Rec.size() - 1).Trigger, GcTrigger::Explicit);

  // Generational under the same pressure: nursery-full minors.
  EventRecorder GenRec;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 4u << 20;
  Cfg.Observer = &GenRec;
  {
    Mutator M(Cfg);
    Frame F(M, obsRootsKey());
    for (unsigned I = 0; I < 40000; ++I)
      F.set(1, M.allocRecord(obsSite(I), 3, 0b110));
  }
  ASSERT_GE(GenRec.size(), 1u);
  bool SawNurseryFull = false;
  for (size_t I = 0; I < GenRec.size(); ++I)
    SawNurseryFull |= GenRec.event(I).Trigger == GcTrigger::NurseryFull;
  EXPECT_TRUE(SawNurseryFull);
}

TEST(ObserveInvariants, LosPressureMajorsKeepFrameAveragesPinned) {
  // Large-object churn forces LOS-pressure majors — a collection path that
  // historically could skew avgFramesAtGC when the denominator was NumGC
  // instead of the number of stack samples actually taken.
  EventRecorder Rec;
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 2u << 20;
  Cfg.LargeObjectThresholdBytes = 4096;
  Cfg.Observer = &Rec;
  Mutator M(Cfg);
  {
    Frame F(M, obsRootsKey());
    for (unsigned I = 0; I < 600; ++I)
      F.set(1, M.allocNonPtrArray(obsSite(I), 2048)); // 16KB -> LOS.
  }
  const GcStats &S = M.gcStats();
  ASSERT_GT(S.NumMajorGC, 0u);
  bool SawLosPressure = false;
  for (size_t I = 0; I < Rec.size(); ++I)
    SawLosPressure |=
        Rec.event(I).Trigger == GcTrigger::LargeObjectPressure;
  EXPECT_TRUE(SawLosPressure) << "workload failed to trigger LOS majors";
  // Numerator and denominator come from the same sampling sites.
  EXPECT_EQ(S.FramesAtGCSamples, S.NumGC);
  ASSERT_GT(S.FramesAtGCSamples, 0u);
  EXPECT_DOUBLE_EQ(S.avgFramesAtGC(),
                   static_cast<double>(S.FramesAtGCSum) /
                       static_cast<double>(S.FramesAtGCSamples));
  EXPECT_GT(S.avgFramesAtGC(), 0.0);
  EXPECT_LE(S.avgNewFramesAtGC(), S.avgFramesAtGC());
}

TEST(ObserveAudits, PretenureFlipsCarryEvidence) {
  EventRecorder Rec;
  std::vector<PretenureDecision> Decisions;
  PretenureDecision D{obsSite(0), /*EliminateScan=*/false};
  D.OldFraction = 0.93;
  D.OldCutoff = 0.8;
  D.AllocBytes = 123456;
  D.AllocCount = 789;
  D.SurvivedFirstCount = 700;
  Decisions.push_back(D);

  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.Pretenure = Decisions;
  Cfg.Observer = &Rec;
  Mutator M(Cfg);

  ASSERT_EQ(Rec.audits().size(), 1u)
      << "construction-time flips must reach observers registered via "
         "MutatorConfig";
  const PretenureAudit &A = Rec.audits()[0];
  EXPECT_EQ(A.SiteId, obsSite(0));
  EXPECT_TRUE(A.Pretenured);
  EXPECT_FALSE(A.EliminateScan);
  EXPECT_DOUBLE_EQ(A.OldFraction, 0.93);
  EXPECT_DOUBLE_EQ(A.Threshold, 0.8);
  EXPECT_EQ(A.AllocBytes, 123456u);
  EXPECT_EQ(A.AllocCount, 789u);
  EXPECT_EQ(A.SurvivedFirstGC, 700u);

  // And the per-collection pretenured-bytes delta shows up in events.
  {
    Frame F(M, obsRootsKey());
    for (unsigned I = 0; I < 64; ++I)
      F.set(1, M.allocRecord(obsSite(0), 3, 0b110));
    M.collect(/*Major=*/false);
  }
  ASSERT_GE(Rec.size(), 1u);
  EXPECT_GT(Rec.event(Rec.size() - 1).BytesPretenured, 0u);
}

//===----------------------------------------------------------------------===//
// Event-stream determinism across GcThreads (TSan job runs *Parallel*).
//===----------------------------------------------------------------------===//

/// The deterministic slice of an event (GcEvent's field-by-field contract;
/// timing, worker spans, BytesPromoted — which includes parallel block
/// padding — and DirtyCards/CardsScanned — whose card population depends on
/// object placement — are excluded).
using EventKey = std::tuple<uint64_t, int, int, uint64_t, uint64_t, uint64_t,
                            uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                            bool>;

std::vector<EventKey>
eventStream(CollectorKind Kind, unsigned Threads,
            GenerationalCollector::BarrierKind Barrier =
                GenerationalCollector::BarrierKind::SequentialStoreBuffer) {
  EventRecorder Rec;
  MutatorConfig Cfg = explicitOnlyConfig(Kind, Threads);
  Cfg.Barrier = Barrier;
  Cfg.Observer = &Rec;
  Mutator M(Cfg);
  churn(M);
  EXPECT_EQ(Rec.dropped(), 0u);
  std::vector<EventKey> Keys;
  for (size_t I = 0; I < Rec.size(); ++I) {
    const GcEvent &E = Rec.event(I);
    Keys.emplace_back(E.Seq, int(E.Gen), int(E.Trigger), E.BytesCopied,
                      E.ObjectsCopied, E.FramesAtGC, E.FramesScanned,
                      E.FramesReused, E.SsbEntriesProcessed,
                      E.BytesPretenured, E.CrossingMapUpdates,
                      E.HybridSwitched);
  }
  return Keys;
}

class ObserveParallelDeterminism : public ::testing::TestWithParam<unsigned> {
};

TEST_P(ObserveParallelDeterminism, GenerationalEventStreamMatchesSerial) {
  static const std::vector<EventKey> Serial =
      eventStream(CollectorKind::Generational, 1);
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(eventStream(CollectorKind::Generational, GetParam()), Serial);
}

TEST_P(ObserveParallelDeterminism, SemispaceEventStreamMatchesSerial) {
  static const std::vector<EventKey> Serial =
      eventStream(CollectorKind::Semispace, 1);
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(eventStream(CollectorKind::Semispace, GetParam()), Serial);
}

TEST_P(ObserveParallelDeterminism, CardMarkingEventStreamMatchesSerial) {
  // CrossingMapUpdates (promoted-object recordings) and the card-mode
  // SsbEntriesProcessed (LOS side-buffer only) must be thread-invariant.
  static const std::vector<EventKey> Serial = eventStream(
      CollectorKind::Generational, 1,
      GenerationalCollector::BarrierKind::CardMarking);
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(eventStream(CollectorKind::Generational, GetParam(),
                        GenerationalCollector::BarrierKind::CardMarking),
            Serial);
}

INSTANTIATE_TEST_SUITE_P(Threads, ObserveParallelDeterminism,
                         ::testing::Values(1u, 2u, 8u));

TEST(ObserveCardFields, SerialRerunsReproduceCardCounters) {
  // DirtyCards/CardsScanned are engine-dependent across thread counts but
  // must still be reproducible run-to-run on the same engine.
  auto CardCounters = [](unsigned Threads) {
    EventRecorder Rec;
    MutatorConfig Cfg =
        explicitOnlyConfig(CollectorKind::Generational, Threads);
    Cfg.Barrier = GenerationalCollector::BarrierKind::CardMarking;
    Cfg.Observer = &Rec;
    Mutator M(Cfg);
    churn(M);
    std::vector<std::pair<uint64_t, uint64_t>> Out;
    for (size_t I = 0; I < Rec.size(); ++I)
      Out.emplace_back(Rec.event(I).DirtyCards, Rec.event(I).CardsScanned);
    return Out;
  };
  auto A = CardCounters(1);
  ASSERT_FALSE(A.empty());
  bool SawDirty = false;
  for (const auto &P : A)
    SawDirty |= P.first > 0;
  EXPECT_TRUE(SawDirty) << "churn's barriered stores never dirtied a card";
  EXPECT_EQ(CardCounters(1), A);
}

TEST(ObserveHybrid, SwitchLatchAppearsOnExactlyOneEvent) {
  EventRecorder Rec;
  MutatorConfig Cfg;
  Cfg.Kind = CollectorKind::Generational;
  Cfg.BudgetBytes = 1u << 20;
  Cfg.Barrier = GenerationalCollector::BarrierKind::Hybrid;
  Cfg.Observer = &Rec;
  Mutator M(Cfg);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  {
    Frame F(M, obsRootsKey());
    F.set(1, M.allocPtrArray(obsSite(0), 256));
    M.collect(/*Major=*/false); // Tenure the flood target.
    ASSERT_FALSE(GC.rememberedSet().inCardMode());
    for (uint64_t I = 0; I <= GC.rememberedSet().floodThreshold(); ++I)
      M.writeField(F.get(1), 9, Value::null(), /*IsPointerField=*/true);
    ASSERT_TRUE(GC.rememberedSet().inCardMode());
    M.collect(/*Major=*/false); // First post-switch event.
    M.collect(/*Major=*/false); // Latch must not stick to later events.
  }
  unsigned Switched = 0;
  for (size_t I = 0; I < Rec.size(); ++I)
    Switched += Rec.event(I).HybridSwitched;
  EXPECT_EQ(Switched, 1u);
  // The switch event is the first collection after the flood, and it scans
  // the replayed dirty cards.
  const GcEvent *SwitchEv = nullptr;
  for (size_t I = 0; I < Rec.size(); ++I)
    if (Rec.event(I).HybridSwitched)
      SwitchEv = &Rec.event(I);
  ASSERT_NE(SwitchEv, nullptr);
  EXPECT_GT(SwitchEv->DirtyCards, 0u);
  EXPECT_GT(SwitchEv->CardsScanned, 0u);
  EXPECT_EQ(M.gcStats().HybridSwitches, 1u);
}

//===----------------------------------------------------------------------===//
// Trace export.
//===----------------------------------------------------------------------===//

/// Minimal recursive-descent JSON validator — enough to prove the exporter
/// emits well-formed JSON without a library dependency (CI additionally
/// round-trips a trace file through python3 -m json.tool).
class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}
  bool valid() {
    skipWs();
    return value() && (skipWs(), Pos == S.size());
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}')
        return ++Pos, true;
      return false;
    }
  }
  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']')
      return ++Pos, true;
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']')
        return ++Pos, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() && (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
                              S[Pos] == '.' || S[Pos] == 'e' ||
                              S[Pos] == 'E' || S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }
  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    return true;
  }
  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }
  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\n' || S[Pos] == '\t' ||
            S[Pos] == '\r'))
      ++Pos;
  }

  const std::string &S;
  size_t Pos = 0;
};

TEST(TraceExport, RendersValidJsonWithWorkerTracks) {
  EventRecorder Rec;
  MutatorConfig Cfg = explicitOnlyConfig(CollectorKind::Generational, 4);
  Cfg.Observer = &Rec;
  {
    Mutator M(Cfg);
    churn(M);
  }
  ASSERT_GT(Rec.size(), 0u);
  std::string Json = TraceExporter::render(Rec);
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json.substr(0, 400);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("minor gc #"), std::string::npos);
  EXPECT_NE(Json.find("major gc #"), std::string::npos);
  EXPECT_NE(Json.find("stack-scan"), std::string::npos);
  // GcThreads = 4 with an armed plane: per-worker tracks present.
  EXPECT_NE(Json.find("evac worker 0"), std::string::npos);
  EXPECT_NE(Json.find("evac worker 3"), std::string::npos);
}

TEST(TraceExport, MutatorWritesTraceFileAtDestruction) {
  std::string Path = ::testing::TempDir() + "tilgc_trace_test.json";
  std::remove(Path.c_str());
  {
    MutatorConfig Cfg;
    Cfg.Kind = CollectorKind::Generational;
    Cfg.BudgetBytes = 4u << 20;
    Cfg.TraceOutPath = Path;
    Mutator M(Cfg);
    ASSERT_NE(M.traceRecorder(), nullptr);
    churn(M, 2000);
  }
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr) << "trace file not written: " << Path;
  std::string Contents;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Contents.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  ASSERT_FALSE(Contents.empty());
  JsonChecker Checker(Contents);
  EXPECT_TRUE(Checker.valid());
  EXPECT_NE(Contents.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExport, CardConfigEmitsCardScanPhaseAndCounters) {
  EventRecorder Rec;
  MutatorConfig Cfg = explicitOnlyConfig(CollectorKind::Generational, 1);
  Cfg.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  Cfg.Observer = &Rec;
  {
    Mutator M(Cfg);
    churn(M, 2000);
  }
  std::string Json = TraceExporter::render(Rec);
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json.substr(0, 400);
  EXPECT_NE(Json.find("card-scan"), std::string::npos)
      << "card-mode minors must stamp the card-scan phase";
  EXPECT_NE(Json.find("\"dirty_cards\""), std::string::npos);
  EXPECT_NE(Json.find("\"cards_scanned\""), std::string::npos);
  EXPECT_NE(Json.find("\"crossing_map_updates\""), std::string::npos);
  EXPECT_NE(Json.find("\"hybrid_switched\""), std::string::npos);
}

TEST(TraceExport, SupervisionPinsFailoverBitAndWatchdogInstants) {
  FaultInjector::global().reset();
  EventRecorder Rec;
  MutatorConfig Cfg = explicitOnlyConfig(CollectorKind::Generational, 2);
  Cfg.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  Cfg.GcDeadlineMicros = 2000;
  Cfg.WatchdogEscalation = WatchdogPolicy::Report;
  Cfg.Observer = &Rec;
  {
    Mutator M(Cfg);
    churn(M, 2000);
    // Retain enough live data that the majors below have parallel mark
    // work (a near-empty heap marks serially and WorkerStall never fires).
    Frame F(M, obsRootsKey());
    F.set(1, Value::null());
    for (int I = 0; I < 2000; ++I) {
      Value Cell = M.allocRecord(obsSite(static_cast<unsigned>(I)), 3, 0b110);
      M.initField(Cell, 0, Value::fromInt(I));
      M.initField(Cell, 1, F.get(1));
      F.set(1, Cell);
    }
    // One injected mark abort: that major (and only it) pins the
    // deterministic EngineFailover bit.
    FaultInjector::global().arm(FaultPoint::MarkPlanThrow, 1,
                                /*FireCount=*/1);
    M.collect(/*Major=*/true);
    // One stalled major: 20ms worker stalls past the 2ms deadline produce
    // a watchdog-bark instant; Report leaves the collection alone.
    FaultInjector::global().arm(FaultPoint::WorkerStall, 1, /*FireCount=*/2);
    M.collect(/*Major=*/true);
    FaultInjector::global().reset();
    EXPECT_EQ(M.gcStats().MajorEngineFailovers, 1u);
  }
  unsigned FailoverEvents = 0;
  for (size_t I = 0; I < Rec.size(); ++I)
    FailoverEvents += Rec.event(I).EngineFailover;
  EXPECT_EQ(FailoverEvents, 1u);
  EXPECT_FALSE(Rec.barks().empty());

  std::string Json = TraceExporter::render(Rec);
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json.substr(0, 400);
  EXPECT_NE(Json.find("\"engine_failover\":true"), std::string::npos)
      << "the failed-over major must export the failover bit";
  EXPECT_NE(Json.find("\"engine_failover\":false"), std::string::npos);
  EXPECT_NE(Json.find("watchdog bark"), std::string::npos)
      << "an expired deadline must export an instant event";
  EXPECT_NE(Json.find("\"kind\":\"gc-cycle\""), std::string::npos);
  EXPECT_NE(Json.find("\"deadline_us\":2000"), std::string::npos);
}

TEST(TraceExport, EscapesBarkDetailAndNamesProcess) {
  // Regression: the exporter spliced WatchdogBark::Detail — multi-line
  // free-form text with embedded quotes from the heap-state dump — into
  // the JSON verbatim, so any bark with a quote or control character
  // produced a file chrome://tracing refused to load. It also dropped the
  // session name, leaving every trace labeled as an anonymous process.
  EventRecorder Rec;
  WatchdogBark B;
  B.What = WatchdogBark::Kind::GcCycle;
  B.Seq = 7;
  B.DeadlineMicros = 1000;
  B.ElapsedMicros = 2500;
  B.WhenNs = 42;
  B.Detail = "heap \"state\":\n\ttenured=3\\4 used\x01";
  Rec.onWatchdogBark(B);

  std::string Json = TraceExporter::render(Rec, "bench \"run\" #1");
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid()) << Json.substr(0, 400);
  // Quotes, backslashes and C0 controls arrive escaped, never raw.
  EXPECT_NE(Json.find("heap \\\"state\\\":"), std::string::npos);
  EXPECT_NE(Json.find("\\n\\ttenured=3\\\\4"), std::string::npos);
  EXPECT_NE(Json.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json.find('\x01'), std::string::npos)
      << "raw control byte leaked into the trace";
  // The session name labels the process track, escaped like any string.
  EXPECT_NE(Json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Json.find("bench \\\"run\\\" #1"), std::string::npos);
}

TEST(TraceExport, SerialTraceHasNoWorkerTracks) {
  EventRecorder Rec;
  MutatorConfig Cfg = explicitOnlyConfig(CollectorKind::Generational, 1);
  Cfg.Observer = &Rec;
  {
    Mutator M(Cfg);
    churn(M, 2000);
  }
  std::string Json = TraceExporter::render(Rec);
  JsonChecker Checker(Json);
  EXPECT_TRUE(Checker.valid());
  EXPECT_EQ(Json.find("evac worker"), std::string::npos);
}

} // namespace
