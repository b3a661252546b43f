//===- tests/supervision_test.cpp - Watchdog and engine failover ----------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-supervision acceptance suite:
///
///  * engine failover: a mark-/plan-phase fault under the mark-compact
///    major (injected or watchdog-detected) must abort the still-
///    mutation-free phase and finish the collection with a semispace
///    evacuation — bit-identical checksums to a clean semispace run on
///    every workload, VerifyLevel-2 audited, sticky-disabling the engine
///    after repeated consecutive failovers;
///  * watchdog barks: an expired GC-cycle or safepoint-rendezvous deadline
///    produces a structured diagnostic through GcObserver::onWatchdogBark
///    without abandoning (or deadlocking) the supervised window;
///  * the remaining post-PR-3 fault points: refused TLAB handouts degrade
///    to stopped allocation, a throwing card sweep degrades to a full
///    tenured walk, transient host reservation failures are absorbed by
///    bounded retry (persistent ones die with the structured message), and
///    HeapExhausted names the OOM-ladder stage it escalated from.
///
/// Like fault_injection_test.cpp, this file is also compiled into the
/// NDEBUG resilience binary and honors TILGC_VERIFY_LEVEL.
///
//===----------------------------------------------------------------------===//

#include "gc/GenerationalCollector.h"
#include "gc/HeapError.h"
#include "observe/EventRecorder.h"
#include "observe/GcTelemetry.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorGroup.h"
#include "support/FaultInjector.h"
#include "workloads/MLLib.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

/// Arms nothing; guarantees the global injector is clean before and after
/// each test regardless of how the test exits.
struct ScopedFaults {
  ScopedFaults() { FaultInjector::global().reset(); }
  ~ScopedFaults() { FaultInjector::global().reset(); }
};

unsigned envVerifyLevel(unsigned Default) {
  if (const char *E = std::getenv("TILGC_VERIFY_LEVEL"))
    return static_cast<unsigned>(std::atoi(E));
  return Default;
}

MutatorConfig supervConfig(const char *Name, unsigned GcThreads) {
  MutatorConfig C;
  C.Name = Name;
  C.BudgetBytes = 2u << 20;
  C.NurseryLimitBytes = 96u << 10; // Tight: many collections, some major.
  C.GcThreads = GcThreads;
  C.VerifyLevel = envVerifyLevel(1);
  return C;
}

uint32_t supervSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("superv.site");
  return S;
}

uint32_t supervKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "superv.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer(),
       Trace::pointer()}));
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine failover: mark-compact aborts, semispace finishes.
//===----------------------------------------------------------------------===//

/// The headline acceptance criterion: with every mark-compact major's
/// mark/plan phase aborted by injection, all eleven workloads must compute
/// checksums bit-identical to a clean semispace run, under the VerifyLevel-2
/// reachability/completeness audit.
TEST(EngineFailover, AllWorkloadsMatchCleanSemispaceChecksum) {
  const double Scale = 0.07;
  uint64_t TotalFailovers = 0;
  for (const auto &W : allWorkloads()) {
    // Clean semispace baseline.
    MutatorConfig CS = supervConfig("superv-semi-baseline", 1);
    CS.MajorGc = GenerationalCollector::MajorGcKind::Semispace;
    CS.VerifyLevel = envVerifyLevel(2);
    uint64_t Baseline = 0;
    {
      Mutator M(CS);
      std::unique_ptr<Workload> L = makeWorkloadByName(W->name());
      Baseline = L->run(M, Scale);
      EXPECT_EQ(Baseline, L->expected(Scale)) << W->name();
    }

    // Mark-compact with every major's mark aborted at entry: each major
    // must fail over to the semispace evacuation mid-collection.
    ScopedFaults Guard;
    FaultInjector::global().arm(FaultPoint::MarkPlanThrow, 1,
                                FaultInjector::Forever);
    MutatorConfig CM = CS;
    CM.Name = "superv-mc-failover";
    CM.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
    Mutator M(CM);
    std::unique_ptr<Workload> L = makeWorkloadByName(W->name());
    uint64_t Sum = L->run(M, Scale);
    M.collect(/*Major=*/true); // Even quiet workloads exercise one failover.
    EXPECT_EQ(Sum, Baseline) << W->name();
    EXPECT_GE(M.gcStats().MajorEngineFailovers, 1u) << W->name();
    TotalFailovers += M.gcStats().MajorEngineFailovers;
    FaultInjector::global().reset(); // Verify with injection quiesced.
    std::string Error;
    EXPECT_TRUE(M.verifyHeap(Error)) << W->name() << ": " << Error;
  }
  EXPECT_GE(TotalFailovers, 11u);
}

TEST(EngineFailover, StickyDisableAfterConsecutiveFailovers) {
  ScopedFaults Guard;
  FaultInjector::global().arm(FaultPoint::MarkPlanThrow, 1,
                              FaultInjector::Forever);
  MutatorConfig C = supervConfig("superv-sticky", 1);
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, supervKey());
  F.set(1, Value::null());
  for (int I = 0; I < 2000; ++I)
    F.set(1, consInt(M, supervSite(), I, slot(F, 1)));

  EXPECT_FALSE(GC.markCompactDisabled());
  M.collect(/*Major=*/true);
  EXPECT_EQ(M.gcStats().MajorEngineFailovers, 1u);
  EXPECT_FALSE(GC.markCompactDisabled());
  M.collect(/*Major=*/true);
  M.collect(/*Major=*/true);
  EXPECT_EQ(M.gcStats().MajorEngineFailovers, 3u);
  EXPECT_TRUE(GC.markCompactDisabled())
      << "third consecutive failover must sticky-disable the engine";
  // Disabled engine goes straight to the fallback: no abort point is
  // crossed, so no further failover is counted.
  M.collect(/*Major=*/true);
  EXPECT_EQ(M.gcStats().MajorEngineFailovers, 3u);

  FaultInjector::global().reset();
  int64_t Want = 1999;
  for (Value V = F.get(1); !V.isNull(); V = tail(V))
    EXPECT_EQ(headInt(V), Want--);
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(EngineFailover, SuccessfulMajorResetsTheConsecutiveStreak) {
  ScopedFaults Guard;
  FaultInjector &FI = FaultInjector::global();
  MutatorConfig C = supervConfig("superv-streak", 1);
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, supervKey());
  F.set(1, Value::null());
  for (int I = 0; I < 500; ++I)
    F.set(1, consInt(M, supervSite(), I, slot(F, 1)));

  FI.arm(FaultPoint::MarkPlanThrow, 1, /*FireCount=*/2);
  M.collect(true);
  M.collect(true);
  EXPECT_EQ(M.gcStats().MajorEngineFailovers, 2u);
  M.collect(true); // Clean mark-compact major: streak back to zero.
  FI.reset();
  FI.arm(FaultPoint::MarkPlanThrow, 1, /*FireCount=*/1);
  M.collect(true);
  EXPECT_EQ(M.gcStats().MajorEngineFailovers, 3u);
  EXPECT_FALSE(GC.markCompactDisabled())
      << "three non-consecutive failovers must not sticky-disable";
  FI.reset();
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

/// Failover events are pinned in telemetry: the deterministic event slice
/// carries EngineFailover for exactly the aborted majors.
TEST(EngineFailover, EventSliceCarriesTheFailoverBit) {
  ScopedFaults Guard;
  FaultInjector::global().arm(FaultPoint::MarkPlanThrow, 1, /*FireCount=*/1);
  EventRecorder R;
  MutatorConfig C = supervConfig("superv-failover-event", 1);
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.Observer = &R;
  Mutator M(C);
  Frame F(M, supervKey());
  F.set(1, Value::null());
  for (int I = 0; I < 500; ++I)
    F.set(1, consInt(M, supervSite(), I, slot(F, 1)));
  M.collect(true); // Fails over (injected).
  M.collect(true); // Clean.
  unsigned FailoverEvents = 0;
  for (size_t I = 0; I < R.size(); ++I)
    if (R.event(I).EngineFailover) {
      ++FailoverEvents;
      EXPECT_EQ(R.event(I).Gen, GcGeneration::Major);
    }
  EXPECT_EQ(FailoverEvents, 1u);
}

//===----------------------------------------------------------------------===//
// Watchdog barks: structured diagnostics, no abandoned windows.
//===----------------------------------------------------------------------===//

/// A mutator that skips its safepoint poll past the rendezvous deadline
/// must produce a SafepointRendezvous bark — observer hook fired with park
/// progress — while the rendezvous still completes normally afterwards.
class SafepointNoShowBark : public ::testing::TestWithParam<unsigned> {};

TEST_P(SafepointNoShowBark, BarksWithoutDeadlockingTheRendezvous) {
  unsigned K = GetParam();
  const double Scale = 0.08;
  ScopedFaults Guard;
  // Each fire skips one park poll for ~5ms; the 1ms deadline expires
  // mid-rendezvous every time one lands inside a stop.
  FaultInjector::global().arm(FaultPoint::SafepointNoShow, 1,
                              /*FireCount=*/12);
  EventRecorder R;
  MutatorConfig C = supervConfig("superv-noshow", 1);
  C.SafepointDeadlineMicros = 1000;
  C.Observer = &R;
  Workload *W = findWorkload("Life");
  ASSERT_NE(W, nullptr);
  uint64_t Expected = W->expected(Scale);

  MutatorGroup G(C, K);
  std::vector<uint64_t> Sums(K, 0);
  G.run([&](Mutator &M, unsigned I) {
    std::unique_ptr<Workload> L = makeWorkloadByName("Life");
    Sums[I] = L->run(M, Scale);
  });
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(Sums[I], Expected) << "thread " << I << " of " << K;

  EXPECT_GE(FaultInjector::global().fired(FaultPoint::SafepointNoShow), 1u);
  bool SawRendezvousBark = false;
  for (const WatchdogBark &B : R.barks()) {
    if (B.What != WatchdogBark::Kind::SafepointRendezvous)
      continue;
    SawRendezvousBark = true;
    EXPECT_EQ(B.DeadlineMicros, 1000u);
    EXPECT_GE(B.ElapsedMicros, 1000u);
    // Expected is the count of threads *active at arm time* — at most
    // K-1, less when some workload threads already retired.
    EXPECT_LE(B.MutatorsExpected, K - 1);
    EXPECT_LE(B.MutatorsParked, B.MutatorsExpected);
    EXPECT_FALSE(B.Detail.empty());
  }
  EXPECT_TRUE(SawRendezvousBark);
  EXPECT_GT(G.gcStats().SafepointStops, 0u)
      << "every bark must still be followed by a completed rendezvous";
  FaultInjector::global().reset();
  std::string Error;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Error)) << Error;
}

INSTANTIATE_TEST_SUITE_P(Mutators, SafepointNoShowBark,
                         ::testing::Values(2u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           return "k" + std::to_string(Info.param);
                         });

/// A GC cycle stalled past its deadline barks with the heap-state dump
/// captured at cycle entry and the live phase ordinal; under Report the
/// collection is never aborted.
TEST(Watchdog, GcCycleDeadlineBarkIsStructured) {
  const double Scale = 0.12;
  ScopedFaults Guard;
  // Two 20ms mark-worker stalls stretch the mark-compact majors far past
  // the deadline.
  FaultInjector::global().arm(FaultPoint::WorkerStall, 1, /*FireCount=*/2);
  EventRecorder R;
  MutatorConfig C = supervConfig("superv-gcbark", 2);
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.GcDeadlineMicros = 2000;
  C.WatchdogEscalation = WatchdogPolicy::Report;
  C.Observer = &R;
  Mutator M(C);
  // PIA runs majors under this budget (Life runs none).
  Workload *W = findWorkload("PIA");
  uint64_t Sum = W->run(M, Scale);
  EXPECT_EQ(Sum, W->expected(Scale));
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::WorkerStall), 1u);

  bool SawCycleBark = false;
  for (const WatchdogBark &B : R.barks()) {
    if (B.What != WatchdogBark::Kind::GcCycle)
      continue;
    SawCycleBark = true;
    EXPECT_EQ(B.Policy, WatchdogPolicy::Report);
    EXPECT_EQ(B.DeadlineMicros, 2000u);
    EXPECT_GE(B.ElapsedMicros, 2000u);
    EXPECT_NE(B.Detail.find("heap state"), std::string::npos)
        << "bark must carry the arm-time heap-state dump";
  }
  EXPECT_TRUE(SawCycleBark);
  // Report never recovers: no engine failover may have happened.
  EXPECT_EQ(M.gcStats().MajorEngineFailovers, 0u);
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

/// Watchdog-detected recovery: a stalled mark-compact mark phase is
/// aborted through the Recover latch (no injected throw) and the major
/// fails over, preserving the heap.
TEST(Watchdog, RecoverAbortsStalledMarkAndFailsOver) {
  ScopedFaults Guard;
  MutatorConfig C = supervConfig("superv-recover", 2);
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.GcDeadlineMicros = 5000;
  C.WatchdogEscalation = WatchdogPolicy::Recover;
  Mutator M(C);
  Frame F(M, supervKey());
  F.set(1, Value::null());
  for (int I = 0; I < 2000; ++I)
    F.set(1, consInt(M, supervSite(), I, slot(F, 1)));

  uint64_t Before = M.gcStats().MajorEngineFailovers;
  // The first parallel pass after arming is the major's mark: each worker
  // stalls 20ms, the 5ms deadline expires mid-mark, the supervisor latches
  // the recover flag, and the next abort point fails the major over to the
  // semispace evacuation. Bounded fires so the fallback isn't stalled too.
  FaultInjector::global().arm(FaultPoint::WorkerStall, 1, /*FireCount=*/4);
  M.collect(/*Major=*/true);
  FaultInjector::global().reset();
  EXPECT_GE(M.gcStats().MajorEngineFailovers, Before + 1);

  int64_t Want = 1999;
  for (Value V = F.get(1); !V.isNull(); V = tail(V))
    EXPECT_EQ(headInt(V), Want--);
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Remaining post-PR-3 fault points.
//===----------------------------------------------------------------------===//

/// Refused TLAB handouts must degrade to the stopped-allocation slow path,
/// not fail the allocation.
TEST(MultiMutatorFaults, TlabRefillRefusalDegradesToStoppedAllocation) {
  const double Scale = 0.08;
  ScopedFaults Guard;
  FaultInjector::global().arm(FaultPoint::TlabRefillFail, 1,
                              /*FireCount=*/4);
  MutatorConfig C = supervConfig("superv-tlab", 1);
  Workload *W = findWorkload("Life");
  uint64_t Expected = W->expected(Scale);
  MutatorGroup G(C, 2);
  std::vector<uint64_t> Sums(2, 0);
  G.run([&](Mutator &M, unsigned I) {
    std::unique_ptr<Workload> L = makeWorkloadByName("Life");
    Sums[I] = L->run(M, Scale);
  });
  EXPECT_EQ(Sums[0], Expected);
  EXPECT_EQ(Sums[1], Expected);
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::TlabRefillFail), 1u);
  FaultInjector::global().reset();
  std::string Error;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Error)) << Error;
}

/// A card sweep that throws mid-scan must degrade to the full tenured
/// walk: the collection completes and no old->young edge is lost.
TEST(CardSweepFaults, ThrowDegradesToFullTenuredWalk) {
  ScopedFaults Guard;
  MutatorConfig C = supervConfig("superv-cards", 1);
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  Mutator M(C);
  Frame F(M, supervKey());
  // Promote a list, then point a tenured cell at a young survivor so the
  // next minor depends on the card sweep for that edge.
  F.set(1, Value::null());
  for (int I = 0; I < 3000; ++I)
    F.set(1, consInt(M, supervSite(), I, slot(F, 1)));
  M.collect(false); // Promote-all: the list tenures.
  F.set(2, consInt(M, supervSite(), 777, slot(F, 3)));
  M.writeField(F.get(1), 1, F.get(2), /*IsPointerField=*/true);
  Value YoungRef = F.get(2);
  F.set(2, Value::null());
  (void)YoungRef;

  FaultInjector::global().arm(FaultPoint::CardSweepThrow, 1,
                              /*FireCount=*/1);
  M.collect(false); // Sweep throws; recovery walks the whole tenured space.
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::CardSweepThrow), 1u);
  EXPECT_GE(M.gcStats().CardSweepFaults, 1u);
  // The young cell reached only through the faulted sweep must survive.
  EXPECT_EQ(headInt(Mutator::getField(F.get(1), 1)), 777);
  FaultInjector::global().reset();
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

/// Transient host reservation failures are absorbed by the bounded
/// retry-with-backoff loop; the program observes nothing.
TEST(HostGrowFaults, TransientReservationFailureIsRetried) {
  const double Scale = 0.08;
  ScopedFaults Guard;
  // Three consecutive refusals: one fewer than the retry budget, so every
  // reservation eventually succeeds.
  FaultInjector::global().arm(FaultPoint::HostGrowFail, 1, /*FireCount=*/3);
  MutatorConfig C = supervConfig("superv-hostgrow", 1);
  Mutator M(C);
  Workload *W = findWorkload("Life");
  EXPECT_EQ(W->run(M, Scale), W->expected(Scale));
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::HostGrowFail), 3u);
  FaultInjector::global().reset();
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(HostGrowFaultsDeath, PersistentReservationFailureDiesStructured) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Every attempt refused, past the retry budget: must die with the
  // structured host-OOM message, never loop forever.
  EXPECT_DEATH(
      {
        FaultInjector::global().reset();
        FaultInjector::global().arm(FaultPoint::HostGrowFail, 1,
                                    FaultInjector::Forever);
        MutatorConfig C;
        C.Name = "superv-hostgrow-dead";
        C.BudgetBytes = 2u << 20;
        Mutator M(C);
      },
      "host out of memory");
}

/// HeapExhausted names the escalation-ladder stage that gave up, so a
/// post-mortem can tell a failed post-major retry from a hard-cap
/// preflight.
TEST(OomLadder, HeapExhaustedNamesTheLadderStage) {
  MutatorConfig C = supervConfig("superv-ladder", 1);
  C.HardLimitBytes = 1u << 20;
  Mutator M(C);
  Frame F(M, supervKey());
  F.set(1, Value::null());
  bool Threw = false;
  try {
    for (uint64_t I = 0; I < 1000000; ++I)
      F.set(1, consInt(M, supervSite(), static_cast<int64_t>(I), slot(F, 1)));
  } catch (const HeapExhausted &E) {
    Threw = true;
    std::string What = E.what();
    EXPECT_NE(What.find("ladder stage: "), std::string::npos) << What;
    EXPECT_NE(What.find("tilgc heap state"), std::string::npos) << What;
  }
  EXPECT_TRUE(Threw) << "a 1MB hard cap must exhaust under a retained list";
}
