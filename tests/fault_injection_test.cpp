//===- tests/fault_injection_test.cpp - Deterministic fault torture -------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives every FaultInjector point through real workloads and asserts the
/// resilience contract: a run under injected faults either completes with
/// the byte-identical checksum of an uninjected run, or fails with a
/// structured error — and the heap verifies clean either way. The parallel
/// evacuator must degrade to its serial recovery drain when a worker
/// faults, never deadlock on the termination protocol.
///
/// Like oom_test.cpp, this file is also compiled into the NDEBUG
/// resilience binary. The seeded ResilienceTorture suite reads
/// TILGC_TORTURE_SEED / TILGC_VERIFY_LEVEL so CI can sweep fault schedules
/// without recompiling.
///
//===----------------------------------------------------------------------===//

#include "gc/HeapError.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorGroup.h"
#include "support/FaultInjector.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace tilgc;

namespace {

/// Arms nothing; guarantees the global injector is clean before and after
/// each test regardless of how the test exits.
struct ScopedFaults {
  ScopedFaults() { FaultInjector::global().reset(); }
  ~ScopedFaults() { FaultInjector::global().reset(); }
};

uint32_t faultKey() {
  static const uint32_t K = TraceTableRegistry::global().define(
      FrameLayout("fault.roots", {Trace::pointer(), Trace::pointer()}));
  return K;
}

uint64_t envSeed(uint64_t Default) {
  if (const char *E = std::getenv("TILGC_TORTURE_SEED"))
    return static_cast<uint64_t>(std::strtoull(E, nullptr, 10));
  return Default;
}

unsigned envVerifyLevel(unsigned Default) {
  if (const char *E = std::getenv("TILGC_VERIFY_LEVEL"))
    return static_cast<unsigned>(std::atoi(E));
  return Default;
}

uint64_t envU64(const char *Name, uint64_t Default) {
  if (const char *E = std::getenv(Name))
    return static_cast<uint64_t>(std::strtoull(E, nullptr, 10));
  return Default;
}

MutatorConfig faultConfig(const char *Name, unsigned GcThreads) {
  MutatorConfig C;
  C.Name = Name;
  C.BudgetBytes = 2u << 20;
  C.NurseryLimitBytes = 96u << 10; // Tight: many parallel minor GCs.
  C.GcThreads = GcThreads;
  C.VerifyLevel = envVerifyLevel(1);
  return C;
}

uint64_t runLife(const MutatorConfig &C) {
  Mutator M(C);
  Workload *W = findWorkload("Life");
  EXPECT_NE(W, nullptr);
  return W->run(M, /*Scale=*/0.12);
}

} // namespace

TEST(FaultInjector, SeededScheduleIsDeterministic) {
  ScopedFaults Guard;
  FaultInjector &FI = FaultInjector::global();
  FI.armFromSeed(FaultPoint::WorkerThrow, 42, 1000);
  uint64_t FireA = 0;
  for (uint64_t I = 1; I <= 1000; ++I)
    if (FI.shouldFire(FaultPoint::WorkerThrow))
      FireA = I;
  EXPECT_GT(FireA, 0u);
  FI.reset();
  FI.armFromSeed(FaultPoint::WorkerThrow, 42, 1000);
  uint64_t FireB = 0;
  for (uint64_t I = 1; I <= 1000; ++I)
    if (FI.shouldFire(FaultPoint::WorkerThrow))
      FireB = I;
  EXPECT_EQ(FireA, FireB);
  // Different points draw different crossings from the same seed.
  FI.reset();
  FI.armFromSeed(FaultPoint::WorkerStall, 42, 1000);
  uint64_t FireC = 0;
  for (uint64_t I = 1; I <= 1000; ++I)
    if (FI.shouldFire(FaultPoint::WorkerStall))
      FireC = I;
  EXPECT_NE(FireA, FireC);
}

TEST(FaultInjector, DisarmedInjectorCountsNothing) {
  ScopedFaults Guard;
  EXPECT_FALSE(FaultInjector::enabled());
  uint64_t Sum = runLife(faultConfig("life-clean", 1));
  EXPECT_EQ(Sum, findWorkload("Life")->expected(0.12));
  EXPECT_EQ(FaultInjector::global().crossings(FaultPoint::SpaceAllocNull),
            0u);
}

TEST(FaultInjection, AllocNullDrivesEscalationLadderToSameChecksum) {
  uint64_t Expected = findWorkload("Life")->expected(0.12);
  ScopedFaults Guard;
  // The mutator bumps into TLABs, so only the collector's allocate()
  // crosses the nursery's Space::allocate. Refuse the second TLAB refill
  // (before the first minor collection) so an allocation reaches
  // allocate(), and fail its first two nursery attempts there: one forces
  // an early minor, the next an early major; the ladder retries and the
  // program must not observe any of it.
  FaultInjector::global().arm(FaultPoint::TlabRefillFail, 2);
  FaultInjector::global().arm(FaultPoint::SpaceAllocNull, 1,
                              /*FireCount=*/2);
  uint64_t Sum = runLife(faultConfig("life-allocnull", 1));
  EXPECT_EQ(Sum, Expected);
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::TlabRefillFail), 1u);
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::SpaceAllocNull), 1u);
}

TEST(FaultInjection, FromSpacePoisonPassesVerifierOnCleanRuns) {
  uint64_t Expected = findWorkload("Life")->expected(0.12);
  ScopedFaults Guard;
  FaultInjector::global().arm(FaultPoint::FromSpacePoison, 1,
                              FaultInjector::Forever);
  MutatorConfig C = faultConfig("life-poison", 1);
  C.VerifyLevel = 3; // Poison + integrity checks + post-GC walk.
  uint64_t Sum = 0;
  {
    Mutator M(C);
    Sum = findWorkload("Life")->run(M, 0.12);
    std::string Error;
    EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  }
  EXPECT_EQ(Sum, Expected);
}

/// The graceful-degradation acceptance matrix: a worker faulting mid-pass
/// at GcThreads 2 and 8 must fall back to the serial recovery drain, finish
/// the collection, and leave the mutator computing the exact uninjected
/// checksum.
class WorkerFaultDegradation
    : public ::testing::TestWithParam<std::tuple<unsigned, FaultPoint>> {};

TEST_P(WorkerFaultDegradation, RecoversSeriallyWithIdenticalChecksum) {
  unsigned Threads = std::get<0>(GetParam());
  FaultPoint P = std::get<1>(GetParam());
  uint64_t Expected = findWorkload("Life")->expected(0.12);

  ScopedFaults Guard;
  if (P == FaultPoint::WorkerThrow)
    // Forever: every worker of every parallel pass throws at entry, so
    // every collection runs entirely through the serial recovery drain.
    FaultInjector::global().arm(P, 1, FaultInjector::Forever);
  else
    // Exactly one refused handout: one worker faults and the recovery
    // drain (whose own handouts are later crossings) finishes its work. A
    // persistent refusal would starve recovery too — that terminal path is
    // the death test below.
    FaultInjector::global().arm(P, 1, /*FireCount=*/1);

  MutatorConfig C = faultConfig("life-workerfault", Threads);
  Mutator M(C);
  uint64_t Sum = findWorkload("Life")->run(M, 0.12);
  EXPECT_EQ(Sum, Expected);
  EXPECT_GE(FaultInjector::global().fired(P), 1u);
  EXPECT_GE(M.gcStats().EvacWorkerFaults, 1u);
  EXPECT_GE(M.gcStats().EvacSerialRecoveries, 1u);
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

INSTANTIATE_TEST_SUITE_P(
    Threads, WorkerFaultDegradation,
    ::testing::Combine(::testing::Values(2u, 8u),
                       ::testing::Values(FaultPoint::WorkerThrow,
                                         FaultPoint::SpaceBlockHandout)),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, FaultPoint>>
           &Info) {
      return std::string(FaultInjector::pointName(std::get<1>(Info.param)))
                 .substr(std::string(FaultInjector::pointName(
                                         std::get<1>(Info.param)))
                             .find_last_of('-') +
                         1) +
             "_t" + std::to_string(std::get<0>(Info.param));
    });

TEST(FaultInjection, WorkerStallDoesNotDeadlockTermination) {
  uint64_t Expected = findWorkload("Life")->expected(0.12);
  ScopedFaults Guard;
  FaultInjector::global().arm(FaultPoint::WorkerStall, 1, /*FireCount=*/4);
  Mutator M(faultConfig("life-stall", 4));
  uint64_t Sum = findWorkload("Life")->run(M, 0.12);
  EXPECT_EQ(Sum, Expected);
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::WorkerStall), 1u);
  // A stall is not a fault: no recovery pass should have run.
  EXPECT_EQ(M.gcStats().EvacWorkerFaults, 0u);
}

TEST(FaultInjectionDeath, PersistentBlockStarvationDiesInRecovery) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Every handout refused, including during serial recovery: a genuine
  // mid-evacuation OOM. Must die with the structured fatal message in
  // every build mode — never hang, never scribble.
  EXPECT_DEATH(
      {
        FaultInjector::global().reset();
        FaultInjector::global().arm(FaultPoint::SpaceBlockHandout, 1,
                                    FaultInjector::Forever);
        MutatorConfig C;
        C.Name = "starved";
        C.BudgetBytes = 2u << 20;
        C.NurseryLimitBytes = 96u << 10;
        C.GcThreads = 2;
        Mutator M(C);
        uint32_t Site = AllocSiteRegistry::global().define("starved.site");
        Frame F(M, faultKey());
        for (uint64_t I = 0; I < 1000000; ++I) {
          Value Cell = M.allocRecord(Site, 2, 0b10);
          M.initField(Cell, 1, F.get(1));
          F.set(1, Cell);
        }
      },
      "destination space overflowed during serial recovery");
}

/// Seeded end-to-end torture: arm a seed-derived subset of fault points,
/// run a workload under a hard limit, and require the resilience contract —
/// identical checksum or structured HeapExhausted, heap verifiably intact
/// in both cases. TILGC_TORTURE_SEED shifts the whole schedule; CI sweeps
/// it without recompiling, and TILGC_GC_DEADLINE_US /
/// TILGC_SAFEPOINT_DEADLINE_US override the seed-chosen watchdog deadlines
/// so the supervision step can tighten them to bark-inducing values.
///
/// The matrix spans every post-PR-3 subsystem: both major engines
/// (semispace and mark-compact, so MarkPlanThrow exercises the failover
/// path), K ∈ {1, 2, 8} mutators (K > 1 through the real MutatorGroup
/// runtime, so SafepointNoShow hits live rendezvous; TlabRefillFail hits
/// every K's TLAB refills), all three barrier families (so CardSweepThrow
/// hits real dirty-card sweeps), and HostGrowFail under every reservation.
class ResilienceTorture : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResilienceTorture, CompletesOrFailsStructurally) {
  uint64_t Seed = envSeed(0) * 7919 + GetParam();
  const char *Names[] = {"Life", "Nqueen", "Peg", "Checksum"};
  Workload *W = findWorkload(Names[Seed % 4]);
  ASSERT_NE(W, nullptr);
  uint64_t Expected = W->expected(0.12);

  ScopedFaults Guard;
  FaultInjector &FI = FaultInjector::global();
  unsigned Threads = (Seed >> 2) % 3 == 0 ? 1 : ((Seed >> 2) % 3 == 1 ? 2 : 8);
  bool MarkCompact = (Seed >> 5) & 1;
  // Every mutator allocates through TLABs, so the nursery's
  // Space::allocate is crossed only in the collector's allocate(), about
  // once per collection (20-70 times a run here): draw from the first 20.
  FI.armFromSeed(FaultPoint::SpaceAllocNull, Seed, 20, 2);
  // A refused refill degrades to the collector's allocate() (stopped, in
  // a group). Handout refusals hit parallel evacuation workers only; zero
  // crossings at one GC thread.
  FI.armFromSeed(FaultPoint::TlabRefillFail, Seed, 100, 2);
  FI.armFromSeed(FaultPoint::SpaceBlockHandout, Seed, 200, 1);
  if (Threads > 1) {
    FI.armFromSeed(FaultPoint::WorkerThrow, Seed, 500, 1);
    // A no-show skips one park poll (bounded FireCount so the rendezvous
    // still completes).
    FI.armFromSeed(FaultPoint::SafepointNoShow, Seed, 50, 1);
  }
  if (MarkCompact)
    // Aborts the still-mutation-free mark/plan phase; the collection must
    // fail over to a semispace evacuation with the checksum intact.
    FI.armFromSeed(FaultPoint::MarkPlanThrow, Seed, 200, 1);
  // Fires only when a card/hybrid configuration actually sweeps cards;
  // harmless (zero crossings) under pure SSB.
  FI.armFromSeed(FaultPoint::CardSweepThrow, Seed, 100, 1);
  // At most 2 consecutive refusals: the reservation retry loop (4 attempts
  // with backoff) must absorb them without surfacing anything.
  FI.armFromSeed(FaultPoint::HostGrowFail, Seed, 20, 2);
  if (Seed & 1)
    FI.arm(FaultPoint::FromSpacePoison, 1, FaultInjector::Forever);

  MutatorConfig C = faultConfig("torture", Threads);
  C.HardLimitBytes = 8u << 20;
  C.MajorGc = MarkCompact ? GenerationalCollector::MajorGcKind::MarkCompact
                          : GenerationalCollector::MajorGcKind::Semispace;
  switch ((Seed >> 6) % 3) {
  case 0:
    break; // SequentialStoreBuffer default.
  case 1:
    C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
    break;
  case 2:
    C.Barrier = GenerationalCollector::BarrierKind::Hybrid;
    break;
  }
  // Watchdog supervision rides along on some seeds. The defaults are wide
  // enough that barks are rare in a healthy run; a bark that does fire
  // under Recover aborts only the mutation-free mark/plan phase, so the
  // checksum contract below still holds either way.
  C.GcDeadlineMicros = envU64("TILGC_GC_DEADLINE_US", (Seed & 2) ? 200000 : 0);
  C.SafepointDeadlineMicros =
      envU64("TILGC_SAFEPOINT_DEADLINE_US", (Seed & 4) ? 100000 : 0);

  bool Structured = false;
  std::string VerifyError;
  bool Verified = false;
  if (Threads == 1) {
    Mutator M(C);
    uint64_t Sum = 0;
    try {
      Sum = W->run(M, 0.12);
    } catch (const HeapExhausted &E) {
      Structured = true;
      EXPECT_NE(std::string(E.what()).find("tilgc heap state"),
                std::string::npos);
    }
    if (!Structured) {
      EXPECT_EQ(Sum, Expected) << W->name() << " seed " << Seed;
    }
    FI.reset(); // Verify with injection quiesced.
    Verified = M.verifyHeap(VerifyError);
  } else {
    MutatorGroup G(C, Threads);
    std::vector<uint64_t> Sums(Threads, 0);
    try {
      G.run([&](Mutator &M, unsigned I) {
        std::unique_ptr<Workload> Local = makeWorkloadByName(W->name());
        Sums[I] = Local->run(M, 0.12);
      });
      for (unsigned I = 0; I < Threads; ++I)
        EXPECT_EQ(Sums[I], Expected)
            << W->name() << " seed " << Seed << " thread " << I;
    } catch (const HeapExhausted &E) {
      Structured = true;
      EXPECT_NE(std::string(E.what()).find("tilgc heap state"),
                std::string::npos);
    }
    (void)Structured;
    FI.reset();
    Verified = G.mutator(0).verifyHeap(VerifyError);
  }
  EXPECT_TRUE(Verified) << W->name() << " seed " << Seed << ": "
                        << VerifyError;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilienceTorture,
                         ::testing::Range<uint64_t>(1, 13));
