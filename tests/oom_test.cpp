//===- tests/oom_test.cpp - Structured OOM protocol --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-pressure acceptance suite: every workload driven past a tiny
/// hard heap limit must surface a *catchable* HeapExhausted carrying a
/// heap-state dump — never an assert, never a null dereference — and must
/// leave a heap the verifier still certifies. Compiled twice: into the
/// regular assert-enabled test binary and into the NDEBUG resilience binary
/// (tilgc_resilience_ndebug), because the protocol must hold in release
/// builds where asserts are erased.
///
//===----------------------------------------------------------------------===//

#include "gc/HeapError.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorGroup.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace tilgc;

namespace {

uint32_t oomSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("oom.list");
  return S;
}

uint32_t oomKey() {
  static const uint32_t K = TraceTableRegistry::global().define(
      FrameLayout("oom.roots", {Trace::pointer(), Trace::pointer()}));
  return K;
}

/// Conses onto the list in \p F's slot 1 until the collector throws.
/// Returns only if the cap never trips (the caller reports that).
void growUntilExhausted(Mutator &M, Frame &F) {
  for (uint64_t I = 0; I <= (64u << 20); ++I) { // Paranoia bound.
    Value Cell = M.allocRecord(oomSite(), 2, 0b10);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(1));
    F.set(1, Cell);
  }
}

/// Retains an ever-growing cons list until the collector throws. Returns
/// the caught exception's message + dump; fails the test on any other
/// outcome.
HeapExhausted exhaust(Mutator &M, Frame &F) {
  try {
    growUntilExhausted(M, F);
  } catch (const HeapExhausted &E) {
    return E;
  }
  ADD_FAILURE() << "allocation loop never hit the hard limit";
  return HeapExhausted(0, OomStage::RetryAfterMinor, "");
}

void expectStructuredDump(const HeapExhausted &E, const char *CollectorTag) {
  std::string What = E.what();
  EXPECT_NE(What.find("heap exhausted"), std::string::npos) << What;
  EXPECT_NE(What.find("tilgc heap state"), std::string::npos) << What;
  // The dump names the collector, the spaces and the top allocation sites.
  EXPECT_NE(What.find(CollectorTag), std::string::npos) << What;
  EXPECT_NE(What.find("hard limit"), std::string::npos) << What;
  EXPECT_NE(What.find("oom.list"), std::string::npos) << What;
  EXPECT_GT(E.requestedBytes(), 0u);
}

MutatorConfig tinyConfig(CollectorKind Kind, const char *Name) {
  MutatorConfig C;
  C.Kind = Kind;
  C.Name = Name;
  C.BudgetBytes = 256u << 10;
  C.HardLimitBytes = 1u << 20;
  C.NurseryLimitBytes = 64u << 10;
  C.VerifyLevel = 1;
  return C;
}

} // namespace

TEST(OomProtocol, GenerationalThrowsCatchablyWithDump) {
  Mutator M(tinyConfig(CollectorKind::Generational, "gen-oom"));
  Frame F(M, oomKey());
  HeapExhausted E = exhaust(M, F);
  expectStructuredDump(E, "generational collector 'gen-oom'");
  EXPECT_GE(M.gcStats().HeapExhaustedThrows, 1u);

  // The failed request must not have corrupted anything: the heap walks
  // clean and the retained list is intact and readable.
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  uint64_t Count = 0;
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    ++Count;
  EXPECT_GT(Count, 1000u);

  // Exhaustion is sticky under a hard cap (the copy reserve is part of the
  // footprint), but it must *stay* structured: a second attempt throws
  // again rather than crashing.
  HeapExhausted E2 = exhaust(M, F);
  EXPECT_NE(std::string(E2.what()).find("heap exhausted"),
            std::string::npos);
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(OomProtocol, SemispaceThrowsCatchablyWithDump) {
  Mutator M(tinyConfig(CollectorKind::Semispace, "semi-oom"));
  Frame F(M, oomKey());
  HeapExhausted E = exhaust(M, F);
  expectStructuredDump(E, "semispace collector 'semi-oom'");
  EXPECT_GE(M.gcStats().HeapExhaustedThrows, 1u);

  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  uint64_t Count = 0;
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    ++Count;
  EXPECT_GT(Count, 1000u);
}

TEST(OomProtocol, MarkCompactCompletesWhereSemispaceReservationDies) {
  // The retired pre-flight workaround, proven structurally: a semispace
  // major needs from + to standing at once, so a budget whose space pair
  // overshoots the hard cap dies at the first major's pre-flight. The
  // compactor keeps ONE standing tenured space inside the same cap and
  // completes the same retention in place.
  auto config = [](GenerationalCollector::MajorGcKind K, const char *Name) {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.Name = Name;
    C.BudgetBytes = 1536u << 10; // Space pair 2x736K; single space 736K.
    C.HardLimitBytes = 1u << 20;
    C.NurseryLimitBytes = 64u << 10;
    C.VerifyLevel = 1;
    C.MajorGc = K;
    return C;
  };
  auto retain = [](Mutator &M, Frame &F, uint64_t Cells) {
    for (uint64_t I = 0; I < Cells; ++I) {
      Value Cell = M.allocRecord(oomSite(), 2, 0b10);
      M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
      M.initField(Cell, 1, F.get(1));
      F.set(1, Cell);
    }
    M.collect(/*Major=*/true);
  };
  constexpr uint64_t Cells = 12000; // ~384K retained.

  {
    Mutator M(config(GenerationalCollector::MajorGcKind::Semispace,
                     "pair-exceeds-cap"));
    Frame F(M, oomKey());
    try {
      retain(M, F, Cells);
      ADD_FAILURE() << "the 2x reservation fit under the cap";
    } catch (const HeapExhausted &E) {
      expectStructuredDump(E, "generational collector 'pair-exceeds-cap'");
    }
    std::string Error;
    EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  }
  {
    Mutator M(config(GenerationalCollector::MajorGcKind::MarkCompact,
                     "compact-fits-cap"));
    Frame F(M, oomKey());
    retain(M, F, Cells); // Must NOT throw.
    EXPECT_GE(M.gcStats().NumMajorGC, 1u);
    EXPECT_EQ(M.gcStats().HeapExhaustedThrows, 0u);
    EXPECT_LE(M.gcStats().MaxFootprintBytes, size_t{1u << 20})
        << "the compactor's peak footprint breached the hard limit";
    uint64_t Count = 0;
    for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
      ++Count;
    EXPECT_EQ(Count, Cells);
    std::string Error;
    EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  }
}

TEST(OomProtocol, MarkCompactExhaustionIsNotSticky) {
  // Contrast with GenerationalThrowsCatchablyWithDump: the semispace
  // major's exhaustion is sticky (the copy reserve is part of the standing
  // footprint), but the compactor throws from the growth fallback with the
  // heap intact and nothing extra reserved — dropping data and retrying
  // must succeed.
  MutatorConfig C = tinyConfig(CollectorKind::Generational, "mc-retry");
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  Mutator M(C);
  Frame F(M, oomKey());
  HeapExhausted E = exhaust(M, F);
  expectStructuredDump(E, "generational collector 'mc-retry'");
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;

  // Drop the retained list: the live set is now tiny.
  F.set(1, Value::null());
  uint64_t ThrowsBefore = M.gcStats().HeapExhaustedThrows;
  M.collect(/*Major=*/true); // In-place compaction reclaims everything.
  for (uint64_t I = 0; I < 2000; ++I) { // ~64K: far under the cap.
    Value Cell = M.allocRecord(oomSite(), 2, 0b10);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(1));
    F.set(1, Cell);
  }
  EXPECT_EQ(M.gcStats().HeapExhaustedThrows, ThrowsBefore)
      << "retry after dropping data must not re-throw";
  uint64_t Count = 0;
  for (Value V = F.get(1); !V.isNull(); V = Mutator::getField(V, 1))
    ++Count;
  EXPECT_EQ(Count, 2000u);
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(OomProtocol, LargeObjectAllocationRespectsHardLimit) {
  Mutator M(tinyConfig(CollectorKind::Generational, "gen-los-oom"));
  Frame F(M, oomKey());
  try {
    for (uint64_t I = 0;; ++I) {
      // Over LargeObjectThresholdBytes: routed to the LOS.
      Value Arr = M.allocPtrArray(oomSite(), 2048);
      M.initField(Arr, 0, F.get(1));
      F.set(1, Arr);
      ASSERT_LT(I, 64u << 20);
    }
  } catch (const HeapExhausted &E) {
    expectStructuredDump(E, "generational collector");
  }
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
}

TEST(OomProtocol, ZeroHardLimitPreservesSoftBudgetGrowth) {
  // The paper's behavior: no hard limit means collections grow past the
  // budget (counting overruns) and never throw.
  MutatorConfig C = tinyConfig(CollectorKind::Generational, "gen-soft");
  C.HardLimitBytes = 0;
  Mutator M(C);
  Frame F(M, oomKey());
  for (uint64_t I = 0; I < 40000; ++I) {
    Value Cell = M.allocRecord(oomSite(), 2, 0b10);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(1));
    F.set(1, Cell);
  }
  EXPECT_EQ(M.gcStats().HeapExhaustedThrows, 0u);
  EXPECT_GT(M.gcStats().BudgetOverruns, 0u);
}

/// Which of the two frames a HeapExhausted leaves holds a handler.
enum class HandlerAt { None, Outer, Inner };

/// Pushes two frames, installs a handler on one of them (or neither), and
/// retains allocations in the inner one until the collector throws.
void exhaustTwoFramesDeep(Mutator &M, HandlerAt Where) {
  Frame Outer(M, oomKey());
  uint64_t H = 0;
  if (Where == HandlerAt::Outer)
    H = M.pushHandler(Outer.base());
  Frame Inner(M, oomKey());
  if (Where == HandlerAt::Inner)
    H = M.pushHandler(Inner.base());
  growUntilExhausted(M, Inner);
  ADD_FAILURE() << "allocation loop never hit the hard limit";
  if (H != 0)
    M.popHandler(H);
}

/// A HeapExhausted escaping frames unwinds the shadow stack with the C++
/// stack: every frame it leaves pops as a return (through the stub when
/// marked) and drops its handlers, so the catcher resumes with exactly its
/// own frames and handlers live.
TEST(OomProtocol, HeapExhaustedUnwindsFramesAndHandlers) {
  for (CollectorKind Kind :
       {CollectorKind::Generational, CollectorKind::Semispace}) {
    for (HandlerAt Where :
         {HandlerAt::None, HandlerAt::Outer, HandlerAt::Inner}) {
      SCOPED_TRACE(testing::Message()
                   << "generational=" << (Kind == CollectorKind::Generational)
                   << " handler=" << static_cast<int>(Where));
      MutatorConfig C = tinyConfig(Kind, "unwind-oom");
      // The compactor's exhaustion is not sticky (see
      // MarkCompactExhaustionIsNotSticky), so allocation can resume.
      C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
      C.UseStackMarkers = true;
      C.MarkerPeriod = 1; // Every collection marks every frame.
      Mutator M(C);
      Frame Catcher(M, oomKey());
      uint64_t Mine = M.pushHandler(Catcher.base());
      size_t Depth = M.stack().frameCount();

      bool Threw = false;
      try {
        exhaustTwoFramesDeep(M, Where);
      } catch (const HeapExhausted &) {
        Threw = true;
      }
      ASSERT_TRUE(Threw);
      EXPECT_EQ(M.stack().frameCount(), Depth);
      EXPECT_EQ(M.stack().topFrameBase(), Catcher.base());
      std::string Error;
      EXPECT_TRUE(M.verifyHeap(Error)) << Error;

      // The retained list died with the inner frame, so the compactor has
      // room again (the semispace collector's exhaustion is sticky: its
      // copy reserve is part of the standing footprint).
      if (Kind == CollectorKind::Generational) {
        M.collect(/*Major=*/true);
        for (int I = 0; I < 1000; ++I) {
          Value Cell = M.allocRecord(oomSite(), 2, 0b10);
          M.initField(Cell, 0, Value::fromInt(I));
          M.initField(Cell, 1, Catcher.get(1));
          Catcher.set(1, Cell);
        }
      }
      // A raise lands on the catcher's own handler, not on a stale one
      // left by a frame the exception unwound.
      MLRaise R = [&] {
        Frame Callee(M, oomKey());
        return M.raise(Value::fromInt(7));
      }();
      EXPECT_EQ(R.HandlerId, Mine);
      EXPECT_EQ(M.stack().frameCount(), Depth);
      EXPECT_TRUE(M.verifyHeap(Error)) << Error;
    }
  }
}

/// Every Table 1 workload, both collectors: under a tiny hard limit the run
/// either completes (then a retained allocation loop forces the limit) or
/// throws HeapExhausted — and in all cases the heap verifies clean after.
class WorkloadOom
    : public ::testing::TestWithParam<std::tuple<size_t, CollectorKind>> {};

TEST_P(WorkloadOom, StructuredFailurePastHardLimit) {
  const auto &Workloads = allWorkloads();
  Workload &W = *Workloads[std::get<0>(GetParam())];
  CollectorKind Kind = std::get<1>(GetParam());

  MutatorConfig C = tinyConfig(Kind, W.name());
  C.HardLimitBytes = 384u << 10;
  C.BudgetBytes = 128u << 10;
  Mutator M(C);
  bool Threw = false;
  try {
    uint64_t Sum = W.run(M, /*Scale=*/0.12);
    // Fit under the cap: the checksum must still be right, and a retained
    // loop must then hit the limit structurally.
    EXPECT_EQ(Sum, W.expected(0.12)) << W.name();
    Frame F(M, oomKey());
    HeapExhausted E = exhaust(M, F);
    EXPECT_NE(std::string(E.what()).find("tilgc heap state"),
              std::string::npos);
    Threw = true;
  } catch (const HeapExhausted &E) {
    EXPECT_NE(std::string(E.what()).find("tilgc heap state"),
              std::string::npos);
    Threw = true;
  }
  EXPECT_TRUE(Threw) << W.name() << ": never saw HeapExhausted";
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << W.name() << ": " << Error;
  EXPECT_GE(M.gcStats().HeapExhaustedThrows, Threw ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadOom,
    ::testing::Combine(::testing::Range<size_t>(0, 11),
                       ::testing::Values(CollectorKind::Generational,
                                         CollectorKind::Semispace)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, CollectorKind>>
           &Info) {
      std::string Name = allWorkloads()[std::get<0>(Info.param)]->name();
      for (char &Ch : Name)
        if (!isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name + (std::get<1>(Info.param) == CollectorKind::Generational
                         ? "_gen"
                         : "_semi");
    });

TEST(OomProtocolDeath, UncaughtMLExceptionDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MutatorConfig C;
        C.Name = "uncaught-exn";
        Mutator M(C);
        Frame F(M, oomKey());
        (void)M.raise(Value::fromInt(7)); // No handler installed.
      },
      "uncaught ML exception in mutator 'uncaught-exn'");
}

TEST(OomProtocolDeath, OutOfOrderFramePopDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Only a raise may leave a frame below the top unpopped, and only one it
  // cut (at or above the new stack top). Popping a live frame out from
  // under another is fatal in every build mode, not an erased assert.
  EXPECT_DEATH(
      {
        MutatorConfig C;
        C.Name = "out-of-order";
        Mutator M(C);
        size_t Below = M.pushFrame(oomKey());
        (void)M.pushFrame(oomKey());
        M.popFrame(Below);
      },
      "mutator 'out-of-order' popped the frame at slot 0 out of order");
}

TEST(OomProtocolDeath, RaiseReachingAnotherHandlerDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A token handed to a site other than the one its raise targeted means
  // a frame between them swallowed or swapped it: fatal in every mode.
  EXPECT_DEATH(
      {
        MutatorConfig C;
        C.Name = "wrong-handler";
        Mutator M(C);
        Frame F(M, oomKey());
        uint64_t Outer = M.pushHandler(F.base());
        uint64_t Inner = M.pushHandler(F.base());
        (void)Inner;
        MLRaise R = M.raise(Value::fromInt(7)); // Targets Inner.
        (void)M.caught(R, Outer);
      },
      "a raise for handler #2 reached the site of handler #1");
}

TEST(OomProtocolDeath, HostAllocationFailureDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A reservation so large the host refuses it: the always-on fatal path
  // (not an NDEBUG-erased assert, not a null dereference).
  EXPECT_DEATH(
      {
        Space S;
        S.reserve(~size_t{0} / 2);
      },
      "space reservation of .* failed: host out of memory");
}

TEST(OomProtocolDeath, UnaddressableReservationDiesBeforeMalloc) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Rounding SIZE_MAX up to whole words would wrap to a 16-byte space; the
  // request must die as unsatisfiable instead of being silently shrunk.
  EXPECT_DEATH(
      {
        Space S;
        S.reserve(~size_t{0});
      },
      "space reservation of .* failed: host out of memory");
}

TEST(OomProtocolDeath, ShadowStackOverflowDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Overflow is checked in every build mode: a release build must die
  // naming the depth and the capacity, not write past the reservation.
  EXPECT_DEATH(
      {
        ShadowStack S(64);
        for (;;)
          S.pushFrame(oomKey(), 3);
      },
      "shadow stack overflow: pushing a 3-slot frame at depth 21 \\(63 "
      "slots in use\\) exceeds the capacity of 64 slots");
}

TEST(OomProtocolDeath, NurseryPointerInReusedFrameDiesAtMinor) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The §5 skip is sound only while no root in an unchanged frame points
  // into the nursery. VerifyLevel 2 audits that at every minor collection
  // that skips reused frames, in every build mode: a nursery pointer
  // written straight into a marked frame's slot (a store compiled code can
  // never make) must die naming the slot, not be silently skipped.
  EXPECT_DEATH(
      {
        MutatorConfig C;
        C.Name = "reuse-audit";
        C.UseStackMarkers = true;
        C.MarkerPeriod = 1;
        C.VerifyLevel = 2;
        Mutator M(C);
        Frame Old(M, oomKey());
        // A root the scan cache records (it skips null slots); the minor
        // below promotes its referent.
        Old.set(1, M.allocRecord(oomSite(), 2, 0b10));
        Frame Top(M, oomKey());
        M.collect(/*Major=*/false); // Marks both frames: Old is reused.
        Value Young = M.allocRecord(oomSite(), 2, 0b10);
        M.stack().slot(Old.base(), 1) = Young.bits();
        M.collect(/*Major=*/false);
      },
      "stack-reuse audit failed at minor GC #2: slot 0x[0-9a-f]+ of a "
      "reused \\(unchanged\\) frame holds nursery pointer");
}

//===----------------------------------------------------------------------===//
// Multi-mutator exhaustion: a hard cap shared by K threads must surface a
// catchable HeapExhausted on EVERY thread (each unwinds through its own
// stop-the-world slow path) and leave a heap the verifier certifies.
// Compiled into the NDEBUG twin too: the protocol cannot lean on asserts.
//===----------------------------------------------------------------------===//

TEST(OomProtocolMultiMutator, HardCapUnwindsEveryThread) {
  MutatorConfig C = tinyConfig(CollectorKind::Generational, "mm-oom");
  C.HardLimitBytes = 2u << 20;
  const unsigned K = 3;
  MutatorGroup G(C, K);
  std::vector<int> Caught(K, 0);
  G.run([&](Mutator &M, unsigned I) {
    Frame F(M, oomKey());
    try {
      for (uint64_t J = 0;; ++J) {
        Value Cell = M.allocRecord(oomSite(), 2, 0b10);
        M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(J)));
        M.initField(Cell, 1, F.get(1));
        F.set(1, Cell);
        if (J > (64u << 20)) // Paranoia bound; the cap trips far earlier.
          break;
      }
    } catch (const HeapExhausted &E) {
      std::string What = E.what();
      if (What.find("heap exhausted") != std::string::npos &&
          What.find("tilgc heap state") != std::string::npos)
        Caught[I] = 1;
    }
    // Dropping this thread's list (Frame pops here) frees room, so the
    // remaining threads run on until the cap trips for each in turn.
  });
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(Caught[I], 1) << "thread " << I
                            << " did not catch a structured HeapExhausted";
  EXPECT_GE(G.gcStats().HeapExhaustedThrows, uint64_t(K));
  std::string Error;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Error)) << Error;
}
