//===- tests/mutator_test.cpp - Runtime + collector integration tests ------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "workloads/MLLib.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t siteTest() {
  static const uint32_t S = AllocSiteRegistry::global().define("test.site");
  return S;
}

uint32_t keyTest() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "test.mutator",
      {Trace::pointer(), Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

MutatorConfig smallConfig(CollectorKind Kind, bool Markers = false) {
  MutatorConfig C;
  C.Kind = Kind;
  C.BudgetBytes = 256u << 10; // Tiny: forces frequent collections.
  C.UseStackMarkers = Markers;
  return C;
}

/// Builds an int list 1..N and checks its contents after forcing GCs.
void buildAndCheckList(Mutator &M, int N) {
  Frame F(M, keyTest());
  for (int I = N; I >= 1; --I)
    F.set(1, consInt(M, siteTest(), I, slot(F, 1)));

  M.collect(/*Major=*/false);
  M.collect(/*Major=*/true);

  Value P = F.get(1);
  for (int I = 1; I <= N; ++I) {
    ASSERT_FALSE(P.isNull());
    EXPECT_EQ(headInt(P), I);
    P = tail(P);
  }
  EXPECT_TRUE(P.isNull());
}

} // namespace

TEST(MutatorTest, SemispacePreservesLists) {
  Mutator M(smallConfig(CollectorKind::Semispace));
  buildAndCheckList(M, 5000);
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MutatorTest, GenerationalPreservesLists) {
  Mutator M(smallConfig(CollectorKind::Generational));
  buildAndCheckList(M, 5000);
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MutatorTest, GenerationalWithMarkersPreservesLists) {
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  buildAndCheckList(M, 5000);
}

TEST(MutatorTest, SemispaceWithMarkersPreservesLists) {
  Mutator M(smallConfig(CollectorKind::Semispace, /*Markers=*/true));
  buildAndCheckList(M, 5000);
}

TEST(MutatorTest, SharedStructureIsPreservedNotDuplicated) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  // Two records sharing a tail: after GC they must still share.
  F.set(1, consInt(M, siteTest(), 7, slot(F, 3)));
  F.set(2, consPtr(M, siteTest(), slot(F, 1), slot(F, 3)));
  F.set(3, consPtr(M, siteTest(), slot(F, 1), slot(F, 3)));
  M.collect(true);
  EXPECT_EQ(head(F.get(2)).asPtr(), head(F.get(3)).asPtr())
      << "shared substructure must stay shared after copying";
  EXPECT_EQ(headInt(head(F.get(2))), 7);
}

TEST(MutatorTest, CyclicStructuresSurvive) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  Value A = M.allocRecord(siteTest(), 2, 0b11);
  F.set(1, A);
  Value B = M.allocRecord(siteTest(), 2, 0b11);
  F.set(2, B);
  M.writeField(F.get(1), 0, F.get(2), true);
  M.writeField(F.get(2), 0, F.get(1), true);
  M.collect(false);
  M.collect(true);
  // A -> B -> A.
  EXPECT_EQ(Mutator::getField(Mutator::getField(F.get(1), 0), 0).asPtr(),
            F.get(1).asPtr());
}

TEST(MutatorTest, WriteBarrierCatchesOldToYoungPointers) {
  MutatorConfig C = smallConfig(CollectorKind::Generational);
  Mutator M(C);
  Frame F(M, keyTest());
  // Make an old object.
  F.set(1, M.allocRecord(siteTest(), 2, 0b11));
  M.collect(false); // Promotes it.
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));
  // Young object, stored into the old one (barriered write).
  F.set(2, consInt(M, siteTest(), 99, slot(F, 3)));
  M.writeField(F.get(1), 0, F.get(2), true);
  F.set(2, Value::null()); // Heap reference only through the old object.
  M.collect(false);
  Value Young = Mutator::getField(F.get(1), 0);
  ASSERT_FALSE(Young.isNull());
  EXPECT_EQ(headInt(Young), 99);
  EXPECT_TRUE(GC.inTenured(Young.asPtr())) << "survivor must be promoted";
}

TEST(MutatorTest, MissingBarrierWouldLoseData) {
  // Sanity-check the test above is meaningful: initField on an *old* object
  // is the unbarriered path, and the new-large-object/pretenured-region
  // scans do not cover ordinary tenured records, so this would be unsound —
  // which is exactly why Mutator documents initField as fresh-objects-only.
  // (No assertion here; this test documents the contract.)
  SUCCEED();
}

TEST(MutatorTest, LargeArraysGoToLOS) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocNonPtrArray(siteTest(), 4096)); // 32KB > threshold.
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  EXPECT_TRUE(GC.inLOS(F.get(1).asPtr()));
  Word *Payload = F.get(1).asPtr();
  M.collect(false);
  EXPECT_EQ(F.get(1).asPtr(), Payload) << "large objects never move";
  // Unreachable large objects are swept at major collections.
  F.set(1, Value::null());
  M.collect(true);
  EXPECT_EQ(GC.largeObjectSpace().objectCount(), 0u);
}

TEST(MutatorTest, LargePtrArrayKeepsYoungReferents) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocPtrArray(siteTest(), 1024)); // In the LOS.
  F.set(2, consInt(M, siteTest(), 5, slot(F, 3)));
  // Initializing store into a fresh large object: no barrier, covered by
  // the new-large-object scan.
  M.initField(F.get(1), 10, F.get(2));
  F.set(2, Value::null());
  M.collect(false);
  Value Kept = Mutator::getField(F.get(1), 10);
  ASSERT_FALSE(Kept.isNull());
  EXPECT_EQ(headInt(Kept), 5);
}

TEST(MutatorTest, RegistersAreRoots) {
  // A frame layout that declares r2 to hold a pointer.
  static const uint32_t KReg = TraceTableRegistry::global().define(
      FrameLayout("test.reg", {Trace::nonPointer()},
                  {RegAction{2, Trace::pointer()}}));
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(3, Value::null());
  Frame FR(M, KReg);
  M.setRegister(2, consInt(M, siteTest(), 123, slot(F, 3)));
  M.collect(false);
  M.collect(true);
  EXPECT_EQ(headInt(M.getRegister(2)), 123);
}

TEST(MutatorTest, ExceptionsUnwindToHandler) {
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  Frame F(M, keyTest());
  F.set(1, consInt(M, siteTest(), 1, slot(F, 2)));

  uint64_t H = M.pushHandler(F.base());
  bool Caught = false;
  try {
    // Deep recursion, then raise.
    struct Helper {
      static void deep(Mutator &M, int N, SlotRef Exn) {
        Frame G(M, keyTest());
        G.set(1, Exn.get());
        if (N <= 0) {
          if (!G.get(1).isNull()) // Always true; visible return path.
            M.raise(G.get(1));
          return;
        }
        deep(M, N - 1, slot(G, 1));
      }
    };
    Helper::deep(M, 200, slot(F, 1));
    FAIL() << "raise must not return";
  } catch (MLRaise &R) {
    ASSERT_EQ(R.HandlerId, H);
    Caught = true;
    F.set(2, R.Exn);
  }
  ASSERT_TRUE(Caught);
  EXPECT_EQ(M.stack().topFrameBase(), F.base())
      << "shadow stack must be unwound to the handler frame";
  EXPECT_EQ(headInt(F.get(2)), 1);
  EXPECT_EQ(M.raises(), 1u);
  // The heap still works after the unwind.
  buildAndCheckList(M, 1000);
}

TEST(MutatorTest, ExceptionsInterleavedWithCollections) {
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  Frame F(M, keyTest());

  struct Helper {
    static void deep(Mutator &M, int N, int RaiseAt) {
      Frame G(M, keyTest());
      // Allocate on the way down so collections interleave with depth.
      G.set(1, consInt(M, siteTest(), N, slot(G, 2)));
      if (N == RaiseAt)
        M.raise(G.get(1));
      if (N > 0)
        deep(M, N - 1, RaiseAt);
    }
  };

  for (int Round = 0; Round < 50; ++Round) {
    uint64_t H = M.pushHandler(F.base());
    try {
      Helper::deep(M, 300, Round * 3);
      M.popHandler(H);
    } catch (MLRaise &R) {
      ASSERT_EQ(R.HandlerId, H);
      F.set(1, R.Exn);
      EXPECT_EQ(headInt(F.get(1)), Round * 3);
    }
  }
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MutatorTest, PointerUpdatesAreCounted) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocRecord(siteTest(), 2, 0b11));
  for (int I = 0; I < 10; ++I)
    M.writeField(F.get(1), 0, Value::null(), true);
  M.writeField(F.get(1), 1, Value::null(), true);
  EXPECT_EQ(M.pointerUpdates(), 11u);
}

TEST(MutatorTest, StatsTrackAllocationSplit) {
  Mutator M(smallConfig(CollectorKind::Generational));
  Frame F(M, keyTest());
  F.set(1, M.allocRecord(siteTest(), 2, 0));
  F.set(2, M.allocNonPtrArray(siteTest(), 100));
  const GcStats &S = M.gcStats();
  EXPECT_EQ(S.ObjectsAllocated, 2u);
  EXPECT_EQ(S.RecordBytesAllocated, (2u + HeaderWords) * 8u);
  EXPECT_EQ(S.ArrayBytesAllocated, (100u + HeaderWords) * 8u);
  EXPECT_EQ(S.BytesAllocated,
            S.RecordBytesAllocated + S.ArrayBytesAllocated);
}

TEST(MutatorTest, DeepStacksWithMarkersAcrossManyCollections) {
  // The central §5 scenario: a deep stack that stays put while the top
  // churns; minor collections must reuse the deep prefix.
  Mutator M(smallConfig(CollectorKind::Generational, /*Markers=*/true));
  Frame F(M, keyTest());

  struct Helper {
    /// Builds a deep stack, then at the bottom loops allocating garbage to
    /// force many collections.
    static uint64_t deep(Mutator &M, int N) {
      Frame G(M, keyTest());
      G.set(1, consInt(M, siteTest(), N, slot(G, 2)));
      if (N > 0)
        return deep(M, N - 1) + static_cast<uint64_t>(headInt(G.get(1)));
      uint64_t Sum = 0;
      for (int I = 0; I < 20000; ++I) {
        G.set(3, consInt(M, siteTest(), I, slot(G, 4)));
        Sum += static_cast<uint64_t>(headInt(G.get(3)));
      }
      return Sum;
    }
  };

  uint64_t Got = Helper::deep(M, 500);
  uint64_t WantTop = 500ull * 501 / 2;
  uint64_t WantLoop = 19999ull * 20000 / 2;
  EXPECT_EQ(Got, WantTop + WantLoop);

  const GcStats &S = M.gcStats();
  EXPECT_GT(S.NumGC, 5u);
  EXPECT_GT(S.FramesReused, S.FramesScanned)
      << "with a stable deep stack, most frames must be reused";
}

namespace {
long minorFaultsOfThisThread() {
  rusage U{};
  getrusage(RUSAGE_THREAD, &U);
  return U.ru_minflt;
}
} // namespace

TEST(MutatorTest, FreshMutatorCommitsOnlyTheStackItTouches) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators fault in their own shadow memory";
#endif
  // The shadow stack reserves 4M slots (32 MiB) but commits pages only as
  // frames first touch them: a mutator that stays shallow must not pay a
  // page fault per stack page (8,192 of them when the reservation was
  // zeroed).
  long Before = minorFaultsOfThisThread();
  {
    Mutator M;
    Frame F(M, keyTest());
    F.set(1, consInt(M, siteTest(), 1, slot(F, 2)));
  }
  long Faults = minorFaultsOfThisThread() - Before;
  EXPECT_LT(Faults, 1024) << "constructing a mutator faulted in its stack";
}
