//===- tests/crossing_map_test.cpp - Crossing-map remembered set ----------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object-start crossing map that makes card scanning O(dirty cards):
///
///  * encoding units: boundary starts, card-straddling objects, objects
///    strictly inside one card, back-skip chains longer than one entry can
///    express, and the attach/epoch rebinding contract;
///  * collector-level: the per-collection card-scan cost is bounded by the
///    dirty-card count (not live tenured data), the map survives tenured
///    growth across majors (the card-table rebind regression), and parallel
///    promotion maintains it identically to the serial engine.
///
//===----------------------------------------------------------------------===//

#include "heap/CardTable.h"
#include "heap/CrossingMap.h"
#include "heap/Space.h"
#include "runtime/Mutator.h"

#include "workloads/MLLib.h"

#include <gtest/gtest.h>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t cmSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("cm.site");
  return S;
}

uint32_t cmKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "cm.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer(),
       Trace::pointer()}));
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Encoding units (raw Space + CrossingMap, no collector).
//===----------------------------------------------------------------------===//

TEST(CrossingMapUnit, FreshMapKnowsNothing) {
  Space S;
  S.reserve(64 * 1024);
  CrossingMap CM;
  CM.attach(S);
  ASSERT_GT(CM.numCards(), 0u);
  for (size_t C = 0; C < CM.numCards(); ++C)
    EXPECT_EQ(CM.objectStartCovering(C), nullptr);
}

TEST(CrossingMapUnit, StraddlersResolveAndInteriorObjectsRecordNothing) {
  Space S;
  S.reserve(64 * 1024);
  CrossingMap CM;
  CM.attach(S);

  // A: 100-element array (102 total words): covers the first word of cards
  // 0 (its own header) and 1 (word 64 is payload), not card 2 (word 128).
  Word DA = header::make(ObjectKind::NonPtrArray, 100);
  Word *A = S.allocate(DA, meta::make(1, 0));
  const Word *HA = A - HeaderWords;
  CM.recordObject(HA, objectTotalWords(DA));
  EXPECT_EQ(CM.objectStartCovering(0), HA);
  EXPECT_EQ(CM.objectStartCovering(1), HA);
  EXPECT_EQ(CM.objectStartCovering(2), nullptr);

  // B: 8 total words at [102, 110) — strictly inside card 1, covers no
  // card's first word, must record nothing.
  Word DB = header::make(ObjectKind::NonPtrArray, 6);
  Word *B = S.allocate(DB, meta::make(2, 0));
  CM.recordObject(B - HeaderWords, objectTotalWords(DB));
  EXPECT_EQ(CM.objectStartCovering(1), HA) << "interior object clobbered A";
  EXPECT_EQ(CM.objectStartCovering(2), nullptr);

  // C: starts mid-card-1 at word 110 and spans into card 2: card 2's entry
  // becomes a direct in-previous-card offset.
  Word DC = header::make(ObjectKind::NonPtrArray, 30);
  Word *C = S.allocate(DC, meta::make(3, 0));
  const Word *HC = C - HeaderWords;
  CM.recordObject(HC, objectTotalWords(DC));
  EXPECT_EQ(CM.objectStartCovering(2), HC);
  EXPECT_EQ(CM.objectStartCovering(1), HA) << "C must not touch card 1";
}

TEST(CrossingMapUnit, BackSkipChainsResolvePastMaxSkip) {
  // One object spanning ~400 cards: entries past MaxSkip (191 cards) clamp
  // and chain, so resolution takes more than one hop.
  constexpr size_t SpanCards = 400;
  Space S;
  S.reserve((SpanCards + 8) * CrossingMap::CardBytes);
  CrossingMap CM;
  CM.attach(S);

  uint32_t Len = static_cast<uint32_t>(SpanCards * CrossingMap::CardWords);
  Word D = header::make(ObjectKind::NonPtrArray, Len);
  Word *A = S.allocate(D, meta::make(1, 0));
  ASSERT_NE(A, nullptr);
  const Word *HA = A - HeaderWords;
  CM.recordObject(HA, objectTotalWords(D));

  size_t First = CM.cardOf(HA);
  size_t Last = CM.cardOf(HA + objectTotalWords(D) - 1);
  ASSERT_GT(Last - First, static_cast<size_t>(CrossingMap::MaxSkip));
  for (size_t C = First; C <= Last; ++C)
    ASSERT_EQ(CM.objectStartCovering(C), HA) << "card " << C;
}

TEST(CrossingMapUnit, PadFillersCoverTheirCards) {
  // Compaction leaves pad headers over the gaps it opens; the pads are
  // recorded like objects so their cards still resolve.
  Space S;
  S.reserve(64 * 1024);
  CrossingMap CM;
  CM.attach(S);

  Word DA = header::make(ObjectKind::NonPtrArray, 30);
  Word *A = S.allocate(DA, meta::make(1, 0));
  CM.recordObject(A - HeaderWords, objectTotalWords(DA));

  // Simulate a 200-word pad directly after A (spans cards 0..3).
  Word *PadAt = A + 30;
  *PadAt = header::makePad(200);
  CM.recordObject(PadAt, 200);
  EXPECT_EQ(CM.objectStartCovering(1), PadAt);
  EXPECT_EQ(CM.objectStartCovering(2), PadAt);
  EXPECT_EQ(CM.objectStartCovering(3), PadAt);
  EXPECT_EQ(CM.objectStartCovering(0), A - HeaderWords);
}

TEST(CrossingMapUnit, RebindContractTracksReserveEpoch) {
  Space S;
  S.reserve(8 * 1024);
  CrossingMap CM;
  CM.attach(S);
  EXPECT_TRUE(CM.boundTo(S));

  // Re-reserving the space (even at the same size, even if the allocator
  // hands back the same address) bumps the epoch: the map must notice.
  S.release();
  S.reserve(8 * 1024);
  EXPECT_FALSE(CM.boundTo(S)) << "stale bind after re-reserve undetected";
  CM.attach(S);
  EXPECT_TRUE(CM.boundTo(S));
  EXPECT_EQ(CM.objectStartCovering(0), nullptr) << "attach must reset";
}

//===----------------------------------------------------------------------===//
// Collector-level behavior.
//===----------------------------------------------------------------------===//

namespace {

/// Builds a list of \p N cells and promotes it into the tenured generation
/// (slot 1 holds the list).
void buildPromotedList(Mutator &M, Frame &F, int N) {
  F.set(1, Value::null());
  for (int I = 0; I < N; ++I)
    F.set(1, consInt(M, cmSite(), I, slot(F, 1)));
  M.collect(false); // Promote-all: the whole list tenures.
}

} // namespace

TEST(CrossingMapGc, ScanCostBoundedByDirtyCardsNotLiveData) {
  MutatorConfig C;
  C.BudgetBytes = 16u << 20;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, cmKey());

  // ~40k cells ≈ 1.25MB of live tenured data spanning thousands of cards.
  buildPromotedList(M, F, 40000);
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));
  ASSERT_GT(M.gcStats().CrossingMapUpdates, 0u)
      << "promotion must feed the crossing map";
  M.collect(false); // Quiesce: no dirty cards pending.

  const GcStats &S = M.gcStats();
  uint64_t CardsBefore = S.CardsScanned;
  uint64_t SlotsBefore = S.CardSlotsVisited;

  // One old->young store -> one dirty card. The scan must touch that card
  // (plus at most a neighbor for a straddling run), not the ~2500 cards of
  // live tenured data.
  F.set(2, consInt(M, cmSite(), 777, slot(F, 3)));
  M.writeField(F.get(1), 1, F.get(2), /*IsPointerField=*/true);
  F.set(2, Value::null());
  ASSERT_EQ(GC.rememberedSet().cards().numDirtyCards(), 1u);
  M.collect(false);

  EXPECT_LE(S.CardsScanned - CardsBefore, 2u)
      << "card scan walked clean cards";
  EXPECT_LE(S.CardSlotsVisited - SlotsBefore, 2 * CrossingMap::CardWords)
      << "card scan visited fields outside the dirty run";
  // And the store was not lost: the new head reaches the old list.
  EXPECT_EQ(headInt(tail(F.get(1))), 777);
}

TEST(CrossingMapGc, CardRebindSurvivesTenuredGrowthBoundary) {
  // Regression for stale card/crossing-map binds: grow the tenured space
  // through several majors (re-reserving its backing), then prove an
  // old->young store recorded *after* the growth still protects its child.
  MutatorConfig C;
  C.BudgetBytes = 256u << 10; // Tiny: growth majors happen quickly.
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.VerifyLevel = 2; // Remembered-set completeness audit every minor.
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, cmKey());

  // A tenured parent record with one pointer field.
  F.set(1, M.allocRecord(cmSite(), 1, 0b1));
  M.collect(false);
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));

  // Churn promoted garbage until the tenured space has grown (majors
  // re-reserve the semispaces).
  uint64_t MajorsBefore = M.gcStats().NumMajorGC;
  for (int Round = 0; Round < 30 && M.gcStats().NumMajorGC < MajorsBefore + 2;
       ++Round) {
    F.set(2, Value::null());
    for (int I = 0; I < 4000; ++I)
      F.set(2, consInt(M, cmSite(), I, slot(F, 2)));
    M.collect(false);
  }
  F.set(2, Value::null());
  ASSERT_GE(M.gcStats().NumMajorGC, MajorsBefore + 2)
      << "workload failed to force tenured growth";
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));

  // Mutate across the growth boundary: the dirty card must land in the
  // *current* table/map bind, and the next minor must find the child.
  F.set(2, consInt(M, cmSite(), 31337, slot(F, 3)));
  M.writeField(F.get(1), 0, F.get(2), /*IsPointerField=*/true);
  F.set(2, Value::null());
  M.collect(false);
  Value Child = Mutator::getField(F.get(1), 0);
  ASSERT_FALSE(Child.isNull());
  EXPECT_EQ(headInt(Child), 31337);
}

TEST(CrossingMapGc, CardRebindSurvivesMarkCompactGrowthBoundary) {
  // The mark-compact twin of the growth-boundary regression above, now with
  // the RegionManager in the rebind chain: each growth fallback releases
  // the old tenured reservation and re-attaches the region overlay, the
  // card table and the crossing map to the grown space (a fresh reserve
  // epoch), and in-place majors in between rebuild crossing metadata after
  // every slide. Grow the region set across two majors, then prove an
  // old->young store recorded after the last rebind still protects its
  // child through the next minor's card scan.
  MutatorConfig C;
  C.BudgetBytes = 256u << 10; // Tiny: growth majors happen quickly.
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.VerifyLevel = 2; // Remembered-set completeness audit every minor.
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, cmKey());

  // A tenured parent record with one pointer field.
  F.set(1, M.allocRecord(cmSite(), 1, 0b1));
  M.collect(false);
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));

  // Retain a growing prefix so in-place compaction cannot keep absorbing
  // the pressure: the tenured space must actually grow (re-reserving its
  // backing and re-attaching the region overlay) across at least two
  // majors.
  uint64_t MajorsBefore = M.gcStats().NumMajorGC;
  for (int Round = 0; Round < 30 && M.gcStats().NumMajorGC < MajorsBefore + 2;
       ++Round) {
    for (int I = 0; I < 2000; ++I)
      F.set(2, consInt(M, cmSite(), I, slot(F, 2)));
    M.collect(false);
  }
  ASSERT_GE(M.gcStats().NumMajorGC, MajorsBefore + 2)
      << "workload failed to force tenured growth";
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));

  // Mutate across the growth boundary: the dirty card must land in the
  // *current* table/map bind, and the next minor must find the child.
  F.set(3, consInt(M, cmSite(), 31337, slot(F, 3)));
  M.writeField(F.get(1), 0, F.get(3), /*IsPointerField=*/true);
  F.set(3, Value::null());
  M.collect(false);
  Value Child = Mutator::getField(F.get(1), 0);
  ASSERT_FALSE(Child.isNull());
  EXPECT_EQ(headInt(Child), 31337);
  // The retained prefix survived every slide and rebind too.
  EXPECT_GE(mllib::length(F.get(2)), 2000u);
}

namespace {

class CrossingMapParallel : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(CrossingMapParallel, PromotionMaintainsMapUnderParallelEvacuation) {
  // GcThreads > 1 stripes the card sweep across workers; every dirty card
  // over the promoted layout must still resolve to an object start (the
  // debug scan asserts on Unknown below the frontier).
  MutatorConfig C;
  C.BudgetBytes = 16u << 20;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.GcThreads = GetParam();
  C.VerifyLevel = 2;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, cmKey());

  // A promoted list of pointer-headed cells (head starts null).
  F.set(1, Value::null());
  F.set(3, Value::null());
  for (int I = 0; I < 20000; ++I)
    F.set(1, consPtr(M, cmSite(), slot(F, 3), slot(F, 1)));
  M.collect(false);
  ASSERT_TRUE(GC.inTenured(F.get(1).asPtr()));

  // Dirty many scattered cards: hang a fresh young child off every 97th
  // cell, then drop all stack paths to the children.
  int Hung = 0;
  {
    Value P = F.get(1);
    for (int I = 0; !P.isNull(); P = tail(P), ++I) {
      if (I % 97 == 0) {
        F.set(2, P); // P survives the allocation below via the slot.
        F.set(3, consInt(M, cmSite(), 1000 + I, slot(F, 4)));
        P = F.get(2);
        M.writeField(P, 0, F.get(3), /*IsPointerField=*/true);
        ++Hung;
      }
    }
  }
  F.set(2, Value::null());
  F.set(3, Value::null());
  ASSERT_GT(GC.rememberedSet().cards().numDirtyCards(), 8u);
  M.collect(false);

  // Every child survived through its card alone, with its payload intact.
  int Found = 0;
  {
    int I = 0;
    for (Value P = F.get(1); !P.isNull(); P = tail(P), ++I) {
      Value H = head(P);
      if (I % 97 == 0) {
        ASSERT_FALSE(H.isNull()) << "child lost at cell " << I;
        EXPECT_EQ(headInt(H), 1000 + I);
        ++Found;
      } else {
        EXPECT_TRUE(H.isNull());
      }
    }
  }
  EXPECT_EQ(Found, Hung);
}

INSTANTIATE_TEST_SUITE_P(Threads, CrossingMapParallel,
                         ::testing::Values(2u, 8u));
