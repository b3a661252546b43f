//===- tests/evacuator_test.cpp - Copy-engine unit tests --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Evacuator.h"

#include "stack/RegisterFile.h"
#include "stack/ShadowStack.h"
#include "stack/StackScanner.h"

#include <gtest/gtest.h>

using namespace tilgc;

namespace {

Word *mkRecord(Space &S, uint32_t Fields, uint32_t Mask, uint32_t Site = 1) {
  Word *P = S.allocate(header::make(ObjectKind::Record, Fields, Mask),
                       meta::make(Site, 0));
  for (uint32_t I = 0; I < Fields; ++I)
    P[I] = 0;
  return P;
}

/// Evacuates a 4,096-cell list (96 KiB live) into a 4 KiB destination.
void evacuateIntoTooSmallSpace() {
  Space From, To;
  From.reserve(128 * 1024);
  To.reserve(4096);
  Word Root = 0;
  for (int I = 0; I < 4096; ++I) {
    Word *Cell = mkRecord(From, 1, 0b1);
    Cell[0] = Root;
    Root = reinterpret_cast<Word>(Cell);
  }
  Evacuator::Config Cfg;
  Cfg.From = {&From, nullptr, nullptr};
  Cfg.Dest = &To;
  Evacuator E(Cfg);
  E.forwardSlot(&Root);
  E.drain();
}

} // namespace

TEST(EvacuatorTest, CopiesReachableGraphOnce) {
  Space From, To;
  From.reserve(8192);
  To.reserve(8192);
  // A -> B, A -> C, B -> C (C shared).
  Word *C = mkRecord(From, 1, 0);
  C[0] = 777;
  Word *B = mkRecord(From, 1, 0b1);
  B[0] = reinterpret_cast<Word>(C);
  Word *A = mkRecord(From, 2, 0b11);
  A[0] = reinterpret_cast<Word>(B);
  A[1] = reinterpret_cast<Word>(C);

  Word Root = reinterpret_cast<Word>(A);
  Evacuator::Config Cfg;
  Cfg.From = {&From, nullptr, nullptr};
  Cfg.Dest = &To;
  Evacuator E(Cfg);
  E.forwardSlot(&Root);
  E.drain();

  EXPECT_EQ(E.objectsCopied(), 3u);
  Word *NA = reinterpret_cast<Word *>(Root);
  ASSERT_TRUE(To.contains(NA));
  Word *NB = reinterpret_cast<Word *>(NA[0]);
  Word *NC1 = reinterpret_cast<Word *>(NA[1]);
  Word *NC2 = reinterpret_cast<Word *>(NB[0]);
  EXPECT_EQ(NC1, NC2) << "shared object must be copied once";
  EXPECT_EQ(NC1[0], 777u);
}

TEST(EvacuatorDeathTest, DestinationOverflowDiesStructurally) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A copy that finds no destination room has half-evacuated the heap:
  // it must die with the structured message in every build mode, never
  // hang or scribble.
  EXPECT_DEATH(evacuateIntoTooSmallSpace(),
               "destination space overflowed during evacuation");
}

TEST(EvacuatorTest, CyclesTerminate) {
  Space From, To;
  From.reserve(4096);
  To.reserve(4096);
  Word *A = mkRecord(From, 1, 0b1);
  Word *B = mkRecord(From, 1, 0b1);
  A[0] = reinterpret_cast<Word>(B);
  B[0] = reinterpret_cast<Word>(A);

  Word Root = reinterpret_cast<Word>(A);
  Evacuator::Config Cfg;
  Cfg.From = {&From, nullptr, nullptr};
  Cfg.Dest = &To;
  Evacuator E(Cfg);
  E.forwardSlot(&Root);
  E.drain();
  EXPECT_EQ(E.objectsCopied(), 2u);
  Word *NA = reinterpret_cast<Word *>(Root);
  Word *NB = reinterpret_cast<Word *>(NA[0]);
  EXPECT_EQ(reinterpret_cast<Word *>(NB[0]), NA);
}

TEST(EvacuatorTest, AgedPolicySplitsByAge) {
  Space From, Old, Young;
  From.reserve(8192);
  Old.reserve(8192);
  Young.reserve(8192);
  Word *Fresh = mkRecord(From, 1, 0); // Age 0 -> young.
  Word *Aged = From.allocate(header::make(ObjectKind::Record, 1, 0),
                             meta::withBumpedAge(meta::make(1, 0)));
  Aged[0] = 0; // Age 1, threshold 2 -> promoted.

  Word R1 = reinterpret_cast<Word>(Fresh);
  Word R2 = reinterpret_cast<Word>(Aged);
  Evacuator::Config Cfg;
  Cfg.From = {&From, nullptr, nullptr};
  Cfg.Dest = &Old;
  Cfg.DestYoung = &Young;
  Cfg.PromoteAgeThreshold = 2;
  Evacuator E(Cfg);
  E.forwardSlot(&R1);
  E.forwardSlot(&R2);
  E.drain();

  EXPECT_TRUE(Young.contains(reinterpret_cast<Word *>(R1)));
  EXPECT_TRUE(Old.contains(reinterpret_cast<Word *>(R2)));
  // Ages were bumped in the copies.
  EXPECT_EQ(meta::age(metaOf(reinterpret_cast<Word *>(R1))), 1u);
  EXPECT_EQ(meta::age(metaOf(reinterpret_cast<Word *>(R2))), 2u);
}

TEST(EvacuatorTest, CrossGenSlotsAreReported) {
  Space From, Old, Young;
  From.reserve(8192);
  Old.reserve(8192);
  Young.reserve(8192);
  // Parent (age 1, promoted) points at child (age 0, stays young).
  Word *Child = mkRecord(From, 1, 0);
  Word *Parent = From.allocate(header::make(ObjectKind::Record, 1, 0b1),
                               meta::withBumpedAge(meta::make(1, 0)));
  Parent[0] = reinterpret_cast<Word>(Child);

  Word Root = reinterpret_cast<Word>(Parent);
  std::vector<Word *> Cross;
  Evacuator::Config Cfg;
  Cfg.From = {&From, nullptr, nullptr};
  Cfg.Dest = &Old;
  Cfg.DestYoung = &Young;
  Cfg.PromoteAgeThreshold = 2;
  Cfg.CrossGenOut = &Cross;
  Evacuator E(Cfg);
  E.forwardSlot(&Root);
  E.drain();

  Word *NewParent = reinterpret_cast<Word *>(Root);
  ASSERT_TRUE(Old.contains(NewParent));
  ASSERT_TRUE(Young.contains(reinterpret_cast<Word *>(NewParent[0])));
  // The promoted parent's field is exactly the reported old->young slot.
  ASSERT_EQ(Cross.size(), 1u);
  EXPECT_EQ(Cross[0], &NewParent[0]);
}

TEST(EvacuatorTest, MajorTraceMarksAndScansLOS) {
  Space From, To;
  From.reserve(8192);
  To.reserve(8192);
  LargeObjectSpace LOS;
  // LOS array points at a from-space record; a from-space root points at
  // the LOS array.
  Word *Rec = mkRecord(From, 1, 0);
  Rec[0] = 31415;
  Word *Arr = LOS.allocate(header::make(ObjectKind::PtrArray, 4),
                           meta::make(2, 0));
  for (int I = 0; I < 4; ++I)
    Arr[I] = 0;
  Arr[2] = reinterpret_cast<Word>(Rec);

  Word Root = reinterpret_cast<Word>(Arr);
  Evacuator::Config Cfg;
  Cfg.From = {&From, nullptr, nullptr};
  Cfg.Dest = &To;
  Cfg.LOS = &LOS;
  Cfg.TraceLOS = true;
  Evacuator E(Cfg);
  E.forwardSlot(&Root);
  E.drain();

  EXPECT_EQ(reinterpret_cast<Word *>(Root), Arr) << "LOS objects never move";
  Word *NewRec = reinterpret_cast<Word *>(Arr[2]);
  ASSERT_TRUE(To.contains(NewRec));
  EXPECT_EQ(NewRec[0], 31415u);
  // The array was marked: it survives the sweep; an unmarked sibling dies.
  Word *Dead = LOS.allocate(header::make(ObjectKind::NonPtrArray, 4),
                            meta::make(3, 0));
  (void)Dead;
  int Swept = 0;
  LOS.sweep([&](Word *, Word) { ++Swept; });
  EXPECT_EQ(Swept, 1);
  EXPECT_TRUE(LOS.contains(Arr));
}

TEST(ScannerExtraTest, ComputeFromRegisterOnTopFrame) {
  static const uint32_t Key = TraceTableRegistry::global().define(FrameLayout(
      "scan.regcompute", {Trace::computeFromReg(5)}));
  ShadowStack S(1024);
  RegisterFile Regs;
  alignas(8) Word DescPtr[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(0, 0), 1};
  alignas(8) Word Obj[3] = {header::make(ObjectKind::Record, 1, 0),
                            meta::make(1, 0), 0};

  size_t F = S.pushFrame(Key, 2);
  Regs[5] = reinterpret_cast<Word>(&DescPtr[2]); // "pointer" descriptor.
  S.slot(F, 1) = reinterpret_cast<Word>(&Obj[2]);

  RootSet Roots;
  ScanStats Stats;
  StackScanner::scan(S, Regs, nullptr, nullptr, Roots, Stats);
  ASSERT_EQ(Roots.FreshSlotRoots.size(), 1u);
  EXPECT_EQ(Roots.FreshSlotRoots[0], S.slotAddress(F, 1));

  // Flip the descriptor to "non-pointer": the slot is no longer a root.
  DescPtr[2] = 0;
  Roots.clear();
  StackScanner::scan(S, Regs, nullptr, nullptr, Roots, Stats);
  EXPECT_TRUE(Roots.FreshSlotRoots.empty());
}
