//===- tests/stack_test.cpp - Stack substrate unit tests -------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "stack/ShadowStack.h"
#include "stack/StackMarkers.h"
#include "stack/StackScanner.h"
#include "stack/TraceTable.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tilgc;

namespace {

/// Test frame layouts, registered once.
struct Keys {
  uint32_t Plain;      // 2 pointer slots + 1 non-pointer.
  uint32_t SavesR3;    // slot 1 saves register 3; defines r3 = pointer.
  uint32_t DefinesR3NonPtr; // defines r3 = non-pointer.
  uint32_t Poly;       // slot 1 = type desc (ptr), slot 2 = compute(slot 1).

  static const Keys &get() {
    static Keys K = [] {
      auto &Reg = TraceTableRegistry::global();
      Keys K;
      K.Plain = Reg.define(FrameLayout(
          "test.plain",
          {Trace::pointer(), Trace::pointer(), Trace::nonPointer()}));
      K.SavesR3 = Reg.define(FrameLayout(
          "test.savesR3", {Trace::calleeSave(3)},
          {RegAction{3, Trace::pointer()}}));
      K.DefinesR3NonPtr = Reg.define(FrameLayout(
          "test.definesR3NonPtr", {Trace::nonPointer()},
          {RegAction{3, Trace::nonPointer()}}));
      K.Poly = Reg.define(FrameLayout(
          "test.poly", {Trace::pointer(), Trace::computeFromSlot(1)}));
      return K;
    }();
    return K;
  }
};

bool containsSlot(const std::vector<Word *> &Roots, Word *Slot) {
  return std::find(Roots.begin(), Roots.end(), Slot) != Roots.end();
}

} // namespace

TEST(ShadowStackTest, PushPopAndSlots) {
  const Keys &K = Keys::get();
  ShadowStack S(1024);
  size_t F1 = S.pushFrame(K.Plain, 4);
  EXPECT_EQ(S.frameCount(), 1u);
  EXPECT_EQ(S.keyOf(F1), K.Plain);
  S.slot(F1, 1) = 42;
  EXPECT_EQ(S.slot(F1, 1), 42u);
  EXPECT_EQ(S.slot(F1, 2), 0u) << "slots are zeroed on push";

  size_t F2 = S.pushFrame(K.Plain, 4);
  EXPECT_EQ(S.topFrameBase(), F2);
  S.popFrame(F2);
  EXPECT_EQ(S.topFrameBase(), F1);
  S.popFrame(F1);
  EXPECT_TRUE(S.empty());
}

TEST(ShadowStackTest, WaterMarkTracksMinimumFrames) {
  const Keys &K = Keys::get();
  ShadowStack S(1024);
  size_t F1 = S.pushFrame(K.Plain, 4);
  size_t F2 = S.pushFrame(K.Plain, 4);
  S.resetWaterMark();
  EXPECT_EQ(S.minFramesSinceMark(), 2u);
  S.popFrame(F2);
  size_t F3 = S.pushFrame(K.Plain, 4);
  EXPECT_EQ(S.minFramesSinceMark(), 1u);
  S.popFrame(F3);
  S.popFrame(F1);
  EXPECT_EQ(S.minFramesSinceMark(), 0u);
}

TEST(ScannerTest, PointerSlotsBecomeRoots) {
  const Keys &K = Keys::get();
  ShadowStack S(1024);
  RegisterFile Regs;
  alignas(8) Word FakeObj[4] = {header::make(ObjectKind::Record, 2, 0),
                                meta::make(1, 0), 0, 0};

  size_t F = S.pushFrame(K.Plain, 4);
  S.slot(F, 1) = reinterpret_cast<Word>(&FakeObj[2]);
  // Slot 2 stays null: null pointer slots are not reported.
  S.slot(F, 3) = 777; // Non-pointer slot: never a root.

  RootSet Roots;
  ScanStats Stats;
  StackScanner::scan(S, Regs, nullptr, nullptr, Roots, Stats);
  EXPECT_EQ(Roots.FreshSlotRoots.size(), 1u);
  EXPECT_TRUE(containsSlot(Roots.FreshSlotRoots, S.slotAddress(F, 1)));
  EXPECT_TRUE(Roots.ReusedSlotRoots.empty());
  EXPECT_EQ(Stats.FramesScanned, 1u);
}

TEST(ScannerTest, CalleeSaveChainsThroughRegisterState) {
  const Keys &K = Keys::get();
  ShadowStack S(1024);
  RegisterFile Regs;
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};
  Word PtrBits = reinterpret_cast<Word>(&FakeObj[2]);

  // Bottom frame defines r3 as a pointer; the frame above saves r3 into a
  // slot; the top frame redefines r3 as a non-pointer.
  size_t FBottom = S.pushFrame(K.SavesR3, 2);
  S.slot(FBottom, 1) = 999; // r3 not a pointer below the bottom frame.
  size_t FMid = S.pushFrame(K.SavesR3, 2);
  S.slot(FMid, 1) = PtrBits; // Saved caller r3: IS a pointer here.
  size_t FTop = S.pushFrame(K.DefinesR3NonPtr, 2);
  S.slot(FTop, 1) = 123;
  Regs[3] = PtrBits; // Live register value...

  RootSet Roots;
  ScanStats Stats;
  StackScanner::scan(S, Regs, nullptr, nullptr, Roots, Stats);

  // Bottom frame's callee-save slot: r3 state below it is non-pointer
  // (initial state), so NOT a root even though it holds a word.
  EXPECT_FALSE(containsSlot(Roots.FreshSlotRoots, S.slotAddress(FBottom, 1)));
  // Middle frame's slot saved r3 *after* the bottom frame defined it as a
  // pointer: IS a root.
  EXPECT_TRUE(containsSlot(Roots.FreshSlotRoots, S.slotAddress(FMid, 1)));
  // ...but the top frame redefined r3 as non-pointer, so the register file
  // itself contributes no root.
  EXPECT_TRUE(Roots.RegRoots.empty());
}

TEST(ScannerTest, TopFrameRegisterPointerIsARoot) {
  const Keys &K = Keys::get();
  ShadowStack S(1024);
  RegisterFile Regs;
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};

  size_t F = S.pushFrame(K.SavesR3, 2); // Defines r3 = pointer.
  (void)F;
  Regs[3] = reinterpret_cast<Word>(&FakeObj[2]);

  RootSet Roots;
  ScanStats Stats;
  StackScanner::scan(S, Regs, nullptr, nullptr, Roots, Stats);
  ASSERT_EQ(Roots.RegRoots.size(), 1u);
  EXPECT_EQ(Roots.RegRoots[0], &Regs[3]);
}

TEST(ScannerTest, ComputeTraceConsultsTypeDescriptor) {
  const Keys &K = Keys::get();
  ShadowStack S(1024);
  RegisterFile Regs;
  // Type descriptors: one-field records; field 0 != 0 means "pointer".
  alignas(8) Word DescPtr[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(0, 0), 1};
  alignas(8) Word DescNonPtr[3] = {header::make(ObjectKind::Record, 1, 0),
                                   meta::make(0, 0), 0};
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};

  size_t F1 = S.pushFrame(K.Poly, 3);
  S.slot(F1, 1) = reinterpret_cast<Word>(&DescPtr[2]);
  S.slot(F1, 2) = reinterpret_cast<Word>(&FakeObj[2]);
  size_t F2 = S.pushFrame(K.Poly, 3);
  S.slot(F2, 1) = reinterpret_cast<Word>(&DescNonPtr[2]);
  S.slot(F2, 2) = 424242; // Untraced: descriptor says non-pointer.

  RootSet Roots;
  ScanStats Stats;
  StackScanner::scan(S, Regs, nullptr, nullptr, Roots, Stats);
  EXPECT_TRUE(containsSlot(Roots.FreshSlotRoots, S.slotAddress(F1, 2)));
  EXPECT_FALSE(containsSlot(Roots.FreshSlotRoots, S.slotAddress(F2, 2)));
  EXPECT_EQ(Stats.ComputesResolved, 2u);
}

namespace {

/// Pushes \p N plain frames, each with a distinct non-null "pointer".
std::vector<size_t> pushPlainFrames(ShadowStack &S, unsigned N,
                                    Word *FakePayload) {
  const Keys &K = Keys::get();
  std::vector<size_t> Bases;
  for (unsigned I = 0; I < N; ++I) {
    size_t F = S.pushFrame(K.Plain, 4);
    S.slot(F, 1) = reinterpret_cast<Word>(FakePayload);
    Bases.push_back(F);
  }
  return Bases;
}

} // namespace

TEST(MarkerTest, SecondScanReusesUnchangedFrames) {
  ShadowStack S(1u << 16);
  RegisterFile Regs;
  MarkerManager Markers(/*Period=*/10);
  ScanCache Cache;
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};

  pushPlainFrames(S, 50, &FakeObj[2]);

  RootSet Roots;
  ScanStats S1;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S1);
  EXPECT_EQ(S1.FramesScanned, 50u);
  EXPECT_EQ(S1.FramesReused, 0u);
  EXPECT_EQ(S1.MarkersPlaced, 5u) << "every 10th frame marked";
  EXPECT_EQ(Roots.FreshSlotRoots.size(), 50u);

  // Nothing popped: the highest marker is at frame index 49 (base of the
  // 50th frame), so 49 frames are reusable.
  Roots.clear();
  ScanStats S2;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S2);
  EXPECT_EQ(S2.FramesReused, 49u);
  EXPECT_EQ(S2.FramesScanned, 1u);
  EXPECT_EQ(Roots.ReusedSlotRoots.size(), 49u);
  EXPECT_EQ(Roots.FreshSlotRoots.size(), 1u);
}

TEST(MarkerTest, StubPopShrinksReuse) {
  const Keys &K = Keys::get();
  ShadowStack S(1u << 16);
  RegisterFile Regs;
  MarkerManager Markers(10);
  ScanCache Cache;
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};

  std::vector<size_t> Bases = pushPlainFrames(S, 50, &FakeObj[2]);
  RootSet Roots;
  ScanStats S1;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S1);

  // Pop down to 25 frames. Frames 29, 39, 49 carry markers (indices with
  // (i+1)%10==0); popping them goes through the stub.
  for (unsigned I = 50; I > 25; --I) {
    size_t Base = Bases[I - 1];
    if (S.keyOf(Base) == StubKey) {
      uint32_t Orig = Markers.onStubPop(Base);
      EXPECT_EQ(Orig, K.Plain);
      S.setKey(Base, Orig);
    }
    S.popFrame(Base);
  }
  // Regrow to 40 frames.
  pushPlainFrames(S, 15, &FakeObj[2]);

  Roots.clear();
  ScanStats S2;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S2);
  // Highest intact marker is at frame index 19 (base Bases[19]); frames
  // 0..18 are reusable, 19..39 rescanned.
  EXPECT_EQ(S2.FramesReused, 19u);
  EXPECT_EQ(S2.FramesScanned, 21u);
  EXPECT_EQ(Roots.ReusedSlotRoots.size() + Roots.FreshSlotRoots.size(), 40u);
}

TEST(MarkerTest, ExceptionUnwindUpdatesWatermark) {
  ShadowStack S(1u << 16);
  RegisterFile Regs;
  MarkerManager Markers(/*Period=*/3); // Markers at frame indices 2, 5, 8...
  ScanCache Cache;
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};

  std::vector<size_t> Bases = pushPlainFrames(S, 50, &FakeObj[2]);
  RootSet Roots;
  ScanStats S1;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S1);

  // An exception jumps from the top straight to frame index 5: the
  // intervening markers never see their stubs run; onUnwind retires them
  // and records the watermark M.
  Markers.onUnwind(Bases[5]);
  S.unwindTo(Bases[5], 4);

  ScanStats S2;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S2);
  // min(M, intact markers) = base of frame 5: frames 0..4 reusable, the
  // handler frame itself is rescanned.
  EXPECT_EQ(S2.FramesReused, 5u);
  EXPECT_EQ(S2.FramesScanned, 1u);
}

TEST(MarkerTest, NoIntactMarkerMeansNoReuse) {
  ShadowStack S(1u << 16);
  RegisterFile Regs;
  MarkerManager Markers(/*Period=*/10); // Only markers at indices 9, 19...
  ScanCache Cache;
  alignas(8) Word FakeObj[3] = {header::make(ObjectKind::Record, 1, 0),
                                meta::make(1, 0), 0};

  std::vector<size_t> Bases = pushPlainFrames(S, 12, &FakeObj[2]);
  RootSet Roots;
  ScanStats S1;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S1);

  // Raise past the only marker (index 9) down to frame 3. With no intact
  // marker left, nothing can vouch for frames below M — pops there would
  // be invisible — so the boundary must collapse to zero.
  Markers.onUnwind(Bases[3]);
  S.unwindTo(Bases[3], 4);

  ScanStats S2;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S2);
  EXPECT_EQ(S2.FramesReused, 0u);
  EXPECT_EQ(S2.FramesScanned, 4u);
}

TEST(MarkerTest, ReuseBoundaryIsSoundAfterMixedPopsAndPushes) {
  const Keys &K = Keys::get();
  ShadowStack S(1u << 16);
  RegisterFile Regs;
  MarkerManager Markers(5);
  ScanCache Cache;
  alignas(8) Word ObjA[3] = {header::make(ObjectKind::Record, 1, 0),
                             meta::make(1, 0), 0};
  alignas(8) Word ObjB[3] = {header::make(ObjectKind::Record, 1, 0),
                             meta::make(2, 0), 0};

  std::vector<size_t> Bases = pushPlainFrames(S, 20, &ObjA[2]);
  RootSet Roots;
  ScanStats S1;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S1);

  // Pop three frames (through the marker at index 19) and re-push frames
  // that point at ObjB instead.
  for (unsigned I = 20; I > 17; --I) {
    size_t Base = Bases[I - 1];
    if (S.keyOf(Base) == StubKey)
      S.setKey(Base, Markers.onStubPop(Base));
    S.popFrame(Base);
  }
  pushPlainFrames(S, 3, &ObjB[2]);

  Roots.clear();
  ScanStats S2;
  StackScanner::scan(S, Regs, &Markers, &Cache, Roots, S2);

  // Every root that the scan reports must reflect the *current* stack: the
  // three new frames' roots must point at ObjB.
  unsigned BCount = 0;
  auto CountB = [&](const std::vector<Word *> &List) {
    for (Word *Slot : List)
      if (*Slot == reinterpret_cast<Word>(&ObjB[2]))
        ++BCount;
  };
  CountB(Roots.FreshSlotRoots);
  CountB(Roots.ReusedSlotRoots);
  EXPECT_EQ(BCount, 3u);
  EXPECT_EQ(Roots.FreshSlotRoots.size() + Roots.ReusedSlotRoots.size(), 20u);
  (void)K;
}

TEST(MarkerTest, TwoStacksScanIntoOneRootSet) {
  // A mutator group's root scan: each stack has its own markers and scan
  // cache, and both append to one RootSet. A cache's prefix lengths count
  // its own stack's roots, so a replay never picks up the other stack's.
  ShadowStack SA(1u << 16), SB(1u << 16);
  RegisterFile RegsA, RegsB;
  MarkerManager MA(/*Period=*/10), MB(/*Period=*/10);
  ScanCache CA, CB;
  alignas(8) Word ObjA[3] = {header::make(ObjectKind::Record, 1, 0),
                             meta::make(1, 0), 0};
  alignas(8) Word ObjB[3] = {header::make(ObjectKind::Record, 1, 0),
                             meta::make(2, 0), 0};
  pushPlainFrames(SA, 30, &ObjA[2]);
  pushPlainFrames(SB, 50, &ObjB[2]);

  RootSet Roots;
  ScanStats S1;
  StackScanner::scan(SA, RegsA, &MA, &CA, Roots, S1);
  StackScanner::scan(SB, RegsB, &MB, &CB, Roots, S1);
  EXPECT_EQ(S1.FramesScanned, 80u);
  EXPECT_EQ(Roots.FreshSlotRoots.size(), 80u);
  EXPECT_EQ(CA.roots().size(), 30u);
  EXPECT_EQ(CB.roots().size(), 50u);

  // Nothing moved: each stack reuses everything below its highest marker
  // (frame 29 of A, frame 49 of B) and rescans that one frame.
  Roots.clear();
  ScanStats S2;
  StackScanner::scan(SA, RegsA, &MA, &CA, Roots, S2);
  StackScanner::scan(SB, RegsB, &MB, &CB, Roots, S2);
  EXPECT_EQ(S2.FramesReused, 29u + 49u);
  EXPECT_EQ(S2.FramesScanned, 2u);
  ASSERT_EQ(Roots.ReusedSlotRoots.size(), 78u);
  ASSERT_EQ(Roots.FreshSlotRoots.size(), 2u);
  // Each kind lists A's roots, then B's.
  for (size_t I = 0; I < 78; ++I) {
    ShadowStack &Owner = I < 29 ? SA : SB;
    EXPECT_TRUE(Owner.ownsSlot(Roots.ReusedSlotRoots[I])) << "reused " << I;
    Word Want = reinterpret_cast<Word>(I < 29 ? &ObjA[2] : &ObjB[2]);
    EXPECT_EQ(*Roots.ReusedSlotRoots[I], Want) << "reused " << I;
  }
  EXPECT_TRUE(SA.ownsSlot(Roots.FreshSlotRoots[0]));
  EXPECT_TRUE(SB.ownsSlot(Roots.FreshSlotRoots[1]));
}
