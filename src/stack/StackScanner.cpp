//===- stack/StackScanner.cpp - Two-pass stack root scanning --------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "stack/StackScanner.h"

#include "stack/ScanPlan.h"
#include "support/Compiler.h"

#include <bit>

using namespace tilgc;

/// Resolves a Compute trace by consulting its runtime type descriptor
/// (paper §2.3: "the compute trace is used when the compiler could not
/// statically determine the pointer status of a value"). The descriptor is
/// a heap record whose first (non-pointer) field is nonzero iff the
/// described value is a pointer.
static bool resolveCompute(const Trace &T, const ShadowStack &Stack,
                           size_t Base, const RegisterFile &Regs,
                           bool IsTopFrame) {
  Word DescBits;
  if (T.Loc == ComputeLoc::Slot) {
    DescBits = Stack.slot(Base, T.Index);
  } else {
    assert(IsTopFrame &&
           "register compute traces are only meaningful in the top frame");
    (void)IsTopFrame;
    DescBits = Regs[T.Index];
  }
  // A null descriptor means the frame has not yet installed its runtime
  // type (a collection hit between frame setup and the descriptor store).
  // The discipline requires the descriptor to be written before the
  // described slot, so the described slot is still null/dead here.
  if (!DescBits)
    return false;
  const Word *Desc = reinterpret_cast<const Word *>(DescBits);
  return Desc[0] != 0;
}

/// Applies one register definition to \p RegState (shared by both modes and
/// by the compiled mode's duplicate-definition fallback).
template <typename StatsT>
static void applyRegDef(const RegAction &A, uint32_t &RegState,
                        const ShadowStack &Stack, size_t Base,
                        const RegisterFile &Regs, bool IsTop, StatsT &Stats) {
  bool IsPtr = false;
  switch (A.What.Kind) {
  case TraceKind::Pointer:
    IsPtr = true;
    break;
  case TraceKind::NonPointer:
    IsPtr = false;
    break;
  case TraceKind::Compute:
    ++Stats.ComputesResolved;
    IsPtr = resolveCompute(A.What, Stack, Base, Regs, IsTop);
    break;
  case TraceKind::CalleeSave:
    TILGC_UNREACHABLE("CalleeSave is not a register definition");
  }
  if (IsPtr)
    RegState |= 1u << A.Reg;
  else
    RegState &= ~(1u << A.Reg);
}

namespace {

/// Pass 2 frame bodies. Compiled = false is the paper's interpretive
/// per-slot switch; Compiled = true runs the memoized ScanPlan: a
/// countr_zero walk of the pointer bitmask plus the dense side lists. The
/// template keeps the mode dispatch out of the per-frame (and per-slot)
/// hot path.
template <bool Compiled> struct FrameTracer;

template <> struct FrameTracer<false> {
  template <typename PushRootT>
  static uint32_t trace(ShadowStack &Stack, size_t Base, uint32_t Key,
                        const RegisterFile &Regs, bool IsTop,
                        uint32_t RegState, ScanStats &Stats,
                        PushRootT &&PushRoot) {
    const FrameLayout &L = TraceTableRegistry::global().lookup(Key);
    uint32_t NumSlots = L.numSlots();
    for (uint32_t S = 1; S < NumSlots; ++S) {
      const Trace &T = L.SlotTraces[S - 1];
      ++Stats.SlotsVisited;
      switch (T.Kind) {
      case TraceKind::NonPointer:
        break;
      case TraceKind::Pointer:
        if (Stack.slot(Base, S))
          PushRoot(Stack.slotAddress(Base, S));
        break;
      case TraceKind::CalleeSave:
        // The slot holds the caller's value of register T.Index; it is a
        // root exactly when that register held a pointer below this frame.
        if ((RegState >> T.Index) & 1u)
          if (Stack.slot(Base, S))
            PushRoot(Stack.slotAddress(Base, S));
        break;
      case TraceKind::Compute:
        ++Stats.ComputesResolved;
        if (resolveCompute(T, Stack, Base, Regs, IsTop))
          if (Stack.slot(Base, S))
            PushRoot(Stack.slotAddress(Base, S));
        break;
      }
    }

    // Apply this frame's register definitions.
    for (const RegAction &A : L.RegDefs)
      applyRegDef(A, RegState, Stack, Base, Regs, IsTop, Stats);
    return RegState;
  }
};

template <> struct FrameTracer<true> {
  template <typename PushRootT>
  static uint32_t trace(ShadowStack &Stack, size_t Base, uint32_t Key,
                        const RegisterFile &Regs, bool IsTop,
                        uint32_t RegState, ScanStats &Stats,
                        PushRootT &&PushRoot) {
    const ScanPlan &P = ScanPlanCache::global().plan(Key);

    // Pointer bitmask: one word test per 64 slots, one countr_zero per
    // pointer slot. Slot addresses are computed off the frame's first slot
    // so the inner loop is pure pointer arithmetic.
    Word *Frame = Stack.slotAddress(Base, 0);
    const uint64_t *Words = P.PtrWords.data();
    size_t NumWords = P.PtrWords.size();
    Stats.PlanWordsScanned += NumWords;
    for (size_t WI = 0; WI < NumWords; ++WI) {
      uint64_t Bits = Words[WI];
      Word *Chunk = Frame + WI * 64;
      while (Bits) {
        unsigned B = static_cast<unsigned>(std::countr_zero(Bits));
        Bits &= Bits - 1;
        if (Chunk[B])
          PushRoot(Chunk + B);
      }
    }

    // The side lists are the only interpreted slots left.
    for (const ScanPlan::CalleeSaveEntry &CS : P.CalleeSaves) {
      ++Stats.SlotsVisited;
      if ((RegState >> CS.Reg) & 1u)
        if (Frame[CS.Slot])
          PushRoot(Frame + CS.Slot);
    }
    for (const ScanPlan::ComputeEntry &CE : P.Computes) {
      ++Stats.SlotsVisited;
      ++Stats.ComputesResolved;
      if (resolveCompute(CE.T, Stack, Base, Regs, IsTop))
        if (Frame[CE.Slot])
          PushRoot(Frame + CE.Slot);
    }

    // Precomputed register transition (or the verbatim fallback when the
    // layout redefines a register twice).
    if (TILGC_UNLIKELY(P.RegDefsNeedInterp)) {
      for (const RegAction &A : P.InterpRegDefs)
        applyRegDef(A, RegState, Stack, Base, Regs, IsTop, Stats);
      return RegState;
    }
    RegState = (RegState & ~P.RegClearMask) | P.RegSetMask;
    for (const RegAction &A : P.ComputeRegDefs)
      applyRegDef(A, RegState, Stack, Base, Regs, IsTop, Stats);
    return RegState;
  }
};

/// The shared scan skeleton: marker replay, pass 1 decode, pass 2 frame
/// loop (mode-templated), register roots.
template <bool Compiled>
void scanImpl(ShadowStack &Stack, RegisterFile &Regs, MarkerManager *Markers,
              ScanCache *Cache, RootSet &Roots, ScanStats &Stats) {
  TraceTableRegistry &Registry = TraceTableRegistry::global();
  size_t FrameCount = Stack.frameCount();
  size_t ReuseCount = 0;
  uint32_t RegState = 0;

  if (Markers) {
    // Generational stack collection: replay the cached prefix.
    size_t Boundary = Markers->reuseBoundary();
    while (ReuseCount < Cache->frames().size() &&
           Cache->frames()[ReuseCount].Base < Boundary)
      ++ReuseCount;
    assert(ReuseCount <= FrameCount &&
           "cache claims more unchanged frames than exist");
    // Retire markers at/above the boundary (their frames are rescanned) and
    // open a new watermark epoch.
    Markers->beginScan(Boundary, Stack);
    if (ReuseCount) {
      const ScanCache::CachedFrame &Last = Cache->frames()[ReuseCount - 1];
      assert(Last.Base == Stack.frameBase(ReuseCount - 1) &&
             "cached frame does not match the live stack");
      RegState = Last.RegStateAfter;
      Roots.ReusedSlotRoots.insert(Roots.ReusedSlotRoots.end(),
                                   Cache->roots().begin(),
                                   Cache->roots().begin() + Last.RootsEnd);
      Cache->truncateRoots(Last.RootsEnd);
    } else {
      Cache->truncateRoots(0);
    }
    Cache->truncateFrames(ReuseCount);
    Stats.FramesReused += ReuseCount;
  }

  // Pass 1: decode downward from the current execution point to the reuse
  // boundary, keying each frame's layout by its return-address slot. (With
  // a side chain of frame bases the decode is a table lookup per frame; the
  // cost model — work proportional to the number of non-reused frames — is
  // what matters.) In compiled mode this is also where a key first seen by
  // the collector gets its plan compiled.
  for (size_t I = FrameCount; I > ReuseCount; --I) {
    size_t Base = Stack.frameBase(I - 1);
    uint32_t Key = Stack.keyOf(Base);
    assert(Key != StubKey && "stubs must be retired before decoding");
    if constexpr (Compiled)
      (void)ScanPlanCache::global().plan(Key);
    else
      (void)Registry.lookup(Key);
  }
  (void)Registry;

  // Pass 2: walk upward maintaining the register pointer-status so that
  // CalleeSave traces resolve, accumulating root locations.
  auto PushRoot = [&](Word *Slot) {
    Roots.FreshSlotRoots.push_back(Slot);
    if (Cache)
      Cache->pushRoot(Slot);
  };

  for (size_t I = ReuseCount; I < FrameCount; ++I) {
    size_t Base = Stack.frameBase(I);
    uint32_t Key = Stack.keyOf(Base);
    bool IsTop = (I + 1 == FrameCount);
    ++Stats.FramesScanned;

    RegState = FrameTracer<Compiled>::trace(Stack, Base, Key, Regs, IsTop,
                                            RegState, Stats, PushRoot);

    if (Cache)
      Cache->pushFrame(ScanCache::CachedFrame{
          Base, Key, static_cast<uint32_t>(Cache->roots().size()), RegState});

    // Mark every Period-th frame (fixed frame indices keep global marker
    // spacing stable across scans without extra bookkeeping).
    if (Markers && (I + 1) % Markers->period() == 0) {
      Markers->place(Base, Key);
      Stack.setKey(Base, StubKey);
      ++Stats.MarkersPlaced;
    }
  }

  // The register file itself: the final register state is the topmost
  // frame's view of the machine registers.
  for (unsigned R = 0; R < NumRegisters; ++R)
    if (((RegState >> R) & 1u) && Regs[R] != 0)
      Roots.RegRoots.push_back(&Regs[R]);

  if (Markers)
    Markers->onScanComplete(FrameCount - ReuseCount);
}

} // namespace

void StackScanner::scan(ShadowStack &Stack, RegisterFile &Regs,
                        MarkerManager *Markers, ScanCache *Cache,
                        RootSet &Roots, ScanStats &Stats,
                        bool CompiledPlans) {
  assert((Markers == nullptr) == (Cache == nullptr) &&
         "markers and cache go together");
  if (CompiledPlans)
    scanImpl<true>(Stack, Regs, Markers, Cache, Roots, Stats);
  else
    scanImpl<false>(Stack, Regs, Markers, Cache, Roots, Stats);
}
