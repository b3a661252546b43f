//===- stack/ShadowStack.h - Activation-record stack ------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutator's stack of activation records. TIL manages activation
/// records on a contiguous stack rather than in the heap (paper §2.2); we
/// reproduce that as an array of word slots. Slot 0 of each frame holds the
/// return-address key; the remaining slots are the frame's locals/spills,
/// described by the trace table.
///
/// Pointer-slot discipline: workload code keeps every heap pointer that must
/// survive a possible collection in a frame slot (never in a C++ local),
/// because the collectors move objects and update the slots in place.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_STACK_SHADOWSTACK_H
#define TILGC_STACK_SHADOWSTACK_H

#include "object/Object.h"
#include "stack/TraceTable.h"
#include "support/Compiler.h"

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace tilgc {

/// A contiguous stack of activation records plus the frame-base side chain
/// used to iterate it.
///
/// Both live in one anonymous mapping reserved at construction: the slot
/// array, then the base chain (a frame is at least one slot, so the chain
/// never outgrows the slot capacity). The kernel supplies zero pages and
/// commits them only when a push first touches them, so a stack costs the
/// depth its mutator reaches, not its capacity. Nothing is ever
/// reallocated, which keeps slot addresses stable.
class ShadowStack {
public:
  explicit ShadowStack(size_t CapacitySlots = 1u << 22);
  ~ShadowStack();
  ShadowStack(const ShadowStack &) = delete;
  ShadowStack &operator=(const ShadowStack &) = delete;

  /// Pushes a frame of \p NumSlots slots with return-address key \p Key.
  /// All non-key slots are zeroed (null pointers). Returns the frame base
  /// (the slot index of the key slot). Overflowing the capacity is fatal in
  /// every build mode.
  size_t pushFrame(uint32_t Key, uint32_t NumSlots) {
    assert(NumSlots >= 1 && "a frame holds at least its key slot");
    if (TILGC_UNLIKELY(NumSlots > Capacity - Top))
      overflow(NumSlots);
    size_t Base = Top;
    Slots[Base] = Key;
    for (uint32_t I = 1; I < NumSlots; ++I)
      Slots[Base + I] = 0;
    Top = Base + NumSlots;
    Bases[NumFrames++] = Base;
    return Base;
  }

  /// True if the topmost frame starts at \p FrameBase.
  bool isTop(size_t FrameBase) const {
    // Bases[-1] is a sentinel no frame base equals, so an empty stack needs
    // no separate test.
    return Bases[static_cast<ptrdiff_t>(NumFrames) - 1] == FrameBase;
  }

  /// Pops the topmost frame, which must start at \p FrameBase.
  void popFrame(size_t FrameBase) {
    assert(isTop(FrameBase) && "popping a frame that is not on top");
    --NumFrames;
    Top = FrameBase;
    if (NumFrames < MinFrames)
      MinFrames = NumFrames;
  }

  /// Unwinds (pops without individual bookkeeping) every frame strictly
  /// above \p FrameBase, making it the topmost frame. \p NumSlots is the
  /// target frame's size (the caller resolves it, since the target's key
  /// slot may hold a stub key). Used by the exception-raise path.
  void unwindTo(size_t FrameBase, uint32_t NumSlots) {
    while (NumFrames != 0 && Bases[NumFrames - 1] > FrameBase)
      --NumFrames;
    assert(isTop(FrameBase) && "unwind target is not a live frame");
    Top = FrameBase + NumSlots;
    if (NumFrames < MinFrames)
      MinFrames = NumFrames;
  }

  Word &slot(size_t FrameBase, unsigned I) {
    assert(FrameBase + I < Top && "slot index outside stack");
    return Slots[FrameBase + I];
  }
  const Word &slot(size_t FrameBase, unsigned I) const {
    assert(FrameBase + I < Top && "slot index outside stack");
    return Slots[FrameBase + I];
  }

  /// Address of a slot; stable for the life of the stack (the backing array
  /// is never reallocated), which the scan cache relies on.
  Word *slotAddress(size_t FrameBase, unsigned I) {
    return &Slots[FrameBase + I];
  }

  /// True if \p P points into this stack's slot storage (collectors use
  /// this to filter stack slots out of heap remembered sets).
  bool ownsSlot(const Word *P) const {
    return P >= Slots && P < Slots + Capacity;
  }

  /// The return-address key of the frame at \p FrameBase. May be StubKey if
  /// the collector marked this frame.
  uint32_t keyOf(size_t FrameBase) const {
    return static_cast<uint32_t>(Slots[FrameBase]);
  }
  void setKey(size_t FrameBase, uint32_t Key) { Slots[FrameBase] = Key; }

  size_t frameCount() const { return NumFrames; }
  bool empty() const { return NumFrames == 0; }
  /// One past the topmost frame's last slot: where the next push starts.
  size_t topSlot() const { return Top; }
  /// Base of the I-th frame from the bottom (0 = oldest).
  size_t frameBase(size_t I) const {
    assert(I < NumFrames && "frame index out of range");
    return Bases[I];
  }
  size_t topFrameBase() const {
    assert(NumFrames != 0 && "no frames");
    return Bases[NumFrames - 1];
  }

  /// Minimum frame count observed since the last resetWaterMark() — the
  /// collector uses this for Table 2's "New Frames in Stack" metric.
  size_t minFramesSinceMark() const { return MinFrames; }
  void resetWaterMark() { MinFrames = NumFrames; }

private:
  [[noreturn]] void overflow(uint32_t NumSlots) const;

  size_t Capacity;
  /// The mapping: Capacity slots, the sentinel, then Capacity frame bases.
  Word *Slots;
  size_t *Bases;
  size_t NumFrames = 0;
  size_t Top = 0;
  size_t MinFrames = 0;
};

} // namespace tilgc

#endif // TILGC_STACK_SHADOWSTACK_H
