//===- heap/StoreBuffer.h - Sequential store buffer ------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's write barrier: a sequential store buffer (Appel 1989). The
/// mutator unconditionally appends the address of every mutated pointer slot;
/// the collector filters the buffer at each collection. Duplicates are NOT
/// removed — that is precisely the pathology the paper observes on Peg
/// (2.97M pointer updates flooding root processing). This is the slot log
/// of gc/RememberedSet.h, which puts an optional old->young filter in front
/// of it and, under the Hybrid policy, replays it into card marks and
/// releases it once it floods.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_HEAP_STOREBUFFER_H
#define TILGC_HEAP_STOREBUFFER_H

#include "object/Object.h"

#include <cstdint>
#include <vector>

namespace tilgc {

/// An unconditional, duplicate-keeping log of mutated pointer slots.
class StoreBuffer {
public:
  /// Shrink policy floor: capacity never drops below this, so steady-state
  /// workloads (the collector pre-sizes to exactly this) never reallocate.
  static constexpr size_t ShrinkFloorEntries = 4096;
  /// Consecutive low-fill clears before one halving step.
  static constexpr unsigned ShrinkAfterClears = 8;

  /// Records that the pointer slot at \p Slot was updated.
  void record(Word *Slot) {
    Entries.push_back(Slot);
    ++TotalRecorded;
  }

  const std::vector<Word *> &entries() const { return Entries; }

  /// Discards the logged entries (called after each collection).
  ///
  /// Capacity is kept across clears so a buffer that refills to a similar
  /// size every mutator epoch never reallocates — but not forever: one
  /// Peg-style flood (millions of entries ≈ tens of MB) used to pin the
  /// high-water allocation for the process lifetime. After
  /// ShrinkAfterClears consecutive collections below 25% fill the capacity
  /// is halved (never below ShrinkFloorEntries), so the retained memory
  /// decays geometrically once the flood subsides. Duplicate-keeping
  /// semantics are unchanged — this touches only the backing allocation.
  void clear() {
    bool LowFill = Entries.capacity() > ShrinkFloorEntries &&
                   Entries.size() < Entries.capacity() / 4;
    Entries.clear();
    if (!LowFill) {
      LowFillClears = 0;
      return;
    }
    if (++LowFillClears < ShrinkAfterClears)
      return;
    size_t NewCap = Entries.capacity() / 2;
    if (NewCap < ShrinkFloorEntries)
      NewCap = ShrinkFloorEntries;
    std::vector<Word *> Fresh;
    Fresh.reserve(NewCap);
    Entries.swap(Fresh);
    LowFillClears = 0;
    ++ShrinkCount;
  }

  /// Pre-sizes the log (the collector calls this once at startup).
  void reserve(size_t NumEntries) { Entries.reserve(NumEntries); }

  /// Number of entries currently pending.
  size_t size() const { return Entries.size(); }

  /// Current backing capacity in entries (shrink-policy introspection).
  size_t capacityEntries() const { return Entries.capacity(); }

  /// Times the shrink policy halved the backing allocation.
  uint64_t shrinks() const { return ShrinkCount; }

  /// Lifetime count of recorded updates (Table 2's "Number of Pointer
  /// Updates" column).
  uint64_t totalRecorded() const { return TotalRecorded; }

  /// Drops the entries and frees the backing storage (the log is retired
  /// for good; the lifetime count is kept).
  void release() {
    std::vector<Word *>().swap(Entries);
    LowFillClears = 0;
  }

private:
  std::vector<Word *> Entries;
  uint64_t TotalRecorded = 0;
  uint64_t ShrinkCount = 0;
  unsigned LowFillClears = 0;
};

} // namespace tilgc

#endif // TILGC_HEAP_STOREBUFFER_H
