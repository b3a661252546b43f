//===- stack/StackScanner.h - Two-pass stack root scanning -----*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-pass trace-table stack scan of paper §2.3, optionally extended
/// with the scan cache that implements generational stack collection (§5).
///
/// Pass 1 walks from the topmost frame down to the reuse boundary, decoding
/// each frame's layout from its return-address key. Pass 2 walks upward
/// from the initial frame (or from the cached register state at the reuse
/// boundary), maintaining the pointer status of the register set, so that
/// CalleeSave slot traces can be resolved, and accumulating root locations.
///
/// Pass 2 has two execution modes. The interpretive mode (the paper's
/// §2.3, and the default of this raw entry point) dispatches a switch per
/// slot trace. The compiled mode (CompiledPlans = true; the collectors'
/// default via GcOptions::CompiledScanPlans) fetches the frame's memoized
/// ScanPlan and iterates its pointer bitmask with countr_zero, interpreting
/// only the dense CalleeSave/Compute side lists — same roots, same register
/// state, same marker behavior, a fraction of the per-slot work.
///
/// When a MarkerManager and ScanCache are supplied, frames below the reuse
/// boundary are not rescanned: their root locations are replayed from the
/// cache into RootSet::ReusedSlotRoots. The collector decides what to do
/// with them — a promote-all minor collection skips them entirely (the
/// paper: "we do not need to consider roots residing in frames that were
/// present in previous collections"), while major and semispace collections
/// process them without paying the re-decoding cost.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_STACK_STACKSCANNER_H
#define TILGC_STACK_STACKSCANNER_H

#include "stack/RegisterFile.h"
#include "stack/ShadowStack.h"
#include "stack/StackMarkers.h"
#include "stack/TraceTable.h"

#include <cstdint>
#include <vector>

namespace tilgc {

/// The results of stack scans: addresses of slots and registers that hold
/// heap pointers. A scan appends, so one RootSet can gather the roots of
/// several stacks, each kind in scan order.
struct RootSet {
  /// Roots discovered by scanning frames during this collection.
  std::vector<Word *> FreshSlotRoots;
  /// Roots replayed from the scan cache (frames unchanged since the last
  /// collection). Empty unless generational stack collection is enabled.
  std::vector<Word *> ReusedSlotRoots;
  /// Registers holding pointers (each topmost frame's view).
  std::vector<Word *> RegRoots;

  /// Drops the roots but keeps the vectors' capacity: a RootSet is a
  /// long-lived collector member, and after the first few collections the
  /// scan runs entirely in already-reserved storage.
  void clear() {
    FreshSlotRoots.clear();
    ReusedSlotRoots.clear();
    RegRoots.clear();
  }

  /// Pre-sizes the root vectors (collectors call this once at startup so
  /// even the first collection does not grow them step by step).
  void reserve(size_t SlotRoots) {
    FreshSlotRoots.reserve(SlotRoots);
    ReusedSlotRoots.reserve(SlotRoots);
    RegRoots.reserve(NumRegisters);
  }
};

/// Work counters for one scan (accumulated into collector statistics).
///
/// FramesScanned, FramesReused, ComputesResolved and MarkersPlaced are
/// semantic counters: identical between the interpretive and compiled scan
/// modes (the differential test asserts it). SlotsVisited counts slot
/// traces *interpreted* — every non-key slot in interpretive mode, only the
/// CalleeSave/Compute side-list entries in compiled mode — so it is exactly
/// the work the plan compiler eliminates; PlanWordsScanned is the compiled
/// mode's replacement cost (pointer-bitmask words tested).
struct ScanStats {
  uint64_t FramesScanned = 0;  ///< Frames decoded and traced this scan.
  uint64_t FramesReused = 0;   ///< Frames replayed from the cache.
  uint64_t SlotsVisited = 0;   ///< Slot traces interpreted.
  uint64_t ComputesResolved = 0;
  uint64_t MarkersPlaced = 0;
  uint64_t PlanWordsScanned = 0; ///< Bitmask words tested (compiled mode).
};

/// One stack's per-frame scan results, cached between collections (owned
/// by the stack's mutator; meaningful only when stack markers are in use).
class ScanCache {
public:
  struct CachedFrame {
    size_t Base;
    uint32_t Key;
    /// Length of roots() after processing this frame.
    uint32_t RootsEnd;
    /// Register pointer-status bitmask after this frame's definitions.
    uint32_t RegStateAfter;
  };

  /// Keeps capacity, like RootSet::clear().
  void clear() {
    Frames.clear();
    Roots.clear();
  }

  /// Pre-sizes the cache (collectors call this once at startup).
  void reserve(size_t NumFrames, size_t NumRoots) {
    Frames.reserve(NumFrames);
    Roots.reserve(NumRoots);
  }

  const std::vector<CachedFrame> &frames() const { return Frames; }
  /// Root slot addresses in bottom-up scan order.
  const std::vector<Word *> &roots() const { return Roots; }

  /// Scanner mutators: drop the suffix invalidated by stack movement, then
  /// append the rescanned frames' results. resize()/truncation keeps
  /// capacity, so after warm-up replays allocate nothing.
  void truncateFrames(size_t N) { Frames.resize(N); }
  void truncateRoots(size_t N) { Roots.resize(N); }
  void pushFrame(const CachedFrame &F) { Frames.push_back(F); }
  void pushRoot(Word *Slot) { Roots.push_back(Slot); }

private:
  std::vector<CachedFrame> Frames;
  /// Root slot addresses in bottom-up scan order.
  std::vector<Word *> Roots;
};

/// Stateless scan entry points.
class StackScanner {
public:
  /// Scans \p Stack (and \p Regs) for roots, appending them to \p Roots
  /// and adding the work done to \p Stats. Nothing is cleared: a caller
  /// that rescans into the same RootSet clears it first.
  ///
  /// \p Markers and \p Cache are either both null (plain two-pass scan, the
  /// baseline collectors) or both non-null (generational stack collection).
  /// They belong to \p Stack alone: each stack has its own pair.
  ///
  /// \p CompiledPlans selects pass 2's execution mode: false interprets the
  /// trace tables exactly as the paper describes (the default here, so raw
  /// callers stay paper-faithful); true runs the compiled ScanPlans. The
  /// two modes produce the same root *set* — in compiled mode a frame's
  /// roots are emitted pointer-bitmask first, then CalleeSave, then Compute
  /// slots, so the within-frame order can differ for frames that mix those
  /// kinds.
  static void scan(ShadowStack &Stack, RegisterFile &Regs,
                   MarkerManager *Markers, ScanCache *Cache, RootSet &Roots,
                   ScanStats &Stats, bool CompiledPlans = false);
};

} // namespace tilgc

#endif // TILGC_STACK_STACKSCANNER_H
