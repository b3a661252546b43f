//===- heap/CardTable.h - Card-marking remembered set -----------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Card-marking write barrier (Sobalvarro 1988), the alternative the paper
/// suggests for Peg's sequential-store-buffer pathology: "A more realistic
/// approach such as card-marking would probably ameliorate most of the
/// problems." Cards deduplicate repeated updates to the same region, so the
/// per-collection root-processing cost is bounded by the number of dirty
/// cards rather than by the mutation count.
///
/// Beyond the paper: crossing-map remembered set (see DESIGN.md). Dirty-card
/// processing pairs the bitmap with a CrossingMap so a scan coalesces each
/// maximal dirty run, jumps straight to the object covering the run's first
/// word, and walks forward only until the run ends — visiting just the
/// pointer fields that lie inside dirty cards (large pointer arrays are
/// clipped to the run). The cost per minor collection is O(dirty cards),
/// independent of live tenured data, which is what lets card marking scale
/// to big tenured heaps and makes the adaptive SSB→card hybrid barrier
/// worthwhile.
///
/// Cards are deliberately NOT the channel for the pause-budget mode's
/// snapshot-at-the-beginning barrier: a dirty card records *where* a store
/// happened (for the next minor's old→young scan), but the deletion
/// barrier needs the *severed old value* at the moment of the overwrite —
/// by the time a card sweep revisits the slot, the snapshot edge is gone.
/// satbRecord is its own dedup'd value buffer on the write path, live only
/// while an incremental cycle is marking.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_HEAP_CARDTABLE_H
#define TILGC_HEAP_CARDTABLE_H

#include "heap/CrossingMap.h"
#include "heap/Space.h"
#include "object/Object.h"
#include "support/FaultInjector.h"

#include <cstdint>
#include <vector>

namespace tilgc {

/// Thrown when FaultPoint::CardSweepThrow fires mid-sweep. The collector
/// recovers by discarding the partial card scan and degrading to a full
/// tenured-space walk for that collection (duplicate field emissions are
/// harmless: minor-root processing tolerates repeated slots, exactly as it
/// does for SSB duplicates).
struct CardSweepFault {};

/// Dirty-card bitmap covering one bump-pointer space.
class CardTable {
public:
  /// Bytes per card.
  static constexpr size_t CardBytes = 512;
  static_assert(CardBytes == CrossingMap::CardBytes,
                "card table and crossing map must agree on card geometry");

  /// (Re)binds the table to \p S, covering its current capacity, and
  /// clears all marks. Must be called whenever the covered space's backing
  /// storage is re-reserved.
  void attach(const Space &S) {
    Base = S.firstPayload() - HeaderWords;
    Epoch = S.reserveEpoch();
    size_t Cards = (S.capacityBytes() + CardBytes - 1) / CardBytes;
    Dirty.assign(Cards, 0);
    NumDirty = 0;
  }

  /// True if the table is bound to \p S's current backing storage.
  bool boundTo(const Space &S) const {
    return Base == S.baseAddr() && Epoch == S.reserveEpoch();
  }

  /// True if \p Slot lies in the covered space.
  bool covers(const Word *Slot) const {
    return Slot >= Base && cardOf(Slot) < Dirty.size();
  }

  /// Marks the card containing \p Slot.
  void mark(const Word *Slot) {
    assert(covers(Slot) && "marking a slot outside the covered space");
    size_t C = cardOf(Slot);
    if (!Dirty[C]) {
      Dirty[C] = 1;
      ++NumDirty;
    }
  }

  void clear() {
    Dirty.assign(Dirty.size(), 0);
    NumDirty = 0;
  }

  /// Scans the dirty cards in [\p CardBegin, \p CardEnd), invoking \p Fn
  /// with the address of every pointer field lying in a dirty card. Uses
  /// \p CM to find the object covering each dirty run's first word, then
  /// walks objects forward (skipping pad fillers), clipping pointer-array
  /// element iteration to the run so the work done is proportional to the
  /// dirty cards scanned, never to live tenured data. \p CardsScanned and
  /// \p SlotsVisited accumulate the dirty cards walked and pointer fields
  /// examined. Any card-aligned partition of [0, numCards()) emits the
  /// same fields in the same order as one full scan: a run split at a
  /// partition boundary re-walks the straddling object, but the range
  /// checks keep every field in exactly one partition.
  template <typename FnT>
  void scanDirtyCardRange(const Space &S, const CrossingMap &CM,
                          size_t CardBegin, size_t CardEnd,
                          uint64_t &CardsScanned, uint64_t &SlotsVisited,
                          FnT Fn) const {
    assert(boundTo(S) && "card table stale after a space re-reserve");
    assert(CM.boundTo(S) && "crossing map stale after a space re-reserve");
    Word *SpaceBase = S.firstPayload() - HeaderWords;
    Word *Frontier = S.frontier();
    for (size_t C = CardBegin; C < CardEnd;) {
      if (!Dirty[C]) {
        ++C;
        continue;
      }
      size_t RunBegin = C;
      while (C < CardEnd && Dirty[C])
        ++C;
      size_t RunEnd = C;
      if (TILGC_UNLIKELY(FaultInjector::enabled()) &&
          FaultInjector::global().shouldFire(FaultPoint::CardSweepThrow))
        throw CardSweepFault{};
      CardsScanned += RunEnd - RunBegin;
      Word *RunLo = SpaceBase + RunBegin * CrossingMap::CardWords;
      Word *RunHi = SpaceBase + RunEnd * CrossingMap::CardWords;
      if (RunHi > Frontier)
        RunHi = Frontier;
      if (RunLo >= Frontier)
        continue; // Dirty card past the frontier: stale mark, nothing to scan.
      const Word *Start = CM.objectStartCovering(RunBegin);
      assert(Start && "no crossing-map entry for a dirty card below the "
                      "frontier (maintenance bug)");
      // Release-mode fallback: walk from the space base. Correct, just slow.
      Word *P = Start ? SpaceBase + (Start - S.baseAddr()) : SpaceBase;
      while (P < RunHi) {
        Word Raw = P[0];
        if (TILGC_UNLIKELY(header::isPad(Raw))) {
          P += header::padWords(Raw);
          continue;
        }
        assert(!header::isForwarded(Raw) && "dirty-card scan during evacuation");
        Word *Payload = P + HeaderWords;
        switch (header::kind(Raw)) {
        case ObjectKind::Record: {
          uint32_t Mask = header::ptrMask(Raw);
          while (Mask) {
            unsigned I = static_cast<unsigned>(__builtin_ctz(Mask));
            Word *Field = &Payload[I];
            if (Field >= RunLo && Field < RunHi) {
              ++SlotsVisited;
              Fn(Field);
            }
            Mask &= Mask - 1;
          }
          break;
        }
        case ObjectKind::PtrArray: {
          Word *Lo = Payload > RunLo ? Payload : RunLo;
          Word *Hi = Payload + header::length(Raw);
          if (Hi > RunHi)
            Hi = RunHi;
          for (Word *Field = Lo; Field < Hi; ++Field) {
            ++SlotsVisited;
            Fn(Field);
          }
          break;
        }
        case ObjectKind::NonPtrArray:
          break;
        case ObjectKind::Pad:
          TILGC_UNREACHABLE("pad descriptor escaped the pad check");
        }
        P += objectTotalWords(Raw);
      }
    }
  }

  /// Full-table scan: every pointer field in every dirty card, via \p CM.
  template <typename FnT>
  void forEachDirtyField(const Space &S, const CrossingMap &CM, FnT Fn) const {
    uint64_t Cards = 0, Slots = 0;
    scanDirtyCardRange(S, CM, 0, Dirty.size(), Cards, Slots, Fn);
  }

  size_t numCards() const { return Dirty.size(); }

  size_t numDirtyCards() const { return NumDirty; }

  size_t cardOf(const Word *P) const {
    return static_cast<size_t>(reinterpret_cast<const char *>(P) -
                               reinterpret_cast<const char *>(Base)) /
           CardBytes;
  }

private:
  const Word *Base = nullptr;
  uint64_t Epoch = 0;
  std::vector<uint8_t> Dirty;
  size_t NumDirty = 0;
};

} // namespace tilgc

#endif // TILGC_HEAP_CARDTABLE_H
