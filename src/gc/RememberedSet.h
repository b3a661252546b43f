//===- gc/RememberedSet.h - Old-to-young remembered set ---------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generational write barrier and what it remembers: the old-generation
/// pointer slots the next minor collection treats as roots. One mechanism
/// with two record paths, a slot log (the paper's SSB) and a card table
/// with its crossing map, behind a policy fixed from BarrierKind at
/// construction (the per-kind table is in gc/GcOptions.h): an optional
/// old->young filter in front of the log, the starting path, and the log
/// size at which a one-way switch replays the log into card marks and
/// releases it. In card mode, large-object slots go to a side buffer.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_REMEMBEREDSET_H
#define TILGC_GC_REMEMBEREDSET_H

#include "gc/GcOptions.h"
#include "gc/GcStats.h"
#include "heap/CardTable.h"
#include "heap/CrossingMap.h"
#include "heap/Space.h"
#include "heap/StoreBuffer.h"
#include "observe/GcTelemetry.h"

#include <cstdint>
#include <vector>

namespace tilgc {

class WorkerPool;

/// Slot log + card table + crossing map behind one switch policy.
class RememberedSet {
public:
  /// Hybrid switch point, in slot-log entries per tenured card: a log
  /// denser than the dirtiest possible card table has lost its precision
  /// advantage.
  static constexpr uint64_t FloodFactor = 4;

  /// \p NurseryA and \p NurseryB are the young spaces (an unreserved one
  /// contains nothing); \p Pool, if any, stripes large card sweeps. Call
  /// rebind() once the tenured space is reserved.
  RememberedSet(BarrierKind Kind, const Space &NurseryA, const Space &NurseryB,
                GcStats &Stats, GcTelemetry &Tel, WorkerPool *Pool);

  /// The write barrier: the pointer slot \p Slot was just stored to.
  void record(Word *Slot) {
    if (CardMode) {
      recordCard(Slot);
      return;
    }
    if (Filter && (young(Slot) || !young(reinterpret_cast<Word *>(*Slot))))
      return;
    Log.record(Slot);
    if (TILGC_UNLIKELY(Log.size() >= FloodEntries))
      switchToCards();
  }

  /// Every remembered slot → \p Fn(Word *Slot), for the next minor
  /// collection: the slot log minus slots inside young objects, or the
  /// dirty cards' pointer fields plus the large-object side buffer.
  template <typename SlotFn> void forEachSlot(SlotFn Fn);

  /// Binds the card table and crossing map to the freshly reserved tenured
  /// space \p Tenured (clearing both) and rescales the flood threshold. A
  /// major calls it before evacuating into \p Tenured, so the crossing map
  /// records the promotions.
  void rebind(const Space &Tenured);

  /// True if the card overlays track \p Tenured's current reservation.
  bool boundTo(const Space &Tenured) const {
    return !KeepsCards ||
           (Cards.boundTo(Tenured) && CrossMap.boundTo(Tenured));
  }

  /// The crossing map promotions must record into, or null when this
  /// policy never scans cards.
  CrossingMap *crossDest() { return KeepsCards ? &CrossMap : nullptr; }

  /// An object the mutator placed directly in tenured space (pretenuring,
  /// tenured fallback): record its start for the card scan.
  void noteTenuredObject(const Word *Header, size_t TotalWords) {
    if (!KeepsCards)
      return;
    CrossMap.recordObject(Header, TotalWords);
    ++Stats.CrossingMapUpdates;
  }

  /// Forgets everything remembered (after every collection).
  void clearAfterGC() {
    Log.clear();
    Cards.clear();
    LOSSlots.clear();
  }

  /// Whether the log switched to cards since the previous call (the
  /// per-collection GcEvent::HybridSwitched flag).
  bool takeSwitchedLatch() {
    bool Switched = SwitchedSinceGC;
    SwitchedSinceGC = false;
    return Switched;
  }

  /// Introspection for tests and diagnostics.
  const StoreBuffer &log() const { return Log; }
  const CardTable &cards() const { return Cards; }
  bool inCardMode() const { return CardMode; }
  /// Slot-log size that trips the switch (UINT64_MAX: never switches).
  uint64_t floodThreshold() const { return FloodEntries; }

private:
  bool young(const Word *P) const {
    return NurseryA.contains(P) || NurseryB.contains(P);
  }
  /// The card-mode record: young-object slots need no remembering,
  /// tenured slots dirty a card, large-object slots go to the side buffer.
  void recordCard(Word *Slot) {
    if (young(Slot))
      return;
    if (Tenured->contains(Slot))
      Cards.mark(Slot);
    else
      LOSSlots.push_back(Slot);
  }
  /// The one-way log→cards switch (replay, release, count).
  void switchToCards();
  /// Dirty cards → \p Fn in card order, striped over the pool when the
  /// dirty count pays for the fork/join; a CardSweepFault degrades to a
  /// walk of every tenured pointer field.
  template <typename SlotFn> void sweepCards(SlotFn Fn);
  /// The striped half of sweepCards: fills Stripes. False if any faulted.
  bool sweepStripes(uint64_t &CardsScanned, uint64_t &SlotsVisited);

  /// Stripes with at least this many dirty cards in total go to the worker
  /// pool; below it the serial scan is cheaper than the fork/join.
  static constexpr size_t ParallelSweepMinDirtyCards = 64;

  // Policy, fixed at construction.
  bool Filter = false;
  bool KeepsCards = false;
  uint64_t SwitchFactor = 0; ///< 0 = never switch.

  bool CardMode = false;
  bool SwitchedSinceGC = false;
  uint64_t FloodEntries = UINT64_MAX;

  const Space &NurseryA;
  const Space &NurseryB;
  const Space *Tenured = nullptr;
  GcStats &Stats;
  GcTelemetry &Tel;
  WorkerPool *Pool;

  StoreBuffer Log;
  CardTable Cards;
  CrossingMap CrossMap; ///< Object starts for Tenured's cards.
  std::vector<Word *> LOSSlots; ///< Card-mode slots of large objects.
  /// One worker's share of a striped card sweep (capacity reused).
  struct Stripe {
    std::vector<Word *> Fields;
    uint64_t Cards = 0, Slots = 0;
    bool Faulted = false;
  };
  std::vector<Stripe> Stripes;
};

template <typename SlotFn> void RememberedSet::forEachSlot(SlotFn Fn) {
  if (!CardMode) {
    GcTelemetry::PhaseScope PS(Tel, GcPhase::SsbFilter);
    for (Word *Slot : Log.entries()) {
      // Slots inside young objects are covered by the copy scan itself;
      // the paper's collector filters them the same way.
      if (young(Slot))
        continue;
      Fn(Slot);
      ++Stats.SSBEntriesProcessed;
    }
    return;
  }
  GcTelemetry::PhaseScope PS(Tel, GcPhase::CardScan);
  // Card-scan fields are accounted as CardsScanned/CardSlotsVisited, not
  // SSB entries: the emitted set depends on object placement, not on the
  // barrier's output. The side buffer is precise barrier output and
  // counts.
  sweepCards(Fn);
  for (Word *Slot : LOSSlots) {
    Fn(Slot);
    ++Stats.SSBEntriesProcessed;
  }
}

/// The striped sweep emits the serial field order: stripes are drained in
/// order, and scanDirtyCardRange's range checks keep each field of a run
/// split at a stripe boundary in exactly one stripe. Fn always runs on the
/// calling thread.
template <typename SlotFn> void RememberedSet::sweepCards(SlotFn Fn) {
  uint64_t CardsScanned = 0, SlotsVisited = 0;
  bool Clean = true;
  if (Pool && Cards.numDirtyCards() >= ParallelSweepMinDirtyCards) {
    Clean = sweepStripes(CardsScanned, SlotsVisited);
    if (Clean)
      for (const Stripe &S : Stripes)
        for (Word *F : S.Fields)
          Fn(F);
  } else {
    try {
      Cards.scanDirtyCardRange(*Tenured, CrossMap, 0, Cards.numCards(),
                               CardsScanned, SlotsVisited, Fn);
    } catch (const CardSweepFault &) {
      Clean = false;
    }
  }
  Stats.CardsScanned += CardsScanned;
  Stats.CardSlotsVisited += SlotsVisited;
  if (TILGC_UNLIKELY(!Clean)) {
    // A throwing sweep may have emitted only part of the dirty-card field
    // set, so re-derive it from first principles: every pointer field of
    // every tenured object. Duplicates are harmless (forwarding is
    // idempotent, as for duplicate log entries); the cost is one tenured
    // walk, paid only on the faulted collection.
    ++Stats.CardSweepFaults;
    Tenured->walk([&](Word *Payload, Word, bool) {
      forEachPointerField(Payload, [&](Word *Field) { Fn(Field); });
    });
  }
}

} // namespace tilgc

#endif // TILGC_GC_REMEMBEREDSET_H
