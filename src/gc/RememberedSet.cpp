//===- gc/RememberedSet.cpp - Old-to-young remembered set -----------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/RememberedSet.h"

#include "support/WorkerPool.h"

using namespace tilgc;

RememberedSet::RememberedSet(BarrierKind Kind, const Space &NurseryA,
                             const Space &NurseryB, GcStats &Stats,
                             GcTelemetry &Tel, WorkerPool *Pool)
    : NurseryA(NurseryA), NurseryB(NurseryB), Stats(Stats), Tel(Tel),
      Pool(Pool) {
  // The policy table (see the file comment). Starting in card mode is not
  // a switch: it is neither counted nor latched.
  switch (Kind) {
  case BarrierKind::SequentialStoreBuffer:
    break;
  case BarrierKind::FilteredStoreBuffer:
    Filter = true;
    break;
  case BarrierKind::CardMarking:
    CardMode = true;
    break;
  case BarrierKind::Hybrid:
    SwitchFactor = FloodFactor;
    break;
  }
  KeepsCards = CardMode || SwitchFactor != 0;
  // Steady-state logs between collections are workload-dependent; the
  // shrink floor covers the bench workloads' common case, and the log
  // grows past it once, keeping the capacity.
  if (!CardMode)
    Log.reserve(StoreBuffer::ShrinkFloorEntries);
}

void RememberedSet::rebind(const Space &T) {
  Tenured = &T;
  if (!KeepsCards)
    return;
  Cards.attach(T);
  CrossMap.attach(T);
  if (SwitchFactor)
    FloodEntries = SwitchFactor * Cards.numCards();
}

void RememberedSet::switchToCards() {
  // Replay the pending log into card marks: young-object slots drop out,
  // exactly as the card path would have dropped them.
  for (Word *Slot : Log.entries())
    recordCard(Slot);
  // Card mode is for good, so the log never refills: hand its flood-sized
  // storage back rather than keep it for the collector's lifetime.
  Log.release();
  CardMode = true;
  SwitchedSinceGC = true;
  ++Stats.HybridSwitches;
  if (Stats.HybridSwitchEpoch == 0)
    Stats.HybridSwitchEpoch = Stats.NumGC + 1;
}

bool RememberedSet::sweepStripes(uint64_t &CardsScanned,
                                 uint64_t &SlotsVisited) {
  size_t NumCards = Cards.numCards();
  unsigned N = Pool->numWorkers();
  Stripes.resize(N);
  Pool->runOnAll([&](unsigned I) {
    Stripe &S = Stripes[I];
    S.Fields.clear();
    S.Cards = S.Slots = 0;
    S.Faulted = false;
    // Exceptions must not cross the pool boundary (runOnAll joins, it does
    // not transport): a faulted stripe is flagged instead.
    try {
      Cards.scanDirtyCardRange(*Tenured, CrossMap, NumCards * I / N,
                               NumCards * (I + 1) / N, S.Cards, S.Slots,
                               [&](Word *F) { S.Fields.push_back(F); });
    } catch (const CardSweepFault &) {
      S.Faulted = true;
    }
  });
  bool Clean = true;
  for (const Stripe &S : Stripes) {
    CardsScanned += S.Cards;
    SlotsVisited += S.Slots;
    Clean &= !S.Faulted;
  }
  return Clean;
}
