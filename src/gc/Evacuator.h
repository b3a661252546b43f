//===- gc/Evacuator.h - Cheney copying engine -------------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The copying engine shared by both collectors: Cheney's algorithm
/// (Cheney 1970) generalized to
///
///  * up to three from-spaces (nursery, nursery to-space, tenured
///    from-space — a major collection evacuates them all at once),
///  * an optional second destination for the aged-tenuring ablation policy
///    (survivors below the age threshold are copied back to the young
///    generation instead of being promoted),
///  * mark-and-push handling of the non-moving large-object space during
///    major collections, and
///  * optional heap-profiler accounting (copied bytes, survived-first
///    counts, referent-site edges for the §7.2 scan-elimination analysis).
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_EVACUATOR_H
#define TILGC_GC_EVACUATOR_H

#include "heap/CrossingMap.h"
#include "heap/LargeObjectSpace.h"
#include "heap/Space.h"
#include "object/Object.h"
#include "profile/HeapProfiler.h"

#include <array>
#include <cstdio>
#include <cstdint>
#include <vector>

namespace tilgc {

/// One evacuation pass: forward roots with forwardSlot(), then drain().
class Evacuator {
public:
  struct Config {
    /// Spaces being evacuated (null entries ignored).
    std::array<Space *, 3> From = {nullptr, nullptr, nullptr};
    /// Default destination (the tenured generation / the to-space).
    Space *Dest = nullptr;
    /// Aged-tenuring policy: survivors whose bumped age is below
    /// PromoteAgeThreshold are copied here instead of Dest. Null for the
    /// paper's promote-all policy.
    Space *DestYoung = nullptr;
    unsigned PromoteAgeThreshold = 1;
    /// Large-object space; traced (marked + scanned) only when TraceLOS.
    LargeObjectSpace *LOS = nullptr;
    bool TraceLOS = false;
    /// Optional profiling hooks.
    HeapProfiler *Profiler = nullptr;
    /// Aged tenuring only: collects every slot (outside the from-spaces
    /// and the young destination) whose forwarded target stayed in the
    /// young generation. Promotion creates old->young edges no mutator
    /// barrier ever saw; the collector must remember them itself.
    std::vector<Word *> *CrossGenOut = nullptr;
    /// True when a nursery is among From: age-0 survivors count as having
    /// survived their first collection.
    bool CountSurvivedFirst = false;
    /// Optional object-start crossing map covering Dest. When set, every
    /// object copied into Dest is recorded so later dirty-card scans can
    /// find object starts (CardMarking / Hybrid barriers).
    CrossingMap *CrossDest = nullptr;
  };

  explicit Evacuator(const Config &C);

  /// If *Slot points into a from-space, copies the object (once) and
  /// redirects the slot. If it points into the LOS and TraceLOS is set,
  /// marks the object and queues it for scanning.
  void forwardSlot(Word *Slot) {
    Word Bits = *Slot;
    if (!Bits)
      return;
    Word *P = reinterpret_cast<Word *>(Bits);
    if (inFromSpace(P)) {
      *Slot = reinterpret_cast<Word>(copy(P));
      if (C.CrossGenOut &&
          C.DestYoung->contains(reinterpret_cast<Word *>(*Slot)) &&
          !C.DestYoung->contains(Slot) && !inFromSpace(Slot))
        C.CrossGenOut->push_back(Slot);
      return;
    }
    if (C.TraceLOS && C.LOS->contains(P) && C.LOS->mark(P))
      LOSWork.push_back(P);
  }

  /// Forwards a contiguous span of root slots. The batched root pipeline:
  /// collectors hand whole RootSet vectors (and gathered heap-root batches)
  /// here instead of looping forwardSlot at every call site.
  void forwardRootSpan(Word *const *Slots, size_t Count) {
    for (size_t I = 0; I < Count; ++I)
      forwardSlot(Slots[I]);
  }

  /// Processes gray objects (Cheney scan of the destinations plus the LOS
  /// worklist) until no work remains.
  void drain();

  uint64_t bytesCopied() const { return BytesCopied; }
  uint64_t objectsCopied() const { return ObjectsCopied; }
  uint64_t crossingMapUpdates() const { return CrossingUpdates; }

private:
  /// From-space bounds are cached in plain members at construction: the
  /// per-slot test is the hottest load in a collection, and chasing
  /// Space* -> Base/Limit through the config array costs three dependent
  /// loads per query against zero for values the compiler can keep in
  /// registers across the scan loop.
  bool inFromSpace(const Word *P) const {
    for (unsigned I = 0; I < NumFrom; ++I)
      if (P >= FromLo[I] && P < FromHi[I])
        return true;
    return false;
  }

  Word *copy(Word *P);
  template <bool WithProfiler> void scanObject(Word *Payload);
  template <bool WithProfiler> void drainImpl();

  Config C;
  const Word *FromLo[3];
  const Word *FromHi[3];
  unsigned NumFrom = 0;
  Word *ScanDest;
  Word *ScanYoung;
  std::vector<Word *> LOSWork;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t CrossingUpdates = 0;
};

} // namespace tilgc

#endif // TILGC_GC_EVACUATOR_H
