//===- heap/CrossingMap.h - Object-start crossing map -----------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-per-card object-start table: for each card of a tenured space,
/// records where the object covering the card's first word begins, so a
/// dirty-card scan can start walking at an object header instead of at the
/// space base. This is what makes card processing O(dirty cards) rather
/// than O(live tenured data) — the production technique (JikesRVM/MMTk,
/// HotSpot's BlockOffsetTable) the paper alludes to when it suggests
/// card-marking for Peg.
///
/// Encoding, per card C (entry E = Entries[C]):
///   0..63   The covering object's header starts E words BEFORE the card
///           boundary (0 = exactly at the boundary). One card holds
///           CardBytes / sizeof(Word) = 64 words, so any start inside the
///           previous card is expressible directly.
///   64..254 Back-skip: the start is at least one full card back; subtract
///           (E - 63) cards and look again. Skips chain, so an object
///           spanning thousands of cards resolves in O(span / 191) hops.
///   255     Unknown — no recorded object covers this card's first word.
///           Below the frontier of a bump-allocated space this means a
///           maintenance bug (objects are contiguous), and scan paths
///           assert on it.
///
/// Thread-safety: recordObject writes only the entries whose first word the
/// object (or pad filler) covers, and only the collecting thread records
/// (evacuation is serial), so every entry byte has exactly one writer.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_HEAP_CROSSINGMAP_H
#define TILGC_HEAP_CROSSINGMAP_H

#include "heap/Space.h"
#include "object/Object.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace tilgc {

/// Object-start offset table covering one bump-pointer space.
class CrossingMap {
public:
  /// Bytes per card; must match CardTable::CardBytes (statically checked in
  /// CardTable.h, which includes this header).
  static constexpr size_t CardBytes = 512;
  /// Words per card.
  static constexpr size_t CardWords = CardBytes / sizeof(Word);
  static_assert(CardWords == 64, "encoding assumes 64-word cards");

  /// Largest back-skip one entry can express, in cards.
  static constexpr unsigned MaxSkip = 254 - 63;
  /// "No object recorded for this card" sentinel.
  static constexpr uint8_t Unknown = 255;

  /// (Re)binds the map to \p S, covering its current capacity, and resets
  /// every entry to Unknown. Must be called whenever the covered space's
  /// backing storage is re-reserved.
  void attach(const Space &S);

  /// True if the map is bound to \p S's current backing storage.
  bool boundTo(const Space &S) const {
    return Base == S.baseAddr() && Epoch == S.reserveEpoch();
  }

  /// True if \p P points into the covered range.
  bool covers(const Word *P) const {
    return P >= Base && cardOf(P) < Entries.size();
  }

  /// Records an object (or pad filler) whose header starts at \p Header and
  /// spans \p TotalWords words (header included). Updates the entry of
  /// every card whose first word the object covers. An object strictly
  /// inside one card covers no card-first word and records nothing.
  void recordObject(const Word *Header, size_t TotalWords) {
    assert(covers(Header) && "recording an object outside the covered space");
    size_t C0 = cardOf(Header);
    size_t Off = wordInCard(Header);
    // First card whose first word the object covers.
    size_t D = Off == 0 ? C0 : C0 + 1;
    size_t CLast = cardOf(Header + TotalWords - 1);
    if (D > CLast)
      return;
    Entries[D] = static_cast<uint8_t>(Off == 0 ? 0 : CardWords - Off);
    for (size_t C = D + 1; C <= CLast; ++C) {
      size_t Skip = C - D;
      if (Skip > MaxSkip)
        Skip = MaxSkip;
      Entries[C] = static_cast<uint8_t>(63 + Skip);
    }
  }

  /// Returns the header of the object covering \p Card's first word, or
  /// nullptr if no object has been recorded there (Unknown). Chains through
  /// back-skip entries.
  const Word *objectStartCovering(size_t Card) const {
    assert(Card < Entries.size() && "card index out of range");
    for (;;) {
      uint8_t E = Entries[Card];
      if (E == Unknown)
        return nullptr;
      if (E < CardWords)
        return cardBoundary(Card) - E;
      size_t Skip = static_cast<size_t>(E) - 63;
      assert(Card >= Skip && "back-skip chain underflows the space base");
      Card -= Skip;
    }
  }

  size_t numCards() const { return Entries.size(); }

  /// First word of card \p Card.
  const Word *cardBoundary(size_t Card) const {
    return Base + Card * CardWords;
  }

  size_t cardOf(const Word *P) const {
    return static_cast<size_t>(P - Base) / CardWords;
  }

private:
  size_t wordInCard(const Word *P) const {
    return static_cast<size_t>(P - Base) % CardWords;
  }

  const Word *Base = nullptr;
  uint64_t Epoch = 0;
  std::vector<uint8_t> Entries;
};

} // namespace tilgc

#endif // TILGC_HEAP_CROSSINGMAP_H
