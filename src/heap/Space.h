//===- heap/Space.h - Bump-pointer allocation space ------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A contiguous bump-pointer space. Semispace collectors own two of these;
/// the generational collector owns one for the nursery and two for the
/// tenured generation. Spaces are linearly walkable, which the Cheney scan,
/// the profiler's death sweep, and the heap verifier all rely on.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_HEAP_SPACE_H
#define TILGC_HEAP_SPACE_H

#include "object/Object.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>

namespace tilgc {

/// A contiguous block of words with bump-pointer allocation.
class Space {
public:
  Space() = default;
  ~Space() { release(); }

  Space(const Space &) = delete;
  Space &operator=(const Space &) = delete;

  /// Allocates backing storage for \p Bytes (rounded up to a word multiple).
  /// Any previous storage (and its contents) is discarded.
  void reserve(size_t Bytes);

  /// Frees the backing storage.
  void release();

  /// Allocates an object with \p PayloadWords payload words and installs the
  /// header. Returns the payload pointer, or nullptr if the space is full
  /// (past its soft limit, if one is set).
  Word *allocate(Word Descriptor, Word Meta) {
    uint32_t Total = objectTotalWords(Descriptor);
    if (TILGC_UNLIKELY(Next + Total > SoftLimit))
      return nullptr;
    if (TILGC_UNLIKELY(FaultInjector::enabled()) &&
        FaultInjector::global().shouldFire(FaultPoint::SpaceAllocNull))
      return nullptr;
    Word *Payload = Next + HeaderWords;
    Next[0] = Descriptor;
    Next[1] = Meta;
    Next += Total;
    return Payload;
  }

  /// Atomically carves a block of up to \p MaxWords (at least \p MinWords)
  /// off the allocation frontier. This is the mutator TLAB handout: each
  /// mutator bump-allocates privately inside its block, so only the block
  /// grant itself is contended. Returns false when fewer than
  /// \p MinWords remain below the soft limit. Safe against concurrent
  /// allocateBlock/returnBlockTail calls; NOT against concurrent allocate().
  bool allocateBlock(size_t MinWords, size_t MaxWords, Word *&BlockBegin,
                     Word *&BlockEnd) {
    std::atomic_ref<Word *> ANext(Next);
    Word *Cur = ANext.load(std::memory_order_relaxed);
    size_t Take;
    do {
      size_t Avail = Cur < SoftLimit ? static_cast<size_t>(SoftLimit - Cur) : 0;
      if (Avail < MinWords)
        return false;
      Take = Avail < MaxWords ? Avail : MaxWords;
    } while (!ANext.compare_exchange_weak(Cur, Cur + Take,
                                          std::memory_order_relaxed));
    BlockBegin = Cur;
    BlockEnd = Cur + Take;
    return true;
  }

  /// Tries to give back the unused tail [\p Unused, \p BlockEnd) of the most
  /// recently granted block. Succeeds only if the block is still the last
  /// grant (frontier == BlockEnd); otherwise the caller must pad the tail.
  bool returnBlockTail(Word *Unused, Word *BlockEnd) {
    std::atomic_ref<Word *> ANext(Next);
    Word *Expected = BlockEnd;
    return ANext.compare_exchange_strong(Expected, Unused,
                                         std::memory_order_relaxed);
  }

  /// True if \p P points into this space's storage.
  bool contains(const Word *P) const { return P >= Base && P < Limit; }

  /// Raw bounds, for callers that cache them across a tight loop (the
  /// evacuator's per-slot from-space test).
  const Word *baseAddr() const { return Base; }
  const Word *limitAddr() const { return Limit; }

  /// Empties the space (objects become garbage; storage is retained).
  void reset() { Next = Base; }

  /// Caps allocation at \p Bytes without releasing storage — how the
  /// semispace collector shrinks a space that still holds live data (the
  /// paper's r'/r resize with a factor below 1). Cleared by reserve().
  void setSoftLimitBytes(size_t Bytes) {
    size_t Words = Bytes / sizeof(Word);
    SoftLimit = Base + Words > Limit ? Limit : Base + Words;
    if (SoftLimit < Next)
      SoftLimit = Next;
  }

  size_t capacityBytes() const {
    return static_cast<size_t>(Limit - Base) * sizeof(Word);
  }
  size_t usedBytes() const {
    return static_cast<size_t>(Next - Base) * sizeof(Word);
  }
  size_t freeBytes() const { return capacityBytes() - usedBytes(); }
  bool empty() const { return Next == Base; }

  /// The poison word written over evacuated from-space (VerifyLevel >= 3 or
  /// the FromSpacePoison fault point). Deliberately misaligned (low bits
  /// 0b101) so a leaked stale read trips the verifier's alignment check and
  /// faults loudly if dereferenced.
  static constexpr Word PoisonPattern = 0xDEADDEADDEADDEADULL;

  /// Fills the unallocated region [frontier, limit) with PoisonPattern.
  /// After reset() this poisons the whole space.
  void poisonFreeSpace() { std::fill(Next, Limit, PoisonPattern); }

  /// Checks the unallocated region is still wholly poisoned; returns the
  /// address of the first clobbered word, or nullptr if intact. Detects
  /// writes through stale pointers into a space believed empty.
  const Word *findPoisonViolation() const {
    for (const Word *P = Next; P < Limit; ++P)
      if (TILGC_UNLIKELY(*P != PoisonPattern))
        return P;
    return nullptr;
  }

  /// First object payload (for linear walks).
  Word *firstPayload() const { return Base + HeaderWords; }
  /// One-past-the-end allocation frontier.
  Word *frontier() const { return Next; }

  /// Rewinds (or advances) the allocation frontier to \p NewFrontier — the
  /// in-place compactor's epilogue: after sliding live objects toward the
  /// base and padding the gaps, the space's walkable extent ends exactly at
  /// the compaction cursor. The caller guarantees [Base, NewFrontier) is a
  /// well-formed object sequence.
  void setFrontier(Word *NewFrontier) {
    assert(NewFrontier >= Base && NewFrontier <= Limit &&
           "frontier outside the reserved space");
    Next = NewFrontier;
    if (SoftLimit < Next)
      SoftLimit = Next;
  }

  /// Monotonic count of reserve()/release() calls. Side tables bound to
  /// this space (CardTable, CrossingMap) capture it at attach time and
  /// compare it later, turning a stale attach after a re-reserve into a
  /// loud assertion instead of silent marks against a freed base address.
  uint64_t reserveEpoch() const { return ReserveEpoch; }

  /// Walks every object in allocation order, invoking
  /// \p Fn(PayloadPtr, LiveDescriptor, IsForwarded). For forwarded objects
  /// the descriptor is fetched from the copy so the walk can still compute
  /// sizes (the profiler's death sweep walks a from-space after a copy).
  /// Pad fillers (retired TLAB tails, compaction gaps) are skipped
  /// silently.
  template <typename FnT> void walk(FnT Fn) const {
    Word *P = Base;
    while (P < Next) {
      Word Raw = P[0];
      if (TILGC_UNLIKELY(header::isPad(Raw))) {
        P += header::padWords(Raw);
        continue;
      }
      Word *Payload = P + HeaderWords;
      Word Descriptor = Raw;
      bool Forwarded = header::isForwarded(Descriptor);
      if (Forwarded)
        Descriptor = descriptorOf(header::forwardTarget(Descriptor));
      Fn(Payload, Descriptor, Forwarded);
      P += objectTotalWords(Descriptor);
    }
    assert(P == Next && "object walk overran the frontier");
  }

private:
  Word *Base = nullptr;
  Word *Next = nullptr;
  Word *Limit = nullptr;
  Word *SoftLimit = nullptr;
  uint64_t ReserveEpoch = 0;
};

} // namespace tilgc

#endif // TILGC_HEAP_SPACE_H
