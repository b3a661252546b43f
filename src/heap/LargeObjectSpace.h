//===- heap/LargeObjectSpace.h - Mark-sweep large-object space -*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's large-array region: "Large arrays are not allocated in the
/// nursery and promoted to the tenured area; instead, they reside in a
/// region managed by a mark-sweep algorithm." Objects here are individually
/// heap-allocated blocks, never move, are treated as tenured by minor
/// collections (initializing pointer stores go through the write barrier),
/// and are marked and swept during major collections.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_HEAP_LARGEOBJECTSPACE_H
#define TILGC_HEAP_LARGEOBJECTSPACE_H

#include "object/Object.h"

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace tilgc {

/// Individually-allocated, non-moving objects managed by mark-sweep.
class LargeObjectSpace {
public:
  LargeObjectSpace() = default;
  ~LargeObjectSpace();
  LargeObjectSpace(const LargeObjectSpace &) = delete;
  LargeObjectSpace &operator=(const LargeObjectSpace &) = delete;

  /// Allocates a large object and installs its header. Never fails short of
  /// host OOM (budget policy is the collector's job).
  Word *allocate(Word Descriptor, Word Meta);

  /// True if \p Payload is the payload of a live large object.
  bool contains(const Word *Payload) const {
    return Index.count(Payload) != 0;
  }

  /// Marks the object at \p Payload live; returns false if already marked.
  /// Thread-safe against concurrent mark() calls (atomic test-and-set); the
  /// parallel mark relies on exactly one marker winning.
  bool mark(Word *Payload);

  /// Whether the object at \p Payload currently carries a mark bit (the
  /// pause-budget mode's SATB filter and tricolor audit read mid-cycle mark
  /// state; outside a marking window every bit is clear).
  bool isMarked(const Word *Payload) const {
    auto It = Index.find(Payload);
    return It != Index.end() && Objects[It->second].Marked;
  }

  /// Frees every unmarked object and clears mark bits.
  /// Invokes \p OnDead(Payload, Descriptor) for each freed object before it
  /// is released (the profiler records deaths here).
  template <typename FnT> void sweep(FnT OnDead) {
    size_t Kept = 0;
    for (size_t I = 0; I < Objects.size(); ++I) {
      Entry &E = Objects[I];
      if (E.Marked) {
        E.Marked = false;
        Index[E.Payload] = Kept;
        Objects[Kept++] = E;
        continue;
      }
      OnDead(E.Payload, descriptorOf(E.Payload));
      LiveBytes -= objectTotalBytes(descriptorOf(E.Payload));
      Index.erase(E.Payload);
      releaseBlock(E.Payload);
    }
    Objects.resize(Kept);
  }

  /// Clears every mark bit without freeing anything. Used when a major
  /// collection aborts mid-mark (engine failover): the partial mark must
  /// not be consumed by a sweep — unmarked-but-live objects would be
  /// freed — so the failover evacuation starts from clean bits and
  /// re-marks via its own LOS trace.
  void clearMarks() {
    for (Entry &E : Objects)
      E.Marked = false;
  }

  /// Walks all live large objects: \p Fn(Payload, Descriptor).
  template <typename FnT> void walk(FnT Fn) const {
    for (const Entry &E : Objects)
      Fn(E.Payload, descriptorOf(E.Payload));
  }

  /// Total footprint (headers + payloads) of live large objects.
  size_t liveBytes() const { return LiveBytes; }

  size_t objectCount() const { return Objects.size(); }

private:
  struct Entry {
    Word *Payload;
    uint8_t Marked; ///< uint8_t (not bool) so mark() can atomic_ref it.
  };

  void releaseBlock(Word *Payload);

  std::vector<Entry> Objects;
  /// Payload -> index into Objects; used by contains()/mark().
  std::unordered_map<const Word *, size_t> Index;
  size_t LiveBytes = 0;
};

} // namespace tilgc

#endif // TILGC_HEAP_LARGEOBJECTSPACE_H
