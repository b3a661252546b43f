//===- stack/ShadowStack.cpp - Activation-record stack --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "stack/ShadowStack.h"

#include "support/Fatal.h"

#include <sys/mman.h>

using namespace tilgc;

/// Bytes of the mapping: the slots, the sentinel, the base chain.
static size_t mappingBytes(size_t CapacitySlots) {
  return (2 * CapacitySlots + 1) * sizeof(Word);
}

ShadowStack::ShadowStack(size_t CapacitySlots) : Capacity(CapacitySlots) {
  static_assert(sizeof(size_t) == sizeof(Word), "bases share the slot words");
  void *Map = mmap(nullptr, mappingBytes(Capacity), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Map == MAP_FAILED)
    fatalError("shadow stack reservation of %zu slots (%zu bytes) failed",
               Capacity, mappingBytes(Capacity));
  Slots = static_cast<Word *>(Map);
  Bases = reinterpret_cast<size_t *>(Slots + Capacity + 1);
  Bases[-1] = ~size_t{0};
}

ShadowStack::~ShadowStack() { munmap(Slots, mappingBytes(Capacity)); }

void ShadowStack::overflow(uint32_t NumSlots) const {
  fatalError("shadow stack overflow: pushing a %u-slot frame at depth %zu "
             "(%zu slots in use) exceeds the capacity of %zu slots",
             NumSlots, NumFrames, Top, Capacity);
}
