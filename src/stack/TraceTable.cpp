//===- stack/TraceTable.cpp - Stack frame trace tables --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "stack/TraceTable.h"

#include "support/Fatal.h"

#include <cstdio>
#include <cstdlib>

using namespace tilgc;

void TraceTableRegistry::fatalBadKey(uint32_t Key, size_t NumKeys) {
  std::fprintf(stderr,
               "tilgc: fatal: return-address key %u (0x%x) is not a "
               "registered trace table (%zu keys defined)%s\n",
               Key, Key, NumKeys,
               Key == StubKey ? "; a stack-marker stub key leaked into a "
                                "frame decode"
                              : "");
  std::abort();
}

TraceTableRegistry &TraceTableRegistry::global() {
  static TraceTableRegistry Registry;
  return Registry;
}

TraceTableRegistry::TraceTableRegistry() {
  // Key 0 is reserved so that a zeroed slot never looks like a valid frame.
  Layouts.emplace_back("<invalid>", std::vector<Trace>{});
  FrameSizes[0] = Layouts[0].numSlots();
  NumKeys.store(1, std::memory_order_release);
}

uint32_t TraceTableRegistry::define(FrameLayout Layout) {
  for (const Trace &T : Layout.SlotTraces) {
    if (T.Kind == TraceKind::Compute && T.Loc == ComputeLoc::Slot) {
      assert(T.Index >= 1 && T.Index < Layout.numSlots() &&
             "compute trace names a slot outside the frame");
      assert(Layout.SlotTraces[T.Index - 1].Kind == TraceKind::Pointer &&
             "a compute trace's type-descriptor slot must itself be a "
             "pointer slot");
    }
  }
  std::lock_guard<std::mutex> L(DefineMutex);
  uint32_t Key = static_cast<uint32_t>(Layouts.size());
  if (Key >= MaxKeys)
    fatalError("trace table registry full: %zu keys defined, cannot add "
               "'%s'", Layouts.size(), Layout.Name.c_str());
  FrameSizes[Key] = Layout.numSlots();
  Layouts.push_back(std::move(Layout));
  NumKeys.store(Layouts.size(), std::memory_order_release);
  return Key;
}
