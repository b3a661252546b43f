//===- stack/ScanPlan.h - Compiled stack-scan plans -------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiled scan plans: the JIT-style metadata compilation layer over the
/// trace tables (see DESIGN.md "Beyond the paper: compiled scan plans").
///
/// The paper's scanner interprets a frame's `FrameLayout` with a per-slot
/// switch over the four trace kinds — cheap per slot, but every collection
/// re-pays the decode for every slot of every fresh frame. The first time a
/// return-address key is scanned, we compile its layout once into a
/// `ScanPlan`:
///
///  * a **pointer bitmask** over the frame's slots (one `uint64_t` word per
///    64 slots; bit s of word s/64 is set iff slot s carries a Pointer
///    trace), iterated with `countr_zero` so a Pointer/NonPointer-dominated
///    frame costs one word-test per 64 slots instead of 64 switch
///    dispatches;
///  * a **dense callee-save list** and a **dense compute list** (in slot
///    order), the only traces that still need per-slot interpretation; and
///  * a **precomputed register transition**: set/clear masks folding every
///    statically-known `RegDefs` action into two AND/OR operations, plus a
///    residue of runtime-resolved Compute definitions.
///
/// Plans are memoized in the process-wide `ScanPlanCache` beside the
/// `TraceTableRegistry`: keys are never redefined, so a compiled plan never
/// goes stale. Both caches follow the same threading convention — mutators
/// (and therefore stack scans) are single-threaded; GC worker threads never
/// touch frame metadata.
///
/// The interpretive scan remains available behind
/// `GcOptions::CompiledScanPlans = false` as the paper-faithful mode; the
/// differential test in tests/scan_plan_test.cpp pins the two modes to
/// identical root sets, collection behavior, and pretenuring profiles.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_STACK_SCANPLAN_H
#define TILGC_STACK_SCANPLAN_H

#include "stack/TraceTable.h"
#include "support/Compiler.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace tilgc {

/// The compiled form of one FrameLayout.
struct ScanPlan {
  /// A slot holding the caller's value of register Reg (CalleeSave trace):
  /// a root exactly when Reg held a pointer below this frame.
  struct CalleeSaveEntry {
    uint16_t Slot;
    uint8_t Reg;
  };

  /// A slot whose pointer-ness is resolved from a runtime type descriptor
  /// (Compute trace).
  struct ComputeEntry {
    uint16_t Slot;
    Trace T;
  };

  /// Total frame size in slots, including the key slot 0.
  uint32_t NumSlots = 1;

  /// Pointer bitmask: bit (s % 64) of PtrWords[s / 64] is set iff slot s
  /// has a Pointer trace. Slot 0 (the key) is never set. Sized to cover
  /// slots [0, NumSlots); empty for one-slot frames.
  std::vector<uint64_t> PtrWords;

  /// CalleeSave slots, in increasing slot order.
  std::vector<CalleeSaveEntry> CalleeSaves;

  /// Compute slots, in increasing slot order (matching the interpreter's
  /// resolution order, so ComputesResolved counts stay bit-identical).
  std::vector<ComputeEntry> Computes;

  /// Register-state transition: registers statically redefined to Pointer
  /// (set) or NonPointer (clear) by this frame. Applied as
  ///   RegState = (RegState & ~RegClearMask) | RegSetMask
  /// before the compute residue below.
  uint32_t RegSetMask = 0;
  uint32_t RegClearMask = 0;

  /// Register definitions that need runtime Compute resolution, in the
  /// layout's definition order.
  std::vector<RegAction> ComputeRegDefs;

  /// Fallback for the (pathological) case of a layout that redefines the
  /// same register more than once: the masks above cannot reproduce the
  /// interpreter's sequential last-writer-wins semantics together with its
  /// per-definition ComputesResolved accounting, so the scanner interprets
  /// RegDefs (a verbatim copy) instead. Never set by real layouts.
  bool RegDefsNeedInterp = false;
  std::vector<RegAction> InterpRegDefs;

  /// Compiles \p Layout. Pure function of the layout; never fails.
  static ScanPlan compile(const FrameLayout &Layout);
};

/// Process-wide memoization of compiled plans, indexed by return-address
/// key. Lives beside TraceTableRegistry::global() and shares its threading
/// convention (scans are single-threaded).
class ScanPlanCache {
public:
  static ScanPlanCache &global();

  /// The plan for \p Key, compiling it on first use. \p Key is validated
  /// against the registry (checked lookup — a corrupted return-address slot
  /// aborts loudly rather than reading out of bounds).
  const ScanPlan &plan(uint32_t Key) {
    if (TILGC_UNLIKELY(Key >= Plans.size() || !Plans[Key]))
      return compileAndInsert(Key);
    return *Plans[Key];
  }

  /// Number of keys compiled so far (observability for tests/benches).
  size_t compiledCount() const { return NumCompiled; }

private:
  const ScanPlan &compileAndInsert(uint32_t Key);

  /// unique_ptr entries keep plan references stable across vector growth.
  std::vector<std::unique_ptr<const ScanPlan>> Plans;
  size_t NumCompiled = 0;
};

} // namespace tilgc

#endif // TILGC_STACK_SCANPLAN_H
