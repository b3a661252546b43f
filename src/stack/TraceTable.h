//===- stack/TraceTable.h - Stack frame trace tables ------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace tables: the compiler-emitted metadata that lets TIL's collector
/// decode stack frames (paper §2.3, Figure 1).
///
/// Slot 0 of every frame holds a *return-address key* which indexes the
/// registry; the entry gives the frame size and, for every other slot and
/// every register, one of the paper's four traces:
///
///  * Pointer      — statically known pointer; a root.
///  * NonPointer   — statically known non-pointer; never a root.
///  * CalleeSave   — the slot holds the caller's value of some register;
///                   whether it is a root depends on the register's pointer
///                   status in the frame below (this is what forces the
///                   two-pass scan).
///  * Compute      — pointer-ness could not be determined statically
///                   (polymorphism); auxiliary data locates a runtime type
///                   descriptor from which the scanner computes it.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_STACK_TRACETABLE_H
#define TILGC_STACK_TRACETABLE_H

#include "object/Object.h"
#include "support/Compiler.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace tilgc {

/// Number of simulated general-purpose registers.
inline constexpr unsigned NumRegisters = 16;

/// The four trace kinds of paper §2.3.
enum class TraceKind : uint8_t { NonPointer, Pointer, CalleeSave, Compute };

/// Where a Compute trace's type descriptor lives.
enum class ComputeLoc : uint8_t { Slot, Register };

/// Trace information for one stack slot or register.
struct Trace {
  TraceKind Kind = TraceKind::NonPointer;
  ComputeLoc Loc = ComputeLoc::Slot;
  /// CalleeSave: the register whose caller value is saved here.
  /// Compute: the slot index / register number holding the type descriptor.
  uint8_t Index = 0;

  static Trace nonPointer() { return Trace{}; }
  static Trace pointer() { return Trace{TraceKind::Pointer, ComputeLoc::Slot, 0}; }
  static Trace calleeSave(unsigned Reg) {
    assert(Reg < NumRegisters && "bad register");
    return Trace{TraceKind::CalleeSave, ComputeLoc::Slot,
                 static_cast<uint8_t>(Reg)};
  }
  static Trace computeFromSlot(unsigned Slot) {
    return Trace{TraceKind::Compute, ComputeLoc::Slot,
                 static_cast<uint8_t>(Slot)};
  }
  static Trace computeFromReg(unsigned Reg) {
    assert(Reg < NumRegisters && "bad register");
    return Trace{TraceKind::Compute, ComputeLoc::Register,
                 static_cast<uint8_t>(Reg)};
  }
};

/// A register redefinition performed by a frame's function by the time of
/// any call (and therefore any collection) within it. Registers without an
/// action are unchanged: their contents (and pointer status) flow up from
/// the caller, which is exactly the callee-save discipline.
struct RegAction {
  uint8_t Reg;
  Trace What; ///< Pointer / NonPointer / Compute (CalleeSave is meaningless
              ///< here; saving happens via slot traces).
};

/// One trace-table entry: the layout of every frame created by a particular
/// call site (paper Figure 1, right side).
struct FrameLayout {
  std::string Name;               ///< For diagnostics and dumps.
  std::vector<Trace> SlotTraces;  ///< Traces for slots 1..N (slot 0 = key).
  std::vector<RegAction> RegDefs; ///< Register redefinitions by this frame.

  FrameLayout() = default;
  FrameLayout(std::string Name, std::vector<Trace> Slots,
              std::vector<RegAction> Regs = {})
      : Name(std::move(Name)), SlotTraces(std::move(Slots)),
        RegDefs(std::move(Regs)) {}

  /// Total frame size in slots, including slot 0.
  uint32_t numSlots() const {
    return static_cast<uint32_t>(SlotTraces.size()) + 1;
  }
};

/// The distinguished key the collector writes into a marked frame's
/// return-address slot (the "stub function" of paper §5). Never a valid
/// registry index.
inline constexpr uint32_t StubKey = 0xFFFFFFFFu;

/// Registry of frame layouts keyed by return-address key. In TIL this table
/// is emitted by the compiler; here workloads register their layouts once at
/// startup.
///
/// Thread-safety: layouts register lazily through function-local statics in
/// workload code, and multi-mutator runs execute per-thread workload
/// instances concurrently — so define() takes a mutex, storage is a deque
/// (no element ever moves under a reader), and the published key count is a
/// release store the lock-free lookups acquire. Single-threaded cost: one
/// atomic load where a plain size() load was.
///
/// Beside the layouts, a flat array holds every key's frame size: a frame
/// push reads one word there instead of decoding a FrameLayout.
class TraceTableRegistry {
public:
  /// Capacity of the frame-size array; define() past it is fatal.
  static constexpr size_t MaxKeys = size_t{1} << 16;

  /// The process-wide registry (trace tables are program metadata).
  static TraceTableRegistry &global();

  /// Registers \p Layout and returns its key. Keys are never reused.
  /// Thread-safe.
  uint32_t define(FrameLayout Layout);

  /// Checked lookup: a key the registry never issued aborts loudly in every
  /// build mode. A frame's key slot is mutator-writable memory — if it is
  /// corrupted (or a stub key leaks past marker retirement), an
  /// assert-only check would let release builds index out of bounds and
  /// read wild memory as a FrameLayout.
  const FrameLayout &lookup(uint32_t Key) const {
    size_t N = NumKeys.load(std::memory_order_acquire);
    if (TILGC_UNLIKELY(Key >= N))
      fatalBadKey(Key, N);
    return Layouts[Key];
  }

  /// Frame size in slots of \p Key (FrameLayout::numSlots), from the flat
  /// array: the frame-push path. Checked exactly as lookup() is.
  uint32_t frameSize(uint32_t Key) const {
    size_t N = NumKeys.load(std::memory_order_acquire);
    if (TILGC_UNLIKELY(Key >= N))
      fatalBadKey(Key, N);
    return FrameSizes[Key];
  }

  size_t size() const { return NumKeys.load(std::memory_order_acquire); }

private:
  [[noreturn]] static void fatalBadKey(uint32_t Key, size_t NumKeys);

  TraceTableRegistry();
  std::deque<FrameLayout> Layouts;
  /// Written before NumKeys publishes the key, like its layout; entries
  /// at or past NumKeys are never read, so the array is not cleared.
  uint32_t FrameSizes[MaxKeys];
  std::atomic<size_t> NumKeys{0};
  std::mutex DefineMutex;
};

} // namespace tilgc

#endif // TILGC_STACK_TRACETABLE_H
