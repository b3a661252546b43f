//===- runtime/MutatorGroup.h - N mutators, one heap ------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-mutator runtime: N mutator threads share one collector
/// (DESIGN.md "Beyond the paper: multi-mutator runtime").
///
/// Construction wires the pieces together with the world quiescent:
///
///  * Mutator 0 is an ordinary Mutator owning the collector (and the
///    shared profiler/trace recorder); mutators 1..N-1 are attached —
///    they alias the primary's collector, and their contexts (shadow
///    stack, register file and, with stack markers, the stack's own
///    marker manager and scan cache) are registered behind the primary's
///    so every collection scans all N stacks.
///  * Every member is then switched into group mode: its allocation path
///    (the same per-thread TLAB bump every Mutator uses) gains a safepoint
///    poll; pointer-store barrier records buffer in a per-thread store
///    buffer; profile samples accumulate in per-thread scratch.
///
/// Any slow-path allocation or explicit collection stops the world via
/// SafepointCoordinator, then — with every other thread parked — merges
/// all per-thread state in thread-index order (Mutator::mergeAtSafepoint:
/// TLAB retirement, barrier replay through the collector's real write
/// barrier, statistics fold, profile merge) before running the collector
/// operation. The merge order is deterministic, so totals, site profiles,
/// and derived pretenure sets match a serial run exactly; only the
/// interleaving of per-thread allocation into birth stamps varies.
///
/// Stack markers work for any N: each stack keeps its own markers and
/// scan cache, so the §5 reuse boundary is computed per stack (DESIGN.md
/// "Generational stack collection per mutator").
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_RUNTIME_MUTATORGROUP_H
#define TILGC_RUNTIME_MUTATORGROUP_H

#include "runtime/Mutator.h"
#include "runtime/Safepoint.h"
#include "support/Watchdog.h"

#include <functional>
#include <memory>
#include <vector>

namespace tilgc {

class MutatorGroup {
public:
  /// Builds \p NumMutators mutators sharing one collector configured by
  /// \p Config. Fatal if validate(Config, NumMutators) finds a problem
  /// (no mutators, a pause budget without mark-compact, ...).
  MutatorGroup(const MutatorConfig &Config, unsigned NumMutators);
  ~MutatorGroup();
  MutatorGroup(const MutatorGroup &) = delete;
  MutatorGroup &operator=(const MutatorGroup &) = delete;

  unsigned size() const { return static_cast<unsigned>(Muts.size()); }
  Mutator &mutator(unsigned Idx) { return *Muts[Idx]; }
  Collector &collector() { return Muts[0]->collector(); }
  GcStats &gcStats() { return collector().stats(); }
  /// The shared profiler (primary mutator's; null unless profiling).
  HeapProfiler *profiler() { return Muts[0]->profiler(); }
  SafepointCoordinator &safepoint() { return SP; }
  /// The rendezvous supervisor (idle unless Config.SafepointDeadlineMicros
  /// was set); tests read barks() from it.
  Watchdog &safepointWatchdog() { return SafepointWD; }

  /// Runs \p Body(mutator(I), I) on one std::thread per mutator and joins
  /// them all. On return the world is quiescent and all per-thread state
  /// has been merged, so stats/profiles/heap walks see final totals. The
  /// first per-thread exception (by thread index) is rethrown; the
  /// remaining threads still run to completion first.
  void run(const std::function<void(Mutator &, unsigned)> &Body);

  // --- Internal API for attached Mutators -------------------------------

  /// Stop-the-world slow-path allocation for thread \p Idx: parks behind /
  /// claims the safepoint, merges per-thread state, then runs the
  /// collector's full allocate() — same OOM ladder as single-mutator mode.
  Word *allocateStopped(unsigned Idx, ObjectKind Kind, uint32_t LenWords,
                        uint32_t PtrMask, uint32_t Site);

  /// Stop-the-world explicit collection for thread \p Idx.
  void collectStopped(unsigned Idx, bool Major);

private:
  /// First thing inside a stop: count it, feed the rendezvous telemetry to
  /// the collector's event plane, and merge all per-thread state so the
  /// collector sees a coherent heap and exact totals.
  void beginStopBookkeeping();
  /// Last thing inside a stop (runs even if the operation threw): drop the
  /// pending safepoint record if no collection consumed it.
  void endStopBookkeeping();
  /// Mutator::mergeAtSafepoint for every thread, in thread-index order.
  void mergeAtSafepoint();

  struct EndGuard {
    MutatorGroup &G;
    ~EndGuard() { G.endStopBookkeeping(); }
  };

  std::vector<std::unique_ptr<Mutator>> Muts;
  SafepointCoordinator SP;
  /// Supervises stop-the-world rendezvous; separate from the collector's
  /// GC-cycle watchdog because the two windows have different owners (a
  /// stopping mutator vs the collecting thread) and different deadlines.
  Watchdog SafepointWD;
};

} // namespace tilgc

#endif // TILGC_RUNTIME_MUTATORGROUP_H
