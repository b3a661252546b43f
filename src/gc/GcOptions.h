//===- gc/GcOptions.h - The collector parameters ----------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semispace and generational collectors are two configurations of one
/// runtime, so their parameters are described once, here. Both collectors
/// take a GcOptions; each reads only the fields that apply to it (the
/// comments say which). MutatorConfig extends it with the runtime-side
/// fields. Defaults mirror the paper's setup.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_GCOPTIONS_H
#define TILGC_GC_GCOPTIONS_H

#include "profile/HeapProfiler.h"
#include "support/Watchdog.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tilgc {

/// The generational write barrier: a policy of one remembered set
/// (gc/RememberedSet.h) with two record paths, a slot log (the paper's
/// SSB, duplicates kept) and a card table (the paper's suggested fix for
/// Peg). The filter is the conditional barrier of the paper's §9 list.
///
///   kind                   old->young filter  starts in  switches to cards
///   SequentialStoreBuffer  no                 slot log   never
///   FilteredStoreBuffer    yes                slot log   never
///   CardMarking            no                 cards      (starts there)
///   Hybrid                 no                 slot log   at 4 x tenured cards
enum class BarrierKind {
  SequentialStoreBuffer,
  CardMarking,
  FilteredStoreBuffer,
  Hybrid,
};

/// How generational major collections reclaim the tenured generation.
/// Semispace is the paper's engine: evacuate everything into a standing
/// to-space reservation (2× peak footprint, O(live) bytes moved every
/// major). MarkCompact is the region-structured engine beyond the paper:
/// parallel mark, per-region liveness, and an in-place slide that leaves
/// dense regions pinned — no to-space reservation, and only sparse regions'
/// bytes move.
enum class MajorGcKind {
  Semispace,
  MarkCompact,
};

/// Every collector parameter.
struct GcOptions {
  /// Name for diagnostics: heap-state dumps and fatal errors cite it so a
  /// torture matrix can tell which workload/configuration died.
  std::string Name;

  // --- Heap sizing ---------------------------------------------------------
  /// Total memory budget (every space together): the paper's k*Min.
  size_t BudgetBytes = 64u << 20;
  /// Hard cap on total heap footprint. 0 = unlimited (the paper's
  /// behavior: the k*Min budget is soft, overruns are counted in
  /// BudgetOverruns but never fatal). When set, exhaustion becomes a
  /// catchable HeapExhausted carrying a heap-state dump, in every build
  /// mode, instead of growing past the cap.
  size_t HardLimitBytes = 0;
  /// Semispace collector: resize target liveness ratio r (paper: 0.10).
  double SemispaceTargetLiveness = 0.10;
  /// Generational: nursery bound (paper: the 512K secondary cache; "for
  /// benchmarking reasons the nursery is sometimes made significantly
  /// smaller" — the budget clamps it further).
  size_t NurseryLimitBytes = 512u << 10;
  /// Generational: tenured-generation resize target (paper: 0.3).
  double TenuredTargetLiveness = 0.3;
  /// Generational: arrays at least this big go to the large-object space.
  size_t LargeObjectThresholdBytes = 4096;

  // --- Stack scanning ------------------------------------------------------
  /// Generational stack collection (§5; §7.1 for the semispace collector,
  /// where reused frames skip re-decoding but their roots are still
  /// processed since every object moves).
  bool UseStackMarkers = false;
  unsigned MarkerPeriod = 25;
  /// §7.1 dynamic marker placement: adapt the period to the observed
  /// fresh-frame count per collection.
  bool AdaptiveMarkerPlacement = false;
  /// Scan stack frames through compiled ScanPlans (pointer bitmasks)
  /// instead of interpreting trace tables slot by slot. Same roots; false
  /// restores the paper's interpretive scan for comparison.
  bool CompiledScanPlans = true;

  // --- Generational policy -------------------------------------------------
  /// Write barrier flavor.
  BarrierKind Barrier = BarrierKind::SequentialStoreBuffer;
  /// Major-collection engine. Semispace keeps the paper reproduction
  /// bit-identical; MarkCompact trades it for ~1× footprint and
  /// move-only-what-pays compaction.
  MajorGcKind MajorGc = MajorGcKind::Semispace;
  /// 1 = promote-all (the paper's collector); N>1 = survivors are
  /// promoted only after N minor collections (aged-tenuring ablation,
  /// §7.2 discussion).
  unsigned PromoteAgeThreshold = 1;
  /// Profile-derived pretenuring decisions (§6); empty disables.
  std::vector<PretenureDecision> Pretenure;

  // --- Auditing ------------------------------------------------------------
  /// Leveled heap invariant auditing (active in every build mode):
  ///   0 = off;
  ///   1 = post-GC heap walk (headers, pointer validity, no stale
  ///       forwarding pointers);
  ///   2 = + pre-minor remembered-set completeness audit (every
  ///       tenured/LOS slot holding a young pointer must be covered by
  ///       the barrier output, the cross-generation set, or a scanned
  ///       pretenured run — §7.2 NoScan runs deliberately excluded),
  ///       + the §5 stack-reuse audit at minors that skip reused frames
  ///       (no root in an unchanged frame may point into the nursery);
  ///       generational only, the semispace collector treats it as 1;
  ///   3 = + from-space poisoning after evacuation with poison-integrity
  ///       and poison-leak checks.
  /// Levels >= 2 cost O(live tenured data + reused roots) per minor
  /// collection.
  unsigned VerifyLevel = 0;

  // --- Parallelism and pause budget ----------------------------------------
  /// GC worker threads for the mark-compact mark and fixup and the striped
  /// card sweep. Evacuation is always serial, so the semispace collector
  /// ignores it; 1 runs everything on the collecting thread.
  unsigned GcThreads = 1;
  /// Pause-budget SLO mode (generational + MarkCompact only; the owning
  /// Mutator rejects any other combination). When non-zero, major
  /// collections run incrementally: the MARK phase is sliced into
  /// increments of at most this many microseconds, scheduled at allocation
  /// safepoints, with an SATB deletion barrier keeping the trace sound
  /// between slices. The cycle is finished by one stop-the-world
  /// collection when tenured pressure (or any forced major) demands it.
  /// 0 (the default) disables the mode entirely: every incremental path is
  /// gated off and results are bit-identical to stock MarkCompact.
  uint64_t MaxPauseMicros = 0;

  // --- Supervision ---------------------------------------------------------
  /// Generational GC-cycle watchdog deadline in microseconds; 0 (the
  /// default) leaves the supervisor disarmed and free on every path. When
  /// set, a supervisor thread barks (GcObserver::onWatchdogBark + trace
  /// instant) if any single collection outlives the deadline, then
  /// escalates per WatchdogEscalation.
  uint64_t GcDeadlineMicros = 0;
  /// Safepoint-rendezvous watchdog deadline in microseconds; 0 =
  /// disarmed. Consumed by the multi-mutator runtime (MutatorGroup /
  /// SafepointCoordinator).
  uint64_t SafepointDeadlineMicros = 0;
  /// What a watchdog bark escalates to. Report: diagnostic only.
  /// Recover: additionally request a cooperative abort — a mark-/plan-
  /// phase abort in MarkCompact fails the major over to a semispace
  /// evacuation. Fatal: terminate with the stall diagnostic.
  WatchdogPolicy WatchdogEscalation = WatchdogPolicy::Recover;
};

} // namespace tilgc

#endif // TILGC_GC_GCOPTIONS_H
