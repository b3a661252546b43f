//===- observe/GcEvent.h - Per-collection telemetry record ------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-collection event record of the telemetry plane (DESIGN.md
/// "Beyond the paper: GC telemetry"). Every minor and major collection of
/// either collector emits one GcEvent: what triggered it, how long each
/// phase took, and the deterministic work counters (bytes copied/promoted/
/// pretenured, frames scanned vs reused) that must be identical across
/// GcThreads settings. Timing fields are wall-clock and naturally vary;
/// consumers that diff event streams compare only the deterministic
/// fields.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_OBSERVE_GCEVENT_H
#define TILGC_OBSERVE_GCEVENT_H

#include <cstdint>
#include <vector>

namespace tilgc {

/// Which generation a collection processed.
enum class GcGeneration : uint8_t { Minor, Major };

/// Why a collection started.
enum class GcTrigger : uint8_t {
  /// Mutator called collect() directly.
  Explicit,
  /// Nursery bump allocation failed (the common minor-GC cause).
  NurseryFull,
  /// Tenured free space could not absorb the next nursery-load (the
  /// pressure-chained major, before or after a minor).
  TenuredPressure,
  /// A pretenured-site allocation found the tenured generation full.
  PretenuredSiteFull,
  /// Large-object allocation crossed the budget / hard-limit pre-flight.
  LargeObjectPressure,
  /// OOM escalation ladder: the post-minor retry failed and escalated.
  OomLadder,
  /// Semispace active space exhausted (every semispace allocation GC).
  SpaceFull,
};

/// Collection phases stamped into events (and exported as one
/// chrome://tracing complete-event each).
enum class GcPhase : uint8_t {
  StackScan,   ///< Shadow-stack + register root scan (paper GC-stack).
  SsbFilter,   ///< Heap-side root gathering: SSB filter, pretenured
               ///< region scan, new large objects.
  CardScan,    ///< Dirty-card sweep through the crossing map (CardMarking
               ///< and post-switch Hybrid barriers).
  RootHandoff, ///< Handing root spans to the evacuation engine.
  Copy,        ///< Evacuation drain (paper GC-copy).
  Resize,      ///< Space reservation / post-collection resize + sweeps.
  Mark,        ///< Mark-compact majors: parallel heap trace.
  Fixup,       ///< Mark-compact majors: pointer rewrite through the break
               ///< table and young forwarding headers.
  Compact,     ///< Mark-compact majors: plan, slides, pads, promotion
               ///< copies, crossing-map rebuild.
  SafepointWait, ///< Multi-mutator runtime: time the collecting thread
                 ///< spent waiting for every other mutator to park at its
                 ///< allocation poll. Always zero in single-mutator mode.
  IncrementalMark, ///< Pause-budget mode: one bounded mark slice (or the
                   ///< marking portion of the cycle-finishing collection).
};
inline constexpr unsigned NumGcPhases = 11;

/// Display name of a phase (trace export, reports).
const char *gcPhaseName(GcPhase P);
/// Display name of a trigger.
const char *gcTriggerName(GcTrigger T);
/// Display name of a generation.
const char *gcGenerationName(GcGeneration G);

/// One parallel-mark worker's activity inside a mark-compact major (its
/// bytes and objects are the ones it marked), for the exporter's per-worker
/// tracks. Stamped only while an observer is registered.
struct GcWorkerSpan {
  uint32_t Index = 0;
  uint64_t BeginNs = 0; ///< Process-epoch-relative (GcTelemetry::nowNs).
  uint64_t EndNs = 0;
  uint64_t BytesMarked = 0;
  uint64_t ObjectsMarked = 0;
  bool Faulted = false;
};

/// One collection, fully described. Assembled by the collector between
/// GcTelemetry::beginCollection / endCollection and handed to observers by
/// value-reference at onGcEnd (the reference dies with the callback; copy
/// what you keep — EventRecorder does).
struct GcEvent {
  // --- Deterministic fields (identical across GcThreads) ---------------
  uint64_t Seq = 0; ///< 1-based; equals GcStats::NumGC after this GC.
  GcGeneration Gen = GcGeneration::Minor;
  GcTrigger Trigger = GcTrigger::Explicit;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsCopied = 0;
  /// Bytes that landed in the tenured generation: equals BytesCopied for
  /// promote-all minors; the tenured used-bytes delta under aged tenuring;
  /// 0 for majors (everything moves — BytesCopied is the figure there).
  uint64_t BytesPromoted = 0;
  /// Pretenured-site bytes allocated since the previous collection.
  uint64_t BytesPretenured = 0;
  uint64_t FramesAtGC = 0;   ///< Stack depth when the collection ran.
  uint64_t FramesScanned = 0;
  uint64_t FramesReused = 0; ///< §5 marker hits served from the cache.
  /// Write-barrier entries filtered into roots by this collection.
  uint64_t SsbEntriesProcessed = 0;
  /// Crossing-map records since the previous collection (pretenured
  /// allocations plus objects promoted by this collection; pad fillers are
  /// recorded in the map but not counted).
  uint64_t CrossingMapUpdates = 0;
  /// True when the Hybrid barrier degraded SSB→cards since the previous
  /// collection. Mutator-side and placement-independent: deterministic.
  bool HybridSwitched = false;
  /// Dirty cards pending at the start of this collection (minors only).
  uint64_t DirtyCards = 0;
  /// Dirty cards actually walked by this collection's card sweep.
  uint64_t CardsScanned = 0;
  /// Mark-compact majors: physically relocated bytes (slid tenured runs
  /// plus promoted young survivors).
  uint64_t BytesMoved = 0;
  /// Mark-compact majors: region census at plan time.
  uint32_t RegionsTotal = 0;
  uint32_t RegionsDense = 0;
  uint32_t RegionsEvacuated = 0;

  // --- Configuration / outcome -----------------------------------------
  uint32_t Workers = 1; ///< Mark threads configured (mark-compact majors).
  uint32_t WorkerFaults = 0;
  bool SerialRecovery = false; ///< Mark finished by the serial re-trace.
  /// A mark-/plan-phase fault aborted the mark-compact engine and a
  /// semispace evacuation finished this major. Deterministic under seeded
  /// fault injection (the abort fires at a fixed crossing), so event-diff
  /// consumers may pin it.
  bool EngineFailover = false;

  // --- Timing (wall-clock; varies run to run) ---------------------------
  uint64_t BeginNs = 0; ///< Process-epoch-relative.
  uint64_t EndNs = 0;
  uint64_t PauseNs = 0; ///< EndNs - BeginNs.
  /// First entry into each phase (0 = phase never ran).
  uint64_t PhaseBeginNs[NumGcPhases] = {};
  /// Accumulated time inside each phase (a phase may be entered twice).
  uint64_t PhaseDurNs[NumGcPhases] = {};

  /// Per-worker activity (parallel mark, armed telemetry only).
  std::vector<GcWorkerSpan> WorkerSpans;

  /// Per-mutator park spans for the safepoint that preceded this
  /// collection (multi-mutator runtime, armed telemetry only). Index is
  /// the mutator's thread index; Begin is when that thread parked, End is
  /// when the world resumed. Empty in single-mutator mode, so the
  /// deterministic event slice is unchanged there.
  std::vector<GcWorkerSpan> MutatorSpans;

  /// Sum of the per-phase durations — the invariant suite checks this
  /// never exceeds PauseNs.
  uint64_t phaseTotalNs() const {
    uint64_t Sum = 0;
    for (uint64_t D : PhaseDurNs)
      Sum += D;
    return Sum;
  }
};

} // namespace tilgc

#endif // TILGC_OBSERVE_GCEVENT_H
