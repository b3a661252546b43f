//===- gc/GcStats.h - Collector statistics ----------------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters and timers reported by the collectors. These back every column
/// of the paper's tables: Total/GC/Client times, NumGC, bytes copied, the
/// GC-stack/GC-copy split of Table 5, and Table 2's allocation
/// characteristics.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_GCSTATS_H
#define TILGC_GC_GCSTATS_H

#include "support/Timer.h"

#include <cstdint>

namespace tilgc {

/// Accumulated collector statistics.
struct GcStats {
  // Collection counts.
  uint64_t NumGC = 0;
  uint64_t NumMajorGC = 0;

  // Allocation accounting (bytes include the two-word headers).
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t RecordBytesAllocated = 0;
  uint64_t ArrayBytesAllocated = 0;

  // Copy accounting.
  uint64_t BytesCopied = 0;
  uint64_t ObjectsCopied = 0;

  // Live-data accounting (sampled after each collection).
  uint64_t MaxLiveBytes = 0;

  /// Reserved-footprint high-water (all spaces' capacities + live LOS
  /// bytes), sampled at collection boundaries and LOS growth — the peak the
  /// hard cap actually constrains. The mark-compact major's reason to
  /// exist: it needs no to-space reservation, so this stays near 1× live.
  uint64_t MaxFootprintBytes = 0;

  /// Bytes physically relocated by major collections (semispace majors:
  /// everything copied; mark-compact majors: slid runs + promoted
  /// survivors only). The pause-work metric EXPERIMENTS.md tracks.
  uint64_t MajorBytesMoved = 0;

  // Stack-scan accounting.
  uint64_t FramesScanned = 0;
  uint64_t FramesReused = 0;
  uint64_t SlotsVisited = 0;
  uint64_t PlanWordsScanned = 0; ///< Compiled-scan bitmask words tested.
  uint64_t MaxFramesAtGC = 0;
  uint64_t FramesAtGCSum = 0; ///< Numerator of the average stack depth.
  uint64_t NewFramesSum = 0;  ///< Table 2's "New Frames in Stack" numerator.
  /// Collections that contributed to FramesAtGCSum/NewFramesSum — the
  /// denominator of the Table 2 averages. Historically those averages
  /// divided by NumGC, which silently skews the moment any collection
  /// path stops sampling the stack (e.g. an LOS-triggered major); a
  /// dedicated sample count pins numerator and denominator together.
  uint64_t FramesAtGCSamples = 0;

  // Write-barrier accounting.
  uint64_t SSBEntriesProcessed = 0;

  // Card-marking / crossing-map accounting (CardMarking and Hybrid
  // barriers; all zero under pure SSB configurations).
  uint64_t CardsScanned = 0;      ///< Dirty cards walked across all scans.
  uint64_t CardSlotsVisited = 0;  ///< Pointer fields examined in card scans.
  uint64_t CrossingMapUpdates = 0; ///< Objects recorded in the crossing map.
  uint64_t HybridSwitches = 0;    ///< Hybrid barrier SSB→card degradations.
  /// Collection number (NumGC at the time, 1-based) of the first hybrid
  /// switch; 0 when the flood heuristic never tripped.
  uint64_t HybridSwitchEpoch = 0;

  // Pretenuring accounting.
  uint64_t PretenuredBytes = 0;
  uint64_t PretenuredScannedBytes = 0;
  uint64_t PretenuredScanSkippedBytes = 0;

  /// Times the collector exceeded its k*Min budget and grew anyway.
  uint64_t BudgetOverruns = 0;

  // Multi-mutator runtime accounting (all zero in single-mutator mode).
  uint64_t SafepointStops = 0;  ///< Stop-the-world rendezvous completed.
  uint64_t SafepointWaitNs = 0; ///< Total time stoppers waited for parks.
  uint64_t TlabRefills = 0;     ///< TLAB block handouts from the nursery.
  uint64_t TlabPadBytes = 0;    ///< Bytes padded in retired TLAB tails.

  // OOM-protocol and fault-resilience accounting.
  uint64_t HeapExhaustedThrows = 0; ///< Terminal ladder failures surfaced.
  uint64_t MarkWorkerFaults = 0;    ///< Parallel-mark workers faulted.
  uint64_t MarkSerialRecoveries = 0; ///< Marks finished by a serial re-trace.
  /// Majors where a mark-/plan-phase fault (injected or watchdog-detected)
  /// aborted the MarkCompact engine and a semispace evacuation finished the
  /// collection instead.
  uint64_t MajorEngineFailovers = 0;
  /// Dirty-card sweeps that threw and degraded to a full tenured walk.
  uint64_t CardSweepFaults = 0;

  // Time split. StackTime and CopyTime accumulate inside GcTime regions;
  // the remainder of GcTime is bookkeeping (resizing, sweeping).
  Timer GcTime;
  Timer StackTime;
  Timer CopyTime;

  double gcSeconds() const { return GcTime.seconds(); }
  double stackSeconds() const { return StackTime.seconds(); }
  double copySeconds() const { return CopyTime.seconds(); }

  double avgFramesAtGC() const {
    return FramesAtGCSamples ? static_cast<double>(FramesAtGCSum) /
                                   static_cast<double>(FramesAtGCSamples)
                             : 0.0;
  }
  double avgNewFramesAtGC() const {
    return FramesAtGCSamples ? static_cast<double>(NewFramesSum) /
                                   static_cast<double>(FramesAtGCSamples)
                             : 0.0;
  }

  /// Tolerated timer misuses across the three split timers (see
  /// support/Timer.h's misuse discipline).
  uint64_t timerMisuses() const {
    return GcTime.misuses() + StackTime.misuses() + CopyTime.misuses();
  }
};

} // namespace tilgc

#endif // TILGC_GC_GCSTATS_H
