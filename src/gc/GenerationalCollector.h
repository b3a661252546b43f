//===- gc/GenerationalCollector.h - Two-generation collector ----*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's generational collector (§2.1) with all of the paper's
/// optional machinery:
///
///  * two generations: a nursery bounded by the secondary cache size (512K)
///    and a tenured generation resized toward a target liveness of 0.3;
///  * immediate promotion of all minor-collection survivors (the default),
///    or the aged-tenuring ablation of §7.2 where survivors bounce between
///    nursery semispaces until they have survived PromoteAgeThreshold minor
///    collections;
///  * a write barrier feeding one remembered set (gc/RememberedSet.h): the
///    paper's sequential store buffer, or the card marking it suggests for
///    Peg, as policies of one slot-log + card-table mechanism;
///  * a mark-sweep large-object space for big arrays;
///  * generational stack collection (§5): stack markers + scan cache, so
///    minor collections skip unchanged frames entirely;
///  * profile-driven pretenuring (§6): objects from designated sites are
///    allocated directly into the tenured generation; the freshly
///    pretenured region is remembered and scanned for young pointers at the
///    next collection — except for §7.2 scan-eliminated sites, whose
///    objects provably reference only pretenured data.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_GENERATIONALCOLLECTOR_H
#define TILGC_GC_GENERATIONALCOLLECTOR_H

#include "gc/Collector.h"
#include "gc/GcOptions.h"
#include "gc/IncrementalCycle.h"
#include "gc/MarkCompact.h"
#include "gc/RememberedSet.h"
#include "heap/LargeObjectSpace.h"
#include "heap/RegionManager.h"
#include "heap/Space.h"
#include "support/Watchdog.h"

#include <optional>
#include <vector>

namespace tilgc {

/// Two-generation copying collector with LOS, SSB/cards, stack markers,
/// pretenuring and tenure-policy options.
class GenerationalCollector : public Collector {
public:
  /// The configuration enums live beside GcOptions; these names keep
  /// GenerationalCollector::BarrierKind / ::MajorGcKind spellings working.
  using BarrierKind = tilgc::BarrierKind;
  using MajorGcKind = tilgc::MajorGcKind;

  /// \p Opts must outlive the collector (the owning Mutator's config).
  GenerationalCollector(const CollectorEnv &Env, const GcOptions &Opts);

  Word *allocate(ObjectKind Kind, uint32_t LenWords, uint32_t PtrMask,
                 uint32_t SiteId) override;
  void writeBarrier(Word *Slot) override { RS.record(Slot); }
  void collect(bool Major) override;
  uint64_t liveBytesAfterLastGC() const override { return LiveBytes; }
  bool verifyHeapNow(std::string &Error) const override;

  /// Introspection for tests.
  bool inNursery(const Word *P) const {
    return NurseryFrom->contains(P) ||
           (AgedTenuring() && NurseryTo->contains(P));
  }
  bool inTenured(const Word *P) const { return TenuredFrom->contains(P); }
  bool inLOS(const Word *P) const { return LOS.contains(P); }
  const LargeObjectSpace &largeObjectSpace() const { return LOS; }
  const RememberedSet &rememberedSet() const { return RS; }
  size_t nurseryCapacity() const { return NurseryFrom->capacityBytes(); }
  const Space &nursery() const { return *NurseryFrom; }

  /// Mutator bump path: non-pretenured sites bump into the nursery;
  /// pretenured sites (and large arrays, via the size bound) take the full
  /// allocate() path. The nursery stays open during an incremental cycle:
  /// the cycle's slice fence (inlineFence) sends exactly the allocations
  /// that find a slice due to allocate(), which runs it.
  bool siteAllowsInlineAlloc(uint32_t SiteId) const override {
    return SiteId >= PretenureFlag.size() || PretenureFlag[SiteId] == 0;
  }
  Space *inlineAllocSpace() override { return NurseryFrom; }
  size_t inlineAllocMaxBytes() const override {
    return Opts.LargeObjectThresholdBytes;
  }

  /// SATB deletion barrier: IncrementalCycle::recordSatb. A stale call
  /// (a group-mode replay just after a finish) is ignored.
  void satbRecord(Word OldBits) override {
    if (TILGC_LIKELY(Cycle))
      Cycle->recordSatb(OldBits);
  }

  /// The GC-cycle supervisor (tests / diagnostics; idle unless
  /// Opts.GcDeadlineMicros is set).
  Watchdog &gcWatchdog() { return WD; }

  /// Incremental-cycle introspection (tests / diagnostics).
  bool incrementalCycleLive() const { return Cycle.has_value(); }
  uint64_t incrementalSlices() const { return IncSliceCount; }
  uint64_t incrementalCycles() const { return IncCycleCount; }
  size_t satbPending() const { return Cycle ? Cycle->satbPending() : 0; }
  /// After this many consecutive major-engine failovers, MarkCompact is
  /// sticky-disabled and every later major runs the semispace fallback
  /// (the MMTk lesson: when a plan keeps failing, switch plans).
  static constexpr unsigned FailoverStickyLimit = 3;

  /// True once FailoverStickyLimit consecutive failovers disabled the
  /// mark-compact engine for this collector's lifetime.
  bool markCompactDisabled() const { return McStickyDisabled; }

private:
  friend class IncrementalCycle;

  bool AgedTenuring() const { return Opts.PromoteAgeThreshold > 1; }

  /// One minor collection; may chain into a major one under tenured
  /// pressure. \p NeedTenuredBytes is extra tenured room the caller
  /// requires afterwards; \p Trigger is recorded in the telemetry event.
  void doMinor(size_t NeedTenuredBytes, GcTrigger Trigger);
  void doMajor(size_t NeedTenuredBytes, GcTrigger Trigger);
  /// The paper's semispace evacuation major (Opts.MajorGc == Semispace).
  void doMajorSemispace(size_t NeedTenuredBytes, GcTrigger Trigger);
  /// The region mark-compact major (Opts.MajorGc == MarkCompact). Compacts
  /// in place when the marked-live plan fits; otherwise falls back to one
  /// evacuating grow-and-swap (releasing the old space afterwards, so the
  /// 2× reservation is transient rather than standing).
  void doMajorMarkCompact(size_t NeedTenuredBytes, GcTrigger Trigger);
  /// Shared semispace-evacuation body: grows TenuredTo to at least \p
  /// ReserveBytes, evacuates {nursery spaces, TenuredFrom} into it, merges
  /// stats/telemetry, sweeps deaths, swaps the tenured spaces and clears
  /// collection-scoped state. Used by the semispace major and the
  /// mark-compact growth fallback.
  void evacuateMajorInto(size_t ReserveBytes);
  /// Mark-compact's evacuating swap (growth fallback, engine failover):
  /// evacuateMajorInto, then release the old space and re-bind the region
  /// overlay, so the 2x reservation is transient rather than standing.
  void evacuateAndReleaseOld(size_t ReserveBytes);
  /// Post-major from-space poisoning (when shouldPoison()): the young
  /// spaces' free space and \p Tenured's. Returns whether it poisoned.
  bool poisonAfterMajor(Space &Tenured);
  /// Samples Stats.MaxFootprintBytes against the current footprint.
  void noteFootprint();
  /// Sweeps the large-object space, reporting deaths to the profiler.
  void sweepLOS();
  /// After any major: empties the young generation and every
  /// collection-scoped root set, and samples the live size.
  void resetAfterMajor();

  /// Closes out a major collection event (verify, deterministic event
  /// fields, endCollection, footprint) — shared by every major path.
  void finishMajorEvent();
  /// Stamps the per-collection deltas every minor and major event carries
  /// (pretenured bytes, crossing-map updates, the hybrid switch latch) and
  /// closes the event.
  void endCollectionEvent();

  /// Semispace-for-this-collection failover/fallback body: hard-cap
  /// pre-flight, evacuating swap, transient to-space released, region
  /// overlay re-bound. Used when a MarkPlanFault aborts the mark-compact
  /// engine and for every major after a sticky disable.
  void runMajorEvacuationFallback(size_t NeedTenuredBytes);

  /// Arms/disarms the per-cycle GC watchdog (no-ops when
  /// Opts.GcDeadlineMicros == 0).
  void armGcWatchdog();
  void disarmGcWatchdog();

  /// RAII window for the GC-cycle watchdog: one collection event.
  class GcWatchScope {
  public:
    explicit GcWatchScope(GenerationalCollector &C) : C(C) {
      C.armGcWatchdog();
    }
    ~GcWatchScope() { C.disarmGcWatchdog(); }
    GcWatchScope(const GcWatchScope &) = delete;
    GcWatchScope &operator=(const GcWatchScope &) = delete;

  private:
    GenerationalCollector &C;
  };

  /// The prologue every collection shares: counts it, opens its event,
  /// holds the watchdog window while in scope, and scans the roots. Refusal
  /// checks run first, so a refused collection is not counted.
  class CollectionScope {
  public:
    CollectionScope(GenerationalCollector &C, GcGeneration Gen,
                    GcTrigger Trigger);

  private:
    GcWatchScope Watch;
  };

  /// Calls \p Fn on the nursery and, under aged tenuring, its twin.
  template <typename FnT> void forEachYoungSpace(FnT Fn) const {
    Fn(*NurseryFrom);
    if (AgedTenuring())
      Fn(*NurseryTo);
  }

  /// Enumerates write-barrier output, remembered pretenured regions and
  /// new large objects — the minor collection's heap-side roots — into
  /// \p Fn(Word *Slot) (the minor gathers them into one root batch).
  template <typename SlotFn> void forEachOldToYoungRoot(SlotFn Fn);

  /// Registers a pretenured allocation for the next region scan.
  void notePretenuredRun(Word *Payload, Word Descriptor, bool NoScan);

  /// nursery + both tenured spaces + LOS footprint.
  size_t footprintBytes() const;

  /// Level >= 2 pre-minor audit: every tenured/LOS slot holding a young
  /// pointer must be covered by the roots the minor collection is about to
  /// process. Aborts (fatalError) on a missed barrier.
  void auditRememberedSets();

  /// Whether the pause-budget mode can open a cycle at all (budget set,
  /// mark-compact engine selected and not sticky-disabled).
  bool incrementalModeActive() const {
    return Opts.MaxPauseMicros > 0 &&
           Opts.MajorGc == MajorGcKind::MarkCompact && !McStickyDisabled;
  }
  /// The one mark-compact engine configuration; \p Abortable wires the
  /// watchdog's recover latch (stock majors only: an incremental cycle
  /// answers a recover request with its finish, not an abort).
  MarkCompact::Config markCompactConfig(bool Abortable);
  /// The mark-compact major shared by doMajorMarkCompact and
  /// IncrementalCycle::finish: hands \p M the root spans, marks (stock
  /// mark, or closes the live incremental cycle's mark), completes it, and
  /// on a MarkPlanFault fails over to the semispace evacuation. Closes the
  /// major event either way.
  void runMarkCompact(MarkCompact &M, size_t NeedTenuredBytes);
  /// Everything after a completed MARK phase: plan, fit-or-grow decision,
  /// compact or evacuating grow, stats and space resets.
  void completeMarkedMajor(MarkCompact &M, size_t NeedTenuredBytes);

  // Collector heap-dump hooks.
  void appendHeapState(std::string &Out) const override;
  void forEachLiveObject(
      const std::function<void(Word *, Word)> &Fn) const override;

  Space NurseryA, NurseryB;
  Space *NurseryFrom = &NurseryA;
  Space *NurseryTo = &NurseryB; ///< Reserved only under aged tenuring.
  Space TenuredA, TenuredB;
  Space *TenuredFrom = &TenuredA;
  Space *TenuredTo = &TenuredB;
  LargeObjectSpace LOS;
  /// The write barrier's output: old->young slots for the next minor.
  RememberedSet RS;
  /// Region overlay over TenuredFrom (mark-compact mode only). Re-attached
  /// whenever the tenured space is re-reserved (growth fallback), under the
  /// same epoch-binding contract as the card table and crossing map.
  RegionManager Regions;

  /// Per-site pretenure decision: 0 = no, 1 = pretenure, 2 = pretenure and
  /// skip the region scan (§7.2).
  std::vector<uint8_t> PretenureFlag;

  /// Contiguous runs of tenured space allocated into since the last
  /// collection (paper: "we remember the area of the older generation that
  /// has been directly allocated into and scan this region").
  struct Run {
    Word *Begin; ///< First object header word.
    Word *End;   ///< One past the last object.
    bool NoScan;
  };
  std::vector<Run> Runs;

  /// Large objects allocated since the last collection; scanned for young
  /// pointers at the next minor collection (their initializing stores
  /// bypass the barrier, like the pretenured region's).
  std::vector<Word *> NewLargeObjects;

  /// Aged tenuring only: old-generation slots that point into the young
  /// generation because *promotion* created the edge (no mutator barrier
  /// saw it). Rebuilt at every minor collection; cleared by majors.
  std::vector<Word *> CrossGenSlots;

  /// Capacity-reusing scratch: the heap-side minor roots (barrier output,
  /// pretenured regions, new large objects) gathered per collection into
  /// one contiguous span for the batched root pipeline.
  std::vector<Word *> RootBatch;
  /// Capacity-reusing scratch for the evacuator's CrossGenOut.
  std::vector<Word *> MinorCrossGen;

  uint64_t LiveBytes = 0;
  uint64_t LOSAllocSinceGC = 0;
  /// Stats.PretenuredBytes watermark at the end of the previous collection;
  /// the telemetry event reports the per-collection delta.
  uint64_t PretenuredBytesAtLastGC = 0;
  /// Stats.CrossingMapUpdates watermark (same per-collection-delta role).
  uint64_t CrossingUpdatesAtLastGC = 0;
  /// GC-cycle supervisor; its thread starts lazily on the first armed
  /// window, so a zero deadline never pays for it.
  Watchdog WD;
  /// Consecutive majors where the mark-compact engine aborted and the
  /// semispace fallback finished the collection. Reset by any MC success.
  unsigned ConsecutiveMcFailovers = 0;
  /// Sticky: set once ConsecutiveMcFailovers reaches FailoverStickyLimit.
  bool McStickyDisabled = false;
  /// Arm nesting depth: a tenured-pressure major chained inside a minor
  /// keeps the minor's watchdog window instead of re-arming.
  unsigned WatchDepth = 0;

  /// Incremental-cycle lifetime counters (tests / bench).
  uint64_t IncSliceCount = 0;
  uint64_t IncCycleCount = 0;
  /// The live pause-budget cycle, engaged from its start to the end of its
  /// finish; by value, so the allocation poll chases no pointer.
  std::optional<IncrementalCycle> Cycle;
};

} // namespace tilgc

#endif // TILGC_GC_GENERATIONALCOLLECTOR_H
