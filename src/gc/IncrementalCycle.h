//===- gc/IncrementalCycle.h - Pause-budget incremental cycle ---*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stock major collection is one stop-the-world MARK + COMPACT pause.
/// In pause-budget mode the MARK phase is sliced into bounded increments run
/// at allocation safepoints, interleaved with mutator execution; the COMPACT
/// half stays stop-the-world at the cycle's finishing collection (slicing a
/// sliding compaction would need read barriers the runtime does not have).
/// Correctness is snapshot-at-the-beginning: the cycle marks everything
/// reachable when it began, a deletion barrier (recordSatb) preserves edges
/// the mutator overwrites mid-cycle, and everything allocated or promoted
/// during the cycle is treated as live (allocate-black, materialized as
/// finish-time seeds). Objects young at the snapshot are never traced, so
/// their snapshot edges are seeded once, when the cycle opens. The
/// one-cycle float this retains is collected by the next cycle — the same
/// trade every SATB collector makes.
///
/// Slices are paced by allocation. Every mutator keeps its bump path for
/// the whole cycle, behind the collector's slice fence: the fence sits at
/// the nursery address of the next slice watermark (null while the
/// large-object leg is due), so the allocation that makes a slice due is
/// the first to miss the bump path and run it — standalone or grouped.
///
/// One IncrementalCycle exists exactly while a cycle is live: constructing
/// the collector's std::optional starts it, resetting it ends it, and no
/// per-cycle field outlives it.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_INCREMENTALCYCLE_H
#define TILGC_GC_INCREMENTALCYCLE_H

#include "gc/MarkCompact.h"
#include "heap/Space.h"
#include "observe/GcEvent.h"

#include <vector>

namespace tilgc {

class GenerationalCollector;

class IncrementalCycle {
public:
  /// Opens a cycle on \p GC: creates the incremental engine, snapshots the
  /// current root values and the young objects' pointer fields as mark
  /// seeds, raises the SATB barrier and the slice fence, and takes a
  /// cycle-long watchdog hold. \p Trigger is recorded on slice events and
  /// names the start site. TenuredPressure starts inside a minor
  /// collection's pause, whose root scan is current and fixed up.
  /// LargeObjectPressure starts from the LOS soft-pressure path between
  /// collections and re-scans the stack first (markerless configurations
  /// only — a marker-updating scan outside a collection would re-anchor
  /// frames without redirecting their roots, breaking §5).
  IncrementalCycle(GenerationalCollector &GC, GcTrigger Trigger);
  /// Ends the cycle: lowers the SATB barrier and the slice fence, releases
  /// the watchdog hold.
  ~IncrementalCycle();

  /// Whether enough allocation has accumulated for the next slice. Two
  /// pacing legs: nursery growth past the watermark, and LOS bytes since
  /// the last slice (an LOS-heavy phase barely grows the nursery, so the
  /// watermark alone would leave whole cycles nearly sliceless). Asked
  /// only inside allocate(): every mutator has merged, so the nursery's
  /// frontier is its fill, and in a group the world is stopped.
  bool sliceDue(const Space &Nursery) const {
    return Nursery.usedBytes() >= NextSliceNurseryBytes ||
           LosBytesSinceSlice >= StrideBytes;
  }

  /// One bounded mark increment (the caller checked sliceDue): its own
  /// major GcEvent opened and closed on the slice's two clock stamps, SATB
  /// drain, deadline-bounded grey-draining, optional tricolor audit, then
  /// the recover-request poll — a watchdog recover bark finishes the cycle
  /// stop-the-world, destroying *this.
  void runSlice();

  /// Stop-the-world cycle completion: fresh root scan, then the collector's
  /// mark-compact major on this cycle's engine (closeMark is its mark).
  /// Any forced major during a live cycle lands here. Resets the
  /// collector's Cycle on the way out: *this is gone when it returns.
  void finish(size_t NeedTenuredBytes, GcTrigger MajorTrigger);

  /// The finish's final seeds (roots, SATB backlog, cycle-era objects) and
  /// full drain, closing the incremental mark.
  void closeMark();

  /// SATB deletion barrier: records the old value of an overwritten
  /// pointer slot unless it is young (young objects are allocate-black for
  /// the cycle and never traced between slices) or already marked.
  void recordSatb(Word OldBits);

  /// A large object born mid-cycle: seeded at finish, paced as LOS bytes.
  /// Closes the slice fence once the LOS leg is due.
  void noteLargeObject(Word *Payload, uint64_t Bytes);

  /// Re-arms the nursery pacing leg one stride past \p NurseryUsed (the
  /// current nursery's fill) and moves the slice fence with it.
  void armNextSlice(size_t NurseryUsed);

  size_t satbPending() const { return Satb.size(); }

private:
  /// Seeds the engine with the values of every root slot (start and close).
  void seedRoots();
  /// Points the collector's inline fence at the nursery watermark, or at
  /// null while the LOS leg is due: the bump path is open exactly while
  /// sliceDue() is false.
  void setFence();
  bool marked(const Word *P) const;
  bool inTenuredDelta(const Word *P) const;
  /// Visits every cycle-era object — every young object, the tenured delta,
  /// the large objects born mid-cycle — the set the finish seeds.
  template <typename FnT> void forEachCycleEraObject(FnT Fn) const;
  /// VerifyLevel >= 2 between-slice audit: simulates the finish drain
  /// (roots + grey + SATB + cycle-era objects, never re-expanding through
  /// already-black objects) and checks every truly-reachable object would
  /// be retained. Catches lost SATB records.
  void audit() const;

  GenerationalCollector &GC;
  /// The cycle's engine: seeded at start, fed by slices, completed (plan +
  /// compact) by the finishing collection.
  MarkCompact MC;
  /// SATB deletion log: old values of pointer slots overwritten while the
  /// cycle is live, drained into mark seeds at each slice. Values, not
  /// slots: a slot's new content is covered by the finish's root re-scan.
  std::vector<Word> Satb;
  /// LOS payloads allocated during the cycle (the collector's
  /// NewLargeObjects clears at every minor, so the cycle keeps its own
  /// union), seeded at finish.
  std::vector<Word *> NewLOS;
  /// Tenured frontier at cycle start: [here, frontier) is the cycle-era
  /// delta (promotions + pretenured allocations), seeded at finish.
  Word *TenuredDeltaFrom;
  /// The pressure that opened the cycle, recorded on slice events.
  GcTrigger Trigger;
  /// Allocation distance between slices, fixed for the cycle (the nursery
  /// capacity never changes): 1/128 of a nursery load, with a floor so
  /// tiny test heaps don't slice every few objects. The divisor is sized
  /// for the pause SLO's tail math — a cycle's stop-the-world finish can
  /// only sit above the p99 if slices outnumber finishes by well over two
  /// orders of magnitude (scheduler preemption inflates a fraction of
  /// slice wall-times, and those outliers stack with the finishes at the
  /// 1% boundary), and high-promotion workloads get only a couple of
  /// nursery loads of tenured runway per cycle, so each load must
  /// contribute ~128 slices.
  size_t StrideBytes;
  /// Nursery-allocation pacing: a slice is due when the nursery has grown
  /// past this watermark; re-armed after each slice and each minor. The
  /// slice fence is its address in the nursery.
  size_t NextSliceNurseryBytes = 0;
  /// Large-object bytes allocated since the last slice (the second pacing
  /// leg of sliceDue).
  size_t LosBytesSinceSlice = 0;
};

} // namespace tilgc

#endif // TILGC_GC_INCREMENTALCYCLE_H
