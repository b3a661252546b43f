//===- gc/MarkCompact.h - Region mark-compact major engine ------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mark-compact engine behind the region-structured tenured space
/// (beyond the paper; after the MMTk mature-space design). One major
/// collection runs four phases:
///
///  1. MARK — parallel trace over the existing WorkerPool: per-worker
///     private mark stacks with grey overflow published to Chase-Lev deques
///     and active-count termination. Marks land in side bitmaps (young
///     spaces + tenured) and in the LOS mark bits.
///  2. PLAN — a serial, mutation-free walk of the tenured space: per-region
///     liveness accounting (RegionManager), dense/sparse classification,
///     a break table of contiguous slide runs (dense regions pin in place,
///     sparse regions' objects slide toward the base), pad gaps in front of
///     pinned runs, and promotion targets for every marked young object
///     appended after the compacted tenured content. The plan writes
///     nothing, so the caller can still abandon it (grow the space, or
///     throw a structured HeapExhausted) with the heap intact.
///  3. FIXUP — every pointer field of every live object (tenured, young,
///     LOS) plus every root slot is rewritten through the break table /
///     young forwarding headers. Tenured fixup is parallel over region
///     stripes when a pool is available.
///  4. COMPACT — slide runs memmove downward in address order (targets
///     never overrun un-consumed sources), pad gaps are stamped, young
///     survivors are copied to their promotion targets, the frontier is
///     rewound, and the crossing map is rebuilt over the new layout.
///
/// Because nothing moves unless the plan fits, compaction needs no to-space
/// reservation — the PR-3 pre-flight hard-cap check (and its sticky
/// exhaustion) is retired on this path.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_MARKCOMPACT_H
#define TILGC_GC_MARKCOMPACT_H

#include "heap/CrossingMap.h"
#include "heap/LargeObjectSpace.h"
#include "heap/RegionManager.h"
#include "heap/Space.h"
#include "object/Object.h"
#include "profile/HeapProfiler.h"
#include "support/WorkerPool.h"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace tilgc {

class GcTelemetry;

/// Thrown out of mark() / plannedTenuredBytes() when the engine aborts a
/// still-mutation-free phase: either FaultPoint::MarkPlanThrow fired, or
/// the watchdog requested recovery through Config::AbortFlag. The caller
/// (GenerationalCollector) catches this and fails over to a semispace
/// major for that collection; nothing in the heap has been mutated, only
/// private bitmaps and (possibly) LOS mark bits — which the failover
/// clears via LargeObjectSpace::clearMarks before re-tracing.
struct MarkPlanFault {};

/// A side mark bitmap over one Space: one bit per heap word, set at the
/// object's header word. testAndSet is atomic so parallel mark workers race
/// benignly — exactly one claims each object.
class MarkBitmap {
public:
  void attach(const Space &S) {
    Base = S.baseAddr();
    NumWords = S.capacityBytes() / sizeof(Word);
    Bits.assign((NumWords + 63) / 64, 0);
  }

  bool covers(const Word *P) const {
    return P >= Base && static_cast<size_t>(P - Base) < NumWords;
  }

  /// Atomically sets the bit for \p Header; true if this call set it.
  bool testAndSet(const Word *Header) {
    size_t I = index(Header);
    uint64_t Bit = uint64_t(1) << (I & 63);
    std::atomic_ref<uint64_t> Cell(Bits[I >> 6]);
    if (Cell.load(std::memory_order_relaxed) & Bit)
      return false;
    return (Cell.fetch_or(Bit, std::memory_order_relaxed) & Bit) == 0;
  }

  bool test(const Word *Header) const {
    size_t I = index(Header);
    return (Bits[I >> 6] >> (I & 63)) & 1;
  }

private:
  size_t index(const Word *P) const {
    assert(covers(P) && "mark outside the attached space");
    return static_cast<size_t>(P - Base);
  }

  const Word *Base = nullptr;
  size_t NumWords = 0;
  std::vector<uint64_t> Bits;
};

/// One mark-and-compact pass over {young spaces, tenured, LOS}. Usage:
/// addRootSpan() for every root span, mark(), plannedTenuredBytes() — then
/// either compact() (optionally preceded by forEachDeadTenured for the
/// profiler's death sweep) or abandon the object (nothing was mutated).
class MarkCompact {
public:
  struct Config {
    /// Young spaces whose survivors promote (null entries ignored).
    std::array<Space *, 2> Young = {nullptr, nullptr};
    /// The tenured space being compacted in place.
    Space *Tenured = nullptr;
    /// Region overlay bound to Tenured (liveness plan state lives here).
    RegionManager *Regions = nullptr;
    /// Large-object space: marked during the trace, fields fixed up,
    /// never moved. Sweeping is the caller's job (marks are left set).
    LargeObjectSpace *LOS = nullptr;
    /// Optional profiling hooks, applied with evacuator-identical semantics
    /// (onSurviveFirst for age-0 survivors, onReferent for every non-null
    /// field of every live object, onCopy only for physically moved bytes).
    HeapProfiler *Profiler = nullptr;
    /// Optional telemetry plane for phase scopes and worker spans.
    GcTelemetry *Telemetry = nullptr;
    /// When set, rebuilt over the compacted tenured layout (pads recorded
    /// but not counted, mirroring the evacuator).
    CrossingMap *CrossDest = nullptr;
    /// Parallel marking/fixup when set; serial otherwise.
    WorkerPool *Pool = nullptr;
    /// Live fraction at or above which a region pins in place.
    double DenseFraction = RegionManager::DefaultDenseFraction;
    /// Watchdog recover latch: when non-null and set, the engine's abort
    /// points throw MarkPlanFault while the phase is still mutation-free.
    /// Null (the default, and whenever no watchdog is configured) costs one
    /// well-predicted branch per abort point — never per object scanned.
    const std::atomic<bool> *AbortFlag = nullptr;
  };

  explicit MarkCompact(const Config &C);

  /// Registers a span of root slots. Used twice: read during mark, and
  /// rewritten during fixup.
  void addRootSpan(Word *const *Slots, size_t Count);

  /// Traces the heap from the registered roots. Parallel when configured;
  /// worker faults (fault-injection) recover via a serial re-trace.
  void mark();

  /// Runs the planning walk (idempotent, mutation-free) and returns the
  /// compacted tenured extent in bytes — live tenured data plus pad gaps
  /// plus promoted young survivors. The caller compares this against the
  /// space capacity to decide compact-in-place vs grow.
  size_t plannedTenuredBytes();

  /// Visits the payload of every unmarked (dead) tenured object. Valid
  /// after mark() and only before compact() — compaction destroys dead
  /// objects. The profiler's death sweep for the generation that no longer
  /// gets evacuated.
  template <typename FnT> void forEachDeadTenured(FnT Fn) const {
    assert(Phase >= MarkDone && Phase < CompactDone);
    const Word *P = C.Tenured->baseAddr();
    const Word *End = C.Tenured->frontier();
    while (P < End) {
      Word Raw = *P;
      if (TILGC_UNLIKELY(header::isPad(Raw))) {
        P += header::padWords(Raw);
        continue;
      }
      assert(!header::isForwarded(Raw));
      if (!TenuredBits.test(P))
        Fn(const_cast<Word *>(P) + HeaderWords);
      P += objectTotalWords(Raw);
    }
  }

  /// The hard pre-commit barrier: the last point where this collection can
  /// still be abandoned. Re-checks the injector and the watchdog's abort
  /// latch and throws MarkPlanFault if either wants out; once compact()
  /// runs, forwarding installs and memmoves mutate the heap and the phase
  /// cannot be abandoned, so abort requests arriving later are ignored.
  void preCommitCheck() { abortPoint(); }

  // --- Incremental marking (pause-budget mode) --------------------------
  //
  // An alternative front half to mark(): beginIncremental() attaches the
  // bitmaps and one serial mark worker without tracing anything; seeds
  // arrive via markSeed() and bounded grey-draining runs through
  // markStep(), interleaved with mutator execution across many slices.
  // Young pointers are dropped (neither marked nor queued) until
  // enableYoungMarking(): the cycle treats young as allocate-black, seeds
  // the young objects' snapshot edges when it opens and the whole young
  // population at finish — which also guarantees the grey set never holds
  // a pointer a minor collection could move.
  // finishIncrementalMark() closes the phase exactly like mark(), so
  // plannedTenuredBytes()/preCommitCheck()/compact() run unchanged.

  /// Starts an incremental mark: bitmaps attached, serial worker created,
  /// young-pointer marking disabled, nothing traced yet.
  void beginIncremental();

  /// Marks (and queues for scanning) the object at \p Bits if it is not
  /// already marked. Ignores null and — until enableYoungMarking() —
  /// young pointers.
  void markSeed(Word Bits);

  /// Drains grey work until the clock (GcTelemetry::nowNs) reaches
  /// \p DeadlineNs, checking it once per 64 scanned objects, so a deadline
  /// already past still scans one batch. Returns true when no grey work
  /// remains (the slice finished the current closure).
  bool markStep(uint64_t DeadlineNs);

  /// Re-enables young-pointer marking for the cycle-finishing collection.
  void enableYoungMarking() { IncSkipYoung = false; }

  /// Closes the incremental mark (grey set must be drained): merges the
  /// LOS live list and flips the phase to MarkDone.
  void finishIncrementalMark();

  /// Whether the tenured object at \p Payload is already marked — the
  /// SATB buffer's already-black filter. False for anything outside the
  /// tenured space (LOS values are deduped at seed time instead).
  bool incrementalMarked(const Word *Payload) const {
    const Word *H = Payload - HeaderWords;
    return TenuredBits.covers(H) && TenuredBits.test(H);
  }

  /// Visits every grey payload (marked but not yet scanned) — the
  /// tricolor audit's pending-scan set. Incremental (serial) mode only.
  template <typename FnT> void forEachGrey(FnT Fn) const {
    if (Workers.empty())
      return;
    for (Word *P : Workers[0]->Local)
      Fn(P);
  }

  /// Executes the plan: profiler/aging pass, young forwarding installs,
  /// pointer fixup, slides, pads, frontier rewind, young survivor copies,
  /// crossing-map rebuild. After this the young spaces hold forwarded
  /// headers (so Collector::sweepDeaths still works) and the tenured space
  /// is compact.
  void compact();

  /// Marked live bytes/objects across young + tenured (excludes LOS) —
  /// the same population the semispace major reports as copied, so the
  /// deterministic GcEvent slice stays bit-identical across modes.
  uint64_t markedLiveBytes() const { return MarkedLiveBytes; }
  uint64_t markedObjects() const { return MarkedObjects; }

  /// Physically relocated bytes/objects (slid tenured runs + promoted young
  /// survivors) — the pause-work metric the compactor exists to shrink.
  uint64_t bytesMoved() const { return BytesMoved; }
  uint64_t objectsMoved() const { return ObjectsMoved; }

  uint64_t crossingMapUpdates() const { return CrossingUpdates; }
  unsigned workerFaults() const { return NumFaults; }
  bool serialRecovered() const { return Recovered; }

  size_t regionsTotal() const { return C.Regions->numRegions(); }
  size_t regionsDense() const { return NumDense; }
  size_t regionsEvacuated() const { return NumEvacuated; }

private:
  /// 16-byte POD for the Chase-Lev deque (its cells are two machine words).
  struct MarkItem {
    Word *Payload;
    uintptr_t Unused;
  };

  struct Worker {
    WorkStealingDeque<MarkItem> Deque;
    std::vector<Word *> Local;   ///< Private mark stack (deque-full overflow
                                 ///< simply stays here).
    std::vector<Word *> LOSLive; ///< LOS payloads this worker marked first.
    uint64_t MarkedBytes = 0;     ///< Telemetry only (thread-dependent).
    uint64_t Marked = 0;
    uint64_t TelBeginNs = 0, TelEndNs = 0;
    bool Faulted = false;
    unsigned Seed = 0;
    size_t RootBegin = 0, RootEnd = 0;
  };

  /// A break-table run: live objects occupying [OldBegin, OldEnd) slide
  /// down by DeltaWords (0 for pinned/prefix runs). Runs are contiguous
  /// live words — merging across a dead gap would drag garbage along.
  struct MoveRun {
    Word *OldBegin;
    Word *OldEnd;
    size_t DeltaWords;
  };

  /// A gap in the compacted layout (in new coordinates) stamped with a pad
  /// filler so the space stays linearly walkable.
  struct PadGap {
    Word *Begin;
    size_t Words;
  };

  /// A young survivor's promotion: copied to NewPayload during compact().
  struct YoungMove {
    Word *OldPayload;
    Word *NewPayload;
    Word Descriptor; ///< Saved before the forwarding install clobbers it.
  };

  void markObject(Word *Payload, Worker &W);
  void scanObject(Word *Payload, Worker &W);
  bool popLocal(Worker &W, Word *&Payload);
  void maybePublish(Worker &W);
  bool stealAny(Worker &W, Word *&Payload);
  void workerMain(unsigned Index);
  void workerBody(Worker &W);
  void serialMark();
  void serialRecoverMark();
  void faultCheck(Worker &W);
  void abortPoint();

  void applyAgingAndProfile();
  Word *fixupPointer(Word *P) const;
  void fixupFields(Word Descriptor, Word *Payload) const;
  void fixupTenured();
  void fixupTenuredRange(const Word *Begin, const Word *End) const;
  void fixupRoots();
  void performMoves();

  Config C;
  MarkBitmap YoungBits[2];
  MarkBitmap TenuredBits;
  std::vector<std::pair<Word *const *, size_t>> RootSpans;
  size_t TotalRootSlots = 0;

  std::vector<std::unique_ptr<Worker>> Workers;
  std::atomic<int> NumActive{0};
  std::atomic<unsigned> NumFaults{0};
  bool Parallel = false;
  bool Recovered = false;
  /// Incremental mode: drop young pointers during slices (see
  /// beginIncremental). Always false on the stock mark() path.
  bool IncSkipYoung = false;

  std::vector<Word *> LOSLive; ///< Merged, sorted, deduped after mark.
  std::vector<MoveRun> Runs;
  std::vector<PadGap> PadGaps;
  std::vector<YoungMove> YoungMoves;
  Word *FinalFrontier = nullptr;

  uint64_t MarkedLiveBytes = 0;
  uint64_t MarkedObjects = 0;
  uint64_t BytesMoved = 0;
  uint64_t ObjectsMoved = 0;
  uint64_t CrossingUpdates = 0;
  size_t NumDense = 0;
  size_t NumEvacuated = 0;

  enum PhaseState { Fresh, MarkDone, PlanDone, CompactDone };
  PhaseState Phase = Fresh;
};

} // namespace tilgc

#endif // TILGC_GC_MARKCOMPACT_H
