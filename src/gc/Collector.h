//===- gc/Collector.h - Collector interface ---------------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract collector interface the mutator allocates through, plus the
/// environment (mutator contexts, optional profiler) collectors scan.
///
/// The semispace and generational collectors are two configurations of one
/// copying runtime, so the machinery they share lives here, once: the
/// options, the list of mutator contexts, the evacuation worker pool, the
/// root scan, the serial/parallel evacuation runner, from-space poisoning
/// and the post-collection heap audit. Each collector keeps only its space
/// layout and sizing policy.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_COLLECTOR_H
#define TILGC_GC_COLLECTOR_H

#include "gc/Evacuator.h"
#include "gc/GcOptions.h"
#include "gc/GcStats.h"
#include "gc/HeapError.h"
#include "heap/Space.h"
#include "object/Object.h"
#include "observe/GcTelemetry.h"
#include "profile/HeapProfiler.h"
#include "stack/RegisterFile.h"
#include "stack/ShadowStack.h"
#include "stack/StackMarkers.h"
#include "stack/StackScanner.h"
#include "support/Compiler.h"
#include "support/Fatal.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace tilgc {

class WorkerPool;

/// One mutator thread's root sources: its shadow stack and register file
/// and, when generational stack collection (§5, §7.1) is on, the stack's
/// own marker manager and scan cache (both null otherwise). The mutator
/// owns all four; only its thread writes them between collections, and the
/// collector reads and re-marks them only while that thread is stopped.
struct MutatorContext {
  ShadowStack *Stack = nullptr;
  RegisterFile *Regs = nullptr;
  MarkerManager *Markers = nullptr;
  ScanCache *Cache = nullptr;
};

/// What a collector needs from the mutator: the primary mutator's root
/// sources, the optional profiler, and any telemetry observers.
/// Non-owning.
struct CollectorEnv {
  MutatorContext Primary;
  HeapProfiler *Profiler = nullptr;
  /// Registered before construction so observers see construction-time
  /// telemetry too (pretenure-flip audits fire from the generational
  /// collector's constructor).
  std::vector<GcObserver *> Observers;
};

/// Abstract copying collector. Cache-line aligned: in a mutator group every
/// thread reads it on each pointer store (satbLive), so it must not share a
/// line with any thread's writes.
class alignas(CacheLineBytes) Collector {
public:
  /// \p Opts must outlive the collector (the owning Mutator's config).
  Collector(const CollectorEnv &Env, const GcOptions &Opts);
  virtual ~Collector();

  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;

  /// Allocates an object of \p LenWords payload words with a zeroed payload
  /// and returns its payload pointer. May trigger a collection, which moves
  /// objects: callers must re-read any heap pointers from frame slots after
  /// this returns.
  virtual Word *allocate(ObjectKind Kind, uint32_t LenWords, uint32_t PtrMask,
                         uint32_t SiteId) = 0;

  /// Write barrier: the mutator calls this with the address of every
  /// mutated pointer slot (semispace: no-op; generational: SSB append).
  virtual void writeBarrier(Word *Slot) = 0;

  /// Forces a collection. \p Major requests a full collection where the
  /// distinction exists.
  virtual void collect(bool Major) = 0;

  /// Live bytes after the most recent collection.
  virtual uint64_t liveBytesAfterLastGC() const = 0;

  /// Runs a full heap audit now (outside any collection): object headers,
  /// pointer validity, no stale forwarding pointers, no leaked from-space
  /// poison. Returns true if the heap is sound; otherwise fills \p Error.
  /// Usable after catching HeapExhausted to confirm the failed request left
  /// the heap intact.
  virtual bool verifyHeapNow(std::string &Error) const = 0;

  /// Multi-line heap-state description: per-space occupancy, GC counts, and
  /// the top live allocation sites. Attached to HeapExhausted and printed
  /// by terminal failures.
  std::string heapStateDump() const;

  GcStats &stats() { return Stats; }
  const GcStats &stats() const { return Stats; }

  /// The per-collector telemetry plane: always-on pause histograms plus
  /// armed-only event assembly and observer dispatch.
  GcTelemetry &telemetry() { return Tel; }
  const GcTelemetry &telemetry() const { return Tel; }

  /// Cumulative allocation in KB; objects record this at birth so the
  /// profiler can compute death ages.
  uint64_t allocStampKB() const { return Stats.BytesAllocated >> 10; }

  // --- Mutator bump path ----------------------------------------------
  //
  // Every mutator bump-allocates into thread-local blocks carved from a
  // collector-designated space, stamping headers and counting allocation
  // locally, and folds that state back in before it enters the collector
  // (see runtime/Mutator.h). The collector only designates: which sites
  // may bump, up to which size, into which space, and below which fence.

  /// Whether allocations from \p SiteId may take the bump path at all
  /// (generational pretenuring routes some sites elsewhere).
  virtual bool siteAllowsInlineAlloc(uint32_t SiteId) const = 0;

  /// The space mutator blocks are carved from. Changes only at
  /// collections.
  virtual Space *inlineAllocSpace() = 0;

  /// The exclusive object-size bound for the bump path: objects at least
  /// this big take allocate(). Fixed for the collector's lifetime.
  virtual size_t inlineAllocMaxBytes() const = 0;

  /// The slice fence on the bump path: the mutator bumps an object only if
  /// it starts below the fence. Outside a pause-budget cycle it is the
  /// maximum pointer; a live cycle keeps it at its next slice watermark,
  /// or null while a slice is due, so the allocation that makes a slice
  /// due is the one that reaches allocate().
  const Word *inlineFence() const { return InlineFence; }
  /// The fence outside a cycle: no frontier reaches it.
  static const Word *noFence() {
    return reinterpret_cast<const Word *>(~uintptr_t{0});
  }

  // --- SATB deletion barrier (pause-budget incremental marking) ---------
  //
  // While an incremental major-mark cycle is live, the mutator must report
  // the OLD value of every overwritten pointer slot BEFORE the store, so a
  // snapshot edge cannot be hidden from the tracer between slices. The
  // flag is a plain bool read on the write-barrier path: single-threaded
  // mutation, or stop-the-world transitions in the group runtime.

  /// Whether SATB recording is currently required (incremental mark live).
  bool satbLive() const { return SatbMarkingLive; }

  /// Records the old value of an overwritten pointer slot. Only called
  /// when satbLive(); default ignores it (non-incremental collectors).
  virtual void satbRecord(Word OldBits) { (void)OldBits; }

  /// Adds a mutator thread's root sources behind the ones already
  /// registered (the constructor registers CollectorEnv::Primary first),
  /// and sets its markers to the configured placement policy. Every
  /// collection scans every context, in registration order; in the
  /// multi-mutator runtime the world is stopped around each one.
  void registerContext(const MutatorContext &C);

protected:
  /// Terminal rung of the OOM escalation ladder: records the failure and
  /// throws HeapExhausted carrying heapStateDump() and the ladder stage
  /// reached. Only call between collections (the heap must be intact for
  /// the dump walk).
  [[noreturn]] void throwHeapExhausted(uint64_t RequestedBytes,
                                       OomStage Stage);

  /// Collector-specific lines of heapStateDump (name, budget, per-space
  /// occupancy).
  virtual void appendHeapState(std::string &Out) const = 0;

  /// Enumerates every live object (payload + live descriptor) for the
  /// dump's per-site live-bytes histogram.
  virtual void forEachLiveObject(
      const std::function<void(Word *Payload, Word Descriptor)> &Fn) const = 0;

  /// Builds the metadata header word for a new object.
  Word makeMeta(uint32_t SiteId) const {
    return meta::make(SiteId, allocStampKB());
  }

  /// Per-allocation accounting (+ profiler hook) of allocate(); the
  /// mutator's bump path counts locally and merges.
  void accountAllocation(ObjectKind Kind, Word Descriptor, uint32_t SiteId) {
    uint64_t Bytes = objectTotalBytes(Descriptor);
    Stats.BytesAllocated += Bytes;
    Stats.ObjectsAllocated += 1;
    if (Kind == ObjectKind::Record)
      Stats.RecordBytesAllocated += Bytes;
    else
      Stats.ArrayBytesAllocated += Bytes;
    if (Env.Profiler)
      Env.Profiler->onAlloc(SiteId, Bytes);
  }

  /// Per-collection stack metrics (frame depth, Table 2's new frames),
  /// summed across every mutator's stack. Every call bumps
  /// FramesAtGCSamples alongside the sums, so the Table 2 averages stay
  /// correct even if some future collection path skips this sampling (see
  /// GcStats::FramesAtGCSamples).
  void accountStackAtGC() {
    uint64_t Frames = 0;
    uint64_t NewFrames = 0;
    for (const MutatorContext &C : Contexts) {
      uint64_t F = C.Stack->frameCount();
      Frames += F;
      NewFrames += F - C.Stack->minFramesSinceMark();
      C.Stack->resetWaterMark();
    }
    Stats.FramesAtGCSum += Frames;
    Stats.FramesAtGCSamples += 1;
    if (Frames > Stats.MaxFramesAtGC)
      Stats.MaxFramesAtGC = Frames;
    Stats.NewFramesSum += NewFrames;
    if (GcEvent *Ev = Tel.currentEvent())
      Ev->FramesAtGC = Frames;
  }

  /// Profiler death sweep of an evacuated space: every non-forwarded object
  /// died; record its age.
  void sweepDeaths(const Space &From) {
    if (!Env.Profiler)
      return;
    uint64_t NowKB = allocStampKB();
    From.walk([&](Word *Payload, Word Descriptor, bool Forwarded) {
      if (Forwarded)
        return;
      (void)Descriptor;
      Word Meta = metaOf(Payload);
      Env.Profiler->onDeath(meta::site(Meta), NowKB - meta::birthKB(Meta));
    });
  }

  /// Whether \p Slot lives in any registered mutator's stack or register
  /// file — the aged-tenuring filter that keeps stack slots out of the
  /// cross-generation remembered set.
  bool mutatorOwnsSlot(const Word *Slot) const {
    for (const MutatorContext &C : Contexts)
      if (C.Stack->ownsSlot(Slot) || C.Regs->ownsSlot(Slot))
        return true;
    return false;
  }

  /// Scans every mutator context (each through its own markers and scan
  /// cache when it has them) into Roots, accounting StackTime, the scan
  /// counters and the open event's frame fields. Each root kind lists the
  /// contexts in registration order.
  void scanRoots();

  /// Root spans in handoff order; null entries are skipped.
  using RootSpans = std::initializer_list<const std::vector<Word *> *>;

  /// One evacuation on the serial engine, or on the parallel one when a
  /// pool exists: hands \p Spans to the engine in order (StackTime,
  /// RootHandoff phase), copies (CopyTime, Copy phase), and folds the
  /// totals into the stats and the open event. The order of the spans is
  /// the copy order, so it fixes the heap layout. Returns the bytes copied.
  uint64_t evacuate(const Evacuator::Config &C, RootSpans Spans);

  /// Extra destination room the parallel engine's block handout may waste
  /// when copying \p IncomingBytes; 0 on the serial engine.
  size_t parallelSlackBytes(size_t IncomingBytes) const;

  /// Bytes the hard cap still allows on top of \p StandingBytes (0 when
  /// the standing footprint already reaches the cap).
  size_t hardCapRoom(size_t StandingBytes) const {
    return Opts.HardLimitBytes > StandingBytes
               ? Opts.HardLimitBytes - StandingBytes
               : 0;
  }

  /// Whether this collection should poison evacuated from-space
  /// (VerifyLevel >= 3 or the FromSpacePoison fault point).
  bool shouldPoison() const;

  /// Arms the wild-write check on \p Idle: a to-space just poisoned that
  /// sits unused until the next collection.
  void watchIdleSpace(const Space &Idle) { PoisonedIdle = &Idle; }

  /// Collection entry: if the idle to-space was left poisoned, any
  /// clobbered word is a wild write through a stale pointer; aborts naming
  /// it (\p Kind names the collection). Disarms the check either way.
  void checkIdleSpacePoison(const char *Kind) {
    if (TILGC_LIKELY(!PoisonedIdle))
      return;
    if (const Word *Bad = PoisonedIdle->findPoisonViolation())
      fatalError("from-space poison clobbered at %p before %s GC #%llu "
                 "(holds %llx): wild write through a stale pointer",
                 (const void *)Bad, Kind,
                 (unsigned long long)(Stats.NumGC + 1),
                 (unsigned long long)*Bad);
    PoisonedIdle = nullptr;
  }

  /// VerifyLevel >= 1 post-collection audit through verifyHeapNow();
  /// aborts on corruption. \p Kind names the collection in the message.
  void maybeVerifyHeap(const char *Kind) const;

  /// See satbLive(). Set/cleared by the incremental major-mark cycle.
  bool SatbMarkingLive = false;
  /// See inlineFence(). Kept by the incremental major-mark cycle.
  const Word *InlineFence = noFence();

  CollectorEnv Env;
  const GcOptions &Opts;
  GcStats Stats;
  GcTelemetry Tel;
  /// Present only when Opts.GcThreads > 1.
  std::unique_ptr<WorkerPool> Pool;
  /// Every mutator's root sources, in thread-index order; entry 0 is the
  /// primary mutator (CollectorEnv::Primary).
  std::vector<MutatorContext> Contexts;
  /// The last scanRoots() result, all contexts together.
  RootSet Roots;

private:
  template <typename EngineT>
  uint64_t runEvacuation(EngineT &E, RootSpans Spans);

  /// The poisoned idle to-space watchIdleSpace armed, if any.
  const Space *PoisonedIdle = nullptr;
};

} // namespace tilgc

#endif // TILGC_GC_COLLECTOR_H
