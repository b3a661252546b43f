//===- runtime/Mutator.h - The mutator-facing runtime API -------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime facade workloads program against: allocation entry points,
/// barriered field writes, activation-record management, the register file,
/// and SML-style exceptions. This is the C++ stand-in for the code a
/// TIL-compiled SML program would execute.
///
/// ## The pointer-slot discipline
///
/// Collections move objects. Any heap pointer that must survive a possible
/// collection (i.e. any allocation) must live in a Frame slot — never in a
/// C++ local — and be re-read from the slot after each allocation:
///
/// \code
///   Frame F(M, KeyCons);            // push an activation record
///   F.set(1, Xs);                   // pointer local in a Pointer slot
///   Value Cell = M.allocRecord(SiteCons, 2, /*PtrMask=*/0b10);
///   M.initField(Cell, 0, Value::fromInt(42));
///   M.initField(Cell, 1, F.get(1)); // re-read after the allocation
/// \endcode
///
/// ## Exceptions
///
/// Mutator::raise unwinds the shadow stack directly to the innermost
/// handler — one jump, exactly like a compiled `raise` — retiring
/// jumped-over stack markers and updating the watermark M (paper §5). The
/// C++ stack is unwound by a (contained) C++ exception; the destructors of
/// the cut Frames find their frame no longer on top and skip their pop.
/// Any other C++ exception (HeapExhausted, say) unwinds the shadow stack
/// frame by frame as it unwinds the C++ stack, dropping the handlers of the
/// frames it leaves.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_RUNTIME_MUTATOR_H
#define TILGC_RUNTIME_MUTATOR_H

#include "gc/Collector.h"
#include "gc/GenerationalCollector.h"
#include "gc/SemispaceCollector.h"
#include "object/Object.h"
#include "profile/AllocSite.h"
#include "profile/HeapProfiler.h"
#include "stack/RegisterFile.h"
#include "stack/ShadowStack.h"

#include <cstring>
#include <memory>
#include <vector>

namespace tilgc {

class EventRecorder;

/// Which collector a mutator runs on.
enum class CollectorKind { Semispace, Generational };

/// Everything configurable about a runtime instance; defaults mirror the
/// paper's setup.
struct MutatorConfig {
  CollectorKind Kind = CollectorKind::Generational;
  /// Name for diagnostics: heap-state dumps and fatal errors cite it so a
  /// torture matrix can tell which workload/configuration died.
  std::string Name;
  /// Total memory budget: the paper's k*Min.
  size_t BudgetBytes = 64u << 20;
  /// Hard cap on total heap footprint. 0 = unlimited (the paper's
  /// soft-budget behavior: collections may grow past BudgetBytes, counting
  /// BudgetOverruns). When set, exhaustion becomes a catchable
  /// HeapExhausted carrying a heap-state dump, in every build mode.
  size_t HardLimitBytes = 0;
  /// Generational stack collection (§5).
  bool UseStackMarkers = false;
  unsigned MarkerPeriod = 25;
  /// §7.1 dynamic marker placement (adaptive period).
  bool AdaptiveMarkerPlacement = false;
  /// Scan stack frames through compiled ScanPlans; false restores the
  /// paper's interpretive trace-table scan.
  bool CompiledScanPlans = true;
  /// Pretenuring decisions (§6); generational only.
  std::vector<PretenureDecision> Pretenure;
  /// Write barrier flavor; generational only. Hybrid starts as an SSB and
  /// degrades to card marking when the flood heuristic trips (Peg).
  GenerationalCollector::BarrierKind Barrier =
      GenerationalCollector::BarrierKind::SequentialStoreBuffer;
  /// Major-collection engine; generational only. Semispace is the paper's
  /// evacuating major; MarkCompact is the region-structured in-place
  /// compactor (~1x standing footprint, moves only what pays).
  GenerationalCollector::MajorGcKind MajorGc =
      GenerationalCollector::MajorGcKind::Semispace;
  /// 1 = promote-all; >1 = aged-tenuring ablation.
  unsigned PromoteAgeThreshold = 1;
  size_t NurseryLimitBytes = 512u << 10;
  size_t LargeObjectThresholdBytes = 4096;
  double SemispaceTargetLiveness = 0.10;
  double TenuredTargetLiveness = 0.3;
  /// Attach a heap profiler (slows the run; paper: 50-200%).
  bool EnableProfiling = false;
  /// Debug: verify the §5 reused-root invariant at each minor collection.
  bool VerifyReuseInvariant = false;
  /// Debug: walk and validate the whole heap after every collection.
  /// Legacy switch — equivalent to VerifyLevel = 1.
  bool VerifyHeapAfterGC = false;
  /// Leveled heap invariant auditing, active in every build mode:
  /// 0 = off; 1 = post-GC heap walk; 2 = + pre-minor remembered-set
  /// completeness audit (generational); 3 = + from-space poisoning with
  /// wild-write integrity checks.
  unsigned VerifyLevel = 0;
  /// Evacuation threads: 1 = the serial engine (bit-identical paper
  /// reproduction); >1 = the work-stealing ParallelEvacuator.
  unsigned GcThreads = 1;
  /// Pause-budget SLO in microseconds; 0 = stock stop-the-world majors
  /// (bit-identical to builds without the feature). When set (generational
  /// + MarkCompact only), major collections run as an incremental cycle:
  /// the mark phase is sliced into increments budgeted against this value
  /// and scheduled at allocation safepoints, with an SATB deletion barrier
  /// keeping the snapshot sound; only the finishing compaction stays
  /// stop-the-world. See GenerationalCollector::Options::MaxPauseMicros.
  uint64_t MaxPauseMicros = 0;
  /// GC-cycle watchdog deadline in microseconds; 0 = disarmed (free on
  /// every path). Generational only. See GenerationalCollector::Options.
  uint64_t GcDeadlineMicros = 0;
  /// Safepoint-rendezvous watchdog deadline in microseconds; 0 = disarmed.
  /// Consumed by MutatorGroup's coordinator (multi-mutator runtime only).
  uint64_t SafepointDeadlineMicros = 0;
  /// Bark escalation: Report (diagnose), Recover (+ cooperative abort →
  /// major-engine failover), Fatal (terminate with the diagnostic).
  WatchdogPolicy WatchdogEscalation = WatchdogPolicy::Recover;
  /// Consecutive major-engine failovers before MarkCompact is
  /// sticky-disabled in favor of the semispace fallback.
  unsigned FailoverStickyLimit = 3;
  /// Telemetry observer to register with the collector (non-owning; must
  /// outlive the mutator). Registering any observer arms per-collection
  /// event assembly and phase stamps (see observe/GcTelemetry.h).
  GcObserver *Observer = nullptr;
  /// When nonempty, record collections in a bounded ring and write a
  /// chrome://tracing JSON trace here at destruction. Empty falls back to
  /// the TILGC_TRACE_OUT environment variable; both empty = no recording.
  std::string TraceOutPath;
  /// Ring capacity (events retained) for the trace recorder.
  size_t TelemetryRingEvents = 4096;
};

/// The value an SML `raise` transports, plus the handler it targets. Thrown
/// by Mutator::raise after the shadow stack has already been unwound.
struct MLRaise {
  Value Exn;
  uint64_t HandlerId;
};

class Frame;
class MutatorGroup;

/// One runtime instance: heap + stack + registers + collector.
///
/// In the multi-mutator runtime (runtime/MutatorGroup.h) several Mutators
/// share one collector: the group's primary mutator owns it, attached
/// mutators reference it, and every member allocates through a per-thread
/// TLAB with a safepoint poll instead of the single-mutator fast path. A
/// Mutator that was never attached to a group behaves bit-identically to
/// the pre-group runtime.
class Mutator {
public:
  explicit Mutator(const MutatorConfig &Config = MutatorConfig());

  /// Multi-mutator runtime: an attached mutator shares \p SharedGC (owned
  /// by the group's primary mutator). Only MutatorGroup constructs these —
  /// the group registers the stack/registers as an extra root context and
  /// wires the TLAB/safepoint machinery via attachToGroup.
  Mutator(Collector &SharedGC, const MutatorConfig &Config);

  ~Mutator();
  Mutator(const Mutator &) = delete;
  Mutator &operator=(const Mutator &) = delete;

  //===--------------------------------------------------------------------===
  // Allocation. Every entry point may collect; re-read pointers from frame
  // slots afterwards. Payloads are zeroed.
  //
  // Entry points go through a bump-pointer fast path: the collector
  // designates a space (the nursery / the active semispace) and a size
  // bound once, the mutator caches them and allocates inline until a
  // collection invalidates the cache (stats().NumGC is the epoch). Sites
  // the collector routes elsewhere (pretenured) and objects over the bound
  // (large arrays) fall through to the collector's full allocate(), as
  // does any bump failure — so the slow path's semantics are preserved
  // exactly; the fast path only skips the virtual dispatch and the
  // per-call placement re-derivation.
  //===--------------------------------------------------------------------===

  /// A record of \p NumFields fields; bit i of \p PtrMask marks field i as
  /// a pointer.
  Value allocRecord(uint32_t Site, uint32_t NumFields, uint32_t PtrMask) {
    return Value::fromPtr(
        allocImpl(ObjectKind::Record, NumFields, PtrMask, Site));
  }

  /// An array of \p NumElems pointers (initially null).
  Value allocPtrArray(uint32_t Site, uint32_t NumElems) {
    return Value::fromPtr(allocImpl(ObjectKind::PtrArray, NumElems, 0, Site));
  }

  /// An array of \p NumWords raw words (unboxed ints / doubles / bytes).
  Value allocNonPtrArray(uint32_t Site, uint32_t NumWords) {
    return Value::fromPtr(
        allocImpl(ObjectKind::NonPtrArray, NumWords, 0, Site));
  }

  /// A runtime type descriptor for Compute traces: a one-field record whose
  /// field says whether the described value is a pointer.
  Value allocTypeDesc(bool DescribesPointer) {
    Value D = allocRecord(RuntimeSiteId, 1, 0);
    initField(D, 0, Value::fromInt(DescribesPointer ? 1 : 0));
    return D;
  }

  //===--------------------------------------------------------------------===
  // Field access.
  //===--------------------------------------------------------------------===

  static Value getField(Value Obj, uint32_t I) {
    assert(!Obj.isNull() && I < header::length(descriptorOf(Obj.asPtr())) &&
           "field index out of range");
    return Value::fromBits(Obj.asPtr()[I]);
  }

  /// Initializing store into a fresh object (no barrier; the collector
  /// scans freshly pretenured regions and new large objects instead).
  void initField(Value Obj, uint32_t I, Value V) {
    assert(!Obj.isNull() && I < header::length(descriptorOf(Obj.asPtr())) &&
           "field index out of range");
    Obj.asPtr()[I] = V.bits();
  }

  /// Mutating store. Pointer stores go through the write barrier and are
  /// counted (Table 2's "Number of Pointer Updates").
  void writeField(Value Obj, uint32_t I, Value V, bool IsPointerField) {
    assert(!Obj.isNull() && I < header::length(descriptorOf(Obj.asPtr())) &&
           "field index out of range");
    Word *Slot = &Obj.asPtr()[I];
    // Pause-budget SATB deletion barrier: while an incremental mark is
    // live, the value being *overwritten* is a snapshot edge and must be
    // recorded before the store clobbers it. satbLive() is a single
    // predicted-false load outside a cycle.
    if (IsPointerField && TILGC_UNLIKELY(GC->satbLive())) {
      if (TILGC_UNLIKELY(Group != nullptr))
        LocalSatb.push_back(*Slot); // replayed at the next safepoint merge
      else
        GC->satbRecord(*Slot);
    }
    *Slot = V.bits();
    if (IsPointerField) {
      ++NumPointerUpdates;
      if (TILGC_UNLIKELY(Group != nullptr)) {
        // Multi-mutator mode: the shared barrier state (SSB, card table,
        // hybrid latch) is not thread-safe, so slots buffer thread-locally
        // and replay through the real barrier at the next safepoint merge
        // (world stopped, thread-index order). Semantically equivalent for
        // every barrier kind: SSB/cards dedupe or tolerate late recording,
        // and the filtered/hybrid checks see the slot's final pre-GC state.
        if (RecordLocalBarrier)
          LocalSSB.push_back(Slot);
      } else {
        GC->writeBarrier(Slot);
      }
    }
  }

  /// Payload length in words/elements.
  static uint32_t objectLength(Value Obj) {
    assert(!Obj.isNull() && "length of null");
    return header::length(descriptorOf(Obj.asPtr()));
  }

  //===--------------------------------------------------------------------===
  // Registers.
  //===--------------------------------------------------------------------===

  void setRegister(unsigned R, Value V) { Regs[R] = V.bits(); }
  Value getRegister(unsigned R) const { return Value::fromBits(Regs[R]); }

  //===--------------------------------------------------------------------===
  // Activation records (used via the Frame RAII class).
  //===--------------------------------------------------------------------===

  size_t pushFrame(uint32_t Key) {
    const FrameLayout &L = TraceTableRegistry::global().lookup(Key);
    return Stack.pushFrame(Key, L.numSlots());
  }

  /// Pops the frame at \p Base (Frame's destructor). The frame must be on
  /// top and hold no handler, except while a C++ exception unwinds it; see
  /// popFrameUnwinding.
  void popFrame(size_t Base) {
    bool HoldsHandler = !Handlers.empty() && Handlers.back().FrameBase == Base;
    if (TILGC_UNLIKELY(HoldsHandler || !Stack.isTop(Base))) {
      popFrameUnwinding(Base);
      return;
    }
    popTopFrame(Base);
  }

  //===--------------------------------------------------------------------===
  // SML-style exceptions.
  //===--------------------------------------------------------------------===

  /// Registers an exception handler on the frame at \p FrameBase (must be
  /// the topmost frame). Returns the id to match in the catch clause and to
  /// pass to popHandler on normal exit.
  uint64_t pushHandler(size_t FrameBase) {
    assert(FrameBase == Stack.topFrameBase() &&
           "handlers live on the current frame");
    Handlers.push_back(HandlerEntry{FrameBase, ++NextHandlerId});
    return NextHandlerId;
  }

  /// Deregisters a handler on the normal (non-raising) path.
  void popHandler(uint64_t Id) {
    assert(!Handlers.empty() && Handlers.back().Id == Id &&
           "handler discipline violated");
    (void)Id;
    Handlers.pop_back();
  }

  /// Raises \p Exn: unwinds the shadow stack directly to the innermost
  /// handler's frame (one jump, as compiled code would), then throws MLRaise
  /// to unwind the mirrored C++ stack.
  [[noreturn]] void raise(Value Exn);

  //===--------------------------------------------------------------------===
  // Introspection / control.
  //===--------------------------------------------------------------------===

  void collect(bool Major = false);

  /// Runs the collector's heap verifier on demand (any build mode). Returns
  /// false and fills \p Error on the first violation — the torture driver's
  /// "the heap is never corrupt, even after a structured failure" check.
  bool verifyHeap(std::string &Error) const {
    return GC->verifyHeapNow(Error);
  }

  GcStats &gcStats() { return GC->stats(); }
  const GcStats &gcStats() const { return GC->stats(); }
  Collector &collector() { return *GC; }
  GcTelemetry &telemetry() { return GC->telemetry(); }
  const GcTelemetry &telemetry() const { return GC->telemetry(); }
  /// The trace recorder, present only when a trace path was configured.
  EventRecorder *traceRecorder() { return Recorder.get(); }
  ShadowStack &stack() { return Stack; }
  RegisterFile &registers() { return Regs; }
  HeapProfiler *profiler() { return Profiler.get(); }
  uint64_t pointerUpdates() const { return NumPointerUpdates; }
  uint64_t raises() const { return NumRaises; }
  const MutatorConfig &config() const { return Config; }

private:
  struct HandlerEntry {
    size_t FrameBase;
    uint64_t Id;
  };

  /// Pops the topmost frame, which starts at \p Base.
  void popTopFrame(size_t Base) {
    if (TILGC_UNLIKELY(Stack.keyOf(Base) == StubKey))
      runStub(Base);
    Stack.popFrame(Base);
  }

  /// The "stub function" of §5: the marked frame at \p Base is returning,
  /// so its marker retires and its original key comes back.
  void runStub(size_t Base);

  /// popFrame's cold path, legal only while a C++ exception unwinds the
  /// frame at \p Base. A frame below the top was cut by raise, which
  /// unwound the shadow stack past it in one jump: its pop is skipped. A
  /// topmost frame still holding a handler is being left by some other
  /// exception: its handlers die with it and it pops as a return.
  void popFrameUnwinding(size_t Base);

  /// The allocation fast path (see the allocation section comment).
  Word *allocImpl(ObjectKind Kind, uint32_t LenWords, uint32_t PtrMask,
                  uint32_t Site) {
    Word Descriptor = header::make(Kind, LenWords, PtrMask);
    if (TILGC_UNLIKELY(Group != nullptr))
      return allocMulti(Kind, Descriptor, LenWords, PtrMask, Site);
    if (TILGC_LIKELY(siteAllowsFast(Site))) {
      if (TILGC_UNLIKELY(GC->stats().NumGC != FastEpoch)) {
        FastSpace = GC->inlineAllocSpace(FastMaxBytes);
        FastEpoch = GC->stats().NumGC;
      }
      if (TILGC_LIKELY(FastSpace &&
                       objectTotalBytes(Descriptor) < FastMaxBytes)) {
        Word *Payload = FastSpace->allocate(Descriptor, GC->objectMeta(Site));
        if (TILGC_LIKELY(Payload != nullptr)) {
          GC->noteAllocated(Kind, Descriptor, Site);
          std::memset(Payload, 0,
                      static_cast<size_t>(LenWords) * sizeof(Word));
          return Payload;
        }
      }
    }
    return GC->allocate(Kind, LenWords, PtrMask, Site);
  }

  /// Per-site fast-path admission, memoized (0 = unknown, 1 = fast,
  /// 2 = slow). The collector's answer is fixed for its lifetime —
  /// pretenure decisions are construction-time options.
  bool siteAllowsFast(uint32_t Site) {
    if (TILGC_UNLIKELY(Site >= SiteFastFlag.size()))
      SiteFastFlag.resize(Site + 1, 0);
    uint8_t &F = SiteFastFlag[Site];
    if (TILGC_UNLIKELY(F == 0))
      F = GC->siteAllowsInlineAlloc(Site) ? 1 : 2;
    return F == 1;
  }

  //===--------------------------------------------------------------------===
  // Multi-mutator mode (runtime/MutatorGroup.h). All of this is inert —
  // Group stays null, one branch-not-taken on the allocation and barrier
  // paths — unless MutatorGroup attached this mutator.
  //===--------------------------------------------------------------------===

  friend class MutatorGroup;

  /// The multi-mutator allocation path: safepoint poll, then TLAB bump,
  /// then a stop-the-world slow path through the group.
  Word *allocMulti(ObjectKind Kind, Word Descriptor, uint32_t LenWords,
                   uint32_t PtrMask, uint32_t Site);

  /// Retires the current TLAB (if any) and grabs a fresh block of at least
  /// \p NeedWords from the collector's inline-allocation space. Returns the
  /// block start, or null if no space/block is available (caller falls to
  /// the stop-the-world slow path).
  Word *refillTlab(size_t NeedWords);

  /// Returns the unused TLAB tail to the space if it is still the last
  /// grant, else plugs it with a Pad so heap walks stay valid.
  void retireTlab();

  /// Wires this mutator into \p G as thread \p Idx (called by MutatorGroup
  /// once, with the world quiescent).
  void attachToGroup(MutatorGroup &G, unsigned Idx, bool Profiling,
                     bool RecordBarrier);

  /// Thread-local allocation statistics, folded into the shared GcStats at
  /// each safepoint merge (thread-index order, so totals are deterministic).
  struct LocalAlloc {
    uint64_t BytesAllocated = 0;
    uint64_t ObjectsAllocated = 0;
    uint64_t RecordBytesAllocated = 0;
    uint64_t ArrayBytesAllocated = 0;
    uint64_t TlabRefills = 0;
    uint64_t TlabPadBytes = 0;
  };

  MutatorGroup *Group = nullptr;
  unsigned GroupIdx = 0;
  /// Generational collectors need barrier records; semispace has none.
  bool RecordLocalBarrier = false;
  Word *TlabNext = nullptr;
  Word *TlabEnd = nullptr;
  Space *TlabSpace = nullptr;
  /// Size bound from inlineAllocSpace at attach time; objects at or over it
  /// (large objects) always take the stop-the-world slow path.
  size_t TlabMaxBytes = 0;
  /// Thread-local store buffer: pointer-store slots recorded here and
  /// replayed through the collector's real write barrier at safepoints.
  std::vector<Word *> LocalSSB;
  /// Thread-local SATB buffer (pause-budget mode): overwritten pointer
  /// values captured while an incremental mark is live, replayed through
  /// Collector::satbRecord at the next safepoint merge — before any
  /// collection work moves objects or advances the mark.
  std::vector<Word> LocalSatb;
  LocalAlloc LocalStats;
  /// Shared-counter snapshot from the last safepoint merge; birth stamps in
  /// TLAB allocations are (SharedBytesAtMerge + local bytes) >> 10, which
  /// matches the serial stamp stream up to inter-thread interleaving.
  uint64_t SharedBytesAtMerge = 0;
  /// Per-thread profiler scratch, merged into the shared profiler at
  /// safepoints (same scheme as the parallel evacuator's workers).
  std::unique_ptr<HeapProfiler> LocalProf;

  /// TLAB grant size: 2048 words = 16 KB, 1/32 of the default nursery.
  static constexpr size_t TlabWords = 2048;

  MutatorConfig Config;
  ShadowStack Stack;
  RegisterFile Regs;
  std::unique_ptr<HeapProfiler> Profiler;
  /// Trace recording (TraceOutPath / TILGC_TRACE_OUT): the ring the
  /// exporter serializes at destruction. Registered as an observer before
  /// the collector is built so construction-time audits land in it too.
  std::unique_ptr<EventRecorder> Recorder;
  std::string TracePath;
  /// The collector: primary/standalone mutators own it (OwnedGC holds it,
  /// GC points at it); attached mutators alias the group primary's.
  std::unique_ptr<Collector> OwnedGC;
  Collector *GC = nullptr;
  std::vector<HandlerEntry> Handlers;
  uint64_t NextHandlerId = 0;
  uint64_t NumPointerUpdates = 0;
  uint64_t NumRaises = 0;

  /// Allocation fast-path cache (invalidated by epoch: every collection
  /// bumps stats().NumGC, and spaces only change at collections).
  Space *FastSpace = nullptr;
  size_t FastMaxBytes = 0;
  uint64_t FastEpoch = ~uint64_t{0};
  std::vector<uint8_t> SiteFastFlag;
};

/// RAII activation record. See the file comment for the discipline.
class Frame {
public:
  Frame(Mutator &M, uint32_t Key) : M(M), FrameBase(M.pushFrame(Key)) {}
  ~Frame() { M.popFrame(FrameBase); }
  Frame(const Frame &) = delete;
  Frame &operator=(const Frame &) = delete;

  Value get(unsigned Slot) const {
    return Value::fromBits(M.stack().slot(FrameBase, Slot));
  }
  void set(unsigned Slot, Value V) {
    // Compiled code can only store into its own (topmost) activation
    // record; writing an ancestor frame's slot would break the §5 invariant
    // that frames below a stack marker are unchanged. Mutable state shared
    // with callees goes through a heap ref cell, as in SML.
    assert(M.stack().topFrameBase() == FrameBase &&
           "stores into non-top frames are impossible in compiled code; "
           "use a heap ref cell instead");
    M.stack().slot(FrameBase, Slot) = V.bits();
  }
  void setInt(unsigned Slot, int64_t I) { set(Slot, Value::fromInt(I)); }
  int64_t getInt(unsigned Slot) const { return get(Slot).asInt(); }

  size_t base() const { return FrameBase; }

private:
  Mutator &M;
  size_t FrameBase;
};

} // namespace tilgc

#endif // TILGC_RUNTIME_MUTATOR_H
