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
/// jumped-over stack markers and updating the watermark M (paper §5). It
/// then returns an MLRaise token, and the C++ code between the raise and
/// the handler returns that token in turn: no C++ exception is thrown. The
/// destructors of the cut Frames find their frame at or above the stack's
/// new top and skip their pop. The handler site checks that the token names
/// its own handler (Mutator::caught):
///
/// \code
///   MLRaise callee(Mutator &M) {   // never returns normally
///     Frame F(M, KeyCallee);
///     return M.raise(Value::fromInt(1));
///   }
///   ...
///   uint64_t H = M.pushHandler(F.base());
///   Value Exn = M.caught(callee(M), H);
/// \endcode
///
/// A real C++ exception (HeapExhausted, say) unwinds the shadow stack frame
/// by frame as it unwinds the C++ stack, dropping the handlers of the
/// frames it leaves.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_RUNTIME_MUTATOR_H
#define TILGC_RUNTIME_MUTATOR_H

#include "gc/Collector.h"
#include "gc/GcOptions.h"
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

/// Everything configurable about a runtime instance: the collector
/// parameters (GcOptions) plus the runtime-side fields below.
struct MutatorConfig : GcOptions {
  CollectorKind Kind = CollectorKind::Generational;
  /// Attach a heap profiler (slows the run; paper: 50-200%).
  bool EnableProfiling = false;
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

/// The one validity predicate for runtime configurations: why \p Config
/// cannot run with \p Mutators mutator threads sharing one heap (1 = a
/// standalone Mutator, N = a MutatorGroup of N), or an empty string if it
/// can. The Mutator and MutatorGroup constructors fatalError on a
/// non-empty result, so unsupported combinations fail at construction.
std::string validate(const MutatorConfig &Config, unsigned Mutators);

/// The value an SML `raise` transports, plus the handler it targets.
/// Returned by Mutator::raise after the shadow stack has already been
/// unwound, then returned by every C++ function up to the handler site;
/// dropping it on the way would lose the raise, hence [[nodiscard]].
struct [[nodiscard]] MLRaise {
  Value Exn;
  uint64_t HandlerId;
};

class Frame;
class MutatorGroup;

/// One runtime instance: heap + stack + registers + collector.
///
/// In the multi-mutator runtime (runtime/MutatorGroup.h) several Mutators
/// share one collector: the group's primary mutator owns it, attached
/// mutators reference it. Every Mutator, standalone or grouped, allocates
/// through the same thread-local bump path; a group member adds a
/// safepoint poll to it, buffers its barrier records, and reaches the
/// collector only with the world stopped.
///
/// Cache-line aligned: a group's threads each write their own Mutator on
/// every allocation and pointer store, so no Mutator may share a line with
/// the collector or another thread's state. One shared line cost the
/// two-mutator perfbench run about 20% of its pass time.
class alignas(CacheLineBytes) Mutator {
public:
  explicit Mutator(const MutatorConfig &Config = MutatorConfig());

  /// Multi-mutator runtime: an attached mutator shares \p SharedGC (owned
  /// by the group's primary mutator). Only MutatorGroup constructs these —
  /// the group registers the mutator's context with the collector and
  /// wires the TLAB/safepoint machinery via attachToGroup.
  Mutator(Collector &SharedGC, const MutatorConfig &Config);

  ~Mutator();
  Mutator(const Mutator &) = delete;
  Mutator &operator=(const Mutator &) = delete;

  //===--------------------------------------------------------------------===
  // Allocation. Every entry point may collect; re-read pointers from frame
  // slots afterwards. Payloads are zeroed.
  //
  // One bump path for every mutator, standalone or grouped. Objects are
  // bumped into a thread-local allocation buffer (TLAB): a block carved
  // from the collector's inline-allocation space (the nursery / the active
  // semispace), with allocation counters and profile samples kept locally.
  // An object is bumped when its site is not routed elsewhere (pretenured),
  // it is under the size bound (large arrays are not), it starts below the
  // collector's slice fence (past it a pause-budget mark slice is due) and
  // it fits in the block; a full block is refilled. Anything else folds
  // the local state into the collector (mergeAtSafepoint) and runs the
  // collector's full allocate(), so the slow path's semantics are exactly
  // the collector's.
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
        // Multi-mutator mode: the shared remembered set (slot log, card
        // table, switch policy) is not thread-safe, so slots buffer
        // thread-locally and replay through the real barrier at the next
        // safepoint merge (world stopped, thread-index order). Semantically
        // equivalent for every barrier kind: the log and the cards tolerate
        // late recording, and the filter and the hybrid's switch see the
        // slot's final pre-GC state.
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
    return Stack.pushFrame(Key, Registry.frameSize(Key));
  }

  /// Pops the frame at \p Base (Frame's destructor). The frame must be on
  /// top and hold no handler, unless a raise cut it or a C++ exception
  /// unwinds it; see popFrameUnwinding.
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
  /// handler's frame (one jump, as compiled code would) and pops that
  /// handler. Returns the token the C++ code between here and the handler
  /// site must return to it. With no handler installed it is fatal.
  MLRaise raise(Value Exn);

  /// The handler site's half of a raise: \p R, returned by the call the
  /// handler \p Id guarded, must target that handler. Returns the raised
  /// value. A token for any other handler means a C++ frame between the
  /// raise and its handler dropped or swapped it, which is fatal.
  Value caught(const MLRaise &R, uint64_t Id) const {
    if (TILGC_UNLIKELY(R.HandlerId != Id))
      fatalHandlerMismatch(R.HandlerId, Id);
    return R.Exn;
  }

  //===--------------------------------------------------------------------===
  // Introspection / control.
  //===--------------------------------------------------------------------===

  void collect(bool Major = false);

  /// Runs the collector's heap verifier on demand (any build mode). Returns
  /// false and fills \p Error on the first violation — the torture driver's
  /// "the heap is never corrupt, even after a structured failure" check.
  bool verifyHeap(std::string &Error) {
    if (Group == nullptr) // a group merges its members at every stop
      mergeAtSafepoint();
    return GC->verifyHeapNow(Error);
  }

  /// The collector's totals with this mutator's local allocation folded
  /// in (a group folds its members' at every stop and after run()).
  GcStats &gcStats() {
    if (Group == nullptr)
      mergeAtSafepoint();
    return GC->stats();
  }
  Collector &collector() { return *GC; }
  GcTelemetry &telemetry() { return GC->telemetry(); }
  const GcTelemetry &telemetry() const { return GC->telemetry(); }
  /// The trace recorder, present only when a trace path was configured.
  EventRecorder *traceRecorder() { return Recorder.get(); }
  ShadowStack &stack() { return Stack; }
  RegisterFile &registers() { return Regs; }
  /// This stack's marker manager, if generational stack collection is on.
  MarkerManager *markerManager() {
    return Config.UseStackMarkers ? &Markers : nullptr;
  }
  HeapProfiler *profiler() { return Profiler.get(); }
  uint64_t pointerUpdates() const { return NumPointerUpdates; }
  uint64_t raises() const { return NumRaises; }
  /// Installed handlers (pushHandler minus popHandler and raises).
  size_t handlerDepth() const { return Handlers.size(); }
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

  /// This mutator's root sources, as the collector registers them.
  MutatorContext rootContext() {
    MarkerManager *MM = markerManager();
    return MutatorContext{&Stack, &Regs, MM, MM ? &Cache : nullptr};
  }

  /// popFrame's cold path. A frame that is not on top must have been cut
  /// by raise, which unwound the shadow stack past it in one jump: its base
  /// is at or above the stack's top and its pop is skipped. Any other
  /// non-top frame is popped out of order, which is fatal in every build
  /// mode. A topmost frame still holding a handler is being left by a C++
  /// exception: its handlers die with it and it pops as a return.
  void popFrameUnwinding(size_t Base);

  [[noreturn]] void fatalHandlerMismatch(uint64_t Got, uint64_t Want) const;

  /// The allocation fast path (see the allocation section comment).
  Word *allocImpl(ObjectKind Kind, uint32_t LenWords, uint32_t PtrMask,
                  uint32_t Site) {
    if (TILGC_UNLIKELY(Group != nullptr))
      pollSafepoint();
    Word Descriptor = header::make(Kind, LenWords, PtrMask);
    Word *P = TlabNext;
    if (TILGC_LIKELY(objectTotalWords(Descriptor) <=
                         static_cast<size_t>(TlabEnd - P) &&
                     P < GC->inlineFence() && siteAllowsFast(Site) &&
                     objectTotalBytes(Descriptor) < TlabMaxBytes))
      return bumpTlab(P, Kind, Descriptor, LenWords, Site);
    return allocSlow(Kind, Descriptor, LenWords, PtrMask, Site);
  }

  /// Places an object at \p P, the TLAB's cursor: header, birth stamp,
  /// local counters and profile sample, zeroed payload.
  Word *bumpTlab(Word *P, ObjectKind Kind, Word Descriptor,
                 uint32_t LenWords, uint32_t Site) {
    uint64_t Bytes = objectTotalBytes(Descriptor);
    TlabNext = P + objectTotalWords(Descriptor);
    P[0] = Descriptor;
    // Birth stamp: the shared counter moves only inside the collector,
    // which every mutator enters after a merge, so the counter plus the
    // local bytes since is the allocation total — exact for one mutator,
    // monotone per thread in a group.
    P[1] = meta::make(
        Site, (GC->stats().BytesAllocated + LocalStats.BytesAllocated) >> 10);
    LocalStats.BytesAllocated += Bytes;
    LocalStats.ObjectsAllocated += 1;
    if (Kind == ObjectKind::Record)
      LocalStats.RecordBytesAllocated += Bytes;
    else
      LocalStats.ArrayBytesAllocated += Bytes;
    if (SiteProf)
      SiteProf->onAlloc(Site, Bytes);
    std::memset(P + HeaderWords, 0,
                static_cast<size_t>(LenWords) * sizeof(Word));
    return P + HeaderWords;
  }

  /// allocImpl's miss: a TLAB refill, else the collector's allocate().
  Word *allocSlow(ObjectKind Kind, Word Descriptor, uint32_t LenWords,
                  uint32_t PtrMask, uint32_t Site);

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

  /// Retires the current TLAB (if any) and grabs a fresh block of at least
  /// \p NeedWords from the collector's inline-allocation space. Returns the
  /// block start, or null if no block is available or the block would
  /// start at or past the slice fence (the caller takes the slow path).
  Word *refillTlab(size_t NeedWords);

  /// Returns the unused TLAB tail to the space if it is still the last
  /// grant, else plugs it with a Pad so heap walks stay valid.
  void retireTlab();

  /// Folds this mutator's local state into the collector: retires the
  /// TLAB (the space is linearly walkable again), replays the buffered
  /// barrier records, adds the local counters and profile samples to the
  /// shared totals. Runs before every entry into the collector: a
  /// standalone mutator calls it itself, a group calls it for every thread
  /// (thread-index order) inside each stop.
  void mergeAtSafepoint();

  //===--------------------------------------------------------------------===
  // Multi-mutator mode (runtime/MutatorGroup.h): Group stays null, one
  // branch-not-taken on the allocation and barrier paths, unless
  // MutatorGroup attached this mutator.
  //===--------------------------------------------------------------------===

  friend class MutatorGroup;

  /// The group's safepoint poll on every allocation: parks while another
  /// thread stops the world.
  void pollSafepoint();

  /// Wires this mutator into \p G as thread \p Idx (called by MutatorGroup
  /// once, with the world quiescent).
  void attachToGroup(MutatorGroup &G, unsigned Idx, bool Profiling,
                     bool RecordBarrier);

  /// Thread-local allocation statistics, folded into the shared GcStats at
  /// each merge (thread-index order in a group, so totals are
  /// deterministic).
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
  /// Group members buffer barrier records (generational collectors need
  /// them; semispace has none). A standalone mutator calls the barrier.
  bool RecordLocalBarrier = false;
  Word *TlabNext = nullptr;
  Word *TlabEnd = nullptr;
  Space *TlabSpace = nullptr;
  /// The collector's size bound for the bump path; objects at or over it
  /// (large objects) take the slow path.
  size_t TlabMaxBytes = 0;
  /// Thread-local store buffer (group members): pointer-store slots
  /// recorded here and replayed through the collector's real write barrier
  /// at the next merge.
  std::vector<Word *> LocalSSB;
  /// Thread-local SATB buffer (group members, pause-budget mode):
  /// overwritten pointer values captured while an incremental mark is live,
  /// replayed through Collector::satbRecord at the next merge — before any
  /// collection work moves objects or advances the mark.
  std::vector<Word> LocalSatb;
  LocalAlloc LocalStats;
  /// Per-thread profiler scratch (group members), merged into the shared
  /// profiler at each merge (same scheme as the parallel evacuator's
  /// workers).
  std::unique_ptr<HeapProfiler> LocalProf;
  /// Where the bump records profile samples: the shared profiler for a
  /// standalone mutator, LocalProf in a group, null without profiling.
  HeapProfiler *SiteProf = nullptr;

  /// TLAB grant size: 2048 words = 16 KB, 1/32 of the default nursery.
  static constexpr size_t TlabWords = 2048;

  /// Declared before OwnedGC: the owned collector holds a reference to it.
  MutatorConfig Config;
  /// The process-wide trace tables, looked up once: frame sizes for push
  /// and raise.
  const TraceTableRegistry &Registry = TraceTableRegistry::global();
  ShadowStack Stack;
  RegisterFile Regs;
  /// Generational stack collection state for this stack (§5): the placed
  /// markers and watermarks, and the cached scan of the frames below them.
  /// Per mutator, like the stack: only this thread pops frames and raises,
  /// and the collector re-marks the stack only while the thread is stopped.
  MarkerManager Markers;
  ScanCache Cache;
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
