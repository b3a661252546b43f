//===- runtime/Mutator.cpp - The mutator-facing runtime API ---------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "observe/EventRecorder.h"
#include "observe/TraceExporter.h"
#include "runtime/MutatorGroup.h"
#include "support/Fatal.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

using namespace tilgc;

Mutator::Mutator(const MutatorConfig &Config) : Config(Config) {
  if (Config.EnableProfiling)
    Profiler = std::make_unique<HeapProfiler>();

  TracePath = Config.TraceOutPath;
  if (TracePath.empty())
    if (const char *P = std::getenv("TILGC_TRACE_OUT"))
      TracePath = P;
  if (!TracePath.empty())
    Recorder = std::make_unique<EventRecorder>(Config.TelemetryRingEvents);

  CollectorEnv Env;
  Env.Stack = &Stack;
  Env.Regs = &Regs;
  Env.Profiler = Profiler.get();
  if (Config.Observer)
    Env.Observers.push_back(Config.Observer);
  if (Recorder)
    Env.Observers.push_back(Recorder.get());

  switch (Config.Kind) {
  case CollectorKind::Semispace: {
    SemispaceCollector::Options Opts;
    Opts.Name = Config.Name;
    Opts.BudgetBytes = Config.BudgetBytes;
    Opts.HardLimitBytes = Config.HardLimitBytes;
    Opts.VerifyLevel = Config.VerifyLevel;
    Opts.TargetLiveness = Config.SemispaceTargetLiveness;
    Opts.UseStackMarkers = Config.UseStackMarkers;
    Opts.MarkerPeriod = Config.MarkerPeriod;
    Opts.AdaptiveMarkerPlacement = Config.AdaptiveMarkerPlacement;
    Opts.CompiledScanPlans = Config.CompiledScanPlans;
    Opts.GcThreads = Config.GcThreads;
    OwnedGC = std::make_unique<SemispaceCollector>(Env, Opts);
    break;
  }
  case CollectorKind::Generational: {
    GenerationalCollector::Options Opts;
    Opts.Name = Config.Name;
    Opts.BudgetBytes = Config.BudgetBytes;
    Opts.HardLimitBytes = Config.HardLimitBytes;
    Opts.VerifyLevel = Config.VerifyLevel;
    Opts.NurseryLimitBytes = Config.NurseryLimitBytes;
    Opts.TenuredTargetLiveness = Config.TenuredTargetLiveness;
    Opts.LargeObjectThresholdBytes = Config.LargeObjectThresholdBytes;
    Opts.UseStackMarkers = Config.UseStackMarkers;
    Opts.MarkerPeriod = Config.MarkerPeriod;
    Opts.AdaptiveMarkerPlacement = Config.AdaptiveMarkerPlacement;
    Opts.CompiledScanPlans = Config.CompiledScanPlans;
    Opts.Barrier = Config.Barrier;
    Opts.MajorGc = Config.MajorGc;
    Opts.PromoteAgeThreshold = Config.PromoteAgeThreshold;
    Opts.Pretenure = Config.Pretenure;
    Opts.VerifyReuseInvariant = Config.VerifyReuseInvariant;
    Opts.VerifyHeapAfterGC = Config.VerifyHeapAfterGC;
    Opts.GcThreads = Config.GcThreads;
    Opts.MaxPauseMicros = Config.MaxPauseMicros;
    Opts.GcDeadlineMicros = Config.GcDeadlineMicros;
    Opts.SafepointDeadlineMicros = Config.SafepointDeadlineMicros;
    Opts.WatchdogEscalation = Config.WatchdogEscalation;
    Opts.FailoverStickyLimit = Config.FailoverStickyLimit;
    OwnedGC = std::make_unique<GenerationalCollector>(Env, Opts);
    break;
  }
  }
  GC = OwnedGC.get();
}

Mutator::Mutator(Collector &SharedGC, const MutatorConfig &Config)
    : Config(Config), GC(&SharedGC) {
  // Attached mutators own no collector, profiler, or trace recorder: the
  // group's primary mutator holds all shared machinery. Per-thread profile
  // scratch (LocalProf) is wired later by attachToGroup.
}

Mutator::~Mutator() {
  if (Recorder && !TracePath.empty())
    TraceExporter::writeFile(*Recorder, TracePath, Config.Name);
}

//===----------------------------------------------------------------------===//
// Multi-mutator mode (see runtime/MutatorGroup.h for the protocol).
//===----------------------------------------------------------------------===//

void Mutator::attachToGroup(MutatorGroup &G, unsigned Idx, bool Profiling,
                            bool RecordBarrier) {
  Group = &G;
  GroupIdx = Idx;
  RecordLocalBarrier = RecordBarrier;
  if (Profiling)
    LocalProf = std::make_unique<HeapProfiler>();
  SharedBytesAtMerge = GC->stats().BytesAllocated;
  // Fix the TLAB object-size bound once: for the generational collector
  // this is the large-object threshold, a construction-time constant.
  GC->inlineAllocSpace(TlabMaxBytes);
}

Word *Mutator::allocMulti(ObjectKind Kind, Word Descriptor, uint32_t LenWords,
                          uint32_t PtrMask, uint32_t Site) {
  SafepointCoordinator &SP = Group->safepoint();
  if (TILGC_UNLIKELY(SP.stopRequested()))
    SP.yield(GroupIdx);
  if (TILGC_LIKELY(siteAllowsFast(Site) &&
                   objectTotalBytes(Descriptor) < TlabMaxBytes)) {
    size_t Need = objectTotalWords(Descriptor);
    Word *P = TlabNext;
    if (TILGC_UNLIKELY(!P || Need > static_cast<size_t>(TlabEnd - P)))
      P = refillTlab(Need);
    if (TILGC_LIKELY(P != nullptr)) {
      TlabNext = P + Need;
      P[0] = Descriptor;
      // Birth stamp: shared counter as of the last safepoint merge plus
      // allocation since — monotone per thread, exact in total.
      P[1] = meta::make(
          Site, (SharedBytesAtMerge + LocalStats.BytesAllocated) >> 10);
      uint64_t Bytes = objectTotalBytes(Descriptor);
      LocalStats.BytesAllocated += Bytes;
      LocalStats.ObjectsAllocated += 1;
      if (Kind == ObjectKind::Record)
        LocalStats.RecordBytesAllocated += Bytes;
      else
        LocalStats.ArrayBytesAllocated += Bytes;
      if (LocalProf)
        LocalProf->onAlloc(Site, Bytes);
      std::memset(P + HeaderWords, 0,
                  static_cast<size_t>(LenWords) * sizeof(Word));
      return P + HeaderWords;
    }
  }
  // Pretenured site, large object, or nursery exhausted: stop the world
  // and run the collector's full allocate() (merges first, may collect,
  // reuses the single-mutator OOM ladder unchanged).
  return Group->allocateStopped(GroupIdx, Kind, LenWords, PtrMask, Site);
}

Word *Mutator::refillTlab(size_t NeedWords) {
  retireTlab();
  // Injected refill refusal: the thread behaves exactly as if the nursery
  // had no block to grant and falls to the stop-the-world slow path — the
  // graceful-degradation contract this fault point exists to prove.
  if (TILGC_UNLIKELY(FaultInjector::enabled()) &&
      FaultInjector::global().shouldFire(FaultPoint::TlabRefillFail))
    return nullptr;
  size_t MaxBytes = 0;
  Space *S = GC->tlabAllocSpace(MaxBytes);
  if (TILGC_UNLIKELY(!S))
    return nullptr;
  // Pause-budget cycle live: shrink the grant so refills (the group-mode
  // slice safepoints) come ~8x as often — a full-size grant would quantize
  // the slice schedule to ~32 checks per nursery epoch and let arbitrarily
  // much mark debt pile up between them.
  size_t GrantWords = GC->satbLive() ? TlabWords / 8 : TlabWords;
  Word *Begin = nullptr;
  Word *End = nullptr;
  if (!S->allocateBlock(NeedWords, std::max(NeedWords, GrantWords), Begin, End))
    return nullptr;
  TlabSpace = S;
  TlabNext = Begin;
  TlabEnd = End;
  ++LocalStats.TlabRefills;
  return Begin;
}

void Mutator::retireTlab() {
  if (TlabSpace && TlabNext != TlabEnd &&
      !TlabSpace->returnBlockTail(TlabNext, TlabEnd)) {
    // Another thread allocated a block past ours: plug the tail with a Pad
    // so the space stays linearly walkable (heap audits, death sweeps).
    size_t PadW = static_cast<size_t>(TlabEnd - TlabNext);
    TlabNext[0] = header::makePad(static_cast<uint32_t>(PadW));
    LocalStats.TlabPadBytes += PadW * sizeof(Word);
  }
  TlabSpace = nullptr;
  TlabNext = nullptr;
  TlabEnd = nullptr;
}

void Mutator::collect(bool Major) {
  if (TILGC_UNLIKELY(Group != nullptr)) {
    Group->collectStopped(GroupIdx, Major);
    return;
  }
  GC->collect(Major);
}

void Mutator::runStub(size_t Base) {
  MarkerManager *MM = GC->markerManager();
  assert(MM && "stub key without stack markers");
  Stack.setKey(Base, MM->onStubPop(Base));
}

void Mutator::popFrameUnwinding(size_t Base) {
  if (!Stack.isTop(Base)) {
    assert(std::uncaught_exceptions() > 0 &&
           "popping a frame that is not on top");
    return;
  }
  assert(std::uncaught_exceptions() > 0 &&
         "popping a frame with a live exception handler");
  while (!Handlers.empty() && Handlers.back().FrameBase == Base)
    Handlers.pop_back();
  popTopFrame(Base);
}

void Mutator::raise(Value Exn) {
  // An uncaught ML exception is a workload bug, but one that must die
  // loudly and identifiably in every build mode — the NDEBUG alternative
  // is unwinding through an empty handler stack into memory corruption.
  if (TILGC_UNLIKELY(Handlers.empty()))
    fatalError("uncaught ML exception in mutator '%s': handler stack empty "
               "at raise #%llu with %zu live frames",
               Config.Name.empty() ? "<unnamed>" : Config.Name.c_str(),
               (unsigned long long)(NumRaises + 1), Stack.frameCount());
  HandlerEntry H = Handlers.back();
  Handlers.pop_back();
  ++NumRaises;

  // Size the target frame before touching the marker set (its key slot may
  // hold a stub key if the collector marked it).
  MarkerManager *MM = GC->markerManager();
  uint32_t Key =
      MM ? MM->resolveKey(Stack, H.FrameBase) : Stack.keyOf(H.FrameBase);
  uint32_t NumSlots = TraceTableRegistry::global().lookup(Key).numSlots();

  // Control jumps past the intervening frames without executing their
  // returns: retire jumped-over markers and update the watermark M (§5).
  if (MM)
    MM->onUnwind(H.FrameBase);
  Stack.unwindTo(H.FrameBase, NumSlots);

  throw MLRaise{Exn, H.Id};
}
