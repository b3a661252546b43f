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
#include "support/Table.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

using namespace tilgc;

static const char *nameOf(const MutatorConfig &C) {
  return C.Name.empty() ? "<unnamed>" : C.Name.c_str();
}

std::string tilgc::validate(const MutatorConfig &Config, unsigned Mutators) {
  if (Mutators == 0)
    return "mutator group needs at least one mutator";
  if (Config.UseStackMarkers && Config.MarkerPeriod == 0)
    return formatString("%s: stack markers need MarkerPeriod >= 1",
                        nameOf(Config));
  if (Config.MaxPauseMicros > 0 &&
      (Config.Kind != CollectorKind::Generational ||
       Config.MajorGc != MajorGcKind::MarkCompact))
    return formatString("%s: MaxPauseMicros needs the generational "
                        "collector with MajorGc = MarkCompact",
                        nameOf(Config));
  return std::string();
}

Mutator::Mutator(const MutatorConfig &Config) : Config(Config) {
  if (std::string Error = validate(Config, 1); !Error.empty())
    fatalError("%s", Error.c_str());
  if (Config.EnableProfiling)
    Profiler = std::make_unique<HeapProfiler>();

  TracePath = Config.TraceOutPath;
  if (TracePath.empty())
    if (const char *P = std::getenv("TILGC_TRACE_OUT"))
      TracePath = P;
  if (!TracePath.empty())
    Recorder = std::make_unique<EventRecorder>(Config.TelemetryRingEvents);

  CollectorEnv Env;
  Env.Primary = rootContext();
  Env.Profiler = Profiler.get();
  if (Config.Observer)
    Env.Observers.push_back(Config.Observer);
  if (Recorder)
    Env.Observers.push_back(Recorder.get());

  // The collector keeps a reference to its options: hand it the member
  // copy, which outlives it, not the caller's argument.
  switch (Config.Kind) {
  case CollectorKind::Semispace:
    OwnedGC = std::make_unique<SemispaceCollector>(Env, this->Config);
    break;
  case CollectorKind::Generational:
    OwnedGC = std::make_unique<GenerationalCollector>(Env, this->Config);
    break;
  }
  GC = OwnedGC.get();
  SiteProf = Profiler.get();
  TlabMaxBytes = GC->inlineAllocMaxBytes();
}

Mutator::Mutator(Collector &SharedGC, const MutatorConfig &Config)
    : Config(Config), GC(&SharedGC) {
  // Attached mutators own no collector, profiler, or trace recorder: the
  // group's primary mutator holds all shared machinery. Per-thread profile
  // scratch (LocalProf) is wired later by attachToGroup.
  TlabMaxBytes = GC->inlineAllocMaxBytes();
}

Mutator::~Mutator() {
  if (Recorder && !TracePath.empty())
    TraceExporter::writeFile(*Recorder, TracePath, Config.Name);
}

//===----------------------------------------------------------------------===//
// Allocation and the merge (see the allocation section of Mutator.h).
//===----------------------------------------------------------------------===//

Word *Mutator::allocSlow(ObjectKind Kind, Word Descriptor, uint32_t LenWords,
                         uint32_t PtrMask, uint32_t Site) {
  if (siteAllowsFast(Site) && objectTotalBytes(Descriptor) < TlabMaxBytes)
    if (Word *P = refillTlab(objectTotalWords(Descriptor)))
      return bumpTlab(P, Kind, Descriptor, LenWords, Site);
  // Pretenured site, large object, slice due or space exhausted: the
  // collector's full allocate() (may run a slice, collect, or climb the
  // OOM ladder). A group stops the world, which merges every thread.
  if (Group != nullptr)
    return Group->allocateStopped(GroupIdx, Kind, LenWords, PtrMask, Site);
  mergeAtSafepoint();
  return GC->allocate(Kind, LenWords, PtrMask, Site);
}

Word *Mutator::refillTlab(size_t NeedWords) {
  // The cursor sits at or past the slice fence: a slice is due, and the
  // slow path runs it.
  if (TlabNext >= GC->inlineFence())
    return nullptr;
  retireTlab();
  // Injected refill refusal: the mutator behaves exactly as if the space
  // had no block to grant and falls to the slow path — the
  // graceful-degradation contract this fault point exists to prove.
  if (TILGC_UNLIKELY(FaultInjector::enabled()) &&
      FaultInjector::global().shouldFire(FaultPoint::TlabRefillFail))
    return nullptr;
  Space *S = GC->inlineAllocSpace();
  Word *Begin = nullptr;
  Word *End = nullptr;
  if (!S->allocateBlock(NeedWords, std::max(NeedWords, TlabWords), Begin, End))
    return nullptr;
  TlabSpace = S;
  TlabNext = Begin;
  TlabEnd = End;
  // In a group, peers may have carved the space past the fence: the slow
  // path that runs the due slice retires this block again.
  if (Begin >= GC->inlineFence())
    return nullptr;
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

void Mutator::mergeAtSafepoint() {
  retireTlab();
  for (Word *Slot : LocalSSB)
    GC->writeBarrier(Slot);
  LocalSSB.clear();
  // Pause-budget SATB backlog: replayed before the collector can run a
  // slice or finish the cycle, so every overwritten snapshot edge is
  // seeded ahead of any mark advance.
  for (Word OldBits : LocalSatb)
    GC->satbRecord(OldBits);
  LocalSatb.clear();
  GcStats &S = GC->stats();
  S.BytesAllocated += LocalStats.BytesAllocated;
  S.ObjectsAllocated += LocalStats.ObjectsAllocated;
  S.RecordBytesAllocated += LocalStats.RecordBytesAllocated;
  S.ArrayBytesAllocated += LocalStats.ArrayBytesAllocated;
  S.TlabRefills += LocalStats.TlabRefills;
  S.TlabPadBytes += LocalStats.TlabPadBytes;
  LocalStats = LocalAlloc{};
  if (LocalProf) {
    Group->profiler()->mergeFrom(*LocalProf);
    LocalProf->reset();
  }
}

void Mutator::collect(bool Major) {
  if (TILGC_UNLIKELY(Group != nullptr)) {
    Group->collectStopped(GroupIdx, Major);
    return;
  }
  mergeAtSafepoint();
  GC->collect(Major);
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
  SiteProf = LocalProf.get();
}

void Mutator::pollSafepoint() {
  SafepointCoordinator &SP = Group->safepoint();
  if (TILGC_UNLIKELY(SP.stopRequested()))
    SP.yield(GroupIdx);
}

void Mutator::runStub(size_t Base) {
  assert(Config.UseStackMarkers && "stub key without stack markers");
  Stack.setKey(Base, Markers.onStubPop(Base));
}

void Mutator::popFrameUnwinding(size_t Base) {
  if (!Stack.isTop(Base)) {
    if (TILGC_UNLIKELY(Base < Stack.topSlot()))
      fatalError("mutator '%s' popped the frame at slot %zu out of order: "
                 "it is not on top (top frame at slot %zu, %zu frames) and "
                 "no raise cut it",
                 nameOf(Config), Base, Stack.empty() ? size_t{0} : Stack.topFrameBase(),
                 Stack.frameCount());
    return;
  }
  assert(std::uncaught_exceptions() > 0 &&
         "popping a frame with a live exception handler");
  while (!Handlers.empty() && Handlers.back().FrameBase == Base)
    Handlers.pop_back();
  popTopFrame(Base);
}

MLRaise Mutator::raise(Value Exn) {
  // An uncaught ML exception is a workload bug, but one that must die
  // loudly and identifiably in every build mode — the NDEBUG alternative
  // is unwinding through an empty handler stack into memory corruption.
  if (TILGC_UNLIKELY(Handlers.empty()))
    fatalError("uncaught ML exception in mutator '%s': handler stack empty "
               "at raise #%llu with %zu live frames",
               nameOf(Config), (unsigned long long)(NumRaises + 1),
               Stack.frameCount());
  HandlerEntry H = Handlers.back();
  Handlers.pop_back();
  ++NumRaises;

  // Size the target frame before touching the marker set (its key slot may
  // hold a stub key if the collector marked it).
  MarkerManager *MM = markerManager();
  uint32_t Key =
      MM ? MM->resolveKey(Stack, H.FrameBase) : Stack.keyOf(H.FrameBase);
  uint32_t NumSlots = Registry.frameSize(Key);

  // Control jumps past the intervening frames without executing their
  // returns: retire jumped-over markers and update the watermark M (§5).
  if (MM)
    MM->onUnwind(H.FrameBase);
  Stack.unwindTo(H.FrameBase, NumSlots);

  return MLRaise{Exn, H.Id};
}

void Mutator::fatalHandlerMismatch(uint64_t Got, uint64_t Want) const {
  fatalError("mutator '%s': a raise for handler #%llu reached the site of "
             "handler #%llu",
             nameOf(Config), (unsigned long long)Got, (unsigned long long)Want);
}
