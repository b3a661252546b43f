//===- gc/Collector.cpp - Collector interface ------------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include "gc/HeapError.h"
#include "profile/AllocSite.h"
#include "support/FaultInjector.h"
#include "support/Table.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

using namespace tilgc;

Collector::Collector(const CollectorEnv &Env, const GcOptions &Opts)
    : Env(Env), Opts(Opts) {
  for (GcObserver *O : Env.Observers)
    Tel.addObserver(O);
  if (Opts.GcThreads > 1)
    Pool = std::make_unique<WorkerPool>(Opts.GcThreads);
  // Root-side containers live for the collector's lifetime; reserving here
  // means steady-state collections never grow them.
  Roots.reserve(1024);
  registerContext(Env.Primary);
}

// Out-of-line virtual anchor.
Collector::~Collector() = default;

void Collector::registerContext(const MutatorContext &C) {
  assert(C.Stack && C.Regs && "a mutator context needs stack and registers");
  assert((C.Markers != nullptr) == Opts.UseStackMarkers &&
         (C.Cache != nullptr) == Opts.UseStackMarkers &&
         "a context has markers and a scan cache exactly when markers are on");
  if (C.Markers) {
    C.Markers->setPeriod(Opts.MarkerPeriod);
    C.Markers->setAdaptive(Opts.AdaptiveMarkerPlacement);
    C.Cache->reserve(256, 1024);
  }
  Contexts.push_back(C);
}

void Collector::scanRoots() {
  TimerScope T(Stats.StackTime);
  GcTelemetry::PhaseScope PS(Tel, GcPhase::StackScan);
  ScanStats S;
  Roots.clear();
  for (const MutatorContext &C : Contexts)
    StackScanner::scan(*C.Stack, *C.Regs, C.Markers, C.Cache, Roots, S,
                       Opts.CompiledScanPlans);
  Stats.FramesScanned += S.FramesScanned;
  Stats.FramesReused += S.FramesReused;
  Stats.SlotsVisited += S.SlotsVisited;
  Stats.PlanWordsScanned += S.PlanWordsScanned;
  if (GcEvent *Ev = Tel.currentEvent()) {
    Ev->FramesScanned = S.FramesScanned;
    Ev->FramesReused = S.FramesReused;
  }
}

uint64_t Collector::evacuate(const Evacuator::Config &C, RootSpans Spans) {
  Evacuator E(C);
  {
    TimerScope T(Stats.StackTime);
    GcTelemetry::PhaseScope PS(Tel, GcPhase::RootHandoff);
    for (const std::vector<Word *> *Span : Spans)
      if (Span)
        E.forwardRootSpan(Span->data(), Span->size());
  }
  {
    TimerScope T(Stats.CopyTime);
    GcTelemetry::PhaseScope PS(Tel, GcPhase::Copy);
    E.drain();
  }
  Stats.BytesCopied += E.bytesCopied();
  Stats.ObjectsCopied += E.objectsCopied();
  Stats.CrossingMapUpdates += E.crossingMapUpdates();
  if (GcEvent *Ev = Tel.currentEvent()) {
    Ev->BytesCopied = E.bytesCopied();
    Ev->ObjectsCopied = E.objectsCopied();
  }
  return E.bytesCopied();
}

bool Collector::shouldPoison() const {
  if (Opts.VerifyLevel >= 3)
    return true;
  return TILGC_UNLIKELY(FaultInjector::enabled()) &&
         FaultInjector::global().shouldFire(FaultPoint::FromSpacePoison);
}

void Collector::maybeVerifyHeap(const char *Kind) const {
  if (TILGC_LIKELY(Opts.VerifyLevel < 1))
    return;
  std::string Error;
  if (!verifyHeapNow(Error))
    fatalError("heap verification failed after %s GC #%llu: %s", Kind,
               (unsigned long long)Stats.NumGC, Error.c_str());
}

std::string Collector::heapStateDump() const {
  std::string Out;
  Out += "=== tilgc heap state ===\n";
  Out += formatString(
      "collections: %llu (%llu major) | allocated %llu bytes in %llu objects "
      "| budget overruns %llu\n",
      (unsigned long long)Stats.NumGC, (unsigned long long)Stats.NumMajorGC,
      (unsigned long long)Stats.BytesAllocated,
      (unsigned long long)Stats.ObjectsAllocated,
      (unsigned long long)Stats.BudgetOverruns);
  appendHeapState(Out);

  // Per-site live bytes, from object metadata — available even without the
  // profiler enabled.
  struct SiteLive {
    uint32_t Site;
    uint64_t Bytes;
    uint64_t Objects;
  };
  std::unordered_map<uint32_t, SiteLive> BySite;
  forEachLiveObject([&](Word *Payload, Word Descriptor) {
    uint32_t Site = meta::site(metaOf(Payload));
    SiteLive &S = BySite.try_emplace(Site, SiteLive{Site, 0, 0}).first->second;
    S.Bytes += objectTotalBytes(Descriptor);
    S.Objects += 1;
  });
  std::vector<SiteLive> Sites;
  Sites.reserve(BySite.size());
  for (const auto &KV : BySite)
    Sites.push_back(KV.second);
  std::sort(Sites.begin(), Sites.end(),
            [](const SiteLive &A, const SiteLive &B) {
              return A.Bytes != B.Bytes ? A.Bytes > B.Bytes : A.Site < B.Site;
            });
  Out += "top live allocation sites:\n";
  size_t Shown = 0;
  for (const SiteLive &S : Sites) {
    if (Shown++ == 8) {
      Out += formatString("  ... and %zu more sites\n", Sites.size() - 8);
      break;
    }
    Out += formatString(
        "  %-28s %10llu bytes in %llu objects\n",
        AllocSiteRegistry::global().nameOrUnknown(S.Site).c_str(),
        (unsigned long long)S.Bytes, (unsigned long long)S.Objects);
  }
  if (Sites.empty())
    Out += "  (no live objects)\n";
  return Out;
}

void Collector::throwHeapExhausted(uint64_t RequestedBytes, OomStage Stage) {
  ++Stats.HeapExhaustedThrows;
  throw HeapExhausted(RequestedBytes, Stage, heapStateDump());
}
