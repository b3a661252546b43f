//===- observe/GcTelemetry.cpp - Per-collector telemetry plane ------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "observe/GcTelemetry.h"

namespace tilgc {

const char *gcPhaseName(GcPhase P) {
  switch (P) {
  case GcPhase::StackScan:
    return "stack-scan";
  case GcPhase::SsbFilter:
    return "ssb-filter";
  case GcPhase::CardScan:
    return "card-scan";
  case GcPhase::RootHandoff:
    return "root-handoff";
  case GcPhase::Copy:
    return "copy";
  case GcPhase::Resize:
    return "resize";
  case GcPhase::Mark:
    return "mark";
  case GcPhase::Fixup:
    return "fixup";
  case GcPhase::Compact:
    return "compact";
  case GcPhase::SafepointWait:
    return "safepoint-wait";
  case GcPhase::IncrementalMark:
    return "incremental-mark";
  }
  return "?";
}

const char *gcTriggerName(GcTrigger T) {
  switch (T) {
  case GcTrigger::Explicit:
    return "explicit";
  case GcTrigger::NurseryFull:
    return "nursery-full";
  case GcTrigger::TenuredPressure:
    return "tenured-pressure";
  case GcTrigger::PretenuredSiteFull:
    return "pretenured-site-full";
  case GcTrigger::LargeObjectPressure:
    return "large-object-pressure";
  case GcTrigger::OomLadder:
    return "oom-ladder";
  case GcTrigger::SpaceFull:
    return "space-full";
  }
  return "?";
}

const char *gcGenerationName(GcGeneration G) {
  return G == GcGeneration::Minor ? "minor" : "major";
}

void GcTelemetry::beginCollection(GcGeneration Gen, GcTrigger Trigger,
                                  uint64_t Seq, uint64_t NowNs) {
  InCollection = true;
  if (TILGC_UNLIKELY(armed())) {
    // Reset the event in place, keeping the span allocations.
    Current.WorkerSpans.clear();
    std::vector<GcWorkerSpan> Spans = std::move(Current.WorkerSpans);
    Current.MutatorSpans.clear();
    std::vector<GcWorkerSpan> MSpans = std::move(Current.MutatorSpans);
    Current = GcEvent();
    Current.WorkerSpans = std::move(Spans);
    Current.MutatorSpans = std::move(MSpans);
    Current.Seq = Seq;
    Current.Gen = Gen;
    Current.Trigger = Trigger;
    Current.BeginNs = NowNs;
    for (uint64_t &E : PhaseEnterNs)
      E = 0;
    consumePendingSafepoint();
    for (GcObserver *O : Observers)
      O->onGcBegin(Current);
  } else {
    // Disarmed: only what the always-on histogram needs.
    Current.Gen = Gen;
    Current.BeginNs = NowNs;
    consumePendingSafepoint();
  }
}

void GcTelemetry::consumePendingSafepoint() {
  if (TILGC_LIKELY(!PendingSafepoint))
    return;
  PendingSafepoint = false;
  // Fold the rendezvous into the pause window: the mutators were stopped
  // from WaitBeginNs, so the collection's observable pause starts there.
  // This also keeps phaseTotalNs() <= PauseNs with the new phase counted.
  if (PendingWaitBeginNs != 0 && PendingWaitBeginNs < Current.BeginNs)
    Current.BeginNs = PendingWaitBeginNs;
  if (armed()) {
    unsigned I = static_cast<unsigned>(GcPhase::SafepointWait);
    Current.PhaseBeginNs[I] = PendingWaitBeginNs;
    Current.PhaseDurNs[I] = PendingWaitEndNs >= PendingWaitBeginNs
                                ? PendingWaitEndNs - PendingWaitBeginNs
                                : 0;
    Current.MutatorSpans = std::move(PendingMutatorSpans);
  }
  PendingMutatorSpans.clear();
}

void GcTelemetry::endCollection(uint64_t NowNs) {
  if (!InCollection)
    return;
  Current.EndNs = NowNs;
  Current.PauseNs =
      Current.EndNs >= Current.BeginNs ? Current.EndNs - Current.BeginNs : 0;
  histogram(Current.Gen).record(Current.PauseNs);
  if (TILGC_UNLIKELY(armed()))
    for (GcObserver *O : Observers)
      O->onGcEnd(Current);
  InCollection = false;
}

void GcTelemetry::enterPhaseSlow(GcPhase P, uint64_t NowNs) {
  unsigned I = static_cast<unsigned>(P);
  PhaseEnterNs[I] = NowNs;
  if (Current.PhaseBeginNs[I] == 0)
    Current.PhaseBeginNs[I] = NowNs;
}

void GcTelemetry::exitPhaseSlow(GcPhase P, uint64_t NowNs) {
  unsigned I = static_cast<unsigned>(P);
  if (PhaseEnterNs[I] == 0)
    return; // Exit without matching enter (armed mid-phase): ignore.
  Current.PhaseDurNs[I] += NowNs - PhaseEnterNs[I];
  PhaseEnterNs[I] = 0;
}

void GcTelemetry::notePretenureDecision(const PretenureAudit &A) {
  if (TILGC_UNLIKELY(armed()))
    for (GcObserver *O : Observers)
      O->onPretenureDecision(A);
}

void GcTelemetry::noteWorkerFault(uint32_t WorkerIndex) {
  if (TILGC_UNLIKELY(armed()))
    for (GcObserver *O : Observers)
      O->onWorkerFault(Current.Seq, WorkerIndex);
}

void GcTelemetry::noteWatchdogBark(const WatchdogBark &B) {
  // Supervisor-thread dispatch: reading Current or the phase stamps here
  // would race the collecting thread, so only the bark itself travels.
  if (TILGC_UNLIKELY(armed()))
    for (GcObserver *O : Observers)
      O->onWatchdogBark(B);
}

void GcTelemetry::noteSafepointWait(uint64_t WaitBeginNs, uint64_t WaitEndNs,
                                    std::vector<GcWorkerSpan> ParkSpans) {
  SafepointWaits.record(WaitEndNs >= WaitBeginNs ? WaitEndNs - WaitBeginNs
                                                 : 0);
  PendingSafepoint = true;
  PendingWaitBeginNs = WaitBeginNs;
  PendingWaitEndNs = WaitEndNs;
  if (TILGC_UNLIKELY(armed()))
    PendingMutatorSpans = std::move(ParkSpans);
}

void GcTelemetry::clearPendingSafepoint() {
  PendingSafepoint = false;
  PendingMutatorSpans.clear();
}

} // namespace tilgc
