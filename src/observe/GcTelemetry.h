//===- observe/GcTelemetry.h - Per-collector telemetry plane ----*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GcTelemetry is the per-collector hub of the observation plane: it owns
/// the always-on pause histograms, assembles the in-flight GcEvent while a
/// collection runs, and dispatches registered GcObservers.
///
/// Cost discipline (mirrors support/FaultInjector.h):
///  - Nothing on the allocation path, ever.
///  - Per collection with no observer: two clock reads plus one
///    histogram increment (the bench tables report pause percentiles
///    unconditionally, so histograms cannot be gated), and one relaxed
///    load deciding that everything else — phase stamps, event assembly,
///    worker spans, callback dispatch — is skipped.
///  - Phase scopes and worker stamps check `armed()` (relaxed) before
///    touching the clock.
///
/// Threading: begin/end/phase/dispatch run only on the thread driving the
/// collection. Parallel mark workers stamp their own spans into
/// worker-local storage; the controlling thread merges them after the
/// pool joins, so observers never run concurrently with workers.
/// Collections never nest (a pressure-chained major runs strictly before
/// or after the minor's event window), so one in-flight event suffices.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_OBSERVE_GCTELEMETRY_H
#define TILGC_OBSERVE_GCTELEMETRY_H

#include "observe/GcEvent.h"
#include "observe/GcObserver.h"
#include "support/Watchdog.h"
#include "observe/PauseHistogram.h"
#include "support/Compiler.h"
#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace tilgc {

class GcTelemetry {
public:
  GcTelemetry() { Current.WorkerSpans.reserve(8); }

  /// Monotonic nanoseconds since the first clock read in this process:
  /// the same clock as every Timer (support/Timer.h), so one stamp can
  /// feed both. Static so evacuation workers can stamp spans without a
  /// telemetry reference.
  static uint64_t nowNs() { return monotonicNs(); }

  void addObserver(GcObserver *O) {
    if (!O)
      return;
    Observers.push_back(O);
    Armed.store(true, std::memory_order_relaxed);
  }

  /// True when at least one observer is registered. Relaxed: arming
  /// happens before the mutator runs; workers only ever see a stable
  /// value during a collection.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  // --- Collection lifecycle --------------------------------------------

  /// Open the event for collection number Seq (== GcStats::NumGC after the
  /// increment), beginning at \p NowNs. Always call it; the disarmed path
  /// only notes Gen and the begin timestamp for the histogram.
  void beginCollection(GcGeneration Gen, GcTrigger Trigger, uint64_t Seq,
                       uint64_t NowNs = nowNs());

  /// Close the event at \p NowNs: computes the pause, feeds the
  /// per-generation histogram, and (armed) dispatches onGcEnd.
  void endCollection(uint64_t NowNs = nowNs());

  /// The in-flight event, or nullptr outside a collection or when
  /// disarmed. Collectors use this to fill counters without re-checking
  /// armed() at every site.
  GcEvent *currentEvent() {
    return InCollection && armed() ? &Current : nullptr;
  }

  // --- Phase accounting -------------------------------------------------

  /// Phase transitions read the clock only when armed.
  void enterPhase(GcPhase P) { enterPhase(P, stampIfArmed()); }
  void exitPhase(GcPhase P) { exitPhase(P, stampIfArmed()); }
  /// Phase transitions at a stamp the caller already read.
  void enterPhase(GcPhase P, uint64_t NowNs) {
    publishPhase(static_cast<uint8_t>(P));
    if (TILGC_UNLIKELY(armed()) && InCollection)
      enterPhaseSlow(P, NowNs);
  }
  void exitPhase(GcPhase P, uint64_t NowNs) {
    publishPhase(255);
    if (TILGC_UNLIKELY(armed()) && InCollection)
      exitPhaseSlow(P, NowNs);
  }

  /// RAII phase scope; no-op when disarmed.
  class PhaseScope {
  public:
    PhaseScope(GcTelemetry &T, GcPhase P) : Tel(T), Phase(P) {
      Tel.enterPhase(Phase);
    }
    ~PhaseScope() { Tel.exitPhase(Phase); }
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    GcTelemetry &Tel;
    GcPhase Phase;
  };

  // --- Out-of-band notifications ---------------------------------------

  /// Dispatch a pretenuring-flip audit record (armed only; the caller
  /// fills the evidence).
  void notePretenureDecision(const PretenureAudit &A);

  /// Report a worker fault for the in-flight (or just-finished) event.
  /// Called from the controlling thread after the pool joined.
  void noteWorkerFault(uint32_t WorkerIndex);

  /// Record a completed stop-the-world rendezvous (multi-mutator runtime).
  /// Called by the stopping thread after every other mutator parked and
  /// before the stopped-world operation runs. Feeds the always-on
  /// safepoint-wait histogram; if a collection follows before
  /// clearPendingSafepoint(), its event absorbs the wait as the
  /// SafepointWait phase (with BeginNs extended back to WaitBeginNs so the
  /// phase-total <= pause invariant holds) and ParkSpans become
  /// GcEvent::MutatorSpans. Park spans are only kept while armed.
  void noteSafepointWait(uint64_t WaitBeginNs, uint64_t WaitEndNs,
                         std::vector<GcWorkerSpan> ParkSpans);

  /// Drop a pending safepoint record that no collection consumed (the
  /// stopped-world operation was a plain allocation, not a GC).
  void clearPendingSafepoint();

  /// Publish the in-flight GcPhase through a relaxed atomic the watchdog
  /// supervisor may read mid-collection. Enabled once, before any
  /// collection, when a GC deadline is configured; costs one predicted
  /// branch per phase transition when off.
  void enableLivePhase() { LivePhasePub = true; }
  /// Raw ordinal of the executing phase (255 = none). Safe from any
  /// thread; approximate by design — sibling scopes overwrite each other.
  uint8_t livePhaseOrdinal() const {
    return LivePhase.load(std::memory_order_relaxed);
  }

  /// Fan a watchdog bark out to every observer. Runs on the SUPERVISOR
  /// thread — the one documented exception to the collecting-thread
  /// dispatch rule (see GcObserver.h). Observers is append-only and fully
  /// built before mutators start, so unsynchronized iteration is safe.
  void noteWatchdogBark(const WatchdogBark &B);

  // --- Always-on aggregates --------------------------------------------

  const PauseHistogram &histogram(GcGeneration G) const {
    return G == GcGeneration::Minor ? MinorPauses : MajorPauses;
  }
  PauseHistogram &histogram(GcGeneration G) {
    return G == GcGeneration::Minor ? MinorPauses : MajorPauses;
  }

  /// Stop-the-world rendezvous waits (multi-mutator runtime; empty in
  /// single-mutator mode). Always on, like the pause histograms.
  const PauseHistogram &safepointHistogram() const { return SafepointWaits; }

private:
  uint64_t stampIfArmed() const {
    return TILGC_UNLIKELY(armed()) && InCollection ? nowNs() : 0;
  }
  void publishPhase(uint8_t Ordinal) {
    if (TILGC_UNLIKELY(LivePhasePub))
      LivePhase.store(Ordinal, std::memory_order_relaxed);
  }
  void enterPhaseSlow(GcPhase P, uint64_t NowNs);
  void exitPhaseSlow(GcPhase P, uint64_t NowNs);
  void consumePendingSafepoint();

  std::atomic<bool> Armed{false};
  std::vector<GcObserver *> Observers;

  /// Live-phase publication for watchdog barks (see enableLivePhase).
  bool LivePhasePub = false;
  std::atomic<uint8_t> LivePhase{255};

  bool InCollection = false;
  GcEvent Current;
  uint64_t PhaseEnterNs[NumGcPhases] = {};

  // Safepoint rendezvous waiting to be claimed by the next collection.
  bool PendingSafepoint = false;
  uint64_t PendingWaitBeginNs = 0;
  uint64_t PendingWaitEndNs = 0;
  std::vector<GcWorkerSpan> PendingMutatorSpans;

  PauseHistogram MinorPauses;
  PauseHistogram MajorPauses;
  PauseHistogram SafepointWaits;
};

} // namespace tilgc

#endif // TILGC_OBSERVE_GCTELEMETRY_H
