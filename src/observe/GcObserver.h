//===- observe/GcObserver.h - Telemetry hook interface ----------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observer interface of the telemetry plane. Register one via
/// MutatorConfig::Observer (or CollectorEnv::Observers when driving a
/// collector directly); all callbacks run on the thread that triggered the
/// collection — never on evacuation workers — so implementations need no
/// internal locking against the GC itself.
///
/// Callback timing:
///  - onGcBegin: after the trigger is classified, before any phase runs.
///    The event carries Seq/Gen/Trigger; counters are not yet final.
///  - onGcEnd: after the collection completed (including resize); the
///    event is complete. The reference is only valid for the duration of
///    the call.
///  - onPretenureDecision: when a profile-driven PretenureFlag flips at
///    collector construction (§6 profile application), once per site,
///    with the promotion-rate evidence that justified it.
///  - onWorkerFault: after a parallel-mark worker faulted and the mark
///    completed via serial recovery — reported from the controlling
///    thread once the pool has joined, one call per faulted worker.
///  - onWatchdogBark: THE exception to the threading rule above — it runs
///    on the watchdog's supervisor thread while the stalled window owner
///    is still inside the window. Implementations must be safe against
///    concurrent collection work: touch only your own synchronized state
///    (EventRecorder takes a mutex) and return quickly.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_OBSERVE_GCOBSERVER_H
#define TILGC_OBSERVE_GCOBSERVER_H

#include "observe/GcEvent.h"
#include "support/Watchdog.h"

#include <cstdint>

namespace tilgc {

/// Evidence behind one pretenuring-decision flip, mirrored from the
/// profiler's per-site statistics at the moment the flag changed.
struct PretenureAudit {
  uint32_t SiteId = 0;
  bool Pretenured = false;    ///< New flag value (true = allocate tenured).
  bool EliminateScan = false; ///< §7.2 scan elimination also granted.
  double OldFraction = 0.0;   ///< Promotion rate that drove the decision.
  double Threshold = 0.0;     ///< Configured OldFraction cut-off.
  uint64_t AllocBytes = 0;    ///< Profiled bytes allocated at the site.
  uint64_t AllocCount = 0;    ///< Profiled allocations at the site.
  uint64_t SurvivedFirstGC = 0; ///< Bytes that survived their first GC.
};

class GcObserver {
public:
  virtual ~GcObserver() = default;

  virtual void onGcBegin(const GcEvent &E) { (void)E; }
  virtual void onGcEnd(const GcEvent &E) { (void)E; }
  virtual void onPretenureDecision(const PretenureAudit &A) { (void)A; }
  /// WorkerIndex faulted during collection Seq; the collection still
  /// completed (serial recovery).
  virtual void onWorkerFault(uint64_t Seq, uint32_t WorkerIndex) {
    (void)Seq;
    (void)WorkerIndex;
  }
  /// A supervised window (GC cycle or safepoint rendezvous) outlived its
  /// deadline. Runs on the SUPERVISOR thread (see file comment); the
  /// reference is only valid for the duration of the call.
  virtual void onWatchdogBark(const WatchdogBark &B) { (void)B; }
};

} // namespace tilgc

#endif // TILGC_OBSERVE_GCOBSERVER_H
