//===- runtime/Safepoint.h - Stop-the-world rendezvous ----------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stop-the-world safepoint protocol of the multi-mutator runtime
/// (DESIGN.md "Beyond the paper: multi-mutator runtime").
///
/// Every mutator thread polls a relaxed stop flag on its allocation fast
/// path and parks when a stop is in progress. Polling only at allocations
/// is sound because of the pointer-slot discipline: any allocation may
/// collect, so every live heap pointer is already in a frame slot at every
/// poll — a parked thread's stack is scannable and objects may move under
/// it. The corollary is a liveness rule: a thread that stops allocating
/// must exit (deactivate) for stops to make progress; MutatorGroup::run
/// guarantees this by deactivating each thread as its body returns.
///
/// A thread wanting the world stopped (slow-path allocation, explicit
/// collect) calls stopTheWorld: it parks behind any stop already in
/// progress, claims the stop, raises the flag, waits until every other
/// active thread is parked, runs its operation while holding the
/// coordination mutex, and resumes the world — exception-safely, so a
/// HeapExhausted thrown by the stopped-world operation releases the other
/// threads before it propagates.
///
/// Memory ordering: the mutex is the synchronization spine. Every thread
/// reacquires it when resuming from a park, so anything the stop owner
/// wrote while the world was stopped (space flips, merged statistics,
/// moved objects) happens-before every other thread's next step. The stop
/// flag itself can be relaxed: a thread that misses it simply parks at a
/// later poll, and the owner waits exactly until it does.
///
/// Pause-budget incremental slices (GcOptions::MaxPauseMicros) ride the
/// same protocol: a mark slice is a (short) stopped-world operation run
/// from the allocation slow path, so the recorded pause of any group-mode
/// collection — slice or full — includes the rendezvous wait, i.e. the
/// time-to-safepoint of the slowest running thread. That component is
/// bounded by poll density, not by the budget; bench/pause_budget gates
/// the SLO on the single-mutator configuration for exactly this reason.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_RUNTIME_SAFEPOINT_H
#define TILGC_RUNTIME_SAFEPOINT_H

#include "observe/GcEvent.h"
#include "support/Compiler.h"
#include "support/Watchdog.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace tilgc {

class SafepointCoordinator {
public:
  explicit SafepointCoordinator(unsigned NumThreads)
      : ParkBeginNs(NumThreads, 0) {}

  SafepointCoordinator(const SafepointCoordinator &) = delete;
  SafepointCoordinator &operator=(const SafepointCoordinator &) = delete;

  /// The allocation-path poll: one relaxed load.
  bool stopRequested() const {
    return Requested.load(std::memory_order_relaxed);
  }

  /// Supervises every later rendezvous with \p W: beginStopLocked arms it
  /// before waiting for parks and disarms it once every thread arrived. A
  /// bark carries per-mutator park state (read under try_lock) and is
  /// delivered through \p Dispatch on the supervisor thread. Deadline 0
  /// keeps every rendezvous unsupervised. Call before any thread runs.
  void configureWatchdog(Watchdog *W, uint64_t DeadlineMicros,
                         WatchdogPolicy Policy, Watchdog::DispatchFn Dispatch) {
    WD = W;
    WdDeadlineUs = DeadlineMicros;
    WdPolicy = Policy;
    WdDispatch = std::move(Dispatch);
  }

  /// Declares \p NumThreads threads about to start running (called before
  /// they spawn, so a stop can never race a thread into existence).
  void arm(unsigned NumThreads);

  /// Thread \p Idx has finished running and will poll no more.
  void deactivate(unsigned Idx);

  /// Parks thread \p Idx until no stop is in progress. Call after
  /// stopRequested() returns true (calling it spuriously is harmless).
  /// The armed SafepointStall fault point injects a sleep before the park,
  /// stretching the rendezvous window (torture).
  void yield(unsigned Idx);

  /// Stops the world, runs \p F, resumes the world, returns F's result.
  /// F runs with every other active thread parked and the coordination
  /// mutex held; if F throws, the world resumes before the exception
  /// propagates. Telemetry from the rendezvous (wait window, park spans)
  /// is readable through the accessors below from inside F.
  template <typename Fn>
  auto stopTheWorld(unsigned Idx, Fn &&F) -> decltype(F()) {
    std::unique_lock<std::mutex> L(M);
    beginStopLocked(L, Idx);
    struct ResumeGuard {
      SafepointCoordinator &SP;
      ~ResumeGuard() { SP.resumeLocked(); }
    } G{*this};
    return F();
  }

  // --- Rendezvous telemetry (valid inside the stopped-world operation) --

  uint64_t lastWaitBeginNs() const { return LastWaitBeginNs; }
  uint64_t lastWaitEndNs() const { return LastWaitEndNs; }
  /// Park spans of the threads that waited out this stop (GcWorkerSpan
  /// reused: Index = thread index, Begin = park time, End = rendezvous
  /// completion). Moves the storage out; call at most once per stop.
  std::vector<GcWorkerSpan> takeParkSpans() {
    return std::move(LastParkSpans);
  }

  /// Stops completed since construction (tests).
  uint64_t stops() const { return NumStops; }

private:
  void beginStopLocked(std::unique_lock<std::mutex> &L, unsigned Idx);
  void resumeLocked();
  void armRendezvousWatchdog();
  void fillRendezvousBark(WatchdogBark &B);

  std::mutex M;
  std::condition_variable OwnerCv;  ///< Signaled when parks/exits change.
  std::condition_variable ResumeCv; ///< Signaled when a stop ends.
  std::atomic<bool> Requested{false};
  bool StopInProgress = false;
  unsigned NumActive = 0; ///< Threads running (armed minus deactivated).
  unsigned NumSafe = 0;   ///< Threads parked (yield or queued stoppers).
  /// Per-thread park timestamp; 0 = not parked. A thread that stays parked
  /// across back-to-back stops keeps its original park time — its span
  /// honestly covers the whole parked stretch.
  std::vector<uint64_t> ParkBeginNs;

  uint64_t LastWaitBeginNs = 0;
  uint64_t LastWaitEndNs = 0;
  std::vector<GcWorkerSpan> LastParkSpans;
  uint64_t NumStops = 0;

  // Rendezvous watchdog (null/0 = unsupervised; see configureWatchdog).
  Watchdog *WD = nullptr;
  uint64_t WdDeadlineUs = 0;
  WatchdogPolicy WdPolicy = WatchdogPolicy::Report;
  Watchdog::DispatchFn WdDispatch;
};

} // namespace tilgc

#endif // TILGC_RUNTIME_SAFEPOINT_H
