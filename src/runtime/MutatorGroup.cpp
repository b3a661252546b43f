//===- runtime/MutatorGroup.cpp - N mutators, one heap --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/MutatorGroup.h"

#include "observe/GcTelemetry.h"
#include "support/Fatal.h"

#include <exception>
#include <thread>

using namespace tilgc;

MutatorGroup::MutatorGroup(const MutatorConfig &Config, unsigned NumMutators)
    : SP(NumMutators) {
  if (std::string Error = validate(Config, NumMutators); !Error.empty())
    fatalError("%s", Error.c_str());

  Muts.reserve(NumMutators);
  Muts.push_back(std::make_unique<Mutator>(Config));
  Collector &C = Muts[0]->collector();
  for (unsigned I = 1; I < NumMutators; ++I) {
    Muts.push_back(std::make_unique<Mutator>(C, Config));
    C.registerContext(Muts[I]->rootContext());
  }

  bool RecordBarrier = Config.Kind == CollectorKind::Generational;
  for (unsigned I = 0; I < NumMutators; ++I)
    Muts[I]->attachToGroup(*this, I, Config.EnableProfiling, RecordBarrier);

  if (Config.SafepointDeadlineMicros) {
    // Barks fan out through the shared collector's telemetry plane so one
    // observer registration sees GC events, GC barks, and rendezvous barks
    // alike. Dispatch runs on the supervisor thread; noteWatchdogBark is
    // safe there (see GcObserver.h).
    GcTelemetry *T = &C.telemetry();
    SP.configureWatchdog(&SafepointWD, Config.SafepointDeadlineMicros,
                         Config.WatchdogEscalation,
                         [T](const WatchdogBark &B) { T->noteWatchdogBark(B); });
  }
}

MutatorGroup::~MutatorGroup() = default;

void MutatorGroup::run(const std::function<void(Mutator &, unsigned)> &Body) {
  unsigned N = size();
  SP.arm(N);
  std::vector<std::exception_ptr> Errors(N);
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this, &Body, &Errors, I] {
      try {
        Body(*Muts[I], I);
      } catch (...) {
        Errors[I] = std::current_exception();
      }
      // Liveness: a thread that will poll no more must deactivate, or a
      // stopper would wait for it forever.
      SP.deactivate(I);
    });
  for (std::thread &T : Threads)
    T.join();
  // World quiescent: fold the tails so callers see exact final totals and
  // a linearly walkable heap (retired TLABs), exactly as after a stop.
  mergeAtSafepoint();
  for (std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
}

Word *MutatorGroup::allocateStopped(unsigned Idx, ObjectKind Kind,
                                    uint32_t LenWords, uint32_t PtrMask,
                                    uint32_t Site) {
  return SP.stopTheWorld(Idx, [&]() -> Word * {
    beginStopBookkeeping();
    EndGuard EG{*this};
    return collector().allocate(Kind, LenWords, PtrMask, Site);
  });
}

void MutatorGroup::collectStopped(unsigned Idx, bool Major) {
  SP.stopTheWorld(Idx, [&] {
    beginStopBookkeeping();
    EndGuard EG{*this};
    collector().collect(Major);
  });
}

void MutatorGroup::beginStopBookkeeping() {
  GcStats &S = gcStats();
  ++S.SafepointStops;
  S.SafepointWaitNs += SP.lastWaitEndNs() - SP.lastWaitBeginNs();
  // Stage the rendezvous for the event plane: if the stopped operation
  // collects, its event absorbs the wait as a SafepointWait phase (and the
  // per-mutator park spans); if not, endStopBookkeeping drops the record.
  collector().telemetry().noteSafepointWait(
      SP.lastWaitBeginNs(), SP.lastWaitEndNs(), SP.takeParkSpans());
  mergeAtSafepoint();
}

void MutatorGroup::endStopBookkeeping() {
  uint64_t SharedBytes = gcStats().BytesAllocated;
  for (std::unique_ptr<Mutator> &M : Muts)
    M->SharedBytesAtMerge = SharedBytes;
  collector().telemetry().clearPendingSafepoint();
}

void MutatorGroup::mergeAtSafepoint() {
  Collector &C = collector();
  GcStats &S = C.stats();
  HeapProfiler *Shared = Muts[0]->profiler();
  // Thread-index order makes every merged quantity deterministic: totals,
  // site profiles, and anything derived from them (pretenure sets) come
  // out identical run to run and identical to a serial execution.
  for (std::unique_ptr<Mutator> &MP : Muts) {
    Mutator &M = *MP;
    M.retireTlab();
    for (Word *Slot : M.LocalSSB)
      C.writeBarrier(Slot);
    M.LocalSSB.clear();
    // Pause-budget SATB backlog: replayed with the world stopped, before
    // the stopped operation can run a slice or finish the cycle — so every
    // overwritten snapshot edge is seeded ahead of any mark advance.
    for (Word OldBits : M.LocalSatb)
      C.satbRecord(OldBits);
    M.LocalSatb.clear();
    S.BytesAllocated += M.LocalStats.BytesAllocated;
    S.ObjectsAllocated += M.LocalStats.ObjectsAllocated;
    S.RecordBytesAllocated += M.LocalStats.RecordBytesAllocated;
    S.ArrayBytesAllocated += M.LocalStats.ArrayBytesAllocated;
    S.TlabRefills += M.LocalStats.TlabRefills;
    S.TlabPadBytes += M.LocalStats.TlabPadBytes;
    M.LocalStats = Mutator::LocalAlloc{};
    if (Shared && M.LocalProf) {
      Shared->mergeFrom(*M.LocalProf);
      M.LocalProf->reset();
    }
  }
}
