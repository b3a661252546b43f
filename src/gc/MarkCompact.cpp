//===- gc/MarkCompact.cpp - Region mark-compact major engine --------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/MarkCompact.h"

#include "observe/GcTelemetry.h"
#include "support/FaultInjector.h"
#include "support/Fatal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_set>

using namespace tilgc;

namespace {

/// Thrown by the WorkerThrow fault point inside a mark worker; caught in
/// workerMain.
struct MarkFault {};

/// Local mark stack size above which a worker publishes grey work for
/// thieves, and how many (oldest — closest to the roots, so likely the
/// widest subtrees) it publishes at a time.
constexpr size_t PublishThreshold = 128;
constexpr size_t PublishChunk = 32;

/// Phase scope against an optional telemetry plane.
struct OptPhase {
  GcTelemetry *T;
  GcPhase P;
  OptPhase(GcTelemetry *T, GcPhase P) : T(T), P(P) {
    if (T)
      T->enterPhase(P);
  }
  ~OptPhase() {
    if (T)
      T->exitPhase(P);
  }
  OptPhase(const OptPhase &) = delete;
  OptPhase &operator=(const OptPhase &) = delete;
};

} // namespace

MarkCompact::MarkCompact(const Config &C) : C(C) {
  assert(C.Tenured && "mark-compact needs a tenured space");
  assert(C.Regions && "mark-compact needs the region overlay");
}

void MarkCompact::addRootSpan(Word *const *Slots, size_t Count) {
  assert(Phase == Fresh && "roots must be registered before mark()");
  if (!Count)
    return;
  RootSpans.push_back({Slots, Count});
  TotalRootSlots += Count;
}

//===----------------------------------------------------------------------===//
// Mark
//===----------------------------------------------------------------------===//

void MarkCompact::faultCheck(Worker &W) {
  (void)W;
  if (!Parallel || TILGC_LIKELY(!FaultInjector::enabled()))
    return;
  auto &FI = FaultInjector::global();
  if (FI.shouldFire(FaultPoint::WorkerStall))
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  if (FI.shouldFire(FaultPoint::WorkerThrow))
    throw MarkFault{};
}

// Engine-level abort point, controlling thread only (workers signal faults
// via MarkFault and are recovered serially; MarkPlanFault abandons the whole
// engine). Every call site is in a still-mutation-free phase — the caller's
// failover contract depends on that.
void MarkCompact::abortPoint() {
  if (TILGC_UNLIKELY(FaultInjector::enabled()) &&
      FaultInjector::global().shouldFire(FaultPoint::MarkPlanThrow))
    throw MarkPlanFault{};
  if (TILGC_UNLIKELY(C.AbortFlag != nullptr) &&
      C.AbortFlag->load(std::memory_order_relaxed))
    throw MarkPlanFault{};
}

void MarkCompact::markObject(Word *Payload, Worker &W) {
  const Word *H = Payload - HeaderWords;
  for (unsigned I = 0; I < 2; ++I) {
    Space *Y = C.Young[I];
    if (Y && Y->contains(Payload)) {
      if (TILGC_UNLIKELY(IncSkipYoung))
        return; // Incremental slices: young is allocate-black, seeded at
                // finish — and a grey young pointer would go stale at the
                // next minor collection.
      if (YoungBits[I].testAndSet(H))
        W.Local.push_back(Payload);
      return;
    }
  }
  if (C.Tenured->contains(Payload)) {
    if (TenuredBits.testAndSet(H))
      W.Local.push_back(Payload);
    return;
  }
  assert(C.LOS && C.LOS->contains(Payload) &&
         "traced pointer outside every space");
  if (C.LOS->mark(Payload)) {
    W.LOSLive.push_back(Payload);
    W.Local.push_back(Payload);
  }
}

void MarkCompact::scanObject(Word *Payload, Worker &W) {
  faultCheck(W);
  Word Descriptor = descriptorOf(Payload);
  W.MarkedBytes += objectTotalBytes(Descriptor);
  ++W.Marked;
  forEachPointerFieldWith(Descriptor, Payload, [&](Word *F) {
    if (Word V = *F)
      markObject(reinterpret_cast<Word *>(V), W);
  });
  maybePublish(W);
}

bool MarkCompact::popLocal(Worker &W, Word *&Payload) {
  if (!W.Local.empty()) {
    Payload = W.Local.back();
    W.Local.pop_back();
    return true;
  }
  MarkItem It;
  if (W.Deque.pop(It)) {
    Payload = It.Payload;
    return true;
  }
  return false;
}

void MarkCompact::maybePublish(Worker &W) {
  if (!Parallel || W.Local.size() <= PublishThreshold)
    return;
  size_t Pushed = 0;
  while (Pushed < PublishChunk &&
         W.Deque.push(MarkItem{W.Local[Pushed], 0}))
    ++Pushed;
  W.Local.erase(W.Local.begin(),
                W.Local.begin() + static_cast<ptrdiff_t>(Pushed));
}

bool MarkCompact::stealAny(Worker &W, Word *&Payload) {
  unsigned N = static_cast<unsigned>(Workers.size());
  for (unsigned K = 0; K < N; ++K) {
    unsigned V = (W.Seed + K) % N;
    Worker &Victim = *Workers[V];
    if (&Victim == &W)
      continue;
    MarkItem It;
    if (Victim.Deque.steal(It)) {
      W.Seed = V;
      Payload = It.Payload;
      return true;
    }
  }
  ++W.Seed;
  return false;
}

void MarkCompact::workerBody(Worker &W) {
  // Forward this worker's contiguous chunk of the flattened root index
  // space.
  size_t Pos = 0;
  for (const auto &Span : RootSpans) {
    Word *const *Slots = Span.first;
    size_t Count = Span.second;
    if (Pos + Count > W.RootBegin && Pos < W.RootEnd) {
      size_t B = W.RootBegin > Pos ? W.RootBegin - Pos : 0;
      size_t E = std::min(Count, W.RootEnd - Pos);
      for (size_t I = B; I < E; ++I) {
        faultCheck(W);
        if (Word V = *Slots[I])
          markObject(reinterpret_cast<Word *>(V), W);
      }
    }
    Pos += Count;
    if (Pos >= W.RootEnd)
      break;
  }

  // Drain-and-steal with the evacuator's active-count termination: a worker
  // only deactivates with its private stack and deque drained, and a thief
  // reactivates itself for every stolen item, so the count can only reach
  // zero when no grey work exists anywhere.
  Word *P;
  for (;;) {
    while (popLocal(W, P))
      scanObject(P, W);
    NumActive.fetch_sub(1, std::memory_order_acq_rel);
    for (;;) {
      if (stealAny(W, P)) {
        NumActive.fetch_add(1, std::memory_order_acq_rel);
        scanObject(P, W);
        break;
      }
      if (NumActive.load(std::memory_order_acquire) == 0)
        return;
      std::this_thread::yield();
    }
  }
}

void MarkCompact::workerMain(unsigned Index) {
  Worker &W = *Workers[Index];
  W.TelBeginNs = GcTelemetry::nowNs();
  try {
    workerBody(W);
  } catch (MarkFault &) {
    // Abandon this worker's grey work (the serial recovery re-traces from
    // the roots); rebalance the active count so the others terminate.
    W.Faulted = true;
    NumFaults.fetch_add(1, std::memory_order_relaxed);
    NumActive.fetch_sub(1, std::memory_order_acq_rel);
  }
  W.TelEndNs = GcTelemetry::nowNs();
}

void MarkCompact::serialMark() {
  Worker &W = *Workers[0];
  for (const auto &Span : RootSpans)
    for (size_t I = 0; I < Span.second; ++I)
      if (Word V = *Span.first[I])
        markObject(reinterpret_cast<Word *>(V), W);
  Word *P;
  uint64_t Scanned = 0;
  while (popLocal(W, P)) {
    // Bounded watchdog-recovery latency without a per-object cost: one
    // abort check per 1024 objects scanned.
    if (TILGC_UNLIKELY((++Scanned & 1023) == 0))
      abortPoint();
    scanObject(P, W);
  }
  LOSLive = std::move(W.LOSLive);
}

void MarkCompact::serialRecoverMark() {
  // A faulted worker dropped grey objects that are marked but never
  // scanned, so a testAndSet-gated re-trace would skip their children. The
  // recovery runs a fresh traversal with private visited sets, promoting
  // every reachable object into the real bitmaps / LOS marks and rebuilding
  // the LOS live list from scratch (discarding the per-worker lists, which
  // may now be incomplete).
  MarkBitmap RecYoung[2];
  MarkBitmap RecTenured;
  for (unsigned I = 0; I < 2; ++I)
    if (C.Young[I])
      RecYoung[I].attach(*C.Young[I]);
  RecTenured.attach(*C.Tenured);
  std::unordered_set<const Word *> RecLOS;
  std::vector<Word *> Stack;
  std::vector<Word *> NewLOSLive;

  auto Visit = [&](Word *P) {
    const Word *H = P - HeaderWords;
    for (unsigned I = 0; I < 2; ++I) {
      if (C.Young[I] && C.Young[I]->contains(P)) {
        if (RecYoung[I].testAndSet(H)) {
          YoungBits[I].testAndSet(H);
          Stack.push_back(P);
        }
        return;
      }
    }
    if (C.Tenured->contains(P)) {
      if (RecTenured.testAndSet(H)) {
        TenuredBits.testAndSet(H);
        Stack.push_back(P);
      }
      return;
    }
    assert(C.LOS && C.LOS->contains(P));
    if (RecLOS.insert(P).second) {
      C.LOS->mark(P);
      NewLOSLive.push_back(P);
      Stack.push_back(P);
    }
  };

  for (const auto &Span : RootSpans)
    for (size_t I = 0; I < Span.second; ++I)
      if (Word V = *Span.first[I])
        Visit(reinterpret_cast<Word *>(V));
  while (!Stack.empty()) {
    Word *P = Stack.back();
    Stack.pop_back();
    forEachPointerField(P, [&](Word *F) {
      if (Word V = *F)
        Visit(reinterpret_cast<Word *>(V));
    });
  }
  LOSLive = std::move(NewLOSLive);
}

void MarkCompact::mark() {
  assert(Phase == Fresh);
  OptPhase Scope(C.Telemetry, GcPhase::Mark);
  abortPoint(); // Crossing 1: abort before anything (even LOS bits) is set.
  for (unsigned I = 0; I < 2; ++I)
    if (C.Young[I])
      YoungBits[I].attach(*C.Young[I]);
  TenuredBits.attach(*C.Tenured);
  assert(C.Regions->boundTo(*C.Tenured) &&
         "region overlay attached to a stale reservation");

  Parallel = C.Pool != nullptr;
  unsigned N = Parallel ? C.Pool->numWorkers() : 1;
  Workers.clear();
  for (unsigned I = 0; I < N; ++I) {
    Workers.push_back(std::make_unique<Worker>());
    Workers.back()->Seed = I + 1;
  }

  if (!Parallel) {
    serialMark();
  } else {
    size_t PerWorker = (TotalRootSlots + N - 1) / N;
    for (unsigned I = 0; I < N; ++I) {
      Worker &W = *Workers[I];
      W.RootBegin = std::min<size_t>(I * PerWorker, TotalRootSlots);
      W.RootEnd = std::min<size_t>((I + 1) * PerWorker, TotalRootSlots);
    }
    NumActive.store(static_cast<int>(N), std::memory_order_relaxed);
    C.Pool->runOnAll([this](unsigned I) { workerMain(I); });

    if (C.Telemetry) {
      if (GcEvent *E = C.Telemetry->currentEvent()) {
        for (unsigned I = 0; I < N; ++I) {
          Worker &W = *Workers[I];
          GcWorkerSpan S;
          S.Index = I;
          S.BeginNs = W.TelBeginNs;
          S.EndNs = W.TelEndNs;
          S.BytesMarked = W.MarkedBytes;
          S.ObjectsMarked = W.Marked;
          S.Faulted = W.Faulted;
          E->WorkerSpans.push_back(S);
        }
      }
      for (unsigned I = 0; I < N; ++I)
        if (Workers[I]->Faulted)
          C.Telemetry->noteWorkerFault(I);
    }

    // A watchdog recover-request that landed while the pool ran is honored
    // here, before the serial re-trace: the heap is still unmutated, and
    // the failover re-traces from the roots anyway.
    abortPoint();
    if (NumFaults.load(std::memory_order_relaxed)) {
      serialRecoverMark();
      Recovered = true;
    } else {
      for (unsigned I = 0; I < N; ++I) {
        Worker &W = *Workers[I];
        if (!W.Local.empty() || W.Deque.maybeNonEmpty())
          fatalError("grey work survived mark termination (worker %u)", I);
        LOSLive.insert(LOSLive.end(), W.LOSLive.begin(), W.LOSLive.end());
      }
    }
  }
  Workers.clear();

  // Deterministic order for the fixup / profiler passes, and a dedupe
  // backstop: the fixup is not idempotent, so each LOS object must appear
  // exactly once.
  std::sort(LOSLive.begin(), LOSLive.end());
  LOSLive.erase(std::unique(LOSLive.begin(), LOSLive.end()), LOSLive.end());
  // Last mark-phase crossing: aborting here exercises the failover path
  // where LOS mark bits are already set and must be cleared (not swept).
  abortPoint();
  Phase = MarkDone;
}

//===----------------------------------------------------------------------===//
// Incremental mark (pause-budget mode)
//===----------------------------------------------------------------------===//

void MarkCompact::beginIncremental() {
  assert(Phase == Fresh && "incremental mark must start on a fresh engine");
  for (unsigned I = 0; I < 2; ++I)
    if (C.Young[I])
      YoungBits[I].attach(*C.Young[I]);
  TenuredBits.attach(*C.Tenured);
  assert(C.Regions->boundTo(*C.Tenured) &&
         "region overlay attached to a stale reservation");
  // Slices mark serially: the grey stack must persist across slices, and
  // the deque/termination protocol buys nothing for bounded increments.
  // C.Pool is still honored by the finish's parallel tenured fixup.
  Parallel = false;
  Workers.clear();
  Workers.push_back(std::make_unique<Worker>());
  Workers.back()->Seed = 1;
  IncSkipYoung = true;
}

void MarkCompact::markSeed(Word Bits) {
  assert(Phase == Fresh && !Workers.empty() &&
         "markSeed outside an incremental mark");
  if (!Bits)
    return;
  markObject(reinterpret_cast<Word *>(Bits), *Workers[0]);
}

bool MarkCompact::markStep(uint64_t DeadlineNs) {
  assert(Phase == Fresh && !Workers.empty() &&
         "markStep outside an incremental mark");
  Worker &W = *Workers[0];
  uint64_t Scanned = 0;
  // No abortPoint here: an injected MarkPlanThrow mid-slice could not be
  // failed over (the heap keeps running between slices), so fault crossings
  // stay confined to the finishing collection's plan/pre-commit points.
  // Serial: nothing is ever published to the deque, so the private stack
  // is the whole grey set.
  while (!W.Local.empty()) {
    Word *P = W.Local.back();
    W.Local.pop_back();
    scanObject(P, W);
    if (TILGC_UNLIKELY((++Scanned & 63) == 0) &&
        GcTelemetry::nowNs() >= DeadlineNs)
      return W.Local.empty();
  }
  return true;
}

void MarkCompact::finishIncrementalMark() {
  assert(Phase == Fresh && !Workers.empty() &&
         "finishIncrementalMark outside an incremental mark");
  Worker &W = *Workers[0];
  assert(W.Local.empty() && "grey work pending at incremental-mark finish");
  LOSLive = std::move(W.LOSLive);
  Workers.clear();
  // Deterministic order + dedupe backstop, exactly as mark()'s tail.
  std::sort(LOSLive.begin(), LOSLive.end());
  LOSLive.erase(std::unique(LOSLive.begin(), LOSLive.end()), LOSLive.end());
  Phase = MarkDone;
}

//===----------------------------------------------------------------------===//
// Plan
//===----------------------------------------------------------------------===//

size_t MarkCompact::plannedTenuredBytes() {
  assert(Phase >= MarkDone);
  Word *Base = C.Tenured->firstPayload() - HeaderWords;
  if (Phase >= PlanDone)
    return static_cast<size_t>(FinalFrontier - Base) * sizeof(Word);
  OptPhase Scope(C.Telemetry, GcPhase::Compact);
  abortPoint(); // PLAN writes nothing; aborting it is always safe.

  C.Regions->clearPlan();
  Word *End = C.Tenured->frontier();

  // Pass 1: per-region liveness accounting (attribution by header address)
  // and walk-start headers for the parallel fixup stripes.
  for (Word *P = Base; P < End;) {
    Word Raw = *P;
    C.Regions->noteWalkStart(P);
    if (TILGC_UNLIKELY(header::isPad(Raw))) {
      P += header::padWords(Raw);
      continue;
    }
    assert(!header::isForwarded(Raw));
    size_t Total = objectTotalWords(Raw);
    if (TenuredBits.test(P)) {
      C.Regions->addLive(P, Total);
      MarkedLiveBytes += Total * sizeof(Word);
      ++MarkedObjects;
    }
    P += Total;
  }
  NumDense = C.Regions->classify(C.DenseFraction);
  NumEvacuated = C.Regions->numEvacuationCandidates();

  // Pass 2: break table. Live objects in dense regions pin (Delta 0, with a
  // pad gap stamped in front when the cursor trails them); everything else
  // slides down to the cursor. The cursor can never overrun a live object:
  // every placement target is at or below the object's old address, so
  // after placing an object of size S ending at Target + S <= H + S, the
  // next live header (at >= H + S in address order) is still ahead.
  Word *Cursor = Base;
  for (Word *P = Base; P < End;) {
    Word Raw = *P;
    if (TILGC_UNLIKELY(header::isPad(Raw))) {
      P += header::padWords(Raw);
      continue;
    }
    size_t Total = objectTotalWords(Raw);
    if (TenuredBits.test(P)) {
      bool Pinned = C.Regions->isDense(C.Regions->regionOf(P));
      Word *Target = Pinned ? P : Cursor;
      assert(Target <= P && "compaction cursor overran a live object");
      if (Pinned && Cursor < P)
        PadGaps.push_back({Cursor, static_cast<size_t>(P - Cursor)});
      size_t Delta = static_cast<size_t>(P - Target);
      if (!Runs.empty() && Runs.back().OldEnd == P &&
          Runs.back().DeltaWords == Delta)
        Runs.back().OldEnd = P + Total;
      else
        Runs.push_back({P, P + Total, Delta});
      if (Delta) {
        BytesMoved += Total * sizeof(Word);
        ++ObjectsMoved;
      }
      Cursor = Target + Total;
    }
    P += Total;
  }

  // Pass 3: promotion targets for marked young survivors, appended after
  // the compacted tenured content.
  for (unsigned S = 0; S < 2; ++S) {
    if (!C.Young[S])
      continue;
    Space &Y = *C.Young[S];
    Word *YEnd = Y.frontier();
    for (Word *P = Y.firstPayload() - HeaderWords; P < YEnd;) {
      Word Raw = *P;
      if (TILGC_UNLIKELY(header::isPad(Raw))) {
        P += header::padWords(Raw);
        continue;
      }
      assert(!header::isForwarded(Raw));
      size_t Total = objectTotalWords(Raw);
      if (YoungBits[S].test(P)) {
        YoungMoves.push_back({P + HeaderWords, Cursor + HeaderWords, Raw});
        MarkedLiveBytes += Total * sizeof(Word);
        ++MarkedObjects;
        BytesMoved += Total * sizeof(Word);
        ++ObjectsMoved;
        Cursor += Total;
      }
      P += Total;
    }
  }

  FinalFrontier = Cursor;
  Phase = PlanDone;
  return static_cast<size_t>(Cursor - Base) * sizeof(Word);
}

//===----------------------------------------------------------------------===//
// Compact
//===----------------------------------------------------------------------===//

void MarkCompact::applyAgingAndProfile() {
  HeapProfiler *Prof = C.Profiler;

  // Live tenured objects: survive-first accounting and the age bump the
  // evacuator would have applied on copy (in place here — the memmove
  // carries the bumped meta along).
  Word *Base = C.Tenured->firstPayload() - HeaderWords;
  Word *End = C.Tenured->frontier();
  for (Word *P = Base; P < End;) {
    Word Raw = *P;
    if (TILGC_UNLIKELY(header::isPad(Raw))) {
      P += header::padWords(Raw);
      continue;
    }
    size_t Total = objectTotalWords(Raw);
    if (TenuredBits.test(P)) {
      Word *Payload = P + HeaderWords;
      Word Meta = metaOf(Payload);
      if (Prof) {
        uint32_t Site = meta::site(Meta);
        if (meta::age(Meta) == 0)
          Prof->onSurviveFirst(Site);
        forEachPointerFieldWith(Raw, Payload, [&](Word *F) {
          if (Word V = *F)
            Prof->onReferent(
                Site, meta::site(metaOf(reinterpret_cast<Word *>(V))));
        });
      }
      metaOf(Payload) = meta::withBumpedAge(Meta);
    }
    P += Total;
  }

  // Copy accounting covers only physically moved bytes — the whole point of
  // the compactor. (Pretenure derivation never reads copied bytes, so the
  // profile-driven decisions stay bit-identical across major-GC modes.)
  if (Prof) {
    for (const MoveRun &R : Runs) {
      if (!R.DeltaWords)
        continue;
      for (Word *P = R.OldBegin; P < R.OldEnd;) {
        Word *Payload = P + HeaderWords;
        Prof->onCopy(meta::site(metaOf(Payload)), objectTotalBytes(*P));
        P += objectTotalWords(*P);
      }
    }
  }

  // Young survivors: evacuator-identical hooks, reading fields and metas at
  // the old location (nothing has moved yet).
  if (Prof) {
    for (const YoungMove &M : YoungMoves) {
      Word Meta = metaOf(M.OldPayload);
      uint32_t Site = meta::site(Meta);
      Prof->onCopy(Site, objectTotalBytes(M.Descriptor));
      if (meta::age(Meta) == 0)
        Prof->onSurviveFirst(Site);
      forEachPointerFieldWith(M.Descriptor, M.OldPayload, [&](Word *F) {
        if (Word V = *F)
          Prof->onReferent(Site,
                           meta::site(metaOf(reinterpret_cast<Word *>(V))));
      });
    }
  }

  // LOS objects contribute referent edges only — the evacuator never ages
  // or copy-counts them either.
  if (Prof) {
    for (Word *P : LOSLive) {
      uint32_t Site = meta::site(metaOf(P));
      forEachPointerField(P, [&](Word *F) {
        if (Word V = *F)
          Prof->onReferent(Site,
                           meta::site(metaOf(reinterpret_cast<Word *>(V))));
      });
    }
  }
}

Word *MarkCompact::fixupPointer(Word *P) const {
  for (unsigned I = 0; I < 2; ++I) {
    if (C.Young[I] && C.Young[I]->contains(P)) {
      Word D = descriptorOf(P);
      assert(header::isForwarded(D) &&
             "live field points to an unmarked young object");
      return header::forwardTarget(D);
    }
  }
  if (C.Tenured->contains(P)) {
    const Word *H = P - HeaderWords;
    size_t Lo = 0, Hi = Runs.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Runs[Mid].OldEnd <= H)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    assert(Lo < Runs.size() && Runs[Lo].OldBegin <= H &&
           "live field points to an unmarked tenured object");
    return P - Runs[Lo].DeltaWords;
  }
  return P; // LOS objects never move.
}

void MarkCompact::fixupFields(Word Descriptor, Word *Payload) const {
  forEachPointerFieldWith(Descriptor, Payload, [&](Word *F) {
    if (Word V = *F)
      *F = reinterpret_cast<Word>(
          fixupPointer(reinterpret_cast<Word *>(V)));
  });
}

void MarkCompact::fixupTenuredRange(const Word *Begin, const Word *End) const {
  const Word *P = Begin;
  while (P < End) {
    Word Raw = *P;
    if (TILGC_UNLIKELY(header::isPad(Raw))) {
      P += header::padWords(Raw);
      continue;
    }
    size_t Total = objectTotalWords(Raw);
    if (TenuredBits.test(P))
      fixupFields(Raw, const_cast<Word *>(P) + HeaderWords);
    P += Total;
  }
}

void MarkCompact::fixupTenured() {
  size_t NumRegions = C.Regions->numRegions();
  const Word *Frontier = C.Tenured->frontier();
  // Region stripes parallelize cleanly: every object is owned by the region
  // holding its header, and workers only write fields of objects they own.
  if (C.Pool && NumRegions >= 2 * C.Pool->numWorkers()) {
    std::atomic<size_t> NextRegion{0};
    C.Pool->runOnAll([&](unsigned) {
      for (;;) {
        size_t R = NextRegion.fetch_add(1, std::memory_order_relaxed);
        if (R >= NumRegions)
          return;
        const Word *First = C.Regions->firstHeader(R);
        if (!First)
          continue;
        const Word *End = std::min(C.Regions->regionEnd(R), Frontier);
        fixupTenuredRange(First, End);
      }
    });
  } else {
    fixupTenuredRange(C.Tenured->baseAddr(), Frontier);
  }
}

void MarkCompact::fixupRoots() {
#ifndef NDEBUG
  // The tenured rewrite is not idempotent (a rewritten pointer is again a
  // tenured address), so a slot listed twice would be shifted twice.
  {
    std::vector<Word *> Slots;
    Slots.reserve(TotalRootSlots);
    for (const auto &Span : RootSpans)
      for (size_t I = 0; I < Span.second; ++I)
        Slots.push_back(Span.first[I]);
    std::sort(Slots.begin(), Slots.end());
    assert(std::adjacent_find(Slots.begin(), Slots.end()) == Slots.end() &&
           "duplicate root slot would be fixed up twice");
  }
#endif
  for (const auto &Span : RootSpans)
    for (size_t I = 0; I < Span.second; ++I) {
      Word *Slot = Span.first[I];
      if (Word V = *Slot)
        *Slot = reinterpret_cast<Word>(
            fixupPointer(reinterpret_cast<Word *>(V)));
    }
}

void MarkCompact::performMoves() {
  // Ascending run order: each run's target end never overruns the next
  // run's un-consumed source (target <= old address for every object).
  for (const MoveRun &R : Runs) {
    if (!R.DeltaWords)
      continue;
    std::memmove(R.OldBegin - R.DeltaWords, R.OldBegin,
                 static_cast<size_t>(R.OldEnd - R.OldBegin) * sizeof(Word));
  }
  // Gaps in front of pinned runs become pad fillers so the space stays
  // linearly walkable. Written after the moves: every gap's source bytes
  // have been consumed by then.
  for (const PadGap &G : PadGaps) {
    assert(G.Words <= UINT32_MAX);
    *G.Begin = header::makePad(static_cast<uint32_t>(G.Words));
  }
}

void MarkCompact::compact() {
  assert(Phase == PlanDone && "plan before compacting");

  {
    OptPhase Scope(C.Telemetry, GcPhase::Compact);
    applyAgingAndProfile();
    // Install young forwarding headers (fields at the old locations stay
    // intact — only the descriptor word is clobbered, and YoungMove saved
    // it).
    for (const YoungMove &M : YoungMoves)
      descriptorOf(M.OldPayload) = header::makeForward(M.NewPayload);
  }

  {
    OptPhase Scope(C.Telemetry, GcPhase::Fixup);
    fixupTenured();
    for (const YoungMove &M : YoungMoves)
      fixupFields(M.Descriptor, M.OldPayload);
    for (Word *P : LOSLive)
      fixupFields(descriptorOf(P), P);
    fixupRoots();
  }

  {
    OptPhase Scope(C.Telemetry, GcPhase::Compact);
    performMoves();
    // Promote young survivors into the tail of the compacted space. Fields
    // were already rewritten at the old location; the age bump mirrors the
    // evacuator's copy path.
    for (const YoungMove &M : YoungMoves) {
      Word *NewHeader = M.NewPayload - HeaderWords;
      NewHeader[0] = M.Descriptor;
      NewHeader[1] = meta::withBumpedAge(metaOf(M.OldPayload));
      std::memcpy(M.NewPayload, M.OldPayload,
                  static_cast<size_t>(header::length(M.Descriptor)) *
                      sizeof(Word));
    }
    C.Tenured->setFrontier(FinalFrontier);

    // Rebuild the crossing map over the new layout. Pads are recorded (a
    // dirty-card scan must step over them from a card's first word) but not
    // counted.
    if (C.CrossDest) {
      C.CrossDest->attach(*C.Tenured);
      Word *Base = C.Tenured->firstPayload() - HeaderWords;
      for (Word *P = Base; P < FinalFrontier;) {
        Word Raw = *P;
        uint32_t Total;
        if (TILGC_UNLIKELY(header::isPad(Raw))) {
          Total = header::padWords(Raw);
        } else {
          Total = objectTotalWords(Raw);
          ++CrossingUpdates;
        }
        C.CrossDest->recordObject(P, Total);
        P += Total;
      }
    }
  }
  Phase = CompactDone;
}
