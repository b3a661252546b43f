//===- tests/parallel_evacuator_test.cpp - Parallel copy-engine tests ------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correctness of the work-stealing evacuation engine: a large shared/cyclic
/// graph must survive parallel evacuation intact at every thread count, the
/// destination space must stay linearly walkable (block-tail pads skipped),
/// and aggregate statistics — BytesCopied, ObjectsCopied, per-site profiler
/// totals — must be identical to the serial engine's, since pretenuring
/// decisions are derived from them.
///
/// Note the harness may have a single CPU; GcThreads > 1 then exercises the
/// full protocol (CAS forwarding, block handout, stealing, termination)
/// under timesharing rather than true parallelism.
///
//===----------------------------------------------------------------------===//

#include "gc/ParallelEvacuator.h"

#include "gc/HeapVerifier.h"
#include "runtime/Mutator.h"
#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>
#include <vector>

using namespace tilgc;

namespace {

//===----------------------------------------------------------------------===//
// Engine-level tests over raw spaces.
//===----------------------------------------------------------------------===//

constexpr size_t NumNodes = 30000;
constexpr uint32_t NodeFields = 3; // {next, cross, data}
constexpr uint32_t NodeMask = 0b011;

/// Builds a deterministic graph: a spine list where every node also holds a
/// cross edge to a pseudo-random earlier node (heavy sharing) and the last
/// node loops back to the first (a long cycle). Returns the spine head.
Word *buildGraph(Space &From) {
  std::vector<Word *> Nodes;
  Nodes.reserve(NumNodes);
  uint64_t Rng = 88172645463325252ULL;
  for (size_t I = 0; I < NumNodes; ++I) {
    Word *P = From.allocate(header::make(ObjectKind::Record, NodeFields,
                                         NodeMask),
                            meta::make(1 + static_cast<uint32_t>(I % 7), 0));
    assert(P && "test from-space too small");
    P[0] = P[1] = 0;
    P[2] = static_cast<Word>(I * 2 + 1);
    if (I > 0) {
      Nodes.back()[0] = reinterpret_cast<Word>(P);
      Rng ^= Rng << 13, Rng ^= Rng >> 7, Rng ^= Rng << 17;
      P[1] = reinterpret_cast<Word>(Nodes[Rng % I]);
    }
    Nodes.push_back(P);
  }
  Nodes.back()[0] = reinterpret_cast<Word>(Nodes.front());
  return Nodes.front();
}

/// Canonical, address-independent structure hash (first-visit numbering,
/// iterative so the 30k-deep spine cannot overflow the C++ stack).
uint64_t graphHash(Word *Root) {
  std::unordered_map<const Word *, uint64_t> Visited;
  uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&](uint64_t V) { Hash = (Hash ^ V) * 1099511628211ULL; };
  std::vector<Word *> Stack{Root};
  Visited.emplace(Root, 0);
  while (!Stack.empty()) {
    Word *P = Stack.back();
    Stack.pop_back();
    Mix(P[2]);
    for (unsigned F = 0; F < 2; ++F) {
      Word *Q = reinterpret_cast<Word *>(P[F]);
      if (!Q) {
        Mix(0x11);
        continue;
      }
      auto [It, Fresh] = Visited.emplace(Q, Visited.size());
      Mix(It->second);
      if (Fresh)
        Stack.push_back(Q);
    }
  }
  return Hash;
}

struct EngineResult {
  uint64_t Hash = 0;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsCopied = 0;
  size_t DestObjects = 0;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Sites;
};

EngineResult evacuateWith(unsigned Threads) {
  Space From, To;
  size_t GraphBytes = NumNodes * (NodeFields + HeaderWords) * sizeof(Word);
  From.reserve(GraphBytes + 4096);
  To.reserve(GraphBytes +
             ParallelEvacuator::reserveSlackBytes(GraphBytes, Threads));
  Word *Root = buildGraph(From);
  Word RootSlot = reinterpret_cast<Word>(Root);

  HeapProfiler Prof;
  Evacuator::Config C;
  C.From = {&From, nullptr, nullptr};
  C.Dest = &To;
  C.Profiler = &Prof;
  C.CountSurvivedFirst = true;

  WorkerPool Pool(Threads);
  ParallelEvacuator E(C, Pool);
  E.addRoot(&RootSlot);
  E.run();

  EngineResult R;
  R.Hash = graphHash(reinterpret_cast<Word *>(RootSlot));
  R.BytesCopied = E.bytesCopied();
  R.ObjectsCopied = E.objectsCopied();
  To.walk([&](Word *, Word, bool) { ++R.DestObjects; });
  for (uint32_t S = 0; S < Prof.numSites(); ++S) {
    const SiteStats &SS = Prof.site(S);
    R.Sites.emplace_back(SS.CopiedBytes, SS.SurvivedFirstCount,
                         SS.DeathCount);
  }

  HeapVerifier V;
  V.addSpace(&To, "to");
  std::string Error;
  EXPECT_TRUE(V.verifyHeap(Error)) << Error;
  return R;
}

class ParallelEvacuatorEngine : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEvacuatorEngine, MatchesSerialOnSharedCyclicGraph) {
  // Reference values from the serial engine.
  static const EngineResult Serial = [] {
    Space From, To;
    size_t GraphBytes = NumNodes * (NodeFields + HeaderWords) * sizeof(Word);
    From.reserve(GraphBytes + 4096);
    To.reserve(GraphBytes + 4096);
    Word *Root = buildGraph(From);
    Word RootSlot = reinterpret_cast<Word>(Root);
    HeapProfiler Prof;
    Evacuator::Config C;
    C.From = {&From, nullptr, nullptr};
    C.Dest = &To;
    C.Profiler = &Prof;
    C.CountSurvivedFirst = true;
    Evacuator E(C);
    E.forwardSlot(&RootSlot);
    E.drain();
    EngineResult R;
    R.Hash = graphHash(reinterpret_cast<Word *>(RootSlot));
    R.BytesCopied = E.bytesCopied();
    R.ObjectsCopied = E.objectsCopied();
    To.walk([&](Word *, Word, bool) { ++R.DestObjects; });
    for (uint32_t S = 0; S < Prof.numSites(); ++S) {
      const SiteStats &SS = Prof.site(S);
      R.Sites.emplace_back(SS.CopiedBytes, SS.SurvivedFirstCount,
                           SS.DeathCount);
    }
    return R;
  }();

  EngineResult R = evacuateWith(GetParam());
  EXPECT_EQ(R.Hash, Serial.Hash);
  EXPECT_EQ(R.BytesCopied, Serial.BytesCopied);
  EXPECT_EQ(R.ObjectsCopied, Serial.ObjectsCopied);
  EXPECT_EQ(R.ObjectsCopied, NumNodes);
  EXPECT_EQ(R.DestObjects, NumNodes) << "pads must be skipped, not traced";
  EXPECT_EQ(R.Sites, Serial.Sites);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEvacuatorEngine,
                         ::testing::Values(1u, 2u, 8u));

//===----------------------------------------------------------------------===//
// Collector-level determinism through the Mutator facade.
//===----------------------------------------------------------------------===//

uint32_t siteFor(unsigned I) {
  static const uint32_t Base = [] {
    uint32_t First = AllocSiteRegistry::global().define("par.site0");
    for (int K = 1; K < 5; ++K)
      AllocSiteRegistry::global().define("par.site" + std::to_string(K));
    return First;
  }();
  return Base + (I % 5);
}

uint32_t rootsKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "par.roots", {Trace::pointer(), Trace::pointer(), Trace::pointer(),
                    Trace::pointer()}));
  return K;
}

/// Deterministic mutator workload: builds linked lists with shared tails
/// across four root slots, mutates old cells through the write barrier
/// (including cycle-creating back-edges), drops roots, and forces minor and
/// major collections along the way.
uint64_t mutate(Mutator &M) {
  Frame F(M, rootsKey());
  uint64_t Rng = 0x9E3779B97F4A7C15ULL;
  auto Rand = [&] {
    Rng ^= Rng << 13, Rng ^= Rng >> 7, Rng ^= Rng << 17;
    return Rng;
  };
  for (unsigned I = 0; I < 6000; ++I) {
    unsigned R = 1 + Rand() % 4; // Frame slots are 1-based (0 is the key).
    // cons(I, F[R]) with a second pointer field sharing another root's list.
    Value Cell = M.allocRecord(siteFor(I), 3, 0b110);
    M.initField(Cell, 0, Value::fromInt(static_cast<int64_t>(I)));
    M.initField(Cell, 1, F.get(R));
    M.initField(Cell, 2, F.get(1 + Rand() % 4));
    F.set(R, Cell);
    if (I % 97 == 0) {
      // Barriered back-edge into an old cell: may create a cycle.
      Value Old = F.get(1 + R % 4);
      if (!Old.isNull())
        M.writeField(Old, 2, F.get(R), /*IsPointerField=*/true);
    }
    if (I % 211 == 0)
      F.set(1 + Rand() % 4, Value::null());
    if (I % 509 == 0)
      M.collect(/*Major=*/false);
    if (I % 1777 == 0)
      M.collect(/*Major=*/true);
  }
  M.collect(/*Major=*/true);

  // Address-independent hash over everything reachable from the frame.
  std::unordered_map<const Word *, uint64_t> Visited;
  uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&](uint64_t V) { Hash = (Hash ^ V) * 1099511628211ULL; };
  std::vector<Value> Stack;
  for (unsigned R = 1; R <= 4; ++R)
    Stack.push_back(F.get(R));
  while (!Stack.empty()) {
    Value V = Stack.back();
    Stack.pop_back();
    if (V.isNull()) {
      Mix(0x11);
      continue;
    }
    auto [It, Fresh] = Visited.emplace(V.asPtr(), Visited.size());
    Mix(It->second);
    if (!Fresh)
      continue;
    Mix(Mutator::getField(V, 0).bits());
    Stack.push_back(Mutator::getField(V, 1));
    Stack.push_back(Mutator::getField(V, 2));
  }
  return Hash;
}

struct RunOutcome {
  uint64_t Hash;
  uint64_t NumGC;
  uint64_t BytesCopied;
  uint64_t ObjectsCopied;
  std::vector<std::tuple<uint64_t, uint64_t, uint64_t>> Sites;
};

RunOutcome runWorkload(CollectorKind Kind, unsigned Threads,
                       unsigned PromoteAge) {
  // Configured so that only the workload's *explicit* collections trigger:
  // block-handout pad waste inflates space usage under parallel runs, and
  // an allocation-triggered (or pressure-chained) GC at a different point
  // would legitimately change the copy totals being compared. The tiny
  // target-liveness ratios keep the resize policy from shrinking spaces
  // down to where pads could shift the collection cadence.
  MutatorConfig Cfg;
  Cfg.Kind = Kind;
  Cfg.BudgetBytes = 16u << 20;
  Cfg.NurseryLimitBytes = 512u << 10;
  Cfg.SemispaceTargetLiveness = 1e-6; // live/r always clamps to the max:
  Cfg.TenuredTargetLiveness = 1e-6;   // spaces never shrink, no auto GCs.
  Cfg.GcThreads = Threads;
  Cfg.PromoteAgeThreshold = PromoteAge;
  Cfg.EnableProfiling = true;
  Cfg.VerifyLevel = 1;
  Mutator M(Cfg);
  RunOutcome R;
  R.Hash = mutate(M);
  R.NumGC = M.gcStats().NumGC;
  R.BytesCopied = M.gcStats().BytesCopied;
  R.ObjectsCopied = M.gcStats().ObjectsCopied;
  const HeapProfiler *P = M.profiler();
  for (uint32_t S = 0; S < P->numSites(); ++S) {
    const SiteStats &SS = P->site(S);
    R.Sites.emplace_back(SS.CopiedBytes, SS.SurvivedFirstCount,
                         SS.DeathCount);
  }
  return R;
}

class ParallelCollector : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelCollector, SemispaceMatchesSerial) {
  static const RunOutcome Serial =
      runWorkload(CollectorKind::Semispace, 1, 1);
  RunOutcome R = runWorkload(CollectorKind::Semispace, GetParam(), 1);
  EXPECT_EQ(R.Hash, Serial.Hash);
  ASSERT_EQ(R.NumGC, Serial.NumGC) << "collection cadence diverged";
  EXPECT_EQ(R.BytesCopied, Serial.BytesCopied);
  EXPECT_EQ(R.ObjectsCopied, Serial.ObjectsCopied);
  EXPECT_EQ(R.Sites, Serial.Sites);
}

TEST_P(ParallelCollector, GenerationalMatchesSerial) {
  static const RunOutcome Serial =
      runWorkload(CollectorKind::Generational, 1, 1);
  RunOutcome R = runWorkload(CollectorKind::Generational, GetParam(), 1);
  EXPECT_EQ(R.Hash, Serial.Hash);
  ASSERT_EQ(R.NumGC, Serial.NumGC) << "collection cadence diverged";
  EXPECT_EQ(R.BytesCopied, Serial.BytesCopied);
  EXPECT_EQ(R.ObjectsCopied, Serial.ObjectsCopied);
  EXPECT_EQ(R.Sites, Serial.Sites);
}

TEST_P(ParallelCollector, AgedTenuringStructureSurvives) {
  // Under aged tenuring the parallel engine may promote early when a young
  // block grant fails, so copy totals can legitimately differ from the
  // serial run; the live structure must still be preserved exactly.
  static const uint64_t SerialHash =
      runWorkload(CollectorKind::Generational, 1, 3).Hash;
  EXPECT_EQ(runWorkload(CollectorKind::Generational, GetParam(), 3).Hash,
            SerialHash);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelCollector,
                         ::testing::Values(2u, 8u));

} // namespace
