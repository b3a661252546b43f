//===- bench/micro_gc.cpp - Microbenchmarks (google-benchmark) ---------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Microbenchmarks for the primitive costs behind the tables: allocation
// sequences, frame push/pop, write-barrier flavors, and the stack-scan cost
// as a function of depth — with and without generational stack collection,
// which is the per-collection cost Table 5 aggregates.
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "workloads/MLLib.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t microSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("micro.site");
  return S;
}

uint32_t microKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "micro.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

MutatorConfig genConfig() {
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 64u << 20;
  return C;
}

void BM_AllocRecordGenerational(benchmark::State &State) {
  Mutator M(genConfig());
  Frame F(M, microKey());
  for (auto _ : State) {
    F.set(1, M.allocRecord(microSite(), 2, 0b10));
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocRecordGenerational);

void BM_AllocRecordSemispace(benchmark::State &State) {
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = 64u << 20;
  Mutator M(C);
  Frame F(M, microKey());
  for (auto _ : State) {
    F.set(1, M.allocRecord(microSite(), 2, 0b10));
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocRecordSemispace);

void BM_ConsCell(benchmark::State &State) {
  Mutator M(genConfig());
  Frame F(M, microKey());
  for (auto _ : State)
    F.set(1, consInt(M, microSite(), 42, slot(F, 2)));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ConsCell);

/// One activation record pushed and popped through Frame RAII: the
/// mutator's call/return cost, excluding any work the callee does.
void BM_FramePushPop(benchmark::State &State) {
  Mutator M(genConfig());
  Frame Outer(M, microKey());
  for (auto _ : State) {
    Frame F(M, microKey());
    benchmark::DoNotOptimize(F.base());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FramePushPop);

template <GenerationalCollector::BarrierKind Kind>
void BM_WriteBarrier(benchmark::State &State) {
  MutatorConfig C = genConfig();
  C.Barrier = Kind;
  Mutator M(C);
  Frame F(M, microKey());
  // An old (promoted) target so the barrier has real work to remember.
  F.set(1, M.allocPtrArray(microSite(), 16));
  M.collect(false);
  uint32_t I = 0;
  for (auto _ : State) {
    M.writeField(F.get(1), I & 15, Value::null(), true);
    ++I;
    if ((I & 0xFFFF) == 0)
      M.collect(false); // Drain the remembered set periodically.
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(
    BM_WriteBarrier<GenerationalCollector::BarrierKind::SequentialStoreBuffer>)
    ->Name("BM_WriteBarrierSSB");
BENCHMARK(BM_WriteBarrier<GenerationalCollector::BarrierKind::CardMarking>)
    ->Name("BM_WriteBarrierCards");
BENCHMARK(
    BM_WriteBarrier<GenerationalCollector::BarrierKind::FilteredStoreBuffer>)
    ->Name("BM_WriteBarrierFilteredSSB");
// Note: the drain interval (64K stores) exceeds the hybrid flood threshold,
// so this measures the post-switch (card-mode) fast path after warmup.
BENCHMARK(BM_WriteBarrier<GenerationalCollector::BarrierKind::Hybrid>)
    ->Name("BM_WriteBarrierHybrid");

/// Copy-phase cost: a semispace collection copies the whole live list every
/// iteration, so this times the serial evacuator's hot loop (from-space
/// test + copy + scan) with nothing else in the way. The profiled variant
/// exercises the per-field profiler branch in the scan loop.
void evacuateLiveList(benchmark::State &State, bool Profiled) {
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = 64u << 20;
  C.EnableProfiling = Profiled;
  Mutator M(C);
  Frame F(M, microKey());
  int N = static_cast<int>(State.range(0));
  for (int I = 0; I < N; ++I)
    F.set(1, consInt(M, microSite(), I, slot(F, 1)));
  uint64_t Before = M.gcStats().BytesCopied;
  for (auto _ : State)
    M.collect(false);
  State.SetBytesProcessed(
      static_cast<int64_t>(M.gcStats().BytesCopied - Before));
}

void BM_EvacuateLiveList(benchmark::State &State) {
  evacuateLiveList(State, false);
}
BENCHMARK(BM_EvacuateLiveList)->Arg(20000)->Arg(100000);

void BM_EvacuateLiveListProfiled(benchmark::State &State) {
  evacuateLiveList(State, true);
}
BENCHMARK(BM_EvacuateLiveListProfiled)->Arg(20000)->Arg(100000);

/// Builds a stack Depth frames deep, then measures minor collections (the
/// per-GC stack-scan cost Table 5 aggregates). With markers the scan cost
/// should become independent of depth.
void scanAtDepth(benchmark::State &State, bool Markers) {
  MutatorConfig C = genConfig();
  C.UseStackMarkers = Markers;
  Mutator M(C);
  int Depth = static_cast<int>(State.range(0));

  // Recursive builder with a pointer local per frame.
  struct Builder {
    static void deep(Mutator &M, benchmark::State &State, int N) {
      Frame F(M, microKey());
      F.set(1, consInt(M, microSite(), N, slot(F, 2)));
      if (N > 0) {
        deep(M, State, N - 1);
        return;
      }
      for (auto _ : State)
        M.collect(false);
    }
  };
  Builder::deep(M, State, Depth);
  State.SetItemsProcessed(State.iterations());
}

void BM_StackScanFull(benchmark::State &State) { scanAtDepth(State, false); }
BENCHMARK(BM_StackScanFull)->Arg(10)->Arg(100)->Arg(1000)->Arg(4000);

void BM_StackScanMarkers(benchmark::State &State) {
  scanAtDepth(State, true);
}
BENCHMARK(BM_StackScanMarkers)->Arg(10)->Arg(100)->Arg(1000)->Arg(4000);

} // namespace

int main(int Argc, char **Argv) {
  // Tolerate the harness-wide flags the table benches accept.
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--scale=", 8) == 0 ||
        std::strncmp(Argv[I], "--reps=", 7) == 0)
      continue;
    Args.push_back(Argv[I]);
  }
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
