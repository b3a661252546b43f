//===- bench/micro_gc.cpp - Microbenchmarks (google-benchmark) ---------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Microbenchmarks for the primitive costs behind the tables: allocation
// sequences, frame push/pop, raise to a handler, write-barrier flavors, a
// pause-budget mark slice, allocation during a pause-budget cycle, and the
// stack-scan cost as a function of depth — with and without generational
// stack collection, which is the per-collection cost Table 5 aggregates.
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

/// The callee half of BM_RaiseToHandler: pushes its frame and raises.
[[gnu::noinline]] MLRaise raiseFromCallee(Mutator &M) {
  Frame Callee(M, microKey());
  return M.raise(Value::fromInt(1));
}

/// One ML raise from a callee frame to its caller's handler, Peg's
/// per-node pattern: install the handler, call, raise, and land back at
/// the handler site with the callee's frame cut.
void BM_RaiseToHandler(benchmark::State &State) {
  Mutator M(genConfig());
  Frame Caller(M, microKey());
  for (auto _ : State) {
    uint64_t H = M.pushHandler(Caller.base());
    benchmark::DoNotOptimize(M.caught(raiseFromCallee(M), H).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RaiseToHandler);

/// Per-store cost of each write-barrier policy against an old target. The
/// remembered set is drained every 64K stores with the timer paused, so
/// each figure is the store and its record alone, not an amortized minor
/// collection. With \p FloodFirst the setup floods the hybrid past its
/// switch point, so the timed stores take the post-switch card path.
template <GenerationalCollector::BarrierKind Kind, bool FloodFirst = false>
void BM_WriteBarrier(benchmark::State &State) {
  MutatorConfig C = genConfig();
  C.Barrier = Kind;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, microKey());
  // An old (promoted) target so the barrier has real work to remember.
  F.set(1, M.allocPtrArray(microSite(), 16));
  M.collect(false);
  if (FloodFirst) {
    for (uint64_t I = 0; I <= GC.rememberedSet().floodThreshold(); ++I)
      M.writeField(F.get(1), I & 15, Value::null(), true);
    M.collect(false);
    if (!GC.rememberedSet().inCardMode())
      State.SkipWithError("the flood did not switch the barrier to cards");
  }
  bool CardMode = GC.rememberedSet().inCardMode();
  uint32_t I = 0;
  for (auto _ : State) {
    M.writeField(F.get(1), I & 15, Value::null(), true);
    ++I;
    if ((I & 0xFFFF) == 0) {
      State.PauseTiming();
      M.collect(false); // Drain the remembered set, untimed.
      State.ResumeTiming();
    }
  }
  if (GC.rememberedSet().inCardMode() != CardMode)
    State.SkipWithError("the barrier switched mid-measurement");
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
// The 64K-store drain interval stays below the hybrid's switch point
// (4 x 65,024 tenured cards at this budget), so this one never switches.
BENCHMARK(BM_WriteBarrier<GenerationalCollector::BarrierKind::Hybrid>)
    ->Name("BM_WriteBarrierHybridPreSwitch");
BENCHMARK(BM_WriteBarrier<GenerationalCollector::BarrierKind::Hybrid, true>)
    ->Name("BM_WriteBarrierHybridPostSwitch");

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

/// The fixed cost of a pause-budget mark slice. A retained list grows
/// until tenured pressure opens an incremental cycle; the first slices
/// mark it, after which the grey set stays empty. The timed loop then
/// allocates garbage records, which promote nothing, so the cycle never
/// finishes and every slice is near-empty, like most of the slices in a
/// budget-mode run. ns_per_slice is the slices' summed pause (the major
/// pause histogram: event begin to end) over incrementalSlices(); the
/// per-allocation time carries the rest, including one minor collection
/// per 128 slices.
void BM_MarkSlice(benchmark::State &State) {
  MutatorConfig C = genConfig();
  C.BudgetBytes = 8u << 20;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.MaxPauseMicros = 1000;
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, microKey());
  for (int64_t I = 0; !GC.incrementalCycleLive() && I < 4000000; ++I)
    F.set(1, consInt(M, microSite(), I, slot(F, 1)));
  if (!GC.incrementalCycleLive()) {
    State.SkipWithError("the retained list never opened a cycle");
    return;
  }
  const PauseHistogram &Pauses = M.telemetry().histogram(GcGeneration::Major);
  uint64_t Slices = GC.incrementalSlices();
  uint64_t PauseNs = Pauses.sumNs();
  for (auto _ : State)
    F.set(2, M.allocRecord(microSite(), 2, 0b10));
  Slices = GC.incrementalSlices() - Slices;
  PauseNs = Pauses.sumNs() - PauseNs;
  if (!GC.incrementalCycleLive())
    State.SkipWithError("the cycle finished mid-measurement");
  State.counters["slices"] = static_cast<double>(Slices);
  State.counters["ns_per_slice"] =
      Slices ? static_cast<double>(PauseNs) / static_cast<double>(Slices)
             : 0.0;
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MarkSlice);

/// Per-allocation cost of a small record while a pause-budget cycle is
/// live, slices included; Arg is MaxPauseMicros, and Arg 0 is the same
/// heap with no budget, hence no cycle. A retained list of 2.5 MB opens the
/// cycle (tenured free space falls below half the space) without reaching
/// the stock major threshold, and the timed garbage records promote almost
/// nothing, so the cycle stays live: the inline bump path runs between
/// slices, and every stride of allocation one record takes the slow path
/// and runs a slice.
void BM_AllocRecordDuringCycle(benchmark::State &State) {
  MutatorConfig C = genConfig();
  C.BudgetBytes = 8u << 20;
  C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.MaxPauseMicros = static_cast<uint32_t>(State.range(0));
  Mutator M(C);
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  Frame F(M, microKey());
  for (int64_t I = 0; I < 80000; ++I)
    F.set(1, consInt(M, microSite(), I, slot(F, 1)));
  if (C.MaxPauseMicros && !GC.incrementalCycleLive()) {
    State.SkipWithError("the retained list never opened a cycle");
    return;
  }
  uint64_t Slices = GC.incrementalSlices();
  for (auto _ : State)
    F.set(2, M.allocRecord(microSite(), 2, 0b10));
  if (C.MaxPauseMicros && !GC.incrementalCycleLive())
    State.SkipWithError("the cycle finished mid-measurement");
  State.counters["slices"] =
      static_cast<double>(GC.incrementalSlices() - Slices);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocRecordDuringCycle)->Arg(0)->Arg(1000);

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
