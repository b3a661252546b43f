//===- bench/micro_scan.cpp - Stack-scan microbenchmarks ----------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Isolates pass 2 of the stack scan — the per-collection cost Tables 5 and 7
// aggregate — and measures the compiled-ScanPlan rewrite against the paper's
// interpretive trace-table walk (DESIGN.md "Beyond the paper: compiled scan
// plans"). Four frame shapes bracket the design space:
//
//   allptr   every slot a Pointer trace: the bitmask's best case (one
//            countr_zero loop over dense words);
//   nonptr   every slot NonPointer: the bitmask's *other* best case (the
//            whole frame is one zero-word test, the interpreter still
//            switches on every slot);
//   mixed    20 ptr + 20 nonptr + 2 callee-save + 2 compute: the shape the
//            ISSUE's >= 4x slot-visit acceptance bound is stated over;
//   compute  half the slots runtime-resolved: the worst case, since Compute
//            traces stay interpretive in both modes.
//
// Each shape runs interpreted vs compiled, without markers (every frame
// rescanned, as in the baseline collectors) and with markers + scan cache
// (steady-state generational stack collection, where only frames above the
// reuse boundary pay either cost). Counters report the per-scan work terms:
// slots_visited is the interpreted-slot count the plan compiler eliminates,
// plan_words the bitmask words it pays instead.
//
//===----------------------------------------------------------------------===//

#include "stack/StackScanner.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

using namespace tilgc;

namespace {

/// Referents for pointer slots and type descriptors for compute slots; all
/// static, so stacks can be rebuilt cheaply and nothing ever moves.
Word FakeObjs[256];
Word DescPtr[1] = {1};
Word DescNonPtr[1] = {0};

struct ScanKeys {
  uint32_t AllPtr;  ///< 40 pointer slots.
  uint32_t NonPtr;  ///< 40 non-pointer slots.
  uint32_t Mixed;   ///< 20 ptr + 20 nonptr + 2 callee-save + 2 compute.
  uint32_t Compute; ///< 6 descriptor slots + 6 compute slots.

  static const ScanKeys &get() {
    static ScanKeys K = [] {
      auto &Reg = TraceTableRegistry::global();
      ScanKeys K;
      K.AllPtr = Reg.define(FrameLayout(
          "micro.allptr", std::vector<Trace>(40, Trace::pointer())));
      K.NonPtr = Reg.define(FrameLayout(
          "micro.nonptr", std::vector<Trace>(40, Trace::nonPointer())));

      std::vector<Trace> Mixed;
      for (int I = 0; I < 20; ++I)
        Mixed.push_back(Trace::pointer());
      for (int I = 0; I < 20; ++I)
        Mixed.push_back(Trace::nonPointer());
      Mixed.push_back(Trace::calleeSave(6));
      Mixed.push_back(Trace::calleeSave(7));
      Mixed.push_back(Trace::computeFromSlot(1));
      Mixed.push_back(Trace::computeFromSlot(2));
      K.Mixed = Reg.define(FrameLayout("micro.mixed", Mixed,
                                       {RegAction{6, Trace::pointer()},
                                        RegAction{7, Trace::pointer()}}));

      std::vector<Trace> Comp(6, Trace::pointer());
      for (unsigned S = 1; S <= 6; ++S)
        Comp.push_back(Trace::computeFromSlot(S));
      K.Compute = Reg.define(FrameLayout("micro.compute", Comp));
      return K;
    }();
    return K;
  }
};

/// Pushes \p Depth frames of layout \p Key, populating pointer slots with
/// fake referents and descriptor slots so Compute traces resolve both ways.
void buildStack(ShadowStack &S, uint32_t Key, size_t Depth) {
  const ScanKeys &K = ScanKeys::get();
  uint32_t NumSlots = TraceTableRegistry::global().lookup(Key).numSlots();
  for (size_t F = 0; F < Depth; ++F) {
    size_t B = S.pushFrame(Key, NumSlots);
    if (Key == K.NonPtr) {
      for (uint32_t Slot = 1; Slot < NumSlots; ++Slot)
        S.slot(B, Slot) = 0x1000 + F + Slot;
      continue;
    }
    for (uint32_t Slot = 1; Slot < NumSlots; ++Slot)
      S.slot(B, Slot) =
          reinterpret_cast<Word>(&FakeObjs[(F * 7 + Slot) % 256]);
    if (Key == K.Mixed) {
      for (uint32_t Slot = 21; Slot <= 40; ++Slot)
        S.slot(B, Slot) = 0x1000 + F + Slot;
      S.slot(B, 1) = reinterpret_cast<Word>(F % 2 ? DescPtr : DescNonPtr);
      S.slot(B, 2) = reinterpret_cast<Word>(F % 2 ? DescNonPtr : DescPtr);
    } else if (Key == K.Compute) {
      for (uint32_t Slot = 1; Slot <= 6; ++Slot)
        S.slot(B, Slot) =
            reinterpret_cast<Word>((F + Slot) % 2 ? DescPtr : DescNonPtr);
    }
  }
}

/// One scan benchmark: \p Key at depth State.range(0), compiled or
/// interpretive, optionally under markers + scan cache (steady state: the
/// first, marker-placing scan runs outside the timed loop).
void runScanBench(benchmark::State &State, uint32_t Key, bool Compiled,
                  bool Markers) {
  ShadowStack Stack;
  RegisterFile Regs;
  buildStack(Stack, Key, static_cast<size_t>(State.range(0)));

  MarkerManager MM(25);
  ScanCache Cache;
  MarkerManager *MMp = Markers ? &MM : nullptr;
  ScanCache *Cachep = Markers ? &Cache : nullptr;

  RootSet Roots;
  Roots.reserve(4096);
  if (Markers) {
    ScanStats Warm;
    StackScanner::scan(Stack, Regs, MMp, Cachep, Roots, Warm, Compiled);
  }

  uint64_t Slots = 0, PlanWords = 0, Frames = 0, NumRoots = 0;
  for (auto _ : State) {
    ScanStats Stats;
    Roots.clear();
    StackScanner::scan(Stack, Regs, MMp, Cachep, Roots, Stats, Compiled);
    benchmark::DoNotOptimize(Roots.FreshSlotRoots.data());
    benchmark::DoNotOptimize(Roots.ReusedSlotRoots.data());
    Slots += Stats.SlotsVisited;
    PlanWords += Stats.PlanWordsScanned;
    Frames += Stats.FramesScanned + Stats.FramesReused;
    NumRoots += Roots.FreshSlotRoots.size() + Roots.ReusedSlotRoots.size();
  }

  double N = static_cast<double>(State.iterations());
  State.counters["slots_visited"] =
      benchmark::Counter(static_cast<double>(Slots) / N);
  State.counters["plan_words"] =
      benchmark::Counter(static_cast<double>(PlanWords) / N);
  State.counters["roots"] =
      benchmark::Counter(static_cast<double>(NumRoots) / N);
  State.SetItemsProcessed(static_cast<int64_t>(Frames));
}

#define SCAN_BENCH(Shape, Field)                                               \
  void BM_Scan_##Shape##_Interp(benchmark::State &S) {                         \
    runScanBench(S, ScanKeys::get().Field, false, false);                      \
  }                                                                            \
  BENCHMARK(BM_Scan_##Shape##_Interp)->Arg(100)->Arg(1000)->Arg(4000);        \
  void BM_Scan_##Shape##_Compiled(benchmark::State &S) {                       \
    runScanBench(S, ScanKeys::get().Field, true, false);                       \
  }                                                                            \
  BENCHMARK(BM_Scan_##Shape##_Compiled)->Arg(100)->Arg(1000)->Arg(4000);      \
  void BM_Scan_##Shape##_Markers_Interp(benchmark::State &S) {                 \
    runScanBench(S, ScanKeys::get().Field, false, true);                       \
  }                                                                            \
  BENCHMARK(BM_Scan_##Shape##_Markers_Interp)->Arg(1000);                      \
  void BM_Scan_##Shape##_Markers_Compiled(benchmark::State &S) {               \
    runScanBench(S, ScanKeys::get().Field, true, true);                        \
  }                                                                            \
  BENCHMARK(BM_Scan_##Shape##_Markers_Compiled)->Arg(1000);

SCAN_BENCH(AllPtr, AllPtr)
SCAN_BENCH(NonPtr, NonPtr)
SCAN_BENCH(Mixed, Mixed)
SCAN_BENCH(Compute, Compute)

#undef SCAN_BENCH

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
