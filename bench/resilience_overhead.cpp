//===- bench/resilience_overhead.cpp - Resilience cost (google-benchmark) -===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Guardrail for the memory-pressure resilience machinery: the structured
// OOM ladder, the disarmed fault injector and VerifyLevel=0 must add
// nothing measurable to the allocation fast path or the collection loop,
// and the higher audit levels must have a knowable, bounded price. Run
// against micro_gc/micro_scan baselines after touching any of those paths;
// EXPERIMENTS.md records the reference numbers.
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "support/FaultInjector.h"
#include "workloads/MLLib.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t site() {
  static const uint32_t S =
      AllocSiteRegistry::global().define("resilience.site");
  return S;
}

uint32_t key() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "resilience.frame",
      {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

MutatorConfig config(unsigned VerifyLevel) {
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  C.BudgetBytes = 8u << 20;
  C.NurseryLimitBytes = 256u << 10;
  C.VerifyLevel = VerifyLevel;
  return C;
}

/// The allocation fast path with the injector disarmed — the common case
/// every production allocation pays. Must match micro_gc's
/// BM_AllocRecordGenerational: the only new instructions are one relaxed
/// load + predicted-untaken branch per TLAB refill, not per allocation.
void BM_AllocDisarmedInjector(benchmark::State &State) {
  FaultInjector::global().reset();
  Mutator M(config(0));
  Frame F(M, key());
  for (auto _ : State) {
    F.set(1, M.allocRecord(site(), 2, 0b10));
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocDisarmedInjector);

/// The allocation fast path with the watchdog disarmed (deadline 0, the
/// default). Supervision must be free when it is off: the supervisor
/// thread is never started, arm()/disarm() are never called, and the
/// live-phase atomic is never stored. Any delta against
/// BM_AllocDisarmedInjector is a regression.
void BM_AllocDisarmedWatchdog(benchmark::State &State) {
  FaultInjector::global().reset();
  MutatorConfig C = config(0);
  C.GcDeadlineMicros = 0;        // Explicit: supervision disarmed.
  C.SafepointDeadlineMicros = 0;
  Mutator M(C);
  Frame F(M, key());
  for (auto _ : State) {
    F.set(1, M.allocRecord(site(), 2, 0b10));
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocDisarmedWatchdog);

/// Allocation churn with the GC-cycle watchdog armed at a generous
/// deadline that never expires: prices the per-collection arm/disarm pair
/// (one mutex lock + condvar notify each) and the relaxed live-phase
/// stores — nothing per allocation.
void BM_ChurnArmedWatchdog(benchmark::State &State) {
  MutatorConfig C = config(0);
  C.GcDeadlineMicros = static_cast<uint64_t>(State.range(0));
  Mutator M(C);
  Frame F(M, key());
  uint64_t I = 0;
  for (auto _ : State) {
    F.set(1, consInt(M, site(), static_cast<int64_t>(I), slot(F, 1)));
    if ((++I & 0x3FF) == 0)
      F.set(1, Value::null()); // Bound the live list; keep GCs minor-ish.
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ChurnArmedWatchdog)->Arg(0)->Arg(10000000);

/// Allocation churn with live data and periodic collections at each audit
/// level. Level 0 is the production configuration and the zero-overhead
/// guardrail; level 1 walks the heap after every GC; level 2 adds the
/// pre-minor remembered-set audit; level 3 adds from-space poisoning and
/// poison-integrity sweeps.
void BM_ChurnAtVerifyLevel(benchmark::State &State) {
  Mutator M(config(static_cast<unsigned>(State.range(0))));
  Frame F(M, key());
  uint64_t I = 0;
  for (auto _ : State) {
    F.set(1, consInt(M, site(), static_cast<int64_t>(I), slot(F, 1)));
    if ((++I & 0x3FF) == 0)
      F.set(1, Value::null()); // Bound the live list; keep GCs minor-ish.
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ChurnAtVerifyLevel)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

/// Full-collection cost at each audit level over a fixed retained graph —
/// isolates the per-GC verifier price from mutator noise.
void BM_MajorGcAtVerifyLevel(benchmark::State &State) {
  Mutator M(config(static_cast<unsigned>(State.range(0))));
  Frame F(M, key());
  for (int I = 0; I < 20000; ++I)
    F.set(1, consInt(M, site(), I, slot(F, 1)));
  for (auto _ : State)
    M.collect(/*Major=*/true);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_MajorGcAtVerifyLevel)->Arg(0)->Arg(1)->Arg(3);

/// The hard-cap pre-flight arithmetic, priced: same churn as level 0 but
/// with a (never-hit) hard limit installed, so every collection runs the
/// peak-footprint check.
void BM_ChurnWithHardLimit(benchmark::State &State) {
  MutatorConfig C = config(0);
  C.HardLimitBytes = 1u << 30; // Generous: the ladder never escalates.
  Mutator M(C);
  Frame F(M, key());
  uint64_t I = 0;
  for (auto _ : State) {
    F.set(1, consInt(M, site(), static_cast<int64_t>(I), slot(F, 1)));
    if ((++I & 0x3FF) == 0)
      F.set(1, Value::null());
    benchmark::DoNotOptimize(F.get(1).bits());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ChurnWithHardLimit);

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
