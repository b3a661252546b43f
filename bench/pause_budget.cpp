//===- bench/pause_budget.cpp - Pause-budget SLO compliance ----------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Beyond the paper: the pause-budget mode (GcOptions::MaxPauseMicros) slices
// MarkCompact's mark phase into allocation-safepoint increments, trading a
// little float for a bounded major-GC p99. This bench is the SLO gate: for
// every workload x mutator count x budget it runs the workload under the
// budget and reports the major-track pause percentiles (slices, plus the
// rare stop-the-world finish, all land in the Major histogram — the p99 is
// over exactly the pauses a latency-sensitive client would see).
//
// Emits BENCH_pause.json; CI asserts p99_ns <= budget_ns for every gated
// record. Single-mutator records are gated — that is the configuration the
// SLO is defined over. Multi-mutator records are reported but ungated:
// under MutatorGroup every collection (slice or not) runs inside a
// stop-the-world rendezvous, so the recorded pause is dominated by
// time-to-safepoint — how long the slowest thread takes to reach a poll
// point — which no amount of mark slicing can bound (FFT's long
// poll-free array loops already push the *stock* multi-mutator p99 to
// tens of milliseconds). The zero-budget baseline column shows what the
// same heap pays for monolithic majors, i.e. what the budget bought.
//
// --mutators=N restricts the sweep to one mutator count (CI smoke).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "gc/GenerationalCollector.h"
#include "observe/GcTelemetry.h"
#include "runtime/MutatorGroup.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace tilgc;
using namespace tilgc::bench;

namespace {

struct Run {
  double WallSec = 0;
  uint64_t P50Ns = 0;
  uint64_t P99Ns = 0;
  uint64_t MaxNs = 0;
  uint64_t NumMajor = 0;
  uint64_t Cycles = 0;
  uint64_t Slices = 0;
  bool Valid = false;
};

Run harvest(Mutator &M, double WallSec, bool Valid) {
  Run R;
  R.WallSec = WallSec;
  const PauseHistogram &H = M.telemetry().histogram(GcGeneration::Major);
  R.P50Ns = H.p50Ns();
  R.P99Ns = H.p99Ns();
  R.MaxNs = H.maxNs();
  R.NumMajor = M.gcStats().NumMajorGC;
  auto &GC = static_cast<GenerationalCollector &>(M.collector());
  R.Cycles = GC.incrementalCycles();
  R.Slices = GC.incrementalSlices();
  R.Valid = Valid;
  return R;
}

Run runCase(Workload &W, unsigned Mutators, uint32_t BudgetUs, double Scale) {
  // The paper's k*Min protocol at the standard k = 4.0 (the same multiple
  // the other beyond-the-paper benches use). Majors still happen — the
  // incremental cycles need real tenured pressure — but the heap is not so
  // tight that a full collection fires every few nursery-loads: under that
  // regime finishes are a double-digit percentage of all major-track
  // pauses and no slicing policy can keep the p99 on a slice.
  MutatorConfig C = configFor(CollectorKind::Generational, 4.0, W, Scale);
  C.Name = W.name();
  C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  C.MaxPauseMicros = BudgetUs;
  uint64_t Want = expectedFor(W, Scale);

  if (Mutators == 1) {
    // The gated configuration: the plain single-mutator runtime, where
    // slices fire straight from the allocation slow path.
    Timer T;
    T.start();
    Mutator M(C);
    uint64_t Sum = W.run(M, Scale);
    T.stop();
    return harvest(M, T.seconds(), Sum == Want);
  }

  // Shared budget scales with the thread count so per-thread GC pressure
  // matches the single-mutator run (the mutator_scaling convention).
  C.BudgetBytes *= Mutators;
  Timer T;
  T.start();
  MutatorGroup G(C, Mutators);
  std::vector<uint64_t> Sums(Mutators, 0);
  G.run([&](Mutator &M, unsigned I) {
    std::unique_ptr<Workload> Private = makeWorkloadByName(W.name());
    Sums[I] = Private->run(M, Scale);
  });
  T.stop();
  bool Valid = true;
  for (uint64_t Sum : Sums)
    Valid = Valid && Sum == Want;
  return harvest(G.mutator(0), T.seconds(), Valid);
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = scaleFromArgs(Argc, Argv);
  unsigned Only = 0;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--mutators=", 11) == 0)
      Only = static_cast<unsigned>(std::atoi(Argv[I] + 11));

  printBanner("Pause-budget SLO: major-GC p99 vs MaxPauseMicros, k = 4.0",
              Scale);

  const uint32_t BudgetsUs[] = {200, 1000};
  const unsigned Muts[] = {1, 2, 8};

  Table Tab("Major-track pause p99 (us) by budget and mutator count");
  Tab.setHeader({"Workload", "M", "stock p99", "b=200us p99", "b=1000us p99",
                 "cycles", "slices"});

  std::FILE *Json = std::fopen("BENCH_pause.json", "w");
  if (Json)
    std::fprintf(Json, "{\"meta\": %s,\n \"runs\": [\n",
                 machineMetaJson().c_str());
  bool FirstRecord = true;
  unsigned Violations = 0;

  for (const std::unique_ptr<Workload> &WP : allWorkloads()) {
    Workload &W = *WP;
    for (unsigned M : Muts) {
      if (Only && M != Only)
        continue;
      // Stock baseline (budget 0): the monolithic-major p99 this heap pays
      // without the SLO mode. Reported for the table, never gated.
      Run Stock = runCase(W, M, 0, Scale);
      Run Budgeted[2];
      for (int B = 0; B < 2; ++B) {
        Budgeted[B] = runCase(W, M, BudgetsUs[B], Scale);
        uint64_t BudgetNs = static_cast<uint64_t>(BudgetsUs[B]) * 1000;
        bool Gated = M == 1;
        if (Gated && Budgeted[B].P99Ns > BudgetNs)
          ++Violations;
        if (Json) {
          std::fprintf(
              Json,
              "%s  {\"workload\": \"%s\", \"mutators\": %u, \"k\": 4.0,\n"
              "   \"gated\": %s, \"budget_us\": %u, \"budget_ns\": %llu,\n"
              "   \"p50_ns\": %llu, \"p99_ns\": %llu, \"max_pause_ns\": "
              "%llu,\n"
              "   \"stock_p99_ns\": %llu, \"num_major\": %llu,\n"
              "   \"cycles\": %llu, \"slices\": %llu,\n"
              "   \"wall_sec\": %.6f, \"valid\": %s}",
              FirstRecord ? "" : ",\n", W.name(), M, Gated ? "true" : "false",
              BudgetsUs[B], (unsigned long long)BudgetNs,
              (unsigned long long)Budgeted[B].P50Ns,
              (unsigned long long)Budgeted[B].P99Ns,
              (unsigned long long)Budgeted[B].MaxNs,
              (unsigned long long)Stock.P99Ns,
              (unsigned long long)Budgeted[B].NumMajor,
              (unsigned long long)Budgeted[B].Cycles,
              (unsigned long long)Budgeted[B].Slices, Budgeted[B].WallSec,
              Budgeted[B].Valid ? "true" : "false");
          FirstRecord = false;
        }
      }
      auto Cell = [](const Run &R) {
        std::string S = pauseUs(static_cast<double>(R.P99Ns) / 1e3);
        return R.Valid ? S : S + " !";
      };
      Tab.addRow({W.name(), formatString("%u", M), Cell(Stock),
                  Cell(Budgeted[0]), Cell(Budgeted[1]),
                  formatString("%llu",
                               (unsigned long long)Budgeted[0].Cycles),
                  formatString("%llu",
                               (unsigned long long)Budgeted[0].Slices)});
    }
  }

  if (Json) {
    std::fprintf(Json, "\n]}\n");
    std::fclose(Json);
    std::printf("wrote BENCH_pause.json\n");
  }
  Tab.print(stdout);
  if (Violations)
    std::printf(
        "\n%u gated record(s) exceeded their budget (p99_ns > budget_ns)\n",
        Violations);
  else
    std::printf("\nall gated records met their budget (p99_ns <= budget_ns)\n");
  return 0;
}
