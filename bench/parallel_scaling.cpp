//===- bench/parallel_scaling.cpp - GC worker scaling ------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Beyond the paper: sweeps GcThreads over the Table-4 workloads (k = 4,
// generational collector with card marking and mark-compact majors, the
// configuration where every pool user runs) and reports the phases the GC
// worker pool runs: the mark-compact mark and fixup and the striped card
// sweep, in ms per major, with each run's major count and peak footprint.
// Evacuation is serial at every thread count, so copies are not swept.
// Also emits BENCH_parallel.json for machine consumption.
//
// Speedups are only meaningful on a multi-core host: on a single CPU the
// thread counts > 1 still exercise the full parallel protocol but timeshare
// one core, so expect slowdown there, not scaling.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "observe/GcObserver.h"
#include "support/Table.h"

#include <cstdio>
#include <string>
#include <thread>

using namespace tilgc;
using namespace tilgc::bench;

namespace {

/// Sums the pool-run phases over every collection it observes (attaching
/// it also arms the phase stamps).
struct PoolPhases : GcObserver {
  uint64_t MarkNs = 0;
  uint64_t FixupNs = 0;
  uint64_t CardScanNs = 0;
  void onGcEnd(const GcEvent &E) override {
    MarkNs += E.PhaseDurNs[static_cast<unsigned>(GcPhase::Mark)];
    FixupNs += E.PhaseDurNs[static_cast<unsigned>(GcPhase::Fixup)];
    CardScanNs += E.PhaseDurNs[static_cast<unsigned>(GcPhase::CardScan)];
  }
};

/// One thread count's result: phase ms per major, averaged over the reps.
struct Point {
  Measurement M;
  double MarkMs = 0;
  double FixupMs = 0;
  double CardScanMs = 0;
  double poolMs() const { return MarkMs + FixupMs + CardScanMs; }
};

std::string ms(double V) { return formatString("%.3f", V); }

} // namespace

int main(int Argc, char **Argv) {
  double Scale = scaleFromArgs(Argc, Argv);
  int Reps = repsFromArgs(Argc, Argv, 3);
  printBanner("GC worker scaling: mark, fixup and card sweep (beyond the "
              "paper), k = 4",
              Scale);
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("# Host has %u hardware thread(s); speedups above that count\n"
              "# (and all speedups on a 1-CPU host) measure timesharing\n"
              "# overhead of the parallel protocol, not scaling.\n\n",
              Cores);

  const unsigned Threads[] = {1, 2, 4, 8};
  constexpr int NumT = 4;

  Table Times("Mark + fixup + card-scan ms per major by GcThreads "
              "(speedup vs T=1)");
  Times.setHeader({"Program", "Majors", "Peak KB", "T=1", "T=2", "T=4", "T=8",
                   "x2", "x4", "x8"});

  std::FILE *Json = std::fopen("BENCH_parallel.json", "w");
  if (Json)
    std::fprintf(Json, "{\"meta\": %s,\n \"runs\": [\n",
                 machineMetaJson().c_str());
  bool FirstRecord = true;

  for (const auto &W : allWorkloads()) {
    Point P[NumT];
    for (int I = 0; I < NumT; ++I) {
      PoolPhases Phases;
      MutatorConfig C = configFor(CollectorKind::Generational, 4.0, *W, Scale);
      C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
      C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
      C.GcThreads = Threads[I];
      C.Observer = &Phases;
      P[I].M = runWorkloadAveraged(*W, C, Scale, Reps);
      // The schedule is the same every rep, so the phases summed over the
      // reps divide by reps x majors.
      double PerMajor = P[I].M.NumMajorGC
                            ? 1e-6 / (static_cast<double>(Reps) *
                                      static_cast<double>(P[I].M.NumMajorGC))
                            : 0.0;
      P[I].MarkMs = static_cast<double>(Phases.MarkNs) * PerMajor;
      P[I].FixupMs = static_cast<double>(Phases.FixupNs) * PerMajor;
      P[I].CardScanMs = static_cast<double>(Phases.CardScanNs) * PerMajor;
    }
    auto Speedup = [&](int I) {
      return P[I].poolMs() > 0 ? P[0].poolMs() / P[I].poolMs() : 0.0;
    };
    // A program without majors has no per-major figure.
    bool HasMajors = P[0].M.NumMajorGC > 0;
    auto PoolCell = [&](int I) {
      return HasMajors ? ms(P[I].poolMs()) : std::string("-");
    };
    auto SpeedupCell = [&](int I) {
      return HasMajors ? formatString("%.2f", Speedup(I)) : std::string("-");
    };
    Times.addRow({W->name(),
                  formatString("%llu",
                               (unsigned long long)P[0].M.NumMajorGC),
                  formatString("%llu", (unsigned long long)(
                                           P[0].M.MaxFootprintBytes >> 10)),
                  PoolCell(0), PoolCell(1), PoolCell(2),
                  checked(P[3].M, PoolCell(3)), SpeedupCell(1),
                  SpeedupCell(2), SpeedupCell(3)});
    if (!Json)
      continue;
    for (int I = 0; I < NumT; ++I) {
      const Measurement &M = P[I].M;
      std::fprintf(
          Json,
          "%s  {\"workload\": \"%s\", \"threads\": %u, \"k\": 4.0,\n"
          "   \"major_gc\": \"compact\", \"barrier\": \"cards\",\n"
          "   \"num_gc\": %llu, \"num_major_gc\": %llu,"
          " \"max_footprint_bytes\": %llu,\n"
          "   \"mark_ms_per_major\": %.6f, \"fixup_ms_per_major\": %.6f,"
          " \"card_scan_ms_per_major\": %.6f,\n"
          "   \"gc_sec\": %.6f, \"pool_speedup\": %.4f,"
          " \"speedup_reliable\": %s, \"valid\": %s}",
          FirstRecord ? "" : ",\n", W->name(), Threads[I],
          (unsigned long long)M.NumGC, (unsigned long long)M.NumMajorGC,
          (unsigned long long)M.MaxFootprintBytes, P[I].MarkMs,
          P[I].FixupMs, P[I].CardScanMs, M.GcSec, Speedup(I),
          // Speedups measured with more workers than hardware threads
          // timeshare cores: they exercise the protocol, not scaling.
          Cores != 0 && Threads[I] <= Cores ? "true" : "false",
          M.Valid ? "true" : "false");
      FirstRecord = false;
    }
  }
  if (Json) {
    std::fprintf(Json, "\n]}\n");
    std::fclose(Json);
    std::printf("\nwrote BENCH_parallel.json\n");
  }
  Times.print(stdout);
  return 0;
}
