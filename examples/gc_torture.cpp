//===- examples/gc_torture.cpp - Interactive torture driver ----------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Runs all eleven paper benchmarks back-to-back under one collector
// configuration chosen on the command line, validating every checksum —
// handy for soak-testing a collector change.
//
// Usage:
//   gc_torture [semispace|generational] [--markers] [--pretenure]
//              [--cards] [--compact] [--aged=N] [--budget=BYTES]
//              [--scale=S] [--threads=N] [--mutators=N]
//
// --compact runs generational majors on the region mark-compact engine;
// --threads sets the GC workers that run its mark and fixup and the
// striped card sweep (evacuation is serial, so the semispace collector
// ignores it); --mutators runs each workload on N concurrent mutator
// threads sharing one heap (TLABs + safepoints), with every thread's
// checksum validated independently.
//
// Set TILGC_TRACE_OUT=<path> to write a chrome://tracing JSON of the last
// workload's collections (each run overwrites the file).
//
//===----------------------------------------------------------------------===//

#include "runtime/MutatorGroup.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace tilgc;

int main(int Argc, char **Argv) {
  MutatorConfig C;
  C.BudgetBytes = 2u << 20;
  C.VerifyLevel = 1;
  double Scale = 0.5;
  bool Pretenure = false;
  unsigned Mutators = 1;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (!std::strcmp(A, "semispace"))
      C.Kind = CollectorKind::Semispace;
    else if (!std::strcmp(A, "generational"))
      C.Kind = CollectorKind::Generational;
    else if (!std::strcmp(A, "--markers"))
      C.UseStackMarkers = true;
    else if (!std::strcmp(A, "--cards"))
      C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
    else if (!std::strcmp(A, "--compact"))
      C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
    else if (!std::strcmp(A, "--pretenure"))
      Pretenure = true;
    else if (!std::strncmp(A, "--aged=", 7))
      C.PromoteAgeThreshold = static_cast<unsigned>(std::atoi(A + 7));
    else if (!std::strncmp(A, "--budget=", 9))
      C.BudgetBytes = static_cast<size_t>(std::atol(A + 9));
    else if (!std::strncmp(A, "--scale=", 8))
      Scale = std::atof(A + 8);
    else if (!std::strncmp(A, "--threads=", 10))
      C.GcThreads = static_cast<unsigned>(std::atoi(A + 10));
    else if (!std::strncmp(A, "--mutators=", 11))
      Mutators = static_cast<unsigned>(std::atoi(A + 11));
    else {
      std::fprintf(stderr, "unknown flag %s\n", A);
      return 2;
    }
  }

  int Failures = 0;
  for (const auto &W : allWorkloads()) {
    MutatorConfig Run = C;
    if (Pretenure && C.Kind == CollectorKind::Generational) {
      MutatorConfig Prof = C;
      Prof.EnableProfiling = true;
      Mutator PM(Prof);
      (void)W->run(PM, Scale);
      Run.Pretenure = PM.profiler()->derivePretenureSet(0.8);
    }
    if (Mutators > 1) {
      // Shared heap: scale the budget with the thread count so per-thread
      // GC pressure matches the single-mutator run.
      Run.BudgetBytes *= Mutators;
      MutatorGroup G(Run, Mutators);
      std::vector<uint64_t> Sums(Mutators, 0);
      G.run([&](Mutator &TM, unsigned I) {
        std::unique_ptr<Workload> Mine = makeWorkloadByName(W->name());
        Sums[I] = Mine->run(TM, Scale);
      });
      bool OK = true;
      for (uint64_t Sum : Sums)
        OK = OK && Sum == W->expected(Scale);
      Failures += !OK;
      const GcStats &S = G.gcStats();
      std::printf("%-13s %-4s gc=%6.3fs GCs=%5llu copied=%8lluKB "
                  "stops=%5llu\n",
                  W->name(), OK ? "OK" : "BAD", S.gcSeconds(),
                  (unsigned long long)S.NumGC,
                  (unsigned long long)(S.BytesCopied >> 10),
                  (unsigned long long)S.SafepointStops);
      continue;
    }
    Mutator M(Run);
    uint64_t Got = W->run(M, Scale);
    bool OK = Got == W->expected(Scale);
    Failures += !OK;
    const GcStats &S = M.gcStats();
    std::printf("%-13s %-4s gc=%6.3fs GCs=%5llu copied=%8lluKB "
                "frames(avg)=%6.1f\n",
                W->name(), OK ? "OK" : "BAD", S.gcSeconds(),
                (unsigned long long)S.NumGC,
                (unsigned long long)(S.BytesCopied >> 10), S.avgFramesAtGC());
  }
  std::printf("%s\n", Failures ? "FAILURES PRESENT" : "all checksums match");
  return Failures ? 1 : 0;
}
