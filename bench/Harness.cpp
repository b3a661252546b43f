//===- bench/Harness.cpp - Shared experiment harness -----------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

using namespace tilgc;
using namespace tilgc::bench;

Measurement bench::runWorkload(Workload &W, const MutatorConfig &Config,
                               double Scale) {
  Mutator M(Config);
  Timer Total;
  Total.start();
  uint64_t Got = W.run(M, Scale);
  Total.stop();

  Measurement R;
  const GcStats &S = M.gcStats();
  R.TotalSec = Total.seconds();
  R.GcSec = S.gcSeconds();
  R.ClientSec = R.TotalSec - R.GcSec;
  R.StackSec = S.stackSeconds();
  R.CopySec = S.copySeconds();
  R.NumGC = S.NumGC;
  R.NumMajorGC = S.NumMajorGC;
  R.BytesAllocated = S.BytesAllocated;
  R.RecordBytes = S.RecordBytesAllocated;
  R.ArrayBytes = S.ArrayBytesAllocated;
  R.BytesCopied = S.BytesCopied;
  R.MajorBytesMoved = S.MajorBytesMoved;
  R.MaxLiveBytes = S.MaxLiveBytes;
  R.MaxFootprintBytes = S.MaxFootprintBytes;
  R.MaxFrames = S.MaxFramesAtGC;
  R.AvgFrames = S.avgFramesAtGC();
  R.AvgNewFrames = S.avgNewFramesAtGC();
  R.FramesScanned = S.FramesScanned;
  R.FramesReused = S.FramesReused;
  R.SSBProcessed = S.SSBEntriesProcessed;
  R.CardsScanned = S.CardsScanned;
  R.CardSlotsVisited = S.CardSlotsVisited;
  R.CrossingMapUpdates = S.CrossingMapUpdates;
  R.HybridSwitchEpoch = S.HybridSwitchEpoch;
  R.PointerUpdates = M.pointerUpdates();
  R.PretenuredBytes = S.PretenuredBytes;
  R.PretenuredScannedBytes = S.PretenuredScannedBytes;
  R.PretenuredSkippedBytes = S.PretenuredScanSkippedBytes;
  const PauseHistogram &Minor =
      M.telemetry().histogram(GcGeneration::Minor);
  const PauseHistogram &Major =
      M.telemetry().histogram(GcGeneration::Major);
  R.MinorPauseP50Us = static_cast<double>(Minor.p50Ns()) / 1e3;
  R.MinorPauseP99Us = static_cast<double>(Minor.p99Ns()) / 1e3;
  R.MajorPauseP50Us = static_cast<double>(Major.p50Ns()) / 1e3;
  R.MajorPauseP99Us = static_cast<double>(Major.p99Ns()) / 1e3;
  R.MaxPauseUs =
      static_cast<double>(std::max(Minor.maxNs(), Major.maxNs())) / 1e3;
  R.Valid = Got == expectedFor(W, Scale);
  return R;
}

Measurement bench::runWorkloadAveraged(Workload &W,
                                       const MutatorConfig &Config,
                                       double Scale, int Repeats) {
  Measurement Sum = runWorkload(W, Config, Scale);
  for (int R = 1; R < Repeats; ++R) {
    Measurement M = runWorkload(W, Config, Scale);
    Sum.TotalSec += M.TotalSec;
    Sum.GcSec += M.GcSec;
    Sum.ClientSec += M.ClientSec;
    Sum.StackSec += M.StackSec;
    Sum.CopySec += M.CopySec;
    Sum.Valid = Sum.Valid && M.Valid;
  }
  double Inv = 1.0 / Repeats;
  Sum.TotalSec *= Inv;
  Sum.GcSec *= Inv;
  Sum.ClientSec *= Inv;
  Sum.StackSec *= Inv;
  Sum.CopySec *= Inv;
  return Sum;
}

int bench::repsFromArgs(int Argc, char **Argv, int Default) {
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--reps=", 7) == 0)
      return std::atoi(Argv[I] + 7);
  return Default;
}

uint64_t bench::expectedFor(Workload &W, double Scale) {
  static std::map<std::pair<std::string, double>, uint64_t> Cache;
  auto Key = std::make_pair(std::string(W.name()), Scale);
  auto It = Cache.find(Key);
  if (It == Cache.end())
    It = Cache.emplace(Key, W.expected(Scale)).first;
  return It->second;
}

uint64_t bench::minBytesFor(Workload &W, double Scale) {
  // Cache per (workload, scale).
  static std::map<std::pair<const Workload *, double>, uint64_t> Cache;
  auto Key = std::make_pair(static_cast<const Workload *>(&W), Scale);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;

  // Semispace sized by a tight liveness target: every collection is full
  // and happens every ~2x-live bytes of allocation, so MaxLive is sampled
  // at a resolution proportional to the live set itself.
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = 1u << 30;
  C.SemispaceTargetLiveness = 0.33;
  Mutator M(C);
  (void)W.run(M, Scale);
  uint64_t MaxLive = M.gcStats().MaxLiveBytes;
  if (MaxLive < 16u << 10)
    MaxLive = 16u << 10; // Floor: the paper's tiniest live sets are ~16KB.
  uint64_t Min = 2 * MaxLive;
  Cache.emplace(Key, Min);
  return Min;
}

MutatorConfig bench::configFor(CollectorKind Kind, double K, Workload &W,
                               double Scale) {
  MutatorConfig C;
  C.Kind = Kind;
  C.BudgetBytes =
      static_cast<size_t>(K * static_cast<double>(minBytesFor(W, Scale)));
  return C;
}

std::vector<PretenureDecision>
bench::profilePretenureSet(Workload &W, double Scale,
                           bool KeepScanElimination) {
  MutatorConfig C = configFor(CollectorKind::Generational, 4.0, W, Scale);
  C.EnableProfiling = true;
  Mutator M(C);
  (void)W.run(M, Scale);
  std::vector<PretenureDecision> Decisions =
      M.profiler()->derivePretenureSet(/*OldCutoff=*/0.8);
  if (!KeepScanElimination)
    for (PretenureDecision &D : Decisions)
      D.EliminateScan = false;
  return Decisions;
}

double bench::scaleFromArgs(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--scale=", 8) == 0)
      return std::atof(Arg + 8);
    double V = std::atof(Arg);
    if (V > 0)
      return V;
  }
  // Default: large enough that per-collection times dominate timer noise.
  return 2.0;
}

void bench::printBanner(const char *Title, double Scale) {
  std::printf("### %s (scale %.2f)\n", Title, Scale);
  std::printf("# Reproduction of Cheng/Harper/Lee, PLDI'98. Absolute times\n"
              "# differ from the paper's DEC Alpha; the shapes are the\n"
              "# experiment. Memory protocol: budget = k * Min, Min = 2 *\n"
              "# max live data (measured by a calibration run).\n\n");
}

std::string bench::machineMetaJson() {
#ifdef TILGC_BUILD_TYPE
  const char *Build = TILGC_BUILD_TYPE[0] ? TILGC_BUILD_TYPE : "unspecified";
#else
  const char *Build = "unspecified";
#endif
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "{\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
                "\"pointer_bits\": %u, \"asserts\": %s}",
                std::thread::hardware_concurrency(), Build,
                unsigned(sizeof(void *) * 8),
#ifdef NDEBUG
                "false"
#else
                "true"
#endif
  );
  return Buf;
}

std::string bench::pauseUs(double Us) {
  char Buf[32];
  if (Us >= 1000.0)
    std::snprintf(Buf, sizeof(Buf), "%.2fms", Us / 1000.0);
  else
    std::snprintf(Buf, sizeof(Buf), "%.0fus", Us);
  return Buf;
}

std::string bench::sec(double Seconds) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Seconds);
  return Buf;
}

std::string bench::checked(const Measurement &M, std::string Cell) {
  if (!M.Valid)
    Cell += " (!)";
  return Cell;
}
