//===- perfbench/gcbench.cpp - End-to-end GC benchmark --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// Runs the eleven Table 1 programs as a suite, pass after pass, under one
// collector configuration, and prints one JSON object with the run's
// metrics as its last line:
//
//   gcbench <configuration> <seed> <seconds> <trace 0|1>
//
// Configurations (the benchmark's workloads):
//   paper-serial  the paper's system: generational collector, SSB barrier,
//                 semispace major, serial evacuation, stack markers (§5)
//                 and a profile-derived pretenure set (§6), k = 4.
//   compact-budget generational collector with card marking and the
//                 region-structured mark-compact major in pause-budget
//                 mode (MaxPauseMicros = 1000: marking sliced at allocation
//                 safepoints behind the SATB barrier), serial evacuation,
//                 k = 2 so that major cycles recur.
//   mutators2     two mutator threads sharing one generational heap (TLABs,
//                 stop-the-world safepoints), each running its own copy of
//                 every program, k = 4 per thread.
//
// The seed decides the inputs: the order of the programs in every pass.
// Set-up (k*Min calibration, reference checksums, the pretenuring profile)
// is timed separately and repeated; the measured loop then runs whole
// passes until the time is up. Every program's checksum is compared with
// its reference implementation.
//
// Pause times are exact: an observer records every collection's pause, so
// percentiles come from the sorted samples, not from a histogram. The
// observer arms the collector's phase stamps in both trace modes; trace 1
// additionally reports the per-layer breakdown (phase times and counters
// per pass) and the raw times.
//
// Host-normalized times: on a shared machine the speed of the whole host
// drifts by tens of percent from minute to minute, which swamps any change
// to the collector. After every pass gcbench therefore times a fixed
// reference job of plain C++ work (no tilgc code: node allocation and
// pointer chasing, a sort, fresh-page faults). Every time a pass measures
// is divided by the duration of the job that follows the pass, and the
// reported figure is the median over passes: pass and GC time as ratios
// ("ref"), pause percentiles of each pass's divided samples in thousandths
// ("mref"; a pass collects over a thousand times, so its p99 has ten or
// more samples beyond it). A host hiccup during one pass then moves one
// sample of a median instead of the tail of a pooled distribution. Trace 1
// reports raw times and pooled raw percentiles alongside.
//
//===----------------------------------------------------------------------===//

#include "observe/GcObserver.h"
#include "runtime/MutatorGroup.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/mman.h>

using namespace tilgc;

namespace {

/// Program size for every run: a pass over all eleven programs takes half a
/// second to a second, so a run measures tens of whole passes.
constexpr double SuiteScale = 0.25;
/// Set-up is repeated this many times per run; the median is reported.
constexpr int SetupRepeats = 3;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct BenchConfig {
  MutatorConfig Base;
  double K;          ///< Budget multiple of Min, per mutator.
  unsigned Mutators; ///< 1 = the single-mutator runtime, no group.
  bool Pretenure;    ///< Derive and apply a profile-driven pretenure set.
};

bool makeConfig(const char *Name, BenchConfig &Out) {
  using GC = GenerationalCollector;
  MutatorConfig C;
  C.Kind = CollectorKind::Generational;
  if (std::strcmp(Name, "paper-serial") == 0) {
    C.UseStackMarkers = true;
    Out = {C, 4.0, 1, true};
    return true;
  }
  if (std::strcmp(Name, "compact-budget") == 0) {
    C.Barrier = GC::BarrierKind::CardMarking;
    C.MajorGc = GC::MajorGcKind::MarkCompact;
    C.MaxPauseMicros = 1000;
    Out = {C, 2.0, 1, false};
    return true;
  }
  if (std::strcmp(Name, "mutators2") == 0) {
    Out = {C, 4.0, 2, false};
    return true;
  }
  return false;
}

/// Keeps the reference job's result observable so it is not optimized out;
/// atomic because concurrent copies of the job store to it.
std::atomic<uint64_t> ReferenceSink{0};

/// One copy of the reference job (see the file comment). Its mix of
/// malloc-heavy pointer work, compute and page faults follows the programs'
/// own mix, so a slower host stretches it by about as much as a pass.
void referenceJob() {
  struct Node {
    Node *Next;
    uint64_t Payload[3];
  };
  uint64_t Sum = 0;
  for (int Round = 0; Round < 4; ++Round) {
    Node *Head = nullptr;
    for (uint64_t I = 0; I < 100000; ++I)
      Head = new Node{Head, {I, 0, 0}};
    while (Head) {
      Sum += Head->Payload[0];
      delete std::exchange(Head, Head->Next);
    }

    std::vector<uint64_t> Keys(1 << 16);
    for (size_t I = 0; I < Keys.size(); ++I)
      Keys[I] = I * 2654435761u;
    std::sort(Keys.begin(), Keys.end());
    Sum += Keys[Keys.size() / 2];

    constexpr size_t Len = size_t{4} << 20;
    for (int Map = 0; Map < 4; ++Map) {
      void *P = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (P == MAP_FAILED) {
        std::perror("gcbench: reference job mmap");
        std::exit(1);
      }
      char *Bytes = static_cast<char *>(P);
      for (size_t I = 0; I < Len; I += 4096)
        Bytes[I] = static_cast<char>(I >> 12);
      Sum += static_cast<unsigned char>(Bytes[Len / 2]);
      munmap(P, Len);
    }
  }
  ReferenceSink.store(Sum, std::memory_order_relaxed);
}

/// Times \p Threads concurrent copies of the reference job, one per thread
/// a configuration keeps busy, so a slow second CPU shows in the reference
/// as it does in the pass.
double timeReferenceJob(unsigned Threads) {
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Others;
  for (unsigned I = 1; I < Threads; ++I)
    Others.emplace_back(referenceJob);
  referenceJob();
  for (std::thread &T : Others)
    T.join();
  return secondsSince(T0);
}

/// Per-program facts derived at set-up.
struct ProgramSetup {
  uint64_t MinBytes = 0;
  uint64_t Expected = 0;
  std::vector<PretenureDecision> Pretenure;
};

/// The paper's Min: twice the maximum live data, measured by a semispace
/// run with a tight liveness target (every collection is full).
uint64_t measureMin(Workload &W) {
  MutatorConfig C;
  C.Kind = CollectorKind::Semispace;
  C.BudgetBytes = size_t{1} << 30;
  C.SemispaceTargetLiveness = 0.33;
  Mutator M(C);
  (void)W.run(M, SuiteScale);
  return 2 * std::max<uint64_t>(M.gcStats().MaxLiveBytes, 16u << 10);
}

MutatorConfig programConfig(const BenchConfig &B, const ProgramSetup &P) {
  MutatorConfig C = B.Base;
  C.BudgetBytes = static_cast<size_t>(B.K * static_cast<double>(P.MinBytes)) *
                  B.Mutators;
  if (B.Pretenure)
    C.Pretenure = P.Pretenure;
  return C;
}

std::vector<ProgramSetup> setUp(const BenchConfig &B) {
  std::vector<ProgramSetup> Out;
  for (const auto &W : allWorkloads()) {
    ProgramSetup P;
    P.MinBytes = measureMin(*W);
    P.Expected = W->expected(SuiteScale);
    if (B.Pretenure) {
      MutatorConfig C = programConfig(B, P);
      C.EnableProfiling = true;
      Mutator M(C);
      (void)W->run(M, SuiteScale);
      // The paper's 80% old-fraction cutoff.
      P.Pretenure = M.profiler()->derivePretenureSet(0.8);
    }
    Out.push_back(std::move(P));
  }
  return Out;
}

/// Records every collection's pause and sums the phase breakdown. Callbacks
/// run on the collecting thread with the world stopped, and gcbench reads
/// the totals only after the mutators join.
class PauseLog : public GcObserver {
public:
  void onGcEnd(const GcEvent &E) override {
    Pauses.push_back(E.PauseNs);
    // A pause-budget mark slice: a major-track event that marks but does
    // not compact (the cycle-finishing collection does both).
    Slices += E.Gen == GcGeneration::Major &&
              E.PhaseDurNs[static_cast<unsigned>(GcPhase::IncrementalMark)] &&
              !E.PhaseDurNs[static_cast<unsigned>(GcPhase::Compact)];
    for (unsigned I = 0; I < NumGcPhases; ++I)
      PhaseNs[I] += E.PhaseDurNs[I];
    PauseSumNs += E.PauseNs;
  }

  std::vector<uint64_t> Pauses;
  uint64_t Slices = 0;
  uint64_t PhaseNs[NumGcPhases] = {};
  uint64_t PauseSumNs = 0;
};

/// Layer counters accumulated over the measured passes (always-on GcStats
/// totals, folded per program run).
struct Counters {
  double GcSec = 0;
  uint64_t Minor = 0, Major = 0;
  uint64_t BytesAllocated = 0, ObjectsAllocated = 0, PointerUpdates = 0;
  uint64_t FramesScanned = 0, FramesReused = 0;
  uint64_t SsbEntries = 0, CardsScanned = 0;
  uint64_t BytesCopied = 0, MajorBytesMoved = 0, PretenuredBytes = 0;
  uint64_t TlabRefills = 0, SafepointStops = 0;

  void add(const GcStats &S) {
    GcSec += S.gcSeconds();
    Minor += S.NumGC - S.NumMajorGC;
    Major += S.NumMajorGC;
    BytesAllocated += S.BytesAllocated;
    ObjectsAllocated += S.ObjectsAllocated;
    FramesScanned += S.FramesScanned;
    FramesReused += S.FramesReused;
    SsbEntries += S.SSBEntriesProcessed;
    CardsScanned += S.CardsScanned;
    BytesCopied += S.BytesCopied;
    MajorBytesMoved += S.MajorBytesMoved;
    PretenuredBytes += S.PretenuredBytes;
    TlabRefills += S.TlabRefills;
    SafepointStops += S.SafepointStops;
  }
};

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Runs program \p Idx once under \p B and folds its counters into \p Acc.
void runProgram(const BenchConfig &B, const ProgramSetup &P, size_t Idx,
                PauseLog &Log, Counters &Acc, Tally &T) {
  const char *Name = allWorkloads()[Idx]->name();
  MutatorConfig C = programConfig(B, P);
  C.Name = Name;
  C.Observer = &Log;
  T.Attempted += B.Mutators;
  try {
    if (B.Mutators == 1) {
      Mutator M(C);
      std::unique_ptr<Workload> W = makeWorkloadByName(Name);
      if (W->run(M, SuiteScale) != P.Expected)
        ++T.Failed;
      Acc.add(M.gcStats());
      Acc.PointerUpdates += M.pointerUpdates();
      return;
    }
    MutatorGroup G(C, B.Mutators);
    std::vector<uint64_t> Sums(B.Mutators, 0);
    G.run([&](Mutator &M, unsigned I) {
      std::unique_ptr<Workload> W = makeWorkloadByName(Name);
      Sums[I] = W->run(M, SuiteScale);
    });
    for (uint64_t Sum : Sums)
      T.Failed += Sum != P.Expected;
    Acc.add(G.gcStats());
    for (unsigned I = 0; I < B.Mutators; ++I)
      Acc.PointerUpdates += G.mutator(I).pointerUpdates();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "%s: %s\n", Name, E.what());
    T.Failed += B.Mutators;
  }
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile of sorted samples.
template <typename T> T percentile(const std::vector<T> &Sorted, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * Sorted.size()));
  return Sorted[std::max<size_t>(Rank, 1) - 1];
}

/// Builds the "metrics" object of the result line.
class MetricWriter {
public:
  void add(const char *Name, double Value, const char *Unit) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}",
                  Body.empty() ? "" : ", ", Name, Value, Unit);
    Body += Buf;
  }
  std::string json() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

int usage() {
  std::fprintf(stderr, "usage: gcbench <paper-serial|compact-budget|mutators2> "
                       "<seed> <seconds> <trace 0|1>\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 5)
    return usage();
  BenchConfig B;
  if (!makeConfig(Argv[1], B))
    return usage();
  char *End = nullptr;
  uint64_t Seed = std::strtoull(Argv[2], &End, 10);
  if (*End != '\0')
    return usage();
  double Seconds = std::strtod(Argv[3], &End);
  if (*End != '\0' || !(Seconds > 0))
    return usage();
  bool Trace = std::strcmp(Argv[4], "1") == 0;
  if (!Trace && std::strcmp(Argv[4], "0") != 0)
    return usage();

  // --- Set-up, repeated; the median is the reported set-up time. -------
  std::vector<double> SetupTimes;
  std::vector<ProgramSetup> Setup;
  for (int R = 0; R < SetupRepeats; ++R) {
    Clock::time_point T0 = Clock::now();
    Setup = setUp(B);
    SetupTimes.push_back(secondsSince(T0));
  }

  // --- Measured passes. -------------------------------------------------
  const size_t NumPrograms = allWorkloads().size();
  Rng Order(Seed);
  std::vector<size_t> Perm(NumPrograms);
  PauseLog Log;
  Counters Acc;
  Tally T;
  std::vector<double> PassSec, PassGcSec, RefSec;
  std::vector<double> PassP50, PassP99; // Per pass, in mref.
  Clock::time_point Start = Clock::now();
  do {
    for (size_t I = 0; I < NumPrograms; ++I)
      Perm[I] = I;
    for (size_t I = NumPrograms - 1; I > 0; --I)
      std::swap(Perm[I], Perm[Order.below(I + 1)]);
    double GcBefore = Acc.GcSec;
    size_t PausesBefore = Log.Pauses.size();
    Clock::time_point P0 = Clock::now();
    for (size_t Idx : Perm)
      runProgram(B, Setup[Idx], Idx, Log, Acc, T);
    PassSec.push_back(secondsSince(P0));
    PassGcSec.push_back(Acc.GcSec - GcBefore);
    RefSec.push_back(timeReferenceJob(std::max(B.Mutators, B.Base.GcThreads)));
    std::vector<double> Mref;
    for (size_t I = PausesBefore; I < Log.Pauses.size(); ++I)
      Mref.push_back(static_cast<double>(Log.Pauses[I]) / 1e6 / RefSec.back());
    std::sort(Mref.begin(), Mref.end());
    if (!Mref.empty()) {
      PassP50.push_back(percentile(Mref, 0.50));
      PassP99.push_back(percentile(Mref, 0.99));
    }
  } while (secondsSince(Start) < Seconds);
  double TotalSec = 0;
  for (double S : PassSec)
    TotalSec += S;

  std::vector<uint64_t> Sorted = Log.Pauses;
  std::sort(Sorted.begin(), Sorted.end());
  if (Sorted.empty()) {
    Sorted.push_back(0);
    PassP50.push_back(0);
    PassP99.push_back(0);
  }
  const double Passes = static_cast<double>(PassSec.size());
  std::vector<double> PassClientSec, PassRef, GcRef;
  for (size_t I = 0; I < PassSec.size(); ++I) {
    PassClientSec.push_back(PassSec[I] - PassGcSec[I]);
    PassRef.push_back(PassSec[I] / RefSec[I]);
    GcRef.push_back(PassGcSec[I] / RefSec[I]);
  }

  MetricWriter Out;
  auto PauseUs = [&](double Q) {
    return static_cast<double>(percentile(Sorted, Q)) / 1e3;
  };
  if (!Trace) {
    Out.add("pass_ref", median(PassRef), "ref");
    Out.add("gc_ref", median(GcRef), "ref");
    Out.add("pause_p50_mref", median(PassP50), "mref");
    Out.add("pause_p99_mref", median(PassP99), "mref");
    Out.add("setup_s", median(SetupTimes), "s");
  } else {
    auto PerPassMs = [&](uint64_t Ns) {
      return static_cast<double>(Ns) / 1e6 / Passes;
    };
    auto PerPass = [&](uint64_t N) { return static_cast<double>(N) / Passes; };
    auto Phase = [&](GcPhase P) {
      return PerPassMs(Log.PhaseNs[static_cast<unsigned>(P)]);
    };
    uint64_t PhaseSum = 0;
    for (uint64_t Ns : Log.PhaseNs)
      PhaseSum += Ns;
    Out.add("pass_ms", median(PassSec) * 1e3, "ms");
    Out.add("ref_ms", median(RefSec) * 1e3, "ms");
    Out.add("client_ms", median(PassClientSec) * 1e3, "ms");
    Out.add("gc_ms", median(PassGcSec) * 1e3, "ms");
    Out.add("alloc_mb_s",
            static_cast<double>(Acc.BytesAllocated) / 1e6 / TotalSec, "MB/s");
    Out.add("stack_scan_ms", Phase(GcPhase::StackScan), "ms");
    Out.add("ssb_filter_ms", Phase(GcPhase::SsbFilter), "ms");
    Out.add("card_scan_ms", Phase(GcPhase::CardScan), "ms");
    Out.add("root_handoff_ms", Phase(GcPhase::RootHandoff), "ms");
    Out.add("copy_ms", Phase(GcPhase::Copy), "ms");
    Out.add("resize_ms", Phase(GcPhase::Resize), "ms");
    Out.add("mark_ms", Phase(GcPhase::Mark), "ms");
    Out.add("fixup_ms", Phase(GcPhase::Fixup), "ms");
    Out.add("compact_ms", Phase(GcPhase::Compact), "ms");
    Out.add("safepoint_wait_ms", Phase(GcPhase::SafepointWait), "ms");
    Out.add("incremental_mark_ms", Phase(GcPhase::IncrementalMark), "ms");
    Out.add("pause_unaccounted_ms",
            PerPassMs(Log.PauseSumNs > PhaseSum ? Log.PauseSumNs - PhaseSum
                                                : 0),
            "ms");
    Out.add("pause_samples", static_cast<double>(Log.Pauses.size()), "count");
    Out.add("pause_p50_us", PauseUs(0.50), "us");
    Out.add("pause_p99_us", PauseUs(0.99), "us");
    // Every configuration collects well over 10,000 times in a run, so at
    // least ten samples lie beyond the 99.9th percentile.
    Out.add("pause_p999_us", PauseUs(0.999), "us");
    Out.add("pause_max_us", static_cast<double>(Sorted.back()) / 1e3, "us");
    // GcStats::NumGC also counts mark slices; they are reported apart.
    Out.add("minor_gcs", PerPass(Acc.Minor - Log.Slices), "count");
    Out.add("major_gcs", PerPass(Acc.Major), "count");
    Out.add("mark_slices", PerPass(Log.Slices), "count");
    Out.add("objects_allocated", PerPass(Acc.ObjectsAllocated), "count");
    Out.add("pointer_updates", PerPass(Acc.PointerUpdates), "count");
    Out.add("frames_scanned", PerPass(Acc.FramesScanned), "count");
    Out.add("frames_reused", PerPass(Acc.FramesReused), "count");
    Out.add("ssb_entries", PerPass(Acc.SsbEntries), "count");
    Out.add("cards_scanned", PerPass(Acc.CardsScanned), "count");
    Out.add("copied_mb", PerPass(Acc.BytesCopied) / 1e6, "MB");
    Out.add("major_moved_mb", PerPass(Acc.MajorBytesMoved) / 1e6, "MB");
    Out.add("pretenured_mb", PerPass(Acc.PretenuredBytes) / 1e6, "MB");
    Out.add("tlab_refills", PerPass(Acc.TlabRefills), "count");
    Out.add("safepoint_stops", PerPass(Acc.SafepointStops), "count");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed), Out.json().c_str());
  return 0;
}
