//===- bench/Harness.h - Shared experiment harness --------------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the table/figure benchmarks: timed workload runs,
/// the paper's k*Min memory-budget protocol ("we choose various multiples
/// (designated k) of this minimal value ... where the collector is
/// permitted k*Min memory", Min = 2 * max live data), and profile-derived
/// pretenure sets.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_BENCH_HARNESS_H
#define TILGC_BENCH_HARNESS_H

#include "workloads/Workload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tilgc {
namespace bench {

/// Everything a table column might need from one run.
struct Measurement {
  double TotalSec = 0;
  double GcSec = 0;
  double ClientSec = 0;
  double StackSec = 0;
  double CopySec = 0;
  uint64_t NumGC = 0;
  uint64_t NumMajorGC = 0;
  uint64_t BytesAllocated = 0;
  uint64_t RecordBytes = 0;
  uint64_t ArrayBytes = 0;
  uint64_t BytesCopied = 0;
  /// Bytes physically relocated by major collections alone (semispace: all
  /// copied bytes; mark-compact: slid runs + promotions only).
  uint64_t MajorBytesMoved = 0;
  uint64_t MaxLiveBytes = 0;
  /// Reserved-space high-water mark across the run (nursery + tenured
  /// space(s) + LOS): the standing-footprint cost of the collector mode.
  uint64_t MaxFootprintBytes = 0;
  uint64_t MaxFrames = 0;
  double AvgFrames = 0;
  double AvgNewFrames = 0;
  uint64_t FramesScanned = 0;
  uint64_t FramesReused = 0;
  uint64_t SSBProcessed = 0;
  /// Card-barrier columns (CardMarking/Hybrid; zero under pure SSB).
  uint64_t CardsScanned = 0;
  uint64_t CardSlotsVisited = 0;
  uint64_t CrossingMapUpdates = 0;
  uint64_t HybridSwitchEpoch = 0; ///< 0 = hybrid never degraded to cards.
  uint64_t PointerUpdates = 0;
  uint64_t PretenuredBytes = 0;
  uint64_t PretenuredScannedBytes = 0;
  uint64_t PretenuredSkippedBytes = 0;
  /// Pause-time percentiles from the collector's always-on histograms
  /// (microseconds; semispace collections all count as major). From the
  /// first run when averaging — percentile shape, not a mean.
  double MinorPauseP50Us = 0;
  double MinorPauseP99Us = 0;
  double MajorPauseP50Us = 0;
  double MajorPauseP99Us = 0;
  double MaxPauseUs = 0;
  bool Valid = false;
};

/// Runs \p W once under \p Config and validates the result.
Measurement runWorkload(Workload &W, const MutatorConfig &Config,
                        double Scale);

/// Runs \p W \p Repeats times and reports arithmetic-mean times (the
/// paper: "data from ten runs were collected and the arithmetic mean is
/// reported"); counters are deterministic and come from the first run.
Measurement runWorkloadAveraged(Workload &W, const MutatorConfig &Config,
                                double Scale, int Repeats);

/// Repeat count from argv ("--reps=N"); defaults to \p Default.
int repsFromArgs(int Argc, char **Argv, int Default);

/// W.expected(Scale), computed once per (workload name, scale): some
/// reference oracles (FFT's convolution) cost more than the measured run.
uint64_t expectedFor(Workload &W, double Scale);

/// The paper's Min: "twice the maximum amount of live data a program has
/// during execution". Measured with a semispace run (every collection is
/// full, so live data is sampled accurately); cached per (workload, scale).
uint64_t minBytesFor(Workload &W, double Scale);

/// A config implementing the k*Min protocol.
MutatorConfig configFor(CollectorKind Kind, double K, Workload &W,
                        double Scale);

/// Profiles \p W (one run with the heap profiler attached) and derives the
/// pretenure set at the paper's 80% old-fraction cutoff. When
/// \p KeepScanElimination is false, the §7.2 scan-elimination bits are
/// cleared (Table 6 measures pretenuring alone).
std::vector<PretenureDecision>
profilePretenureSet(Workload &W, double Scale, bool KeepScanElimination);

/// Scale from argv ("--scale=X" or a bare number); defaults to 1.0.
double scaleFromArgs(int Argc, char **Argv);

/// Prints the standard header line for a bench binary.
void printBanner(const char *Title, double Scale);

/// Machine/build metadata as a JSON object string (no trailing newline):
/// hardware concurrency, build type, pointer width. Benchmarks embed it in
/// their JSON output so results carry the context needed to judge them.
std::string machineMetaJson();

/// "12.3us"-style pause cell from a microseconds figure.
std::string pauseUs(double Us);

/// "0.123" helper used across tables.
std::string sec(double Seconds);

/// Flags an invalid (checksum-mismatched) run in a cell.
std::string checked(const Measurement &M, std::string Cell);

} // namespace bench
} // namespace tilgc

#endif // TILGC_BENCH_HARNESS_H
