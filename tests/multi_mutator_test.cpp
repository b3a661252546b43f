//===- tests/multi_mutator_test.cpp - N mutators, one heap -----------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-mutator runtime acceptance suite: K threads sharing one heap
/// must compute exactly the serial answers (checksums, allocation totals,
/// site profiles, derived pretenure sets), survive safepoint torture under
/// fault injection, and leave a heap the verifier certifies — TLAB pads
/// included. Test names matching *MultiMutator*/*Safepoint* are also run
/// under ThreadSanitizer in CI.
///
//===----------------------------------------------------------------------===//

#include "gc/HeapError.h"
#include "observe/GcObserver.h"
#include "observe/GcTelemetry.h"
#include "runtime/MutatorGroup.h"
#include "support/FaultInjector.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <latch>
#include <set>
#include <string>
#include <vector>

using namespace tilgc;

namespace {

MutatorConfig groupConfig(const char *Name, CollectorKind Kind) {
  MutatorConfig C;
  C.Kind = Kind;
  C.Name = Name;
  C.BudgetBytes = 4u << 20; // Shared by every thread in the group.
  return C;
}

uint32_t mmKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "mm.test", {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

/// Runs \p WorkloadName serially once and returns (checksum-ok, bytes,
/// objects) so the K-threaded runs can be compared against exact totals.
struct SerialBaseline {
  uint64_t Bytes;
  uint64_t Objects;
};

SerialBaseline serialBaseline(const char *WorkloadName,
                              const MutatorConfig &C, double Scale) {
  Mutator M(C);
  std::unique_ptr<Workload> W = makeWorkloadByName(WorkloadName);
  EXPECT_EQ(W->run(M, Scale), W->expected(Scale)) << WorkloadName;
  return SerialBaseline{M.gcStats().BytesAllocated,
                        M.gcStats().ObjectsAllocated};
}

/// K threads, each running a private instance of the workload: every
/// thread must get the serial checksum, and the merged group totals must
/// be exactly K times the serial totals. Returns the group's totals.
GcStats runDifferential(const char *WorkloadName, const MutatorConfig &C,
                        unsigned K, double Scale,
                        const SerialBaseline &Serial) {
  uint64_t Want = makeWorkloadByName(WorkloadName)->expected(Scale);

  MutatorGroup G(C, K);
  std::vector<uint64_t> Sums(K, 0);
  G.run([&](Mutator &M, unsigned I) {
    std::unique_ptr<Workload> W = makeWorkloadByName(WorkloadName);
    Sums[I] = W->run(M, Scale);
  });
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(Sums[I], Want) << WorkloadName << " thread " << I << " of "
                             << K;
  EXPECT_EQ(G.gcStats().BytesAllocated, K * Serial.Bytes)
      << WorkloadName << " K=" << K;
  EXPECT_EQ(G.gcStats().ObjectsAllocated, K * Serial.Objects)
      << WorkloadName << " K=" << K;
  std::string Err;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Err)) << WorkloadName << ": " << Err;
  return G.gcStats();
}

/// runDifferential for every workload, at each group size in \p Ks.
void allWorkloadsDifferential(const MutatorConfig &C,
                              std::initializer_list<unsigned> Ks) {
  const double Scale = 0.04;
  for (const auto &W : allWorkloads()) {
    SerialBaseline S = serialBaseline(W->name(), C, Scale);
    for (unsigned K : Ks)
      runDifferential(W->name(), C, K, Scale, S);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: all eleven workloads, K threads vs serial.
//===----------------------------------------------------------------------===//

TEST(MultiMutatorDifferential, GenerationalAllWorkloads) {
  allWorkloadsDifferential(
      groupConfig("mm-diff-gen", CollectorKind::Generational), {1, 2, 8});
}

TEST(MultiMutatorDifferential, SemispaceAllWorkloads) {
  allWorkloadsDifferential(
      groupConfig("mm-diff-semi", CollectorKind::Semispace), {2});
}

TEST(MultiMutatorDifferential, BarrierAndMajorEngineMatrix) {
  const double Scale = 0.05;
  const char *Name = "Life";
  struct Cfg {
    GenerationalCollector::BarrierKind Barrier;
    GenerationalCollector::MajorGcKind Major;
  } Cfgs[] = {
      {GenerationalCollector::BarrierKind::SequentialStoreBuffer,
       GenerationalCollector::MajorGcKind::Semispace},
      {GenerationalCollector::BarrierKind::FilteredStoreBuffer,
       GenerationalCollector::MajorGcKind::Semispace},
      {GenerationalCollector::BarrierKind::CardMarking,
       GenerationalCollector::MajorGcKind::MarkCompact},
      {GenerationalCollector::BarrierKind::Hybrid,
       GenerationalCollector::MajorGcKind::MarkCompact},
  };
  for (const Cfg &K : Cfgs) {
    MutatorConfig C = groupConfig("mm-diff-matrix", CollectorKind::Generational);
    C.Barrier = K.Barrier;
    C.MajorGc = K.Major;
    C.NurseryLimitBytes = 128u << 10; // Constant collection pressure.
    C.VerifyLevel = 1;
    SerialBaseline S = serialBaseline(Name, C, Scale);
    runDifferential(Name, C, 4, Scale, S);
  }
}

//===----------------------------------------------------------------------===//
// Generational stack collection in groups: every stack has its own markers
// and scan cache, so K stacks get the §5 reuse the serial runtime gets.
//===----------------------------------------------------------------------===//

namespace {

/// Markers on, at VerifyLevel 2: every minor collection audits the §5
/// invariant (no reused frame of any stack holds a nursery pointer) and
/// dies if it fails.
MutatorConfig markerGroupConfig(const char *Name, CollectorKind Kind) {
  MutatorConfig C = groupConfig(Name, Kind);
  C.UseStackMarkers = true;
  C.VerifyLevel = 2;
  return C;
}

} // namespace

TEST(MultiMutatorDifferential, StackMarkersGenerationalAllWorkloads) {
  allWorkloadsDifferential(
      markerGroupConfig("mm-markers-gen", CollectorKind::Generational),
      {2, 8});
}

TEST(MultiMutatorDifferential, StackMarkersSemispaceAllWorkloads) {
  allWorkloadsDifferential(
      markerGroupConfig("mm-markers-semi", CollectorKind::Semispace), {2});
}

TEST(MultiMutatorDifferential, StackMarkersReuseFramesOnEveryStack) {
  // Color and Knuth-Bendix collect with deep, stable stacks: with markers
  // a group must replay frames from its scan caches and decode fewer of
  // them than the same group without markers.
  const double Scale = 0.04;
  for (const char *Name : {"Color", "Knuth-Bendix"}) {
    MutatorConfig Marked =
        markerGroupConfig("mm-markers-reuse", CollectorKind::Generational);
    MutatorConfig Plain = Marked;
    Plain.UseStackMarkers = false;
    GcStats WithMarkers = runDifferential(
        Name, Marked, 2, Scale, serialBaseline(Name, Marked, Scale));
    GcStats Without = runDifferential(Name, Plain, 2, Scale,
                                      serialBaseline(Name, Plain, Scale));
    EXPECT_GT(WithMarkers.FramesReused, 0u) << Name;
    EXPECT_EQ(Without.FramesReused, 0u) << Name;
    EXPECT_LT(WithMarkers.FramesScanned, Without.FramesScanned) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Profiles and pretenure sets.
//===----------------------------------------------------------------------===//

TEST(MultiMutatorProfile, MergedProfileAndPretenureSetMatchSerial) {
  static const uint32_t LiveSite =
      AllocSiteRegistry::global().define("mm.prof.live");
  static const uint32_t DeadSite =
      AllocSiteRegistry::global().define("mm.prof.dead");
  const unsigned K = 4;
  const int LivePerThread = 16, DeadPerThread = 192;

  // Each thread retains LivePerThread records forever (cons list in slot
  // 1), churns DeadPerThread that die immediately, then collects — so
  // old% is 1.0 / ~0.0 per site regardless of thread interleaving.
  auto Body = [&](Mutator &M) {
    Frame F(M, mmKey());
    for (int I = 0; I < LivePerThread; ++I) {
      Value Cell = M.allocRecord(LiveSite, 2, 0b10);
      M.initField(Cell, 1, F.get(1));
      F.set(1, Cell);
      for (int J = 0; J < DeadPerThread / LivePerThread; ++J)
        F.set(2, M.allocRecord(DeadSite, 2, 0));
      F.set(2, Value::null());
    }
    M.collect(false);
  };

  MutatorConfig C = groupConfig("mm-profile", CollectorKind::Generational);
  C.EnableProfiling = true;

  Mutator Serial(C);
  for (unsigned R = 0; R < K; ++R)
    Body(Serial);

  MutatorGroup G(C, K);
  G.run([&](Mutator &M, unsigned) { Body(M); });

  HeapProfiler *GP = G.profiler();
  HeapProfiler *SP = Serial.profiler();
  ASSERT_NE(GP, nullptr);
  ASSERT_NE(SP, nullptr);

  // Allocation-side profile: exact equality per site.
  for (uint32_t Site : {LiveSite, DeadSite}) {
    EXPECT_EQ(GP->site(Site).AllocBytes, SP->site(Site).AllocBytes);
    EXPECT_EQ(GP->site(Site).AllocCount, SP->site(Site).AllocCount);
    EXPECT_EQ(GP->site(Site).AllocCount,
              uint64_t(K * (Site == LiveSite ? LivePerThread
                                             : DeadPerThread)));
  }
  EXPECT_EQ(GP->site(LiveSite).oldFraction(), 1.0);

  // Derived pretenure sets: identical site sets.
  auto SiteSet = [](const std::vector<PretenureDecision> &Ds) {
    std::set<uint32_t> S;
    for (const PretenureDecision &D : Ds)
      S.insert(D.SiteId);
    return S;
  };
  EXPECT_EQ(SiteSet(GP->derivePretenureSet(0.8, 8)),
            SiteSet(SP->derivePretenureSet(0.8, 8)));
  EXPECT_EQ(SiteSet(GP->derivePretenureSet(0.8, 8)).count(LiveSite), 1u);
}

//===----------------------------------------------------------------------===//
// TLAB machinery.
//===----------------------------------------------------------------------===//

TEST(MultiMutatorTlab, RefillsPadsAndExactTotals) {
  static const uint32_t Site = AllocSiteRegistry::global().define("mm.tlab");
  const unsigned K = 4;
  const int PerThread = 3000; // ~96 KB each: several TLAB refills + GCs.

  MutatorConfig C = groupConfig("mm-tlab", CollectorKind::Generational);
  C.NurseryLimitBytes = 96u << 10;
  C.VerifyLevel = 1; // Post-GC heap walks must step over TLAB pads.
  MutatorGroup G(C, K);
  G.run([&](Mutator &M, unsigned) {
    Frame F(M, mmKey());
    for (int I = 0; I < PerThread; ++I)
      F.set(1, M.allocRecord(Site, 2, 0));
  });

  const GcStats &S = G.gcStats();
  EXPECT_GT(S.TlabRefills, uint64_t(K)); // At least one refill per thread.
  EXPECT_GT(S.NumGC, 0u);
  EXPECT_GT(S.SafepointStops, 0u);
  EXPECT_EQ(S.SafepointStops, G.safepoint().stops());
  // Exact totals: every one of the K*PerThread records, nothing else from
  // this heap, and pads are accounted separately from object bytes.
  uint64_t ObjBytes = uint64_t(2 + HeaderWords) * sizeof(Word);
  EXPECT_EQ(S.ObjectsAllocated, uint64_t(K) * PerThread);
  EXPECT_EQ(S.BytesAllocated, uint64_t(K) * PerThread * ObjBytes);
  std::string Err;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Err)) << Err;
}

/// What a pause budget's slice schedule can move: the slices themselves
/// and every collection total downstream of them.
static std::vector<uint64_t> budgetTotals(Collector &C) {
  const GcStats &S = C.stats();
  return {static_cast<GenerationalCollector &>(C).incrementalSlices(),
          S.NumGC,
          S.NumMajorGC,
          S.BytesCopied,
          S.ObjectsCopied,
          S.MajorBytesMoved,
          S.MaxFootprintBytes};
}

TEST(MultiMutatorTlab, SingleMutatorGroupKeepsSerialTotals) {
  // K=1 still runs the safepoint poll, the buffered barriers and the
  // stopped slow path; totals must match a plain serial mutator exactly.
  const double Scale = 0.08;
  MutatorConfig C = groupConfig("mm-k1", CollectorKind::Generational);
  SerialBaseline S = serialBaseline("Checksum", C, Scale);
  runDifferential("Checksum", C, 1, Scale, S);

  // Under a pause budget the slice fence paces both runtimes alike, so a
  // group of one runs the serial slice schedule and every collection
  // after it.
  MutatorConfig B = groupConfig("mm-k1-budget", CollectorKind::Generational);
  B.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  B.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
  B.MaxPauseMicros = 150;
  for (const char *Name : {"Knuth-Bendix", "PIA"}) {
    std::unique_ptr<Workload> W = makeWorkloadByName(Name);
    Mutator M(B);
    EXPECT_EQ(W->run(M, 0.1), W->expected(0.1)) << Name;
    std::vector<uint64_t> Serial = budgetTotals(M.collector());
    EXPECT_GT(Serial[0], 0u) << Name << " ran no slices";

    MutatorGroup G(B, 1);
    uint64_t Sum = 0;
    G.run([&](Mutator &GM, unsigned) { Sum = W->run(GM, 0.1); });
    EXPECT_EQ(Sum, W->expected(0.1)) << Name;
    EXPECT_EQ(budgetTotals(G.collector()), Serial)
        << Name << ": slices, GCs, majors, bytes and objects copied, major "
        << "bytes moved, peak footprint";
  }
}

TEST(MultiMutatorTlab, SingleMutatorGroupWithStackMarkers) {
  // One mutator means one stack, which the §5 scan cache covers: a group
  // of one accepts markers and keeps the serial totals.
  const double Scale = 0.08;
  MutatorConfig C = groupConfig("mm-k1-markers", CollectorKind::Generational);
  C.UseStackMarkers = true;
  C.VerifyLevel = 2;
  SerialBaseline S = serialBaseline("Checksum", C, Scale);
  runDifferential("Checksum", C, 1, Scale, S);
}

//===----------------------------------------------------------------------===//
// Configuration validity: one predicate behind Mutator and MutatorGroup.
//===----------------------------------------------------------------------===//

TEST(MultiMutatorConfig, ValidateRejectsEveryUnsupportedCombination) {
  struct Case {
    const char *What;
    MutatorConfig C;
    unsigned Mutators;
  };
  auto Gen = [] {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    return C;
  };
  std::vector<Case> Invalid;
  Invalid.push_back({"zero mutators", Gen(), 0});
  {
    // A zero period would divide by zero at the first marked scan.
    MutatorConfig C = Gen();
    C.UseStackMarkers = true;
    C.MarkerPeriod = 0;
    Invalid.push_back({"markers with period 0", C, 1});
    Invalid.push_back({"markers with period 0, grouped", C, 2});
    C.AdaptiveMarkerPlacement = true;
    Invalid.push_back({"adaptive markers starting at period 0", C, 1});
  }
  {
    MutatorConfig C = Gen();
    C.MaxPauseMicros = 100;
    Invalid.push_back({"budget on the semispace major", C, 1});
    Invalid.push_back({"budget on the semispace major, grouped", C, 2});
    C.MajorGc = MajorGcKind::MarkCompact;
    C.Kind = CollectorKind::Semispace;
    Invalid.push_back({"budget on the semispace collector", C, 1});
  }
  for (const Case &K : Invalid)
    EXPECT_FALSE(validate(K.C, K.Mutators).empty()) << K.What;

  // The three perfbench configurations (perfbench/gcbench.cpp), the
  // defaults of both collectors, and stack markers in groups (each stack
  // has its own markers and scan cache).
  std::vector<Case> Valid;
  {
    MutatorConfig C = Gen();
    C.UseStackMarkers = true;
    Valid.push_back({"paper-serial", C, 1});
    Valid.push_back({"markers with two mutators", C, 2});
    C.Kind = CollectorKind::Semispace;
    Valid.push_back({"semispace markers with four mutators", C, 4});
  }
  {
    MutatorConfig C = Gen();
    C.Barrier = BarrierKind::CardMarking;
    C.MajorGc = MajorGcKind::MarkCompact;
    C.MaxPauseMicros = 1000;
    Valid.push_back({"compact-budget", C, 1});
  }
  Valid.push_back({"mutators2", Gen(), 2});
  Valid.push_back({"generational default", MutatorConfig(), 1});
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Semispace;
    Valid.push_back({"semispace default", C, 1});
  }
  for (const Case &K : Valid)
    EXPECT_EQ(validate(K.C, K.Mutators), "") << K.What;
}

//===----------------------------------------------------------------------===//
// Safepoint protocol.
//===----------------------------------------------------------------------===//

namespace {
struct ScopedFaults {
  ScopedFaults() { FaultInjector::global().reset(); }
  ~ScopedFaults() { FaultInjector::global().reset(); }
};
} // namespace

TEST(SafepointTorture, StallFaultStretchesRendezvousSafely) {
  ScopedFaults Guard;
  // Park attempts 1..500 sleep 1ms before parking: threads arrive at the
  // rendezvous maximally skewed while others block in allocation. Bounded
  // so the injected delay cannot exceed ~0.5s of the run. Armed from the
  // first park, so one overlapping stop is enough to fire it.
  FaultInjector::global().arm(FaultPoint::SafepointStall, 1,
                              /*FireCount=*/500);
  const unsigned K = 4;
  const double Scale = 0.05;
  MutatorConfig C = groupConfig("safepoint-torture",
                                CollectorKind::Generational);
  C.NurseryLimitBytes = 64u << 10; // Frequent stops.
  C.VerifyLevel = 1;
  std::unique_ptr<Workload> Ref = makeWorkloadByName("Life");
  uint64_t Want = Ref->expected(Scale);

  MutatorGroup G(C, K);
  std::vector<uint64_t> Sums(K, 0);
  // Nobody allocates until every thread is running, so the threads
  // overlap and the first stop finds K-1 others to park, however late the
  // scheduler starts them on a loaded host.
  std::latch Started(K);
  G.run([&](Mutator &M, unsigned I) {
    std::unique_ptr<Workload> W = makeWorkloadByName("Life");
    Started.arrive_and_wait();
    Sums[I] = W->run(M, Scale);
  });
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(Sums[I], Want) << "thread " << I;
  EXPECT_GT(G.safepoint().stops(), 0u);
  EXPECT_GE(FaultInjector::global().fired(FaultPoint::SafepointStall), 1u);
  std::string Err;
  EXPECT_TRUE(G.mutator(0).verifyHeap(Err)) << Err;
}

TEST(SafepointTelemetry, WaitPhaseHistogramAndStats) {
  struct Capture : GcObserver {
    std::vector<GcEvent> Events;
    void onGcEnd(const GcEvent &E) override { Events.push_back(E); }
  } Obs;

  const unsigned K = 2;
  MutatorConfig C = groupConfig("mm-telemetry", CollectorKind::Generational);
  C.NurseryLimitBytes = 64u << 10;
  C.Observer = &Obs;
  MutatorGroup G(C, K);
  G.run([&](Mutator &M, unsigned) {
    std::unique_ptr<Workload> W = makeWorkloadByName("Life");
    W->run(M, 0.05);
  });

  ASSERT_FALSE(Obs.Events.empty());
  bool SawWait = false, SawSpans = false;
  for (const GcEvent &E : Obs.Events) {
    uint64_t D = E.PhaseDurNs[static_cast<unsigned>(GcPhase::SafepointWait)];
    if (D > 0)
      SawWait = true;
    if (!E.MutatorSpans.empty()) {
      SawSpans = true;
      for (const GcWorkerSpan &Sp : E.MutatorSpans) {
        EXPECT_LT(Sp.Index, K);
        EXPECT_LE(Sp.BeginNs, Sp.EndNs);
      }
    }
    // The tested pause invariant must hold with the new phase: the event
    // window was extended back to the wait begin.
    EXPECT_LE(E.phaseTotalNs(), E.PauseNs);
  }
  EXPECT_TRUE(SawWait) << "no collection recorded a safepoint-wait phase";
  EXPECT_TRUE(SawSpans) << "no collection recorded mutator park spans";

  // Every stop recorded one rendezvous wait in the always-on histogram.
  const GcTelemetry &Tel = G.collector().telemetry();
  EXPECT_EQ(Tel.safepointHistogram().count(), G.safepoint().stops());
  EXPECT_EQ(G.gcStats().SafepointStops, G.safepoint().stops());
}

TEST(SafepointTelemetry, TraceExportCarriesMutatorTracks) {
  const char *Path = "mm_trace_test.json";
  {
    MutatorConfig C = groupConfig("mm-trace", CollectorKind::Generational);
    C.NurseryLimitBytes = 64u << 10;
    C.TraceOutPath = Path;
    MutatorGroup G(C, 2);
    G.run([&](Mutator &M, unsigned) {
      std::unique_ptr<Workload> W = makeWorkloadByName("Life");
      W->run(M, 0.05);
    });
  } // Group destruction writes the trace through the primary mutator.

  std::FILE *F = std::fopen(Path, "rb");
  ASSERT_NE(F, nullptr);
  std::string Json;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Json.append(Buf, N);
  std::fclose(F);
  std::remove(Path);

  EXPECT_NE(Json.find("safepoint park"), std::string::npos);
  EXPECT_NE(Json.find("\"mutator "), std::string::npos);
  EXPECT_NE(Json.find("safepoint-wait"), std::string::npos);
}
