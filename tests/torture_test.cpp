//===- tests/torture_test.cpp - Randomized GC torture ----------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property test: a random mutator builds, mutates and drops random object
/// graphs (records, pointer arrays, shared structure, cycles), interleaved
/// with forced minor/major collections. The canonical structure hash —
/// computed by traversal order, independent of object addresses — must be
/// identical before and after every collection, under every collector
/// configuration.
///
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "support/Random.h"
#include "workloads/MLLib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

constexpr unsigned NumRoots = 12;

uint32_t tortureSite(unsigned I) {
  static const uint32_t Base = [] {
    uint32_t First = AllocSiteRegistry::global().define("torture.site0");
    for (int K = 1; K < 4; ++K)
      AllocSiteRegistry::global().define("torture.site" + std::to_string(K));
    return First;
  }();
  return Base + (I % 4);
}

uint32_t keyRoots() {
  static const uint32_t K = [] {
    std::vector<Trace> Slots;
    for (unsigned I = 0; I < NumRoots; ++I)
      Slots.push_back(Trace::pointer());
    return TraceTableRegistry::global().define(
        FrameLayout("torture.roots", std::move(Slots)));
  }();
  return K;
}

uint32_t keyHelper() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "torture.helper", {Trace::pointer(), Trace::pointer()}));
  return K;
}

/// Canonical, address-independent structure hash over all roots.
/// Objects are numbered in first-visit order; cycles terminate through the
/// visited map.
uint64_t structureHash(Frame &Roots) {
  std::unordered_map<const Word *, uint64_t> Visited;
  uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&](uint64_t V) { Hash = (Hash ^ V) * 1099511628211ULL; };

  struct Walker {
    std::unordered_map<const Word *, uint64_t> &Visited;
    decltype(Mix) &MixRef;

    void walk(Value V) { // NOLINT(misc-no-recursion)
      if (V.isNull()) {
        MixRef(0x11);
        return;
      }
      auto It = Visited.find(V.asPtr());
      if (It != Visited.end()) {
        MixRef(0x22);
        MixRef(It->second);
        return;
      }
      uint64_t Id = Visited.size();
      Visited.emplace(V.asPtr(), Id);
      Word Descriptor = descriptorOf(V.asPtr());
      MixRef(0x33);
      MixRef(static_cast<uint64_t>(header::kind(Descriptor)));
      MixRef(header::length(Descriptor));
      uint32_t Len = header::length(Descriptor);
      switch (header::kind(Descriptor)) {
      case ObjectKind::Record: {
        uint32_t Mask = header::ptrMask(Descriptor);
        for (uint32_t I = 0; I < Len; ++I) {
          if (Mask & (1u << I))
            walk(Value::fromBits(V.asPtr()[I]));
          else
            MixRef(V.asPtr()[I]);
        }
        break;
      }
      case ObjectKind::PtrArray:
        for (uint32_t I = 0; I < Len; ++I)
          walk(Value::fromBits(V.asPtr()[I]));
        break;
      case ObjectKind::NonPtrArray:
        for (uint32_t I = 0; I < Len; ++I)
          MixRef(V.asPtr()[I]);
        break;
      case ObjectKind::Pad:
        TILGC_UNREACHABLE("reachable value is a pad filler");
      }
    }
  };

  Walker W{Visited, Mix};
  for (unsigned I = 0; I < NumRoots; ++I) {
    Mix(0x44 + I);
    W.walk(Roots.get(1 + I));
  }
  return Hash;
}

/// One random mutation step against the root frame.
void mutateOnce(Mutator &M, Frame &Roots, Rng &R) {
  unsigned Op = static_cast<unsigned>(R.below(100));
  unsigned Dst = 1 + static_cast<unsigned>(R.below(NumRoots));
  unsigned Src = 1 + static_cast<unsigned>(R.below(NumRoots));

  if (Op < 40) {
    // Fresh record with a random mix of pointer/non-pointer fields drawn
    // from the roots.
    uint32_t Fields = 1 + static_cast<uint32_t>(R.below(4));
    uint32_t Mask = static_cast<uint32_t>(R.below(1u << Fields));
    Value Rec = M.allocRecord(tortureSite(Dst), Fields, Mask);
    for (uint32_t I = 0; I < Fields; ++I) {
      if (Mask & (1u << I)) {
        unsigned From = 1 + static_cast<unsigned>(R.below(NumRoots));
        M.initField(Rec, I, Roots.get(From));
      } else {
        M.initField(Rec, I, Value::fromInt(static_cast<int64_t>(R.next())));
      }
    }
    Roots.set(Dst, Rec);
    return;
  }
  if (Op < 55) {
    // Fresh pointer array seeded from the roots.
    uint32_t Len = 1 + static_cast<uint32_t>(R.below(6));
    Value Arr = M.allocPtrArray(tortureSite(Dst), Len);
    for (uint32_t I = 0; I < Len; ++I) {
      unsigned From = 1 + static_cast<unsigned>(R.below(NumRoots));
      M.initField(Arr, I, Roots.get(From));
    }
    Roots.set(Dst, Arr);
    return;
  }
  if (Op < 65) {
    // Occasionally a large array (large-object space under generational).
    uint32_t Len = 600 + static_cast<uint32_t>(R.below(800));
    Value Arr = M.allocNonPtrArray(tortureSite(Dst), Len);
    for (uint32_t I = 0; I < Len; I += 97)
      M.initField(Arr, I, Value::fromInt(static_cast<int64_t>(I)));
    Roots.set(Dst, Arr);
    return;
  }
  if (Op < 85) {
    // Barriered mutation of a random pointer field (may create cycles and
    // old->young references).
    Value Target = Roots.get(Dst);
    if (Target.isNull())
      return;
    Word Descriptor = descriptorOf(Target.asPtr());
    uint32_t Len = header::length(Descriptor);
    if (!Len)
      return;
    uint32_t I = static_cast<uint32_t>(R.below(Len));
    bool IsPtr = false;
    if (header::kind(Descriptor) == ObjectKind::PtrArray)
      IsPtr = true;
    else if (header::kind(Descriptor) == ObjectKind::Record)
      IsPtr = (header::ptrMask(Descriptor) >> I) & 1;
    if (!IsPtr)
      return;
    M.writeField(Target, I, Roots.get(Src), /*IsPointerField=*/true);
    return;
  }
  if (Op < 92) {
    Roots.set(Dst, Value::null()); // Drop a subgraph.
    return;
  }
  // Copy a root (sharing).
  Roots.set(Dst, Roots.get(Src));
}

/// Builds garbage from a nested frame, so collections see deeper stacks.
void churn(Mutator &M, Frame &Roots, Rng &R, int Depth) {
  if (Depth <= 0)
    return;
  Frame F(M, keyHelper());
  F.set(1, consInt(M, tortureSite(0), static_cast<int64_t>(R.next()),
                   slot(F, 2)));
  churn(M, Roots, R, Depth - 1);
}

struct TortureCase {
  const char *Name;
  MutatorConfig Config;
};

/// CI can raise the audit level for a whole suite run without recompiling
/// (e.g. TILGC_VERIFY_LEVEL=3 under the sanitizer jobs).
unsigned envVerifyLevel(unsigned Default) {
  if (const char *E = std::getenv("TILGC_VERIFY_LEVEL"))
    return static_cast<unsigned>(std::atoi(E));
  return Default;
}

std::vector<TortureCase> tortureConfigs() {
  std::vector<TortureCase> Cases;
  auto Add = [&](const char *Name, auto Tweak) {
    MutatorConfig C;
    C.Name = Name;
    C.BudgetBytes = 512u << 10; // Tight: constant collection pressure.
    C.VerifyLevel = envVerifyLevel(2);
    Tweak(C);
    Cases.push_back({Name, C});
  };
  Add("semispace", [](MutatorConfig &C) {
    C.Kind = CollectorKind::Semispace;
  });
  Add("semispace_markers", [](MutatorConfig &C) {
    C.Kind = CollectorKind::Semispace;
    C.UseStackMarkers = true;
  });
  Add("semispace_poison", [](MutatorConfig &C) {
    C.Kind = CollectorKind::Semispace;
    C.VerifyLevel = envVerifyLevel(3);
  });
  Add("generational", [](MutatorConfig &C) { (void)C; });
  Add("generational_poison", [](MutatorConfig &C) {
    C.VerifyLevel = envVerifyLevel(3);
  });
  // Four GC workers run the mark-compact mark and fixup and the striped
  // card sweep.
  Add("generational_mt4", [](MutatorConfig &C) {
    C.GcThreads = 4;
    C.MajorGc = GenerationalCollector::MajorGcKind::MarkCompact;
    C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  });
  Add("generational_markers", [](MutatorConfig &C) {
    C.UseStackMarkers = true;
    C.VerifyLevel = std::max(C.VerifyLevel, 2u);
  });
  Add("generational_markers_n3", [](MutatorConfig &C) {
    C.UseStackMarkers = true;
    C.MarkerPeriod = 3;
    C.VerifyLevel = std::max(C.VerifyLevel, 2u);
  });
  Add("generational_aged2", [](MutatorConfig &C) {
    C.PromoteAgeThreshold = 2;
  });
  Add("generational_cards", [](MutatorConfig &C) {
    C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
  });
  Add("generational_filtered", [](MutatorConfig &C) {
    C.Barrier = GenerationalCollector::BarrierKind::FilteredStoreBuffer;
  });
  return Cases;
}

class GcTorture
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

} // namespace

TEST_P(GcTorture, StructureSurvivesCollections) {
  auto Configs = tortureConfigs();
  const TortureCase &TC = Configs[std::get<0>(GetParam())];
  uint64_t Seed = std::get<1>(GetParam());

  Mutator M(TC.Config);
  Rng R(Seed);
  Frame Roots(M, keyRoots());

  for (int Round = 0; Round < 60; ++Round) {
    int Mutations = 10 + static_cast<int>(R.below(40));
    for (int I = 0; I < Mutations; ++I)
      mutateOnce(M, Roots, R);
    if (R.chance(1, 3))
      churn(M, Roots, R, 5 + static_cast<int>(R.below(60)));

    uint64_t Before = structureHash(Roots);
    M.collect(/*Major=*/R.chance(1, 4));
    uint64_t After = structureHash(Roots);
    ASSERT_EQ(Before, After)
        << TC.Name << " seed " << Seed << " round " << Round;
  }
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GcTorture,
    ::testing::Combine(::testing::Range<size_t>(0, 11),
                       ::testing::Values(1u, 2u, 3u, 42u, 1998u)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>> &Info) {
      return std::string(tortureConfigs()[std::get<0>(Info.param)].Name) +
             "_seed" + std::to_string(std::get<1>(Info.param));
    });
