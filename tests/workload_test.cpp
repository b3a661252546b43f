//===- tests/workload_test.cpp - Benchmark correctness under all configs ---===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every benchmark must compute the same (validated) answer under every
/// collector configuration — a collector bug shows up as a wrong checksum.
/// Parameterized over (workload × collector config) at a reduced scale.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <string>

using namespace tilgc;

namespace {

struct ConfigCase {
  const char *Name;
  MutatorConfig Config;
};

std::vector<ConfigCase> testConfigs() {
  std::vector<ConfigCase> Cases;
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Semispace;
    C.BudgetBytes = 1u << 20;
    Cases.push_back({"semispace", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Semispace;
    C.BudgetBytes = 1u << 20;
    C.UseStackMarkers = true;
    Cases.push_back({"semispace_markers", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 1u << 20;
    Cases.push_back({"generational", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 1u << 20;
    C.UseStackMarkers = true;
    C.VerifyLevel = 2;
    Cases.push_back({"generational_markers", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 1u << 20;
    C.UseStackMarkers = true;
    C.MarkerPeriod = 3;
    C.VerifyLevel = 2;
    Cases.push_back({"generational_markers_period3", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 1u << 20;
    C.PromoteAgeThreshold = 3;
    C.VerifyLevel = 1;
    Cases.push_back({"generational_aged", C});
  }
  {
    // Regression config for the promotion-created old->young edges bug:
    // tiny budget + aged tenuring + heap verification after every GC.
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 200u << 10;
    C.PromoteAgeThreshold = 2;
    C.VerifyLevel = 1;
    Cases.push_back({"generational_aged_tiny_verified", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 1u << 20;
    C.Barrier = GenerationalCollector::BarrierKind::CardMarking;
    Cases.push_back({"generational_cards", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 1u << 20;
    C.EnableProfiling = true;
    C.VerifyLevel = 1;
    Cases.push_back({"generational_profiled", C});
  }
  {
    MutatorConfig C;
    C.Kind = CollectorKind::Generational;
    C.BudgetBytes = 16u << 20; // Roomy: few collections.
    Cases.push_back({"generational_roomy", C});
  }
  return Cases;
}

struct CaseId {
  size_t WorkloadIdx;
  size_t ConfigIdx;
};

class WorkloadCorrectness
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

} // namespace

TEST_P(WorkloadCorrectness, ChecksumMatchesReference) {
  size_t WIdx = std::get<0>(GetParam());
  size_t CIdx = std::get<1>(GetParam());
  const auto &Workloads = allWorkloads();
  if (WIdx >= Workloads.size())
    GTEST_SKIP() << "workload index beyond registry";
  auto Configs = testConfigs();
  Workload &W = *Workloads[WIdx];
  const ConfigCase &CC = Configs[CIdx];

  const double Scale = 0.12; // Keep the full matrix fast.
  Mutator M(CC.Config);
  uint64_t Got = W.run(M, Scale);
  uint64_t Want = W.expected(Scale);
  EXPECT_EQ(Got, Want) << W.name() << " under " << CC.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, WorkloadCorrectness,
    ::testing::Combine(::testing::Range<size_t>(0, 11),
                       ::testing::Range<size_t>(0, 10)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>> &Info) {
      size_t WIdx = std::get<0>(Info.param);
      size_t CIdx = std::get<1>(Info.param);
      const auto &Workloads = allWorkloads();
      std::string Name = WIdx < Workloads.size()
                             ? Workloads[WIdx]->name()
                             : "pending" + std::to_string(WIdx);
      // gtest parameter names must be ASCII alphanumeric ('Gröbner'!).
      std::string Clean;
      for (char C : Name)
        if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
            (C >= '0' && C <= '9'))
          Clean += C;
      return Clean + "_" + testConfigs()[CIdx].Name;
    });
