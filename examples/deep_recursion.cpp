//===- examples/deep_recursion.cpp - Generational stack collection ---------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
// The paper's §5 phenomenon, isolated: a deeply non-tail-recursive
// function allocates at the bottom of a 3,000-frame stack, so every minor
// collection must process the stack for roots. Without stack markers the
// scan walks all 3,000 frames every time; with them, unchanged frames are
// served from the scan cache and minor collections skip their roots
// entirely. An exception is raised through marked frames along the way to
// exercise the watermark M.
//
// The program checks itself: it exits non-zero unless both runs return the
// same sum and each performs exactly one raise.
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "workloads/MLLib.h"

#include <cstdio>
#include <variant>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t exampleKey() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "deep.frame", {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}
uint32_t exampleSite() {
  static const uint32_t S = AllocSiteRegistry::global().define("deep.cons");
  return S;
}

/// What deep returns: its sum, or a raise on its way to the handler.
using SumOrRaise = std::variant<uint64_t, MLRaise>;

/// Builds a chain of N activation records, then churns allocation at the
/// bottom. On the first attempt, an exception from the bottom unwinds the
/// deepest 50 frames in one jump (retiring their stack markers through the
/// watermark M); the handler then rebuilds them and retries.
SumOrRaise deep(Mutator &M, int N, int ChurnIters, bool AllowRaise) {
  Frame F(M, exampleKey());
  F.set(1, consInt(M, exampleSite(), N, slot(F, 2)));
  uint64_t Here = static_cast<uint64_t>(headInt(F.get(1)));
  if (N == 50) {
    uint64_t H = M.pushHandler(F.base());
    SumOrRaise Sub = deep(M, N - 1, ChurnIters, AllowRaise);
    if (const MLRaise *R = std::get_if<MLRaise>(&Sub)) {
      (void)M.caught(*R, H);
      // 50 frames vanished in one jump; rebuild and finish without raising.
      Sub = deep(M, N - 1, ChurnIters, /*AllowRaise=*/false);
    } else {
      M.popHandler(H);
    }
    return std::get<uint64_t>(Sub) + Here;
  }
  if (N > 0) {
    SumOrRaise Sub = deep(M, N - 1, ChurnIters, AllowRaise);
    if (std::holds_alternative<MLRaise>(Sub))
      return Sub; // Passing through toward the handler.
    return std::get<uint64_t>(Sub) + Here;
  }

  uint64_t Sum = 0;
  for (int I = 1; I <= ChurnIters; ++I) {
    F.set(3, consInt(M, exampleSite(), I, slot(F, 2)));
    Sum += static_cast<uint64_t>(headInt(F.get(3)));
    if (AllowRaise && I == 700)
      return M.raise(F.get(3)); // One jump past 49 marked frames.
  }
  return Sum;
}

struct RunResult {
  uint64_t Sum;
  uint64_t Raises;
};

RunResult runOnce(const char *Tag, bool Markers) {
  MutatorConfig C;
  C.BudgetBytes = 256u << 10;
  C.UseStackMarkers = Markers;
  Mutator M(C);

  uint64_t Got =
      std::get<uint64_t>(deep(M, 3000, 200000, /*AllowRaise=*/true));
  const GcStats &S = M.gcStats();
  double Reuse =
      100.0 * (double)S.FramesReused /
      (double)(S.FramesReused + S.FramesScanned ? S.FramesReused +
                                                      S.FramesScanned
                                                : 1);
  std::printf("%-16s gc=%6.3fs stack=%6.3fs  GCs=%4llu  frames "
              "scanned=%8llu reused=%8llu (%.1f%%)  raises=%llu  sum=%llu\n",
              Tag, S.gcSeconds(), S.stackSeconds(),
              (unsigned long long)S.NumGC,
              (unsigned long long)S.FramesScanned,
              (unsigned long long)S.FramesReused, Reuse,
              (unsigned long long)M.raises(), (unsigned long long)Got);
  return RunResult{Got, M.raises()};
}

} // namespace

int main() {
  std::printf("3000-frame stack, allocation churn at the bottom, periodic "
              "exceptions (paper §5):\n\n");
  RunResult Full = runOnce("full scans", false);
  RunResult Marked = runOnce("stack markers", true);
  std::printf("\nThe marker run should scan a small fraction of the frames "
              "(paper Table 5: up to 74%% less GC time).\n");
  if (Full.Sum != Marked.Sum || Full.Raises != 1 || Marked.Raises != 1) {
    std::fprintf(stderr,
                 "deep_recursion: FAILED: sums %llu / %llu, raises %llu / "
                 "%llu (want equal sums and one raise each)\n",
                 (unsigned long long)Full.Sum, (unsigned long long)Marked.Sum,
                 (unsigned long long)Full.Raises,
                 (unsigned long long)Marked.Raises);
    return 1;
  }
  return 0;
}
