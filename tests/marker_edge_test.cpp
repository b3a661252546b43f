//===- tests/marker_edge_test.cpp - §5 corner cases -------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Corner cases of generational stack collection at the runtime level:
/// exceptions landing exactly on marked frames, raise storms, markers on
/// the topmost frame, and interleavings of growth/shrink around marker
/// positions.
///
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "workloads/MLLib.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t siteEdge() {
  static const uint32_t S = AllocSiteRegistry::global().define("edge.site");
  return S;
}
uint32_t keyEdge() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "edge.frame", {Trace::pointer(), Trace::pointer()}));
  return K;
}

MutatorConfig markerConfig(unsigned Period) {
  MutatorConfig C;
  C.BudgetBytes = 256u << 10;
  C.UseStackMarkers = true;
  C.MarkerPeriod = Period;
  C.VerifyLevel = 2;
  return C;
}

/// Pushes frames to depth N, collecting at the bottom, then raises to the
/// handler at depth HandlerAt. Frames below the handler return nothing;
/// the frames between the raise and the handler return its token.
std::optional<MLRaise> growCollectRaise(Mutator &M, int N, int HandlerAt,
                                        Value Payload) {
  Frame F(M, keyEdge());
  F.set(1, Payload);
  if (N == HandlerAt) {
    uint64_t H = M.pushHandler(F.base());
    std::optional<MLRaise> R = growCollectRaise(M, N - 1, HandlerAt, F.get(1));
    EXPECT_TRUE(R.has_value()) << "must raise";
    if (R) {
      EXPECT_EQ(R->HandlerId, H);
      // The payload list survived the unwind; verify reachability.
      EXPECT_EQ(headInt(R->Exn), 11);
    }
    return std::nullopt;
  }
  if (N <= 0) {
    M.collect(false); // Places markers along the whole chain.
    return M.raise(F.get(1));
  }
  return growCollectRaise(M, N - 1, HandlerAt, F.get(1));
}

} // namespace

TEST(MarkerEdgeTest, RaiseLandsOnAMarkedHandlerFrame) {
  // With period 4 and a deep chain, some handler depths land exactly on
  // marked frames; the unwind must resolve the stub key to size the
  // handler frame and keep its marker intact.
  for (int HandlerAt : {3, 4, 5, 7, 8, 16}) {
    Mutator M(markerConfig(4));
    Frame Top(M, keyEdge());
    Top.set(1, consInt(M, siteEdge(), 11, slot(Top, 2)));
    EXPECT_FALSE(growCollectRaise(M, 40, HandlerAt, Top.get(1)));
    // The runtime is still consistent: allocate and collect again.
    for (int I = 0; I < 2000; ++I)
      Top.set(2, consInt(M, siteEdge(), I, slot(Top, 2)));
    M.collect(true);
    EXPECT_EQ(headInt(Top.get(1)), 11);
  }
}

TEST(MarkerEdgeTest, RaiseAcrossMarkedFramesSkipsTheirPops) {
  // Period 1 marks every frame. The raise jumps over all the marked frames
  // above the handler and retires their markers; none of them may then
  // return through the stub as its C++ frame unwinds.
  Mutator M(markerConfig(1));
  MarkerManager *MM = M.markerManager();
  ASSERT_NE(MM, nullptr);
  Frame Handler(M, keyEdge());
  Handler.set(1, consInt(M, siteEdge(), 11, slot(Handler, 2)));
  size_t Depth = M.stack().frameCount();

  struct Helper {
    static MLRaise deep(Mutator &M, int N, uint64_t &StubPopsAtRaise) {
      Frame F(M, keyEdge());
      if (N > 0)
        return deep(M, N - 1, StubPopsAtRaise);
      M.collect(false); // Marks the whole chain, handler frame included.
      StubPopsAtRaise = M.markerManager()->numStubPops();
      return M.raise(Value::fromInt(5));
    }
  };
  uint64_t H = M.pushHandler(Handler.base());
  uint64_t StubPopsAtRaise = 0;
  MLRaise R = Helper::deep(M, 30, StubPopsAtRaise);
  ASSERT_EQ(R.HandlerId, H);
  EXPECT_EQ(M.stack().frameCount(), Depth);
  EXPECT_EQ(MM->numStubPops(), StubPopsAtRaise)
      << "a frame cut by the raise returned through the stub";
  EXPECT_EQ(MM->numActiveMarkers(), Depth)
      << "only the frames at and below the handler stay marked";

  // The handler frame still works, marker and all.
  for (int I = 0; I < 2000; ++I)
    Handler.set(2, consInt(M, siteEdge(), I, slot(Handler, 2)));
  M.collect(true);
  EXPECT_EQ(headInt(Handler.get(1)), 11);
}

TEST(MarkerEdgeTest, RaiseReturnsThroughKFramesToItsHandler) {
  // The raise's token travels back through K C++ frames, every third of
  // them marked. It must name the handler, leave the shadow stack, the
  // handler stack and the raise count as one jump would, and the next
  // collection must reuse exactly the frames below the handler (the
  // watermark M) and rescan everything from the handler up.
  constexpr int K = 20;
  Mutator M(markerConfig(3));
  MarkerManager *MM = M.markerManager();
  ASSERT_NE(MM, nullptr);
  Frame Bottom(M, keyEdge()); // Frame 0.
  Bottom.set(1, consInt(M, siteEdge(), 7, slot(Bottom, 2)));
  uint64_t Outer = M.pushHandler(Bottom.base());
  Frame Mid(M, keyEdge());     // Frame 1.
  Frame Handler(M, keyEdge()); // Frame 2: marked at period 3.
  Handler.set(1, consInt(M, siteEdge(), 11, slot(Handler, 2)));
  size_t Depth = M.stack().frameCount();
  uint64_t H = M.pushHandler(Handler.base());

  struct Helper {
    static MLRaise deep(Mutator &M, int N) {
      Frame F(M, keyEdge());
      F.set(1, consInt(M, siteEdge(), N, slot(F, 2)));
      if (N > 0)
        return deep(M, N - 1);
      M.collect(false); // Marks every third frame, the handler's included.
      return M.raise(F.get(1));
    }
  };
  MLRaise R = Helper::deep(M, K - 1);
  ASSERT_EQ(R.HandlerId, H);
  EXPECT_EQ(headInt(R.Exn), 0);
  EXPECT_EQ(M.stack().frameCount(), Depth);
  EXPECT_EQ(M.stack().topFrameBase(), Handler.base());
  EXPECT_EQ(M.raises(), 1u);
  EXPECT_EQ(M.handlerDepth(), 1u) << "the raise pops only its own handler";
  EXPECT_EQ(MM->numActiveMarkers(), 1u)
      << "the handler frame keeps its marker; the cut frames' retire";

  const GcStats &S = M.gcStats();
  uint64_t Reused = S.FramesReused;
  uint64_t Scanned = S.FramesScanned;
  {
    Frame A(M, keyEdge());
    A.set(1, consInt(M, siteEdge(), 21, slot(A, 2)));
    Frame B(M, keyEdge());
    B.set(1, consInt(M, siteEdge(), 22, slot(B, 2)));
    M.collect(false);
    EXPECT_EQ(S.FramesReused - Reused, Depth - 1)
        << "frames below the watermark are served from the scan cache";
    EXPECT_EQ(S.FramesScanned - Scanned, 3u)
        << "the handler frame and the two pushed after the raise";
    EXPECT_EQ(headInt(A.get(1)), 21);
    EXPECT_EQ(headInt(B.get(1)), 22);
  }
  M.collect(true);
  std::string Error;
  EXPECT_TRUE(M.verifyHeap(Error)) << Error;
  EXPECT_EQ(headInt(Bottom.get(1)), 7);
  EXPECT_EQ(headInt(Handler.get(1)), 11);
  M.popHandler(Outer);
  EXPECT_EQ(M.handlerDepth(), 0u);
}

TEST(MarkerEdgeTest, RaiseStormKeepsWatermarkSound) {
  Mutator M(markerConfig(3));
  Frame Top(M, keyEdge());
  Top.set(1, consInt(M, siteEdge(), 42, slot(Top, 2)));

  struct Helper {
    static void storm(Mutator &M, int Round, SlotRef Keep) {
      Frame F(M, keyEdge());
      F.set(1, Keep.get());
      uint64_t H = M.pushHandler(F.base());
      MLRaise R = [&] {
        Frame G(M, keyEdge());
        G.set(1, F.get(1));
        // Allocate enough to force collections at depth, then raise.
        for (int I = 0; I < 600; ++I)
          G.set(2, consInt(M, siteEdge(), I + Round, slot(G, 1)));
        return M.raise(G.get(2));
      }();
      EXPECT_EQ(headInt(M.caught(R, H)), 599 + Round);
    }
  };
  for (int Round = 0; Round < 200; ++Round)
    Helper::storm(M, Round, slot(Top, 1));
  EXPECT_EQ(M.raises(), 200u);
  EXPECT_EQ(headInt(Top.get(1)), 42);
  EXPECT_GT(M.gcStats().NumGC, 0u);
}

TEST(MarkerEdgeTest, MarkerOnTopFrameSurvivesImmediatePop) {
  // Period 1: every frame gets marked, including the topmost; popping it
  // immediately must go through the stub and restore nothing stale.
  Mutator M(markerConfig(1));
  Frame Top(M, keyEdge());
  for (int Round = 0; Round < 50; ++Round) {
    Frame F(M, keyEdge());
    F.set(1, consInt(M, siteEdge(), Round, slot(F, 2)));
    M.collect(false); // Marks every frame, including F.
    // F pops at scope exit -> stub.
  }
  MarkerManager *MM = M.markerManager();
  ASSERT_NE(MM, nullptr);
  EXPECT_GT(MM->numStubPops(), 0u);
}

TEST(MarkerEdgeTest, GrowShrinkOscillationAroundMarkers) {
  // Oscillate the stack top around the marker period boundary; every
  // configuration must keep producing correct results.
  Mutator M(markerConfig(5));
  Frame Top(M, keyEdge());

  struct Helper {
    static int64_t tower(Mutator &M, int N, int CollectAt) {
      Frame F(M, keyEdge());
      F.set(1, consInt(M, siteEdge(), N, slot(F, 2)));
      if (N == CollectAt)
        M.collect(false);
      if (N == 0)
        return headInt(F.get(1));
      return tower(M, N - 1, CollectAt) + headInt(F.get(1));
    }
  };
  for (int Depth = 3; Depth < 24; ++Depth) {
    int64_t Got = Helper::tower(M, Depth, Depth / 2);
    EXPECT_EQ(Got, static_cast<int64_t>(Depth) * (Depth + 1) / 2);
  }
}

TEST(MarkerEdgeTest, AdaptivePlacementConvergesOnDeepStableStacks) {
  // §7.1: "a more dynamic policy of marker placement may achieve better
  // performance with fewer markers". On a deep stable stack the adaptive
  // period must reach fixed-period-quality reuse without hand tuning.
  MutatorConfig C = markerConfig(25);
  C.AdaptiveMarkerPlacement = true;
  Mutator M(C);

  struct Helper {
    static void deep(Mutator &M, int N) {
      Frame F(M, keyEdge());
      F.set(1, consInt(M, siteEdge(), N, slot(F, 2)));
      if (N > 0) {
        deep(M, N - 1);
        return;
      }
      for (int I = 0; I < 40000; ++I)
        F.set(2, consInt(M, siteEdge(), I, slot(F, 1)));
    }
  };
  Helper::deep(M, 600);
  const GcStats &S = M.gcStats();
  ASSERT_GT(S.NumGC, 5u);
  double Reuse = static_cast<double>(S.FramesReused) /
                 static_cast<double>(S.FramesReused + S.FramesScanned);
  EXPECT_GT(Reuse, 0.85) << "adaptive placement must converge to dense "
                            "marking near the stable top";
}

TEST(MLLibTest, ReverseAndCopyAndSum) {
  Mutator M;
  Frame F(M, keyEdge());
  for (int I = 5; I >= 1; --I)
    F.set(1, consInt(M, siteEdge(), I, slot(F, 1))); // [1..5]
  EXPECT_EQ(length(F.get(1)), 5u);
  EXPECT_EQ(sumInt(F.get(1)), 15);

  Value Copy = copyIntRec(M, siteEdge(), slot(F, 1));
  F.set(2, Copy);
  EXPECT_NE(F.get(1).asPtr(), F.get(2).asPtr());
  EXPECT_EQ(sumInt(F.get(2)), 15);
  EXPECT_EQ(headInt(F.get(2)), 1);

  Value Rev = reverseInt(M, siteEdge(), slot(F, 1), slot(F, 2));
  F.set(2, Rev);
  EXPECT_EQ(headInt(F.get(2)), 5);
  EXPECT_EQ(sumInt(F.get(2)), 15);
}

TEST(MLLibTest, EmptyListEdges) {
  Mutator M;
  Frame F(M, keyEdge());
  EXPECT_EQ(length(Value::null()), 0u);
  EXPECT_EQ(sumInt(Value::null()), 0);
  EXPECT_TRUE(copyIntRec(M, siteEdge(), slot(F, 1)).isNull());
  EXPECT_TRUE(reverseInt(M, siteEdge(), slot(F, 1), slot(F, 2)).isNull());
}
