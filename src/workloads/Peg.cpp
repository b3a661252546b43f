//===- workloads/Peg.cpp - The Peg benchmark -------------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1: "Solving a peg-jumping game, using the output of a Prolog to
/// ML translator."
///
/// Depth-first peg-solitaire search on the 33-hole English board in the
/// Prolog-translation style: failure is an exception. Every subtree
/// signals exhaustion by raising Fail to its caller's handler, and budget
/// exhaustion raises an Abort that is re-raised level by level — so the
/// run performs hundreds of thousands of raises, exercising the
/// stack-marker exception watermark M of §5.
///
/// The board is a mutable pointer array updated through the write barrier:
/// every move performs three barriered pointer stores and every undo three
/// more. This reproduces the paper's Peg pathology — four orders of
/// magnitude more pointer updates than any other benchmark (Table 2:
/// 2,974,688), flooding the sequential store buffer ("a more realistic
/// approach such as card-marking would probably ameliorate most of the
/// problems") — see bench/ablation_barriers.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "workloads/MLLib.h"

#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

// The English board: a 7x7 grid with the 2x2 corners removed; 33 holes.
// Cells are numbered row-major over valid positions.
struct BoardGeometry {
  int CellIndex[7][7];
  struct Move {
    int From, Over, To;
  };
  std::vector<Move> Moves;

  BoardGeometry() {
    int Next = 0;
    for (int R = 0; R < 7; ++R)
      for (int C = 0; C < 7; ++C)
        CellIndex[R][C] = valid(R, C) ? Next++ : -1;
    // All jump moves in a fixed (row-major, E/W/S/N) order.
    const int DR[4] = {0, 0, 1, -1};
    const int DC[4] = {1, -1, 0, 0};
    for (int R = 0; R < 7; ++R)
      for (int C = 0; C < 7; ++C) {
        if (!valid(R, C))
          continue;
        for (int D = 0; D < 4; ++D) {
          int R1 = R + DR[D], C1 = C + DC[D];
          int R2 = R + 2 * DR[D], C2 = C + 2 * DC[D];
          if (R2 < 0 || R2 >= 7 || C2 < 0 || C2 >= 7 || !valid(R1, C1) ||
              !valid(R2, C2))
            continue;
          Moves.push_back(Move{CellIndex[R][C], CellIndex[R1][C1],
                               CellIndex[R2][C2]});
        }
      }
  }

  static bool valid(int R, int C) {
    return (R >= 2 && R <= 4) || (C >= 2 && C <= 4);
  }
};

const BoardGeometry &geometry() {
  static const BoardGeometry G;
  return G;
}

constexpr int NumCells = 33;
constexpr int CenterCell = 16; // (3,3) in cell numbering.

uint32_t siteBoard() {
  static const uint32_t S = AllocSiteRegistry::global().define("peg.board");
  return S;
}
uint32_t sitePeg() {
  static const uint32_t S = AllocSiteRegistry::global().define("peg.peg");
  return S;
}
uint32_t siteExn() {
  static const uint32_t S = AllocSiteRegistry::global().define("peg.exn");
  return S;
}
uint32_t siteTrail() {
  static const uint32_t S = AllocSiteRegistry::global().define("peg.trail");
  return S;
}

uint32_t keyRun() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "peg.run", {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}
uint32_t keySolve() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "peg.solve", {Trace::pointer(), Trace::pointer(), Trace::pointer()}));
  return K;
}

// Exception payloads: records {kind} — 0 = Fail, 1 = Abort.
bool isAbort(Value Exn) { return Mutator::getField(Exn, 0).asInt() == 1; }

Value mkExn(Mutator &M, int64_t Kind) {
  Value E = M.allocRecord(siteExn(), 1, 0);
  M.initField(E, 0, Value::fromInt(Kind));
  return E;
}

struct SearchCtx {
  Mutator &M;
  Frame &Top; ///< 1 = board, 2 = fail exn, 3 = abort exn.
  uint64_t Budget;
  uint64_t Nodes = 0;
  uint64_t Solutions = 0;
  uint64_t Checksum = 0;
};

/// The recursive solver. NEVER returns normally: it raises Fail when the
/// subtree is exhausted and Abort when the node budget runs out (both in
/// the Prolog-translation style the paper's benchmark came from), and
/// returns the raise to its caller's handler.
MLRaise solve(SearchCtx &C, int Pegs) {
  Mutator &M = C.M;
  Frame F(M, keySolve()); // 1 = fresh peg, 2 = trail cell, 3 = scratch.

  ++C.Nodes;
  if (C.Nodes >= C.Budget)
    return M.raise(C.Top.get(3)); // Abort.
  if (Pegs == 1) {
    ++C.Solutions;
    C.Checksum = C.Checksum * 31 + 77;
    // Keep enumerating: a solution is also a "fail".
    return M.raise(C.Top.get(2));
  }

  const BoardGeometry &G = geometry();
  for (size_t MI = 0; MI < G.Moves.size(); ++MI) {
    const BoardGeometry::Move &Mv = G.Moves[MI];
    Value Board = C.Top.get(1);
    if (Mutator::getField(Board, static_cast<uint32_t>(Mv.From)).isNull() ||
        Mutator::getField(Board, static_cast<uint32_t>(Mv.Over)).isNull() ||
        !Mutator::getField(Board, static_cast<uint32_t>(Mv.To)).isNull())
      continue;

    C.Checksum = C.Checksum * 1099511628211ULL + MI;

    // Prolog translations rebuild terms per inference step: a move
    // descriptor and a trail cell per attempt (bulk, short-lived).
    {
      Value Desc = M.allocRecord(siteTrail(), 3, 0);
      M.initField(Desc, 0, Value::fromInt(Mv.From));
      M.initField(Desc, 1, Value::fromInt(Mv.Over));
      M.initField(Desc, 2, Value::fromInt(Mv.To));
      F.set(2, Desc);
      F.set(2, consPtr(M, siteTrail(), slot(F, 2), slot(F, 3)));
    }

    // Apply: three barriered pointer stores; the landing peg is a fresh
    // record (Prolog translations rebuild terms rather than reuse them).
    F.set(1, M.allocRecord(sitePeg(), 1, 0));
    M.writeField(C.Top.get(1), static_cast<uint32_t>(Mv.To), F.get(1), true);
    M.writeField(C.Top.get(1), static_cast<uint32_t>(Mv.From), Value::null(),
                 true);
    M.writeField(C.Top.get(1), static_cast<uint32_t>(Mv.Over), Value::null(),
                 true);

    uint64_t H = M.pushHandler(F.base());
    bool Aborting = isAbort(M.caught(solve(C, Pegs - 1), H));

    // Undo: two fresh pegs back, landing cell cleared (three more
    // barriered stores).
    F.set(1, M.allocRecord(sitePeg(), 1, 0));
    M.writeField(C.Top.get(1), static_cast<uint32_t>(Mv.From), F.get(1),
                 true);
    F.set(1, M.allocRecord(sitePeg(), 1, 0));
    M.writeField(C.Top.get(1), static_cast<uint32_t>(Mv.Over), F.get(1),
                 true);
    M.writeField(C.Top.get(1), static_cast<uint32_t>(Mv.To), Value::null(),
                 true);

    if (Aborting)
      return M.raise(C.Top.get(3)); // Re-raise level by level.
  }
  return M.raise(C.Top.get(2)); // Subtree exhausted.
}

/// Reference search with identical traversal and counters.
struct RefCtx {
  uint64_t Budget;
  uint64_t Nodes = 0;
  uint64_t Solutions = 0;
  uint64_t Checksum = 0;
  bool Aborted = false;
};

void referenceSolve(RefCtx &C, std::vector<char> &Board, int Pegs) {
  ++C.Nodes;
  if (C.Nodes >= C.Budget) {
    C.Aborted = true;
    return;
  }
  if (Pegs == 1) {
    ++C.Solutions;
    C.Checksum = C.Checksum * 31 + 77;
    return;
  }
  const BoardGeometry &G = geometry();
  for (size_t MI = 0; MI < G.Moves.size(); ++MI) {
    const BoardGeometry::Move &Mv = G.Moves[MI];
    if (!Board[static_cast<size_t>(Mv.From)] ||
        !Board[static_cast<size_t>(Mv.Over)] ||
        Board[static_cast<size_t>(Mv.To)])
      continue;
    C.Checksum = C.Checksum * 1099511628211ULL + MI;
    Board[static_cast<size_t>(Mv.From)] = 0;
    Board[static_cast<size_t>(Mv.Over)] = 0;
    Board[static_cast<size_t>(Mv.To)] = 1;
    referenceSolve(C, Board, Pegs - 1);
    Board[static_cast<size_t>(Mv.From)] = 1;
    Board[static_cast<size_t>(Mv.Over)] = 1;
    Board[static_cast<size_t>(Mv.To)] = 0;
    if (C.Aborted)
      return;
  }
}

uint64_t budgetFor(double Scale) {
  uint64_t B = static_cast<uint64_t>(120000.0 * Scale);
  return B < 500 ? 500 : B;
}

class PegWorkload : public Workload {
public:
  const char *name() const override { return "Peg"; }
  const char *description() const override {
    return "Peg solitaire with exception-driven backtracking and a "
           "barrier-heavy mutable board";
  }
  unsigned paperLines() const override { return 458; }

  uint64_t run(Mutator &M, double Scale) override {
    Frame Top(M, keyRun());
    Top.set(1, M.allocPtrArray(siteBoard(), NumCells));
    for (int I = 0; I < NumCells; ++I) {
      if (I == CenterCell)
        continue;
      // Each peg allocation may promote the board, so these are mutating
      // stores (barriered), not initializing ones.
      Value Peg = M.allocRecord(sitePeg(), 1, 0);
      M.writeField(Top.get(1), static_cast<uint32_t>(I), Peg,
                   /*IsPointerField=*/true);
    }
    Top.set(2, mkExn(M, 0)); // Fail.
    Top.set(3, mkExn(M, 1)); // Abort.

    SearchCtx C{M, Top, budgetFor(Scale)};
    uint64_t H = M.pushHandler(Top.base());
    // Fail = exhausted the whole tree; Abort = budget. Both fine.
    (void)M.caught(solve(C, NumCells - 1), H);
    // Trail-keeping cons so the trail site exists in profiles.
    Top.set(3, Value::null());
    Top.set(2, consInt(M, siteTrail(), static_cast<int64_t>(C.Nodes),
                       slot(Top, 3)));
    return (C.Solutions << 40) ^ C.Checksum ^ (C.Nodes << 1);
  }

  uint64_t expected(double Scale) override {
    std::vector<char> Board(NumCells, 1);
    Board[CenterCell] = 0;
    RefCtx C{budgetFor(Scale)};
    referenceSolve(C, Board, NumCells - 1);
    return (C.Solutions << 40) ^ C.Checksum ^ (C.Nodes << 1);
  }
};

} // namespace

std::unique_ptr<Workload> tilgc::makePegWorkload() {
  return std::make_unique<PegWorkload>();
}
