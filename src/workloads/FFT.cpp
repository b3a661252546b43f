//===- workloads/FFT.cpp - The FFT benchmark -------------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1: "Fast Fourier transform, multiplying polynomials up to degree
/// 65,536."
///
/// Iterative radix-2 FFTs over unboxed double arrays, used to multiply
/// random integer polynomials at doubling sizes. Almost all allocation is
/// large non-pointer arrays: under the generational collector they live in
/// the mark-sweep large-object space and GC time nearly vanishes (Table 4:
/// 0.07s), while the semispace collector copies whichever arrays are live
/// at each collection (Table 3: 63MB copied). The stack stays ~4 frames
/// deep.
///
/// Validation: coefficients are small, so the rounded FFT product is the
/// exact integer convolution; a plain-C++ direct convolution predicts
/// every coefficient.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

#include "support/Random.h"
#include "workloads/MLLib.h"

#include <cmath>
#include <vector>

using namespace tilgc;
using namespace tilgc::mllib;

namespace {

uint32_t siteArray() {
  static const uint32_t S = AllocSiteRegistry::global().define("fft.array");
  return S;
}

uint32_t keyRun() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "fft.run",
      {Trace::pointer(), Trace::pointer(), Trace::pointer(),
       Trace::pointer()}));
  return K;
}
uint32_t keyTransform() {
  static const uint32_t K = TraceTableRegistry::global().define(FrameLayout(
      "fft.transform", {Trace::pointer(), Trace::pointer()}));
  return K;
}

double getD(Value Arr, uint32_t I) {
  return Value::fromBits(Arr.asPtr()[I]).asDouble();
}
void setD(Value Arr, uint32_t I, double D) {
  Arr.asPtr()[I] = Value::fromDouble(D).bits();
}

/// In-place iterative radix-2 FFT over (Re, Im) in the given frame slots.
/// No allocation happens inside, so raw element access is safe; arrays are
/// re-read from the slots on entry.
void fftInPlace(Mutator &M, SlotRef ReS, SlotRef ImS, uint32_t N,
                bool Inverse) {
  Frame F(M, keyTransform()); // 1 = re, 2 = im.
  F.set(1, ReS.get());
  F.set(2, ImS.get());
  Value Re = F.get(1), Im = F.get(2);

  // Bit reversal.
  for (uint32_t I = 1, J = 0; I < N; ++I) {
    uint32_t Bit = N >> 1;
    for (; J & Bit; Bit >>= 1)
      J ^= Bit;
    J ^= Bit;
    if (I < J) {
      double TR = getD(Re, I), TI = getD(Im, I);
      setD(Re, I, getD(Re, J));
      setD(Im, I, getD(Im, J));
      setD(Re, J, TR);
      setD(Im, J, TI);
    }
  }

  const double Pi = 3.14159265358979323846;
  for (uint32_t Len = 2; Len <= N; Len <<= 1) {
    double Ang = 2 * Pi / static_cast<double>(Len) * (Inverse ? 1.0 : -1.0);
    double WR = std::cos(Ang), WI = std::sin(Ang);
    for (uint32_t I = 0; I < N; I += Len) {
      double CurR = 1.0, CurI = 0.0;
      for (uint32_t J = 0; J < Len / 2; ++J) {
        uint32_t A = I + J, B = I + J + Len / 2;
        double AR = getD(Re, A), AI = getD(Im, A);
        double BR = getD(Re, B) * CurR - getD(Im, B) * CurI;
        double BI = getD(Re, B) * CurI + getD(Im, B) * CurR;
        setD(Re, A, AR + BR);
        setD(Im, A, AI + BI);
        setD(Re, B, AR - BR);
        setD(Im, B, AI - BI);
        double NR = CurR * WR - CurI * WI;
        CurI = CurR * WI + CurI * WR;
        CurR = NR;
      }
    }
  }
  if (Inverse) {
    for (uint32_t I = 0; I < N; ++I) {
      setD(Re, I, getD(Re, I) / static_cast<double>(N));
      setD(Im, I, getD(Im, I) / static_cast<double>(N));
    }
  }
}

/// Deterministic coefficients shared with the reference.
int coefAt(uint64_t Seed, uint32_t Size, uint32_t I) {
  uint64_t S = Seed ^ (static_cast<uint64_t>(Size) << 32) ^ I;
  return static_cast<int>(splitMix64(S) % 10);
}

struct Sizes {
  int Repeats;
  uint32_t MaxSize;
};

Sizes sizesFor(double Scale) {
  Sizes S;
  S.Repeats = static_cast<int>(24.0 * Scale);
  if (S.Repeats < 1)
    S.Repeats = 1;
  S.MaxSize = 16384;
  return S;
}

class FFTWorkload : public Workload {
public:
  const char *name() const override { return "FFT"; }
  const char *description() const override {
    return "Polynomial multiplication via iterative FFT over unboxed "
           "double arrays";
  }
  unsigned paperLines() const override { return 246; }

  uint64_t run(Mutator &M, double Scale) override {
    Sizes S = sizesFor(Scale);
    Frame Top(M, keyRun()); // 1 = re, 2 = im, 3 = re2, 4 = im2.
    uint64_t Sum = 0;
    for (int Rep = 0; Rep < S.Repeats; ++Rep) {
      for (uint32_t Half = 256; Half <= S.MaxSize / 2; Half <<= 1) {
        uint32_t N = Half * 2; // Product degree < N.
        Top.set(1, M.allocNonPtrArray(siteArray(), N));
        Top.set(2, M.allocNonPtrArray(siteArray(), N));
        Top.set(3, M.allocNonPtrArray(siteArray(), N));
        Top.set(4, M.allocNonPtrArray(siteArray(), N));
        uint64_t Seed = static_cast<uint64_t>(Rep);
        for (uint32_t I = 0; I < N; ++I) {
          setD(Top.get(1), I, I < Half ? coefAt(Seed, N, I) : 0.0);
          setD(Top.get(2), I, 0.0);
          setD(Top.get(3), I, I < Half ? coefAt(Seed + 1, N, I) : 0.0);
          setD(Top.get(4), I, 0.0);
        }
        fftInPlace(M, slot(Top, 1), slot(Top, 2), N, false);
        fftInPlace(M, slot(Top, 3), slot(Top, 4), N, false);
        // Pointwise product into (1, 2); no allocation in the loop.
        {
          Value R1 = Top.get(1), I1 = Top.get(2);
          Value R2 = Top.get(3), I2 = Top.get(4);
          for (uint32_t I = 0; I < N; ++I) {
            double AR = getD(R1, I), AI = getD(I1, I);
            double BR = getD(R2, I), BI = getD(I2, I);
            setD(R1, I, AR * BR - AI * BI);
            setD(I1, I, AR * BI + AI * BR);
          }
        }
        fftInPlace(M, slot(Top, 1), slot(Top, 2), N, true);
        {
          Value R1 = Top.get(1);
          for (uint32_t I = 0; I < N; ++I) {
            int64_t C = static_cast<int64_t>(std::llround(getD(R1, I)));
            Sum = Sum * 31 + static_cast<uint64_t>(C);
          }
        }
      }
    }
    return Sum;
  }

  uint64_t expected(double Scale) override {
    Sizes S = sizesFor(Scale);
    uint64_t Sum = 0;
    for (int Rep = 0; Rep < S.Repeats; ++Rep) {
      for (uint32_t Half = 256; Half <= S.MaxSize / 2; Half <<= 1) {
        uint32_t N = Half * 2;
        uint64_t Seed = static_cast<uint64_t>(Rep);
        std::vector<int64_t> A(Half), B(Half), Prod(N, 0);
        for (uint32_t I = 0; I < Half; ++I) {
          A[I] = coefAt(Seed, N, I);
          B[I] = coefAt(Seed + 1, N, I);
        }
        for (uint32_t I = 0; I < Half; ++I)
          for (uint32_t J = 0; J < Half; ++J)
            Prod[I + J] += A[I] * B[J];
        for (uint32_t I = 0; I < N; ++I)
          Sum = Sum * 31 + static_cast<uint64_t>(Prod[I]);
      }
    }
    return Sum;
  }
};

} // namespace

std::unique_ptr<Workload> tilgc::makeFFTWorkload() {
  return std::make_unique<FFTWorkload>();
}
