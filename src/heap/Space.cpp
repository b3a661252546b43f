//===- heap/Space.cpp - Bump-pointer allocation space --------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "heap/Space.h"

#include "support/Fatal.h"
#include "support/FaultInjector.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>

using namespace tilgc;

void Space::reserve(size_t Bytes) {
  release();
  // A request larger than any object the host can address is refused
  // before malloc: rounding it up to words would wrap, sanitizer
  // allocators abort on such sizes instead of returning null, and no
  // backoff can make it succeed.
  constexpr size_t MaxWords = PTRDIFF_MAX / sizeof(Word);
  if (TILGC_UNLIKELY(Bytes > MaxWords * sizeof(Word)))
    fatalError("space reservation of %zu bytes failed: host out of memory "
               "(larger than the address space allows)",
               Bytes);
  size_t Words = (Bytes + sizeof(Word) - 1) / sizeof(Word);
  if (Words == 0)
    Words = HeaderWords;
  // Host allocation failure gets a bounded retry with exponential backoff
  // before the structured fatal: a transient spike (another process, a
  // concurrent GC in a sibling heap) may clear within milliseconds, and a
  // heap-growth request is already a slow path. HostGrowFail injects the
  // failure deterministically so the retry ladder is torture-testable.
  static constexpr unsigned MaxAttempts = 4;
  for (unsigned Attempt = 0;; ++Attempt) {
    bool Injected = TILGC_UNLIKELY(FaultInjector::enabled()) &&
                    FaultInjector::global().shouldFire(FaultPoint::HostGrowFail);
    Base = Injected ? nullptr
                    : static_cast<Word *>(std::malloc(Words * sizeof(Word)));
    if (TILGC_LIKELY(Base != nullptr))
      break;
    if (Attempt + 1 >= MaxAttempts)
      fatalError("space reservation of %zu bytes failed: host out of memory "
                 "(%u attempts with backoff)",
                 Words * sizeof(Word), MaxAttempts);
    std::this_thread::sleep_for(std::chrono::milliseconds(1u << Attempt));
  }
  assert((reinterpret_cast<uintptr_t>(Base) & 7) == 0 &&
         "space must be word-aligned");
  Next = Base;
  Limit = Base + Words;
  SoftLimit = Limit;
  ++ReserveEpoch;
}

void Space::release() {
  std::free(Base);
  Base = Next = Limit = SoftLimit = nullptr;
  ++ReserveEpoch;
}
