//===- gc/SemispaceCollector.h - Cheney semispace collector -----*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's first baseline: a semispace collector (Fenichel & Yochelson
/// 1969) using Cheney's algorithm, with the resizing strategy of §2.1:
/// after a collection with observed liveness ratio r', the heap is resized
/// by r'/r toward a target liveness ratio of r = 0.10, clamped to the
/// memory budget k*Min.
///
/// Generational stack collection is optional here too (§7.1: "can also be
/// used with non-generational collectors"): reused frames skip re-decoding,
/// though their roots must still be processed since every object moves.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_GC_SEMISPACECOLLECTOR_H
#define TILGC_GC_SEMISPACECOLLECTOR_H

#include "gc/Collector.h"
#include "gc/GcOptions.h"
#include "heap/Space.h"

namespace tilgc {

/// Two-space copying collector.
class SemispaceCollector : public Collector {
public:
  /// \p Opts must outlive the collector (the owning Mutator's config).
  /// Reads the sizing, stack-scanning, VerifyLevel and GcThreads fields.
  SemispaceCollector(const CollectorEnv &Env, const GcOptions &Opts);

  Word *allocate(ObjectKind Kind, uint32_t LenWords, uint32_t PtrMask,
                 uint32_t SiteId) override;
  void writeBarrier(Word *Slot) override { (void)Slot; }
  void collect(bool Major) override;
  uint64_t liveBytesAfterLastGC() const override { return LiveBytes; }
  bool verifyHeapNow(std::string &Error) const override;

  /// Mutator bump path: everything bumps into the active space.
  bool siteAllowsInlineAlloc(uint32_t SiteId) const override {
    (void)SiteId;
    return true;
  }
  Space *inlineAllocSpace() override { return Active; }
  /// No large-object space: no size bound.
  size_t inlineAllocMaxBytes() const override { return ~size_t{0}; }

private:
  /// Runs one collection, guaranteeing at least \p NeedBytes of free space
  /// afterwards (growing past the budget if unavoidable — unless a hard
  /// limit is set, in which case it throws HeapExhausted *before* moving
  /// anything). \p Trigger is recorded in the telemetry event.
  void collectInternal(size_t NeedBytes, GcTrigger Trigger);

  /// Samples Stats.MaxFootprintBytes against both semispace capacities.
  void noteFootprint();

  // Collector heap-dump hooks.
  void appendHeapState(std::string &Out) const override;
  void forEachLiveObject(
      const std::function<void(Word *, Word)> &Fn) const override;

  Space SpaceA, SpaceB;
  Space *Active = &SpaceA;
  Space *Inactive = &SpaceB;
  uint64_t LiveBytes = 0;
};

} // namespace tilgc

#endif // TILGC_GC_SEMISPACECOLLECTOR_H
