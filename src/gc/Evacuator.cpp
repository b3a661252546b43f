//===- gc/Evacuator.cpp - Cheney copying engine ---------------------------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Evacuator.h"

#include "support/Fatal.h"

#include <cstdio>
#include <cstring>

using namespace tilgc;

Evacuator::Evacuator(const Config &C) : C(C) {
  assert(C.Dest && "evacuation needs a destination");
  assert(!C.TraceLOS || C.LOS);
  assert((C.DestYoung == nullptr) == (C.PromoteAgeThreshold <= 1) &&
         "aged tenuring needs a young destination and vice versa");
  for (Space *S : C.From) {
    if (!S)
      continue;
    FromLo[NumFrom] = S->baseAddr();
    FromHi[NumFrom] = S->limitAddr();
    ++NumFrom;
  }
  ScanDest = C.Dest->frontier();
  ScanYoung = C.DestYoung ? C.DestYoung->frontier() : nullptr;
}

Word *Evacuator::copy(Word *P) {
  Word Descriptor = descriptorOf(P);
  if (header::isForwarded(Descriptor))
    return header::forwardTarget(Descriptor);


  Word Meta = metaOf(P);
  unsigned OldAge = meta::age(Meta);
  Word NewMeta = meta::withBumpedAge(Meta);

  Space *Target = C.Dest;
  if (C.DestYoung && OldAge + 1 < C.PromoteAgeThreshold)
    Target = C.DestYoung;

  Word *NewPayload = Target->allocate(Descriptor, NewMeta);
  if (TILGC_UNLIKELY(!NewPayload) && Target != C.Dest) {
    // The young destination ran dry: promote early rather than dying.
    Target = C.Dest;
    NewPayload = Target->allocate(Descriptor, NewMeta);
  }
  if (TILGC_UNLIKELY(!NewPayload))
    // Always-on terminal failure: the heap is half-evacuated, so this is
    // not recoverable the way an allocation-time OOM is.
    fatalError("destination space overflowed during evacuation (target=%s "
               "used=%zu cap=%zu, need %u bytes); collection cannot "
               "complete",
               Target == C.Dest ? "dest" : "destYoung", Target->usedBytes(),
               Target->capacityBytes(), objectTotalWords(Descriptor) * 8);
  uint32_t Len = header::length(Descriptor);
  std::memcpy(NewPayload, P, static_cast<size_t>(Len) * sizeof(Word));
  descriptorOf(P) = header::makeForward(NewPayload);

  uint64_t Bytes = objectTotalBytes(Descriptor);
  BytesCopied += Bytes;
  ++ObjectsCopied;

  if (TILGC_UNLIKELY(C.CrossDest != nullptr) && Target == C.Dest) {
    C.CrossDest->recordObject(NewPayload - HeaderWords,
                              objectTotalWords(Descriptor));
    ++CrossingUpdates;
  }

  if (C.Profiler) {
    uint32_t Site = meta::site(Meta);
    C.Profiler->onCopy(Site, Bytes);
    if (C.CountSurvivedFirst && OldAge == 0)
      C.Profiler->onSurviveFirst(Site);
  }
  return NewPayload;
}

// The profiler test is hoisted out of the per-field loop by stamping the
// scan path on the flag once per drain: a profiled run re-tests C.Profiler
// for every pointer field otherwise, and unprofiled runs (every paper-table
// reproduction) pay the branch for nothing.
template <bool WithProfiler> void Evacuator::scanObject(Word *Payload) {
  uint32_t Site = WithProfiler ? meta::site(metaOf(Payload)) : 0;
  forEachPointerField(Payload, [&](Word *Field) {
    forwardSlot(Field);
    if constexpr (WithProfiler) {
      if (*Field)
        C.Profiler->onReferent(Site,
                               meta::site(metaOf(reinterpret_cast<Word *>(
                                   *Field))));
    }
  });
}

template <bool WithProfiler> void Evacuator::drainImpl() {
  bool Progress = true;
  while (Progress) {
    Progress = false;
    while (ScanDest < C.Dest->frontier()) {
      Word *Payload = ScanDest + HeaderWords;
      scanObject<WithProfiler>(Payload);
      ScanDest += objectTotalWords(descriptorOf(Payload));
      Progress = true;
    }
    if (C.DestYoung) {
      while (ScanYoung < C.DestYoung->frontier()) {
        Word *Payload = ScanYoung + HeaderWords;
        scanObject<WithProfiler>(Payload);
        ScanYoung += objectTotalWords(descriptorOf(Payload));
        Progress = true;
      }
    }
    while (!LOSWork.empty()) {
      Word *Payload = LOSWork.back();
      LOSWork.pop_back();
      scanObject<WithProfiler>(Payload);
      Progress = true;
    }
  }
}

void Evacuator::drain() {
  if (C.Profiler)
    drainImpl<true>();
  else
    drainImpl<false>();
}
