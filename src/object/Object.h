//===- object/Object.h - Nearly tag-free object representation -*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TIL-style nearly tag-free heap object model.
///
/// TIL represents heap data as records, pointer arrays and non-pointer
/// arrays; integers are untagged words and floats are unboxed, so the
/// collector cannot tell pointers from non-pointers by inspection — it must
/// consult per-object pointer masks (for records), per-kind rules (arrays),
/// and, for the stack, the trace tables of src/stack.
///
/// Every object carries a two-word header:
///
///   word 0 (descriptor):
///     bit  0       forward tag (1 = object was copied; remaining bits hold
///                  the new payload address, which is 8-byte aligned)
///     bits 1..2    kind (Record / PtrArray / NonPtrArray)
///     bits 3..34   payload length in words (32 bits)
///     bits 35..58  record pointer mask (bit i set = field i is a pointer)
///   word 1 (metadata):
///     bits 0..31   allocation-site id (the paper's profiling build prepends
///                  this; we keep it unconditionally so every collector
///                  configuration pays identical header costs)
///     bits 32..61  birth stamp in KB of total allocation at birth
///     bits 62..63  minor-collection survival count (used only by the
///                  aged-tenuring ablation policy)
///
/// A \c Value is an untyped 64-bit machine word: an unboxed integer, the raw
/// bits of a double, or a pointer to an object's payload (the word after the
/// header). Values are only interpreted through the trace machinery.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_OBJECT_OBJECT_H
#define TILGC_OBJECT_OBJECT_H

#include "support/Compiler.h"

#include <cassert>
#include <cstdint>
#include <cstring>

namespace tilgc {

/// A machine word; the unit of all heap storage.
using Word = uint64_t;

/// Number of header words preceding every object's payload.
inline constexpr unsigned HeaderWords = 2;

/// Records are limited to the width of the header pointer mask. Larger
/// aggregates use pointer arrays (as TIL does for big structures).
inline constexpr unsigned MaxRecordFields = 24;

/// The three runtime representations TIL produces, plus the collector's
/// internal pad filler.
enum class ObjectKind : uint8_t {
  Record,      ///< Mixed fields; pointer-ness given by the header mask.
  PtrArray,    ///< Every element is a pointer (or the null value 0).
  NonPtrArray, ///< Raw words: unboxed ints, doubles, bytes.
  Pad,         ///< Dead filler words left at the unused tail of a retired
               ///< mutator TLAB (or a compaction gap). Never allocated
               ///< by the mutator, never referenced; linear space walks skip
               ///< it. Its length field holds the TOTAL size in words
               ///< (including the descriptor word itself), so a gap as small
               ///< as one word is representable.
};

/// An untyped machine word. Pointer values address an object's payload.
class Value {
public:
  Value() : Bits(0) {}

  static Value fromBits(Word W) { return Value(W); }
  static Value fromInt(int64_t I) { return Value(static_cast<Word>(I)); }
  static Value fromDouble(double D) {
    Word W;
    std::memcpy(&W, &D, sizeof(W));
    return Value(W);
  }
  static Value fromPtr(Word *Payload) {
    return Value(reinterpret_cast<Word>(Payload));
  }
  /// The distinguished null pointer (used by workloads for nil).
  static Value null() { return Value(0); }

  Word bits() const { return Bits; }
  int64_t asInt() const { return static_cast<int64_t>(Bits); }
  double asDouble() const {
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    return D;
  }
  Word *asPtr() const { return reinterpret_cast<Word *>(Bits); }
  bool isNull() const { return Bits == 0; }

  friend bool operator==(Value A, Value B) { return A.Bits == B.Bits; }
  friend bool operator!=(Value A, Value B) { return A.Bits != B.Bits; }

private:
  explicit Value(Word W) : Bits(W) {}
  Word Bits;
};

static_assert(sizeof(Value) == sizeof(Word), "Value must be one word");

//===----------------------------------------------------------------------===//
// Descriptor word (header word 0)
//===----------------------------------------------------------------------===//

namespace header {

inline constexpr Word ForwardTag = 1;
inline constexpr unsigned KindShift = 1;
inline constexpr unsigned LengthShift = 3;
inline constexpr unsigned MaskShift = 35;
inline constexpr Word LengthMask = 0xFFFFFFFFULL;
inline constexpr Word PtrMaskMask = 0xFFFFFFULL;

/// Builds a descriptor word. \p LenWords is the payload length in words;
/// \p PtrMask is meaningful only for records.
inline Word make(ObjectKind Kind, uint32_t LenWords, uint32_t PtrMask = 0) {
  assert((Kind == ObjectKind::Record ? PtrMask >> MaxRecordFields == 0
                                     : PtrMask == 0) &&
         "pointer mask out of range");
  assert((Kind != ObjectKind::Record || LenWords <= MaxRecordFields) &&
         "record too wide for pointer mask");
  return (static_cast<Word>(Kind) << KindShift) |
         (static_cast<Word>(LenWords) << LengthShift) |
         (static_cast<Word>(PtrMask) << MaskShift);
}

inline bool isForwarded(Word Descriptor) { return Descriptor & ForwardTag; }

/// Builds a forwarding descriptor pointing at \p NewPayload.
inline Word makeForward(Word *NewPayload) {
  Word Bits = reinterpret_cast<Word>(NewPayload);
  assert((Bits & 7) == 0 && "payload must be 8-byte aligned");
  return Bits | ForwardTag;
}

inline Word *forwardTarget(Word Descriptor) {
  assert(isForwarded(Descriptor) && "not a forwarding descriptor");
  return reinterpret_cast<Word *>(Descriptor & ~ForwardTag);
}

inline ObjectKind kind(Word Descriptor) {
  assert(!isForwarded(Descriptor) && "reading kind of forwarded object");
  return static_cast<ObjectKind>((Descriptor >> KindShift) & 3);
}

inline uint32_t length(Word Descriptor) {
  assert(!isForwarded(Descriptor) && "reading length of forwarded object");
  return static_cast<uint32_t>((Descriptor >> LengthShift) & LengthMask);
}

inline uint32_t ptrMask(Word Descriptor) {
  assert(!isForwarded(Descriptor) && "reading mask of forwarded object");
  return static_cast<uint32_t>((Descriptor >> MaskShift) & PtrMaskMask);
}

/// Builds a pad descriptor covering \p TotalWords words of dead space
/// (descriptor word included; a 1-word pad is a bare descriptor).
inline Word makePad(uint32_t TotalWords) {
  assert(TotalWords >= 1 && "pad must cover its own descriptor");
  return (static_cast<Word>(ObjectKind::Pad) << KindShift) |
         (static_cast<Word>(TotalWords) << LengthShift);
}

inline bool isPad(Word Descriptor) {
  return !isForwarded(Descriptor) &&
         ((Descriptor >> KindShift) & 3) ==
             static_cast<Word>(ObjectKind::Pad);
}

/// Total words a pad descriptor covers.
inline uint32_t padWords(Word Descriptor) {
  assert(isPad(Descriptor) && "not a pad descriptor");
  return static_cast<uint32_t>((Descriptor >> LengthShift) & LengthMask);
}

} // namespace header

//===----------------------------------------------------------------------===//
// Metadata word (header word 1)
//===----------------------------------------------------------------------===//

namespace meta {

inline constexpr unsigned BirthShift = 32;
inline constexpr unsigned AgeShift = 62;
inline constexpr Word SiteMask = 0xFFFFFFFFULL;
inline constexpr Word BirthMask = 0x3FFFFFFFULL;
inline constexpr unsigned MaxAge = 3;

/// Builds a metadata word for an object born at \p BirthKB cumulative
/// allocation from site \p SiteId.
inline Word make(uint32_t SiteId, uint64_t BirthKB) {
  return static_cast<Word>(SiteId) | ((BirthKB & BirthMask) << BirthShift);
}

inline uint32_t site(Word Meta) {
  return static_cast<uint32_t>(Meta & SiteMask);
}

inline uint64_t birthKB(Word Meta) { return (Meta >> BirthShift) & BirthMask; }

inline unsigned age(Word Meta) {
  return static_cast<unsigned>(Meta >> AgeShift);
}

/// Returns \p Meta with the survival count bumped (saturating at MaxAge).
inline Word withBumpedAge(Word Meta) {
  unsigned Age = age(Meta);
  if (Age >= MaxAge)
    return Meta;
  return (Meta & ~(3ULL << AgeShift)) |
         (static_cast<Word>(Age + 1) << AgeShift);
}

} // namespace meta

//===----------------------------------------------------------------------===//
// Whole-object helpers (operating on payload pointers)
//===----------------------------------------------------------------------===//

/// Descriptor word of the object whose payload starts at \p Payload.
inline Word &descriptorOf(Word *Payload) { return Payload[-2]; }

/// Metadata word of the object whose payload starts at \p Payload.
inline Word &metaOf(Word *Payload) { return Payload[-1]; }

/// Total footprint in words (header + payload) given a descriptor.
inline uint32_t objectTotalWords(Word Descriptor) {
  return HeaderWords + header::length(Descriptor);
}

/// Payload size in bytes given a descriptor.
inline uint64_t objectPayloadBytes(Word Descriptor) {
  return static_cast<uint64_t>(header::length(Descriptor)) * sizeof(Word);
}

/// Total footprint in bytes (header + payload) given a descriptor.
inline uint64_t objectTotalBytes(Word Descriptor) {
  return static_cast<uint64_t>(objectTotalWords(Descriptor)) * sizeof(Word);
}

/// Invokes \p Fn with the address of every pointer field of the object at
/// \p Payload, using an explicitly supplied \p Descriptor. Needed when the
/// in-place header has been overwritten with a forwarding word but the
/// caller saved the original descriptor (the mark-compact nursery fixup).
template <typename FnT>
void forEachPointerFieldWith(Word Descriptor, Word *Payload, FnT Fn) {
  assert(!header::isForwarded(Descriptor) && "tracing a forwarded object");
  switch (header::kind(Descriptor)) {
  case ObjectKind::Record: {
    uint32_t Mask = header::ptrMask(Descriptor);
    while (Mask) {
      unsigned I = static_cast<unsigned>(__builtin_ctz(Mask));
      Fn(&Payload[I]);
      Mask &= Mask - 1;
    }
    return;
  }
  case ObjectKind::PtrArray: {
    uint32_t Len = header::length(Descriptor);
    for (uint32_t I = 0; I < Len; ++I)
      Fn(&Payload[I]);
    return;
  }
  case ObjectKind::NonPtrArray:
    return;
  case ObjectKind::Pad:
    TILGC_UNREACHABLE("tracing a pad filler");
  }
  TILGC_UNREACHABLE("bad object kind");
}

/// Invokes \p Fn with the address of every pointer field of the object at
/// \p Payload. Null fields are still visited; callers test for null.
template <typename FnT> void forEachPointerField(Word *Payload, FnT Fn) {
  forEachPointerFieldWith(descriptorOf(Payload), Payload, Fn);
}

} // namespace tilgc

#endif // TILGC_OBJECT_OBJECT_H
