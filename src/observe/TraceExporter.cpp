//===- observe/TraceExporter.cpp - chrome://tracing JSON export -----------===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//

#include "observe/TraceExporter.h"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace tilgc {

namespace {

/// Microsecond timestamp with ns resolution kept as decimals (the trace
/// format's ts/dur are doubles in µs).
void appendUs(std::string &Out, uint64_t Ns) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64 ".%03u", Ns / 1000,
                static_cast<unsigned>(Ns % 1000));
  Out += Buf;
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out += Buf;
}

/// JSON string-body escaping for every non-literal string the trace emits:
/// user-controlled names (GcOptions::Name), watchdog bark detail text, and
/// anything else that could carry a quote, backslash, or control byte. A
/// single unescaped quote in a mutator name makes the whole file unloadable.
void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (U < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendCommon(std::string &Out, const char *Name, const char *Ph,
                  uint64_t TsNs, unsigned Tid) {
  Out += "{\"name\":\"";
  Out += Name;
  Out += "\",\"cat\":\"gc\",\"ph\":\"";
  Out += Ph;
  Out += "\",\"pid\":1,\"tid\":";
  appendU64(Out, Tid);
  Out += ",\"ts\":";
  appendUs(Out, TsNs);
}

void appendThreadName(std::string &Out, unsigned Tid, const std::string &Name,
                      bool &First) {
  if (!First)
    Out += ",\n";
  First = false;
  Out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
  appendU64(Out, Tid);
  Out += ",\"args\":{\"name\":\"";
  appendJsonEscaped(Out, Name);
  Out += "\"}}";
}

} // namespace

std::string TraceExporter::render(const EventRecorder &R,
                                  const std::string &SessionName) {
  std::string Out;
  Out.reserve(4096 + R.size() * 512);
  Out += "{\"traceEvents\":[\n";

  bool First = true;
  // Process naming metadata: the user-supplied session name (GcOptions::Name)
  // labels the whole process track. User-controlled, so escaped.
  if (!SessionName.empty()) {
    First = false;
    Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"";
    appendJsonEscaped(Out, SessionName);
    Out += "\"}}";
  }
  // Track naming metadata: tid 0 is the collector's controlling thread;
  // worker tracks are named lazily below once we know how many exist.
  appendThreadName(Out, 0, "GC", First);
  unsigned MaxWorkerTid = 0;
  // Mutator park spans (multi-mutator runtime) live on their own tid
  // range, clear of any plausible worker count.
  constexpr unsigned MutatorTidBase = 1000;
  unsigned MaxMutatorTid = 0;

  for (size_t I = 0; I < R.size(); ++I) {
    const GcEvent &E = R.event(I);

    // The collection itself.
    std::string Name = gcGenerationName(E.Gen);
    Name += " gc #";
    char SeqBuf[24];
    std::snprintf(SeqBuf, sizeof(SeqBuf), "%" PRIu64, E.Seq);
    Name += SeqBuf;
    Out += ",\n";
    appendCommon(Out, Name.c_str(), "X", E.BeginNs, 0);
    Out += ",\"dur\":";
    appendUs(Out, E.PauseNs);
    Out += ",\"args\":{\"trigger\":\"";
    Out += gcTriggerName(E.Trigger);
    Out += "\",\"bytes_copied\":";
    appendU64(Out, E.BytesCopied);
    Out += ",\"objects_copied\":";
    appendU64(Out, E.ObjectsCopied);
    Out += ",\"bytes_promoted\":";
    appendU64(Out, E.BytesPromoted);
    Out += ",\"bytes_pretenured\":";
    appendU64(Out, E.BytesPretenured);
    Out += ",\"frames_at_gc\":";
    appendU64(Out, E.FramesAtGC);
    Out += ",\"frames_scanned\":";
    appendU64(Out, E.FramesScanned);
    Out += ",\"frames_reused\":";
    appendU64(Out, E.FramesReused);
    Out += ",\"ssb_entries\":";
    appendU64(Out, E.SsbEntriesProcessed);
    Out += ",\"dirty_cards\":";
    appendU64(Out, E.DirtyCards);
    Out += ",\"cards_scanned\":";
    appendU64(Out, E.CardsScanned);
    Out += ",\"crossing_map_updates\":";
    appendU64(Out, E.CrossingMapUpdates);
    Out += ",\"hybrid_switched\":";
    Out += E.HybridSwitched ? "true" : "false";
    Out += ",\"workers\":";
    appendU64(Out, E.Workers);
    Out += ",\"worker_faults\":";
    appendU64(Out, E.WorkerFaults);
    Out += ",\"serial_recovery\":";
    Out += E.SerialRecovery ? "true" : "false";
    Out += ",\"engine_failover\":";
    Out += E.EngineFailover ? "true" : "false";
    Out += "}}";

    // Phase breakdown, nested inside the collection on the same track.
    for (unsigned P = 0; P < NumGcPhases; ++P) {
      if (E.PhaseDurNs[P] == 0 && E.PhaseBeginNs[P] == 0)
        continue;
      Out += ",\n";
      appendCommon(Out, gcPhaseName(static_cast<GcPhase>(P)), "X",
                   E.PhaseBeginNs[P], 0);
      Out += ",\"dur\":";
      appendUs(Out, E.PhaseDurNs[P]);
      Out += "}";
    }

    // Per-worker mark spans on their own tracks.
    for (const GcWorkerSpan &W : E.WorkerSpans) {
      unsigned Tid = W.Index + 1;
      if (Tid > MaxWorkerTid)
        MaxWorkerTid = Tid;
      std::string WName = W.Faulted ? "mark (faulted)" : "mark";
      Out += ",\n";
      appendCommon(Out, WName.c_str(), "X", W.BeginNs, Tid);
      Out += ",\"dur\":";
      appendUs(Out, W.EndNs >= W.BeginNs ? W.EndNs - W.BeginNs : 0);
      Out += ",\"args\":{\"gc\":";
      appendU64(Out, E.Seq);
      Out += ",\"bytes_marked\":";
      appendU64(Out, W.BytesMarked);
      Out += ",\"objects_marked\":";
      appendU64(Out, W.ObjectsMarked);
      Out += "}}";
    }

    // Per-mutator safepoint park spans (multi-mutator runtime) on their
    // own tracks: each shows the window the thread sat parked while this
    // collection's stop-the-world operation ran.
    for (const GcWorkerSpan &M : E.MutatorSpans) {
      unsigned Tid = MutatorTidBase + M.Index;
      if (Tid > MaxMutatorTid)
        MaxMutatorTid = Tid;
      Out += ",\n";
      appendCommon(Out, "safepoint park", "X", M.BeginNs, Tid);
      Out += ",\"dur\":";
      appendUs(Out, M.EndNs >= M.BeginNs ? M.EndNs - M.BeginNs : 0);
      Out += ",\"args\":{\"gc\":";
      appendU64(Out, E.Seq);
      Out += "}}";
    }
  }

  // Pretenure-decision audits as global instant events at ts 0 (the flip
  // happens at collector construction, before the telemetry epoch matters).
  for (const PretenureAudit &A : R.audits()) {
    std::string Name = "pretenure site #";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%u", A.SiteId);
    Name += Buf;
    Out += ",\n";
    appendCommon(Out, Name.c_str(), "i", 0, 0);
    Out += ",\"s\":\"g\",\"args\":{\"pretenured\":";
    Out += A.Pretenured ? "true" : "false";
    Out += ",\"eliminate_scan\":";
    Out += A.EliminateScan ? "true" : "false";
    std::snprintf(Buf, sizeof(Buf), ",\"old_fraction\":%.4f", A.OldFraction);
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf), ",\"threshold\":%.4f", A.Threshold);
    Out += Buf;
    Out += ",\"alloc_bytes\":";
    appendU64(Out, A.AllocBytes);
    Out += ",\"alloc_count\":";
    appendU64(Out, A.AllocCount);
    Out += ",\"survived_first_gc\":";
    appendU64(Out, A.SurvivedFirstGC);
    Out += "}}";
  }

  for (const EventRecorder::WorkerFault &F : R.faults()) {
    Out += ",\n";
    appendCommon(Out, "worker fault", "i", 0, F.WorkerIndex + 1);
    Out += ",\"s\":\"t\",\"args\":{\"gc\":";
    appendU64(Out, F.Seq);
    Out += "}}";
  }

  // Watchdog barks as global instants at the stall's detection time — the
  // structured diagnostic a stalled run leaves behind even when it never
  // reaches a clean exit.
  for (const WatchdogBark &B : R.barks()) {
    Out += ",\n";
    appendCommon(Out, "watchdog bark", "i", B.WhenNs, 0);
    Out += ",\"s\":\"g\",\"args\":{\"kind\":\"";
    Out += watchdogBarkKindName(B.What);
    Out += "\",\"seq\":";
    appendU64(Out, B.Seq);
    Out += ",\"deadline_us\":";
    appendU64(Out, B.DeadlineMicros);
    Out += ",\"elapsed_us\":";
    appendU64(Out, B.ElapsedMicros);
    Out += ",\"policy\":\"";
    Out += watchdogPolicyName(B.Policy);
    Out += "\",\"phase\":\"";
    Out += B.PhaseOrdinal < NumGcPhases
               ? gcPhaseName(static_cast<GcPhase>(B.PhaseOrdinal))
               : "none";
    Out += "\",\"mutators_parked\":";
    appendU64(Out, B.MutatorsParked);
    Out += ",\"mutators_expected\":";
    appendU64(Out, B.MutatorsExpected);
    // The free-form diagnostic the supervisor captured at expiry (heap
    // state, stalled-thread census). It is multi-line text, so it MUST go
    // through the escaper.
    Out += ",\"detail\":\"";
    appendJsonEscaped(Out, B.Detail);
    Out += "\"}}";
  }

  for (unsigned Tid = 1; Tid <= MaxWorkerTid; ++Tid) {
    std::string Name = "gc worker ";
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%u", Tid - 1);
    Name += Buf;
    appendThreadName(Out, Tid, Name, First);
  }
  for (unsigned Tid = MutatorTidBase; Tid <= MaxMutatorTid; ++Tid) {
    std::string Name = "mutator ";
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%u", Tid - MutatorTidBase);
    Name += Buf;
    appendThreadName(Out, Tid, Name, First);
  }

  Out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":";
  appendU64(Out, R.size());
  Out += ",\"dropped\":";
  appendU64(Out, R.dropped());
  Out += "}}\n";
  return Out;
}

bool TraceExporter::writeFile(const EventRecorder &R, const std::string &Path,
                              const std::string &SessionName) {
  std::string Json = render(R, SessionName);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = Written == Json.size();
  if (std::fclose(F) != 0)
    Ok = false;
  return Ok;
}

} // namespace tilgc
