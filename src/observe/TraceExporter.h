//===- observe/TraceExporter.h - chrome://tracing JSON export ---*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes an EventRecorder's contents as a chrome://tracing /
/// Perfetto-loadable JSON object ({"traceEvents": [...]}):
///  - one complete event ("ph":"X") per collection on the "GC" track,
///    carrying trigger/bytes/frames counters in "args";
///  - one complete event per phase that ran, nested under the collection;
///  - per-worker tracks (tid = worker index + 1) with one complete event
///    per worker's span when a parallel mark-compact mark stamped them;
///  - instant events ("ph":"i") for pretenure-decision audits and worker
///    faults.
/// Timestamps are microseconds relative to the process telemetry epoch.
///
/// The mutator arms this automatically when TILGC_TRACE_OUT=<path> is set
/// (or MutatorConfig::TraceOutPath), writing the file when the mutator is
/// destroyed.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_OBSERVE_TRACEEXPORTER_H
#define TILGC_OBSERVE_TRACEEXPORTER_H

#include "observe/EventRecorder.h"

#include <string>

namespace tilgc {

class TraceExporter {
public:
  /// Renders \p R as a chrome://tracing JSON string. A non-empty
  /// \p SessionName (typically GcOptions::Name) is emitted as process_name
  /// metadata; all non-literal strings are JSON-escaped.
  static std::string render(const EventRecorder &R,
                            const std::string &SessionName = "");

  /// Renders and writes to \p Path. Returns false (and leaves no partial
  /// file behind beyond what the filesystem allows) on I/O failure.
  static bool writeFile(const EventRecorder &R, const std::string &Path,
                        const std::string &SessionName = "");
};

} // namespace tilgc

#endif // TILGC_OBSERVE_TRACEEXPORTER_H
