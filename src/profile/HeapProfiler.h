//===- profile/HeapProfiler.h - Lifetime heap profiling ---------*- C++ -*-===//
//
// Part of the tilgc project (PLDI'98 GC reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap profiler of paper §6. During a profiled run the collector
/// reports, per allocation site: bytes/objects allocated, bytes copied,
/// objects surviving their first collection, and object ages at death
/// (found by sweeping the allocation area for dead objects after each
/// collection). From the profile we derive:
///
///  * the pretenure set — sites whose old% is at least a cutoff (80% in the
///    paper's experiments), and
///  * the §7.2 scan-elimination set — pretenured sites s whose referent
///    sites P(s) are all pretenured, so objects from s can never hold young
///    pointers at a minor collection and need not be scanned at all.
///
/// The report format mirrors the paper's Figure 2.
///
//===----------------------------------------------------------------------===//

#ifndef TILGC_PROFILE_HEAPPROFILER_H
#define TILGC_PROFILE_HEAPPROFILER_H

#include "profile/AllocSite.h"

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

namespace tilgc {

/// Per-site lifetime statistics.
struct SiteStats {
  uint64_t AllocBytes = 0;
  uint64_t AllocCount = 0;
  uint64_t CopiedBytes = 0;
  uint64_t SurvivedFirstCount = 0;
  uint64_t DeathCount = 0;
  /// Sum over dead objects of (death stamp - birth stamp) in KB of
  /// cumulative allocation — the paper's "avg age" divides this by deaths.
  uint64_t DeathAgeKBSum = 0;
  /// Sites of objects referenced by this site's objects, observed during
  /// collections (used by the scan-elimination analysis).
  std::set<uint32_t> ReferentSites;

  /// Fraction of this site's objects that survived their first collection.
  double oldFraction() const {
    return AllocCount ? static_cast<double>(SurvivedFirstCount) /
                            static_cast<double>(AllocCount)
                      : 0.0;
  }
  double avgDeathAgeKB() const {
    return DeathCount ? static_cast<double>(DeathAgeKBSum) /
                            static_cast<double>(DeathCount)
                      : 0.0;
  }
};

/// Derived pretenuring decisions (see gc/GenerationalCollector), carrying
/// the promotion-rate evidence that justified each one so the decision can
/// be audited at runtime (the telemetry plane's onPretenureDecision hook).
/// The evidence fields default to zero: hand-written decisions (tests,
/// ablation configs) stay two-field aggregates.
struct PretenureDecision {
  uint32_t SiteId;
  bool EliminateScan; ///< §7.2: referents are all pretenured too.
  // --- Evidence (filled by derivePretenureSet) -------------------------
  double OldFraction = 0.0;  ///< Observed survive-first fraction.
  double OldCutoff = 0.0;    ///< The cutoff the fraction was tested against.
  uint64_t AllocBytes = 0;   ///< Profiled bytes allocated at the site.
  uint64_t AllocCount = 0;   ///< Profiled allocations at the site.
  uint64_t SurvivedFirstCount = 0; ///< Objects surviving their first GC.
};

/// Accumulates per-site statistics during a profiled run.
class HeapProfiler {
public:
  void onAlloc(uint32_t Site, uint64_t Bytes) {
    SiteStats &S = statsFor(Site);
    S.AllocBytes += Bytes;
    S.AllocCount += 1;
  }

  void onCopy(uint32_t Site, uint64_t Bytes) {
    statsFor(Site).CopiedBytes += Bytes;
  }

  void onSurviveFirst(uint32_t Site) {
    statsFor(Site).SurvivedFirstCount += 1;
  }

  void onDeath(uint32_t Site, uint64_t AgeKB) {
    SiteStats &S = statsFor(Site);
    S.DeathCount += 1;
    S.DeathAgeKBSum += AgeKB;
  }

  void onReferent(uint32_t FromSite, uint32_t ToSite) {
    statsFor(FromSite).ReferentSites.insert(ToSite);
  }

  /// Forgets all statistics (benches reset between runs).
  void reset() { Stats.clear(); }

  /// Accumulates \p Other into this profiler: counters add, referent-site
  /// sets union. Each group mutator records into a private scratch
  /// profiler merged here at its safepoints, so a profiled group derives
  /// the same pretenure set as one shared profiler would.
  void mergeFrom(const HeapProfiler &Other);

  const SiteStats &site(uint32_t Id) const;
  size_t numSites() const { return Stats.size(); }

  /// Total bytes allocated / copied across all sites.
  uint64_t totalAllocBytes() const;
  uint64_t totalCopiedBytes() const;

  /// Sites whose old% is at least \p OldCutoff (paper default 0.8) and that
  /// allocated at least \p MinObjects objects (noise floor). For each, also
  /// decides scan elimination by the closed-referent-set fixpoint of §7.2.
  std::vector<PretenureDecision>
  derivePretenureSet(double OldCutoff = 0.8, uint64_t MinObjects = 8) const;

  /// Writes a Figure-2-style report: sites with alloc% or copied% above
  /// \p DisplayCutoffPercent, plus the summary footer.
  void report(std::FILE *Out, const std::string &Title,
              double DisplayCutoffPercent = 1.0,
              double OldCutoff = 0.8) const;

  /// Saves/loads the profile as a line-oriented text file so a profiling
  /// run can feed a later pretenured run.
  bool save(const std::string &Path) const;
  bool load(const std::string &Path);

private:
  SiteStats &statsFor(uint32_t Site) {
    if (Site >= Stats.size())
      Stats.resize(Site + 1);
    return Stats[Site];
  }

  std::vector<SiteStats> Stats;
};

} // namespace tilgc

#endif // TILGC_PROFILE_HEAPPROFILER_H
