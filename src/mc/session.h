// Shared verification sessions.
//
// A VerificationSession owns one (typically probe-instrumented) network and
// one engine configuration, and serves every query of a verification run
// from shared exploration work instead of one independent run per query:
//
//   * max_clock_values — a whole batch of delay-bound queries (the paper's
//     per-variable Input-/Output-Delay maxima plus the end-to-end M-C
//     delay) answered by the sweep engine from ONE full-space exploration,
//     with the widen-and-refine candidates running in parallel;
//   * check_flags — reachability of all C1–C4 sticky flags plus the
//     deadlock/timelock search from one shared exploration, cached across
//     calls (the flags are discrete, so visiting the subsumption-reduced
//     space once is exact for every flag at once);
//   * repeated queries are memoized — asking the same bound twice costs no
//     second exploration (SessionStats::cache_hits counts these).
//
// The memo is content-addressed: queries key on canonical digests
// (mc/artifact.h) over the network's semantic fingerprint, and the whole
// memo can round-trip through a persistent ArtifactStore — load() before
// querying turns a repeat run on an unchanged model into pure cache hits
// (zero states explored), store() persists fresh work for the next run.
//
// The session copies the network it is given, so callers may hand in a
// temporary instrumented copy and keep the session alive past it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mc/artifact.h"
#include "mc/query.h"
#include "ta/fingerprint.h"

namespace psv::mc {

/// Aggregate work performed by a session, across every exploration it ran.
/// Shared explorations are counted once (unlike per-query MaxClockResult
/// stats, which attribute shared work to every query it served).
struct SessionStats {
  ExploreStats explore;
  int explorations = 0;  ///< reachability runs / sweeps performed
  int queries = 0;       ///< queries answered (batched ones count each)
  int cache_hits = 0;    ///< queries answered from the session memo
  int entries_added = 0;   ///< memo entries created by fresh work
  int entries_loaded = 0;  ///< memo entries pre-populated by load()
};

class VerificationSession {
 public:
  explicit VerificationSession(ta::Network net, ExploreOptions opts = {});

  const ta::Network& net() const { return net_; }
  const ExploreOptions& options() const { return opts_; }

  /// Install (or clear, with null) the cooperative cancel token every
  /// subsequent exploration honours. Pooled sessions outlive individual
  /// requests, so each request must set its own token — including null to
  /// shed a predecessor's. A fired token aborts explorations at the next
  /// wave barrier with ErrorCode::kCancelled; the memo is untouched
  /// (entries are recorded only after completed explorations), so the
  /// session stays valid for later requests.
  void set_cancel(std::shared_ptr<const std::atomic<bool>> cancel) {
    opts_.cancel = std::move(cancel);
  }

  /// Answer a batch of maximum-clock queries from shared explorations
  /// (engine per options().engine). Results are index-aligned with
  /// `queries`; repeated queries are served from the session cache.
  std::vector<MaxClockResult> max_clock_values(const std::vector<BoundQuery>& queries);

  /// Single-query convenience; identical answers to the batched form.
  MaxClockResult max_clock_value(const BoundQuery& query);

  /// Ranked top-K critical traces of one bound query (the slack surface's
  /// trace feed): the memoized result's ranked witnesses, most critical
  /// first — up to query.top_k entries, ranked[0] being the maximum. Served
  /// from the memo when the query was answered before, so a warm-loaded
  /// session (artifact format v3 persists the ranked payload) returns
  /// replayable critical traces without exploring a single state.
  std::vector<RankedWitness> top_traces(const BoundQuery& query);

  /// Reachability of `flag == 1` for each sticky flag, plus the
  /// deadlock/timelock search, from one shared full-space exploration. The
  /// exploration is cached: later calls (any flag set) are free. When a
  /// timelock aborts the shared sweep early its flag verdicts are not
  /// definitive: `shared_sweep` is false, `reachable` is empty, and callers
  /// should fall back to individual query_reachable() calls.
  struct FlagReport {
    std::vector<bool> reachable;  ///< index-aligned with the queried flags
    DeadlockResult deadlock;
    /// True when the verdicts came from the shared full-space sweep (the
    /// caller may report its statistics); false for the timelock fallback.
    bool shared_sweep = true;
  };
  FlagReport check_flags(const std::vector<ta::VarId>& flags);

  /// Answer a whole verification batch — every bound query plus the C1–C4
  /// flag/deadlock sweep — from ONE combined full-space exploration (plus
  /// rare widen-and-refine rounds for escaped bounds). This is the batch
  /// planner's workhorse: under the sweep engine, fresh bound queries and a
  /// fresh flag sweep share their round-0 exploration instead of running
  /// one exploration each; memoized parts (a warm-loaded session, repeated
  /// queries) are served from the memo exactly like the individual calls.
  /// Under the probe engine the parts run separately (probe explorations
  /// are goal-directed; there is no shared sweep to combine). Results are
  /// identical to calling max_clock_values() and check_flags() back to
  /// back — only the exploration count changes.
  struct BatchReport {
    std::vector<MaxClockResult> bounds;  ///< index-aligned with `queries`
    FlagReport flags;                    ///< empty when no flags were asked
  };
  BatchReport verify_batch(const std::vector<BoundQuery>& queries,
                           const std::vector<ta::VarId>& flags);

  /// Plain reachability of `goal` under the session options. Memoized
  /// (state_formula_digest-keyed) and persisted by store() since format v4 —
  /// the failing-path witness searches a repeated FAIL request re-runs are
  /// served from the memo with zero exploration.
  ReachResult query_reachable(const StateFormula& goal);

  /// Bounded-response check A[](pending => clock <= delta). Memoized
  /// (bounded_response_digest-keyed) and persisted, like query_reachable().
  BoundedResponseResult check_bounded_response(const StateFormula& pending, ta::ClockId clock,
                                               std::int64_t delta);

  // --- Persistent artifact cache -----------------------------------------

  /// Pre-populate the memo from `store` under this session's cache_key().
  /// Returns true when an artifact was loaded; a missing or invalid file is
  /// a miss (invalid ones warn through the store), never an error. Queries
  /// already answered are kept; call load() before querying for full effect.
  bool load(const ArtifactStore& store);

  /// Persist the memo (answered bounds, reachability and bounded-response
  /// results, and the shared flag sweep) under cache_key(). Skips the write
  /// and returns false when the session holds nothing beyond what load()
  /// brought in.
  bool store(const ArtifactStore& store) const;

  /// True when load() populated this session from a persistent artifact.
  bool warm_loaded() const { return warm_loaded_; }

  /// Content-addressed key of this session: {network fingerprint,
  /// result-affecting options, artifact format version}.
  const ArtifactKey& cache_key() const { return cache_key_; }

  /// The canonical fingerprint of the session network.
  const ta::NetworkFingerprint& fingerprint() const { return fingerprint_; }

  const SessionStats& stats() const { return stats_; }

 private:
  /// Run (once) the cached full-space deadlock + flag sweep.
  void ensure_flag_sweep();

  /// Memo-aware bound answering shared by max_clock_values and
  /// verify_batch; `flags`, when non-null, asks the underlying sweep batch
  /// to piggyback the flag/deadlock sweep on its round-0 exploration.
  std::vector<MaxClockResult> answer_bounds(const std::vector<BoundQuery>& queries,
                                            FlagSweepOutcome* flags);

  Digest128 bound_key(const BoundQuery& query) const;

  ta::Network net_;  ///< owned copy; the session outlives caller temporaries
  ExploreOptions opts_;
  ta::NetworkFingerprint fingerprint_;  ///< canonical digest + id ranks
  ArtifactKey cache_key_;
  SessionStats stats_;
  bool warm_loaded_ = false;
  bool dirty_ = false;  ///< fresh results exist that store() should persist

  // Cached full-space sweep results.
  bool flag_sweep_done_ = false;
  std::vector<bool> var_seen_one_;  ///< per variable: some state has v == 1
  DeadlockResult deadlock_;

  std::unordered_map<Digest128, MaxClockResult, Digest128Hash> bound_cache_;
  std::unordered_map<Digest128, ReachResult, Digest128Hash> reach_cache_;
  std::unordered_map<Digest128, BoundedResponseResult, Digest128Hash> response_cache_;
};

/// Per-stage cache accounting: the delta of `session`'s stats since
/// `before`, labeled warm when a loaded artifact answered everything.
StageCacheStats stage_cache_delta(const VerificationSession& session, const SessionStats& before,
                                  bool enabled);

}  // namespace psv::mc
