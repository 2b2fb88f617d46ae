// Exploration knobs, split out of reach.h so option-struct consumers (e.g.
// the core-layer facades with ExploreOptions default arguments) don't pull
// in the full engine and its threading headers.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

namespace psv::mc {

/// Engine answering maximum-clock-value queries (the paper's delay bounds).
///
///   * kSweep — explore the state space ONCE and read, per symbolic state
///     satisfying the predicate, the DBM upper bound of the probe clock;
///     a widen-and-refine loop re-explores with doubled extrapolation
///     constants whenever the running maximum escapes the current constant.
///     One exploration typically answers a whole batch of queries.
///   * kProbe — the original gallop + binary search of independent
///     reachability probes (pred && clock > D); retained as a cross-check
///     engine. Both engines produce bit-identical bounds.
enum class QueryEngine { kSweep, kProbe };

/// Exploration limits and knobs.
struct ExploreOptions {
  /// Hard cap on stored symbolic states; exceeded -> psv::Error. Parallel
  /// waves check the cap at the wave barrier (where it is deterministic),
  /// with a hard backstop at twice this value bounding transient memory.
  std::size_t max_states = 2'000'000;

  /// Worker threads for wave-parallel exploration. 0 picks one per hardware
  /// thread; 1 runs fully inline (no threads spawned) — the setting for
  /// step-debugging diagnostics. Exploration is deterministic by
  /// construction, so results are identical for every value; only wall
  /// clock changes.
  unsigned jobs = 0;

  /// Bound-query engine. Sweep answers from one shared exploration; probe
  /// is the legacy binary-search cross-check. Bounds are identical.
  QueryEngine engine = QueryEngine::kSweep;

  /// Goal-directed pruning for bound-only sweeps: once every pending query
  /// of a sweep round has witnessed an abstracted (infinite) probe-clock
  /// bound, no further state can change the round's outcome — the round is
  /// either inconclusive (the refine loop widens and re-runs) or unbounded
  /// at the search limit (one witness suffices), so the sweep aborts early.
  /// Sound only for bound sweeps; flag/deadlock passes must visit the full
  /// space and ignore the flag. Results are identical with or without
  /// pruning — only statistics (work) change, so the flag is part of the
  /// artifact cache key.
  bool goal_pruning = false;

  /// Cooperative cancellation. When set and flipped to true, explorations
  /// abandon at the next wave barrier by throwing ErrorCode::kCancelled;
  /// partial results are discarded (aborted runs never memoize).
  /// Like `jobs`, the token cannot change any completed result — it only
  /// decides whether a result is produced at all — so it is NOT part of the
  /// artifact cache key.
  std::shared_ptr<const std::atomic<bool>> cancel;
};

/// Exploration statistics for reporting and benchmarks. Deterministic:
/// identical across `jobs` settings for the same network and query.
struct ExploreStats {
  std::size_t states_stored = 0;
  std::size_t states_explored = 0;
  std::size_t transitions_fired = 0;
  std::size_t subsumed = 0;

  // Always zero: warm start was removed; the fields keep the wire encoding
  // and the benchmark's readers unchanged.
  std::size_t warm_states_reused = 0;
  std::size_t warm_states_revalidated = 0;
  std::size_t warm_seed_expansions = 0;
};

/// Persistent-cache accounting for one pipeline stage (or a whole session),
/// derived from SessionStats deltas. Feeds psv_verify --stats-json and the
/// [cache] lines of FrameworkResult::summary() so bench trend tracking can
/// tell warm runs from cold ones.
struct StageCacheStats {
  /// This stage participates in the persistent cache. Stays false for
  /// stages that never explore (e.g. the transform stage) even when a
  /// cache directory is configured.
  bool enabled = false;
  bool warm = false;     ///< served entirely from a loaded artifact
  int hits = 0;          ///< queries answered from memo entries
  int misses = 0;        ///< queries that required fresh exploration
  int stores = 0;        ///< fresh entries recorded for persistence

  /// "disabled" | "warm" | "cold" — the per-stage cache state string.
  const char* state() const { return !enabled ? "disabled" : (warm ? "warm" : "cold"); }
};

/// Field-wise sum, for aggregating stats across explorations.
inline void accumulate_stats(ExploreStats& into, const ExploreStats& from) {
  into.states_stored += from.states_stored;
  into.states_explored += from.states_explored;
  into.transitions_fired += from.transitions_fired;
  into.subsumed += from.subsumed;
}

}  // namespace psv::mc
