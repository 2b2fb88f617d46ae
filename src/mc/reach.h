// Symbolic reachability with inclusion subsumption and diagnostic traces.
//
// The engine explores the zone graph in breadth-first waves over a sharded
// passed/waiting store, hash-partitioned by the discrete part of the state
// (location vector + variable valuation):
//
//   * successor generation for the whole frontier fans out over a
//     work-stealing worker pool (zone algebra dominates the cost);
//   * inclusion-subsumption checks and insertions are shard-local — each
//     shard is owned by exactly one worker per insertion phase, so the hot
//     path needs no lock at all, not even a per-shard mutex;
//   * every successor carries a deterministic rank (frontier index,
//     successor index); shards insert in rank order and the next frontier
//     is assembled rank-sorted, so stores, statistics, traces, and verified
//     bounds are BIT-IDENTICAL for every thread count — `jobs` only changes
//     wall-clock time, never a result.
//
// Trace reconstruction follows parent-pointer records (packed shard+index
// ids) back to the initial state, exactly as in the sequential engine.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mc/explore_options.h"
#include "mc/state.h"
#include "mc/succ.h"
#include "mc/worker_pool.h"

namespace psv::mc {

/// One step of a diagnostic trace.
struct TraceStep {
  std::string label;  ///< participating edges ("A.l1->l2[c!] ~ B.l3->l4[c?]")
  std::string state;  ///< rendered successor state
};

/// Diagnostic trace from the initial state to a goal state.
struct Trace {
  std::vector<TraceStep> steps;
  std::string to_string() const;
};

/// Result of a reachability query.
struct ReachResult {
  bool reachable = false;
  Trace trace;  ///< meaningful when reachable
  ExploreStats stats;
};

/// Result of deadlock detection. Timelocks (no action possible AND an
/// invariant stops time) abort the search immediately; plain quiescence (no
/// action possible but time diverges) is recorded while the exploration
/// continues, so a benign quiescent corner never masks a timelock.
struct DeadlockResult {
  bool found = false;
  /// True when the reported state has a time-blocked zone (timelock);
  /// false for quiescence.
  bool timelock = false;
  Trace trace;
  ExploreStats stats;
};

/// Breadth-first symbolic reachability over a network.
///
/// The engine owns nothing of the network; it may be constructed per query.
/// Query clock constants are merged into the extrapolation constants so each
/// query remains exact for the constraints it mentions.
class Reachability {
 public:
  /// `extra_clock_consts` (entry per clock, -1 = none) extends the
  /// extrapolation constants beyond what the network and the goal formula
  /// mention — the sweep bound engine uses this to keep a probe clock's
  /// upper bounds exact up to its current widening candidate.
  Reachability(const ta::Network& net, const StateFormula& goal, ExploreOptions opts = {},
               std::vector<std::int32_t> extra_clock_consts = {});
  ~Reachability();

  Reachability(const Reachability&) = delete;
  Reachability& operator=(const Reachability&) = delete;

  /// Run until the goal is found or the state space is exhausted.
  ReachResult run();

  /// Explore the full (subsumption-reduced) state space, invoking `visit`
  /// on every stored state; used by deadlock search and state-space dumps.
  /// `visit` is always called sequentially from the calling thread, in
  /// deterministic exploration order — callbacks need no synchronization.
  ExploreStats explore_all(const std::function<void(const SymState&)>& visit);

  /// explore_all variant whose visitor also receives the packed store id of
  /// each state, usable with trace_of() to rebuild a witness afterwards
  /// (the sweep bound engine records the id of the state attaining the
  /// maximum). Same determinism guarantees as explore_all. The optional
  /// `stop` predicate is evaluated between waves (after the wave's visits,
  /// before generating successors); returning true aborts the exploration
  /// — the goal-directed pruning hook for sweeps whose remaining queries
  /// are already saturated.
  ExploreStats explore_all_ids(const std::function<void(const SymState&, std::uint64_t)>& visit,
                               const std::function<bool()>& stop = nullptr);

  /// Diagnostic trace from the initial state to a stored state, by the id
  /// handed to an explore_all_ids visitor. Valid until the engine dies.
  Trace trace_of(std::uint64_t id) const { return build_trace(id); }

  /// Batched trace_of: materialize one trace per id, index-aligned. The
  /// sweep bound engine retains the ids of the K ranked states attaining
  /// the top probe-clock maxima and materializes their traces here before
  /// the engine dies; ids come from deterministic exploration order, so the
  /// materialized rankings are bit-identical at every thread count.
  std::vector<Trace> traces_of(const std::vector<std::uint64_t>& ids) const;

  /// Deadlock search: find a state with no action successor. The optional
  /// `visit` callback sees every explored state (letting callers piggyback
  /// flag-reachability analyses on the same exploration); like explore_all,
  /// it is invoked sequentially in exploration order.
  DeadlockResult find_deadlock(const std::function<void(const SymState&)>& visit = nullptr);

  /// find_deadlock variant whose visitor also receives the packed store id
  /// of each state, usable with trace_of() — the combined batch sweep runs
  /// the deadlock search, the C1–C4 flag recording, AND the bound-query
  /// maxima off this one exploration. Same determinism and early-abort
  /// (timelock) semantics as find_deadlock.
  DeadlockResult find_deadlock_ids(
      const std::function<void(const SymState&, std::uint64_t)>& visit);

 private:
  /// Shard count of the passed/waiting store. Fixed (independent of `jobs`)
  /// so the shard assignment — and with it every bucket's insertion
  /// sequence — never depends on the thread count. Power of two.
  static constexpr std::size_t kNumShards = 64;
  static constexpr std::size_t kShardBits = std::bit_width(kNumShards - 1);
  static_assert((kNumShards & (kNumShards - 1)) == 0, "shard count must be a power of two");
  static constexpr std::uint64_t kNoParent = ~std::uint64_t{0};

  struct Stored {
    SymState state;
    std::uint64_t parent;  ///< packed id, kNoParent for initial
    std::string label;     ///< edge label leading here
  };

  /// The live (non-subsumed) zones of one exact discrete state, in
  /// insertion order. No live zone includes another.
  struct DiscreteGroup {
    std::uint32_t rep = 0;            ///< arena index carrying the discrete part
    std::vector<std::uint32_t> live;  ///< arena indices
  };

  /// One hash partition of the passed/waiting store. During a parallel
  /// insertion phase each shard is touched by exactly one worker
  /// ("owner-computes"), so no per-shard lock is needed.
  struct Shard {
    std::vector<Stored> arena;
    /// discrete-hash -> one group per distinct discrete state.
    std::unordered_map<std::size_t, std::vector<DiscreteGroup>> passed;
    std::size_t subsumed = 0;
    /// (rank, id) pairs accepted in the current wave, rank-ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> accepted;
    /// Ranks ((frontier index << 32) | successor index) routed to this
    /// shard in the current wave, rank-ascending.
    std::vector<std::uint64_t> pending;
    /// Cursor into `pending` for chunked terminal-wave insertion.
    std::size_t pending_cursor = 0;
    /// Ranks subsumed in the current terminal wave, rank-ascending (used to
    /// reconstruct the sequential engine's statistics at the early exit).
    std::vector<std::uint64_t> subsumed_ranks;
    /// (rank, id) of goal-flagged states accepted in the current terminal
    /// chunk, rank-ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> accepted_goals;
  };

  /// One generated successor, with everything the insertion phase needs
  /// precomputed (hash, goal flag) so insertion stays pure bookkeeping.
  struct GenSucc {
    SymState state;
    std::string label;
    std::size_t hash = 0;
    bool is_goal = false;
  };

  static std::uint64_t pack_id(std::size_t shard, std::size_t index) {
    return (static_cast<std::uint64_t>(index) << kShardBits) | static_cast<std::uint64_t>(shard);
  }
  const Stored& stored(std::uint64_t id) const {
    return shards_[id & (kNumShards - 1)].arena[id >> kShardBits];
  }

  /// Insert into the owning shard. One relation pass over the live zones of
  /// the successor's exact discrete group: if one of them includes it, the
  /// successor is counted as subsumed and dropped (nullopt); otherwise the
  /// live zones it includes are dropped, it becomes live, and its packed id
  /// is returned. Thread-safe only under the owner-computes discipline (one thread per
  /// shard at a time). `enforce_cap` applies the max_states limit per
  /// insert (exact legacy semantics — used by the strictly sequential
  /// paths); parallel waves pass false and enforce the cap at the wave
  /// barrier instead, where the check is deterministic.
  std::optional<std::uint64_t> insert(GenSucc&& gs, std::uint64_t parent,
                                      bool enforce_cap = true);

  /// Store the initial state and seed the frontier.
  std::uint64_t seed_initial();

  /// Generate successors for the whole frontier in parallel into
  /// wave_succs_ / wave_blocked_. `compute_goal` also evaluates the goal
  /// formula per successor; `compute_blocked` evaluates timelock-ness of
  /// successor-free states.
  void generate_wave(bool compute_goal, bool compute_blocked);

  /// Insert the whole wave shard-parallel in rank order and assemble the
  /// next frontier (rank-sorted). Accounts states_explored /
  /// transitions_fired for the full wave.
  void insert_wave();

  /// Insert a wave containing goal candidates, shard-parallel in bounded
  /// rank chunks, stopping after the chunk holding the first accepted goal
  /// in global rank order. Returns true (with `result` filled, statistics
  /// reconstructed to the sequential engine's early-exit accounting) when a
  /// goal was accepted; false when every candidate was subsumed — the next
  /// frontier is then assembled exactly like insert_wave().
  bool insert_terminal_wave(ReachResult& result);

  /// Run body(i) for i in [0, n) on the pool (created lazily) or inline.
  void run_parallel(std::size_t n, const std::function<void(std::size_t)>& body);

  ExploreStats snapshot_stats() const;

  Trace build_trace(std::uint64_t id) const;

  const ta::Network& net_;
  StateFormula goal_;
  ExploreOptions opts_;
  SuccGen gen_;
  unsigned jobs_ = 1;  ///< resolved thread count (opts_.jobs, 0 -> hw)
  std::size_t hard_state_limit_ = 0;  ///< 2x max_states memory backstop

  std::vector<Shard> shards_;
  std::atomic<std::size_t> total_stored_{0};
  std::vector<std::uint64_t> frontier_;       ///< packed ids, rank order
  std::vector<std::uint64_t> next_frontier_;  ///< assembled by insert_wave
  std::vector<std::vector<GenSucc>> wave_succs_;  ///< per frontier state
  std::vector<unsigned char> wave_blocked_;       ///< per frontier state
  ExploreStats stats_;  ///< explored/fired only; snapshot_stats adds the rest
  std::unique_ptr<WorkerPool> pool_;  ///< created on the first big wave

};

/// Convenience single-call reachability: is some state satisfying `goal`
/// reachable in `net`?
ReachResult reachable(const ta::Network& net, const StateFormula& goal, ExploreOptions opts = {});

/// Convenience safety check: does `bad` never occur? (A[] !bad)
/// Returns the ReachResult of the violation search; `holds` iff unreachable.
struct SafetyResult {
  bool holds = false;
  ReachResult violation;
};
SafetyResult holds_always_not(const ta::Network& net, const StateFormula& bad,
                              ExploreOptions opts = {});

}  // namespace psv::mc
