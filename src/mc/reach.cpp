#include "mc/reach.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <thread>

#include "util/error.h"

namespace psv::mc {

namespace {

/// Frontier width from which spawning the worker pool pays for itself;
/// narrow explorations (unit-test sized models) stay threadless.
constexpr std::size_t kPoolSpawnWidth = 16;

/// Rank-chunk width of the parallel terminal (goal-candidate) wave. Bounded
/// so at most one chunk of inserts can overshoot the first accepted goal —
/// the overshoot is subtracted from the reported statistics, and capping the
/// chunk at max_states (see insert_terminal_wave) keeps the 2x hard memory
/// backstop unreachable for runs the sequential engine completes.
constexpr std::size_t kTerminalChunk = 1024;

/// Element-wise max of the goal formula's clock constants with the
/// caller-supplied extras (sweep widening candidates).
std::vector<std::int32_t> merge_clock_consts(std::vector<std::int32_t> base,
                                             const std::vector<std::int32_t>& extra) {
  if (extra.empty()) return base;
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, extra.size() == base.size(),
              "extra_clock_consts must have one entry per network clock");
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = std::max(base[i], extra[i]);
  return base;
}

/// Cooperative cancellation, honoured at wave barriers only — between
/// barriers a wave always completes, so a run either finishes a wave
/// deterministically or abandons the whole exploration.
void check_cancel(const ExploreOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))
    PSV_FAIL_AS(::psv::ErrorCode::kCancelled, "exploration cancelled by cooperative token");
}

}  // namespace

std::string Trace::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].label.empty()) os << "  [" << i << "] " << steps[i].label << "\n";
    os << "      " << steps[i].state << "\n";
  }
  return os.str();
}

Reachability::Reachability(const ta::Network& net, const StateFormula& goal, ExploreOptions opts,
                           std::vector<std::int32_t> extra_clock_consts)
    : net_(net),
      goal_(goal),
      opts_(opts),
      gen_(net, merge_clock_consts(formula_clock_constants(net, goal), extra_clock_consts)),
      shards_(kNumShards) {
  jobs_ = resolve_jobs(opts_.jobs);
  hard_state_limit_ = opts_.max_states > std::numeric_limits<std::size_t>::max() / 2
                          ? std::numeric_limits<std::size_t>::max()
                          : 2 * opts_.max_states;
}

Reachability::~Reachability() = default;

std::optional<std::uint64_t> Reachability::insert(GenSucc&& gs, std::uint64_t parent,
                                                  bool enforce_cap) {
  const std::size_t shard_index = shard_of(gs.hash, kNumShards);
  Shard& shard = shards_[shard_index];
  std::vector<DiscreteGroup>& groups = shard.passed[gs.hash];
  DiscreteGroup* group = nullptr;
  for (DiscreteGroup& g : groups) {
    if (shard.arena[g.rep].state.same_discrete(gs.state)) {
      group = &g;
      break;
    }
  }
  if (group != nullptr) {
    // Drop the live zones `gs` includes, compacting in place. Live zones
    // form an antichain, so a zone including `gs` can only turn up before
    // any such drop — the subsumed exit never leaves a half-compacted list.
    std::vector<std::uint32_t>& live = group->live;
    std::size_t kept = 0;
    for (std::size_t r = 0; r < live.size(); ++r) {
      const dbm::Relation rel = shard.arena[live[r]].state.zone.relation(gs.state.zone);
      if (rel & dbm::kSuperset) {
        PSV_ASSERT(kept == r, "live zones of a discrete state must form an antichain");
        ++shard.subsumed;
        return std::nullopt;
      }
      if (rel != dbm::kSubset) live[kept++] = live[r];
    }
    live.resize(kept);
  }

  // Sequential paths enforce the cap per insert (exact legacy behavior);
  // parallel waves skip it here — a check-then-act on the shared counter
  // would race — and the wave barrier in insert_wave() applies the same
  // predicate ("the accepted state count exceeded the cap") afterwards,
  // where it is deterministic for every thread count. A hard backstop at
  // twice the cap bounds transient memory on extreme-fan-out waves; it can
  // only fire in runs where the barrier check throws anyway, so the
  // throw/no-throw outcome stays deterministic.
  const std::size_t limit = enforce_cap ? opts_.max_states : hard_state_limit_;
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, total_stored_.load(std::memory_order_relaxed) < limit,
                 "state-space exploration exceeded the configured limit of " +
                     std::to_string(opts_.max_states) + " states");
  const auto local = static_cast<std::uint32_t>(shard.arena.size());
  shard.arena.push_back(Stored{std::move(gs.state), parent, std::move(gs.label)});
  if (group != nullptr) {
    group->live.push_back(local);
  } else {
    groups.push_back(DiscreteGroup{local, {local}});
  }
  total_stored_.fetch_add(1, std::memory_order_relaxed);
  return pack_id(shard_index, local);
}

std::uint64_t Reachability::seed_initial() {
  GenSucc init;
  init.state = gen_.initial();
  init.hash = init.state.discrete_hash();
  const auto id = insert(std::move(init), kNoParent);
  PSV_ASSERT(id.has_value(), "initial state must be stored");
  frontier_.assign(1, *id);
  return *id;
}

void Reachability::run_parallel(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (pool_ && n > 1) {
    pool_->parallel_for(n, body);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) body(i);
}

void Reachability::generate_wave(bool compute_goal, bool compute_blocked) {
  const std::size_t n = frontier_.size();
  if (jobs_ > 1 && !pool_ && n >= kPoolSpawnWidth) {
    pool_ = std::make_unique<WorkerPool>(jobs_ - 1);
  }
  if (wave_succs_.size() < n) wave_succs_.resize(n);
  wave_blocked_.assign(n, 0);
  run_parallel(n, [&](std::size_t i) {
    const SymState& current = stored(frontier_[i]).state;
    std::vector<SymSuccessor> raw = gen_.successors(current);
    std::vector<GenSucc>& out = wave_succs_[i];
    out.clear();
    out.reserve(raw.size());
    for (SymSuccessor& succ : raw) {
      GenSucc gs;
      gs.hash = succ.state.discrete_hash();
      gs.is_goal = compute_goal && satisfies(net_, succ.state, goal_);
      gs.state = std::move(succ.state);
      gs.label = std::move(succ.label);
      out.push_back(std::move(gs));
    }
    if (out.empty() && compute_blocked) {
      // Stored zones are delay-closed, so "no action successor" means no
      // action can ever be taken from any valuation in this state. The
      // state is a timelock when urgency/committedness or an invariant
      // also prevents time divergence.
      bool time_blocked = gen_.time_frozen(current.locs);
      if (!time_blocked) {
        for (int c = 1; c <= current.zone.num_clocks(); ++c)
          time_blocked = time_blocked || !dbm::is_inf(current.zone.upper(c));
      }
      wave_blocked_[i] = time_blocked ? 1 : 0;
    }
  });
}

void Reachability::insert_wave() {
  stats_.states_explored += frontier_.size();
  for (Shard& shard : shards_) {
    shard.pending.clear();
    shard.accepted.clear();
  }
  // Route every successor to its owning shard, in rank order. Rank order
  // per shard plus the fixed shard assignment makes each bucket see the
  // exact insertion sequence of a sequential FIFO exploration.
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    for (std::size_t j = 0; j < wave_succs_[i].size(); ++j) {
      ++stats_.transitions_fired;
      const std::uint64_t rank = (static_cast<std::uint64_t>(i) << 32) | j;
      shards_[shard_of(wave_succs_[i][j].hash, kNumShards)].pending.push_back(rank);
    }
  }
  run_parallel(kNumShards, [&](std::size_t s) {
    Shard& shard = shards_[s];
    for (const std::uint64_t rank : shard.pending) {
      const std::size_t i = static_cast<std::size_t>(rank >> 32);
      const std::size_t j = static_cast<std::size_t>(rank & 0xffffffffu);
      GenSucc& gs = wave_succs_[i][j];
      const auto id = insert(std::move(gs), frontier_[i], /*enforce_cap=*/false);
      if (id.has_value()) shard.accepted.emplace_back(rank, *id);
    }
  });
  // Deterministic cap enforcement: a sequential exploration throws iff its
  // accepted-state sequence would exceed max_states, and that sequence is
  // identical here, so checking the total at the barrier reproduces the
  // throw/no-throw decision exactly (memory overshoot is bounded by one
  // wave's accepted states).
  PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, total_stored_.load(std::memory_order_relaxed) <= opts_.max_states,
              "state-space exploration exceeded the configured limit of " +
                  std::to_string(opts_.max_states) + " states");
  // Assemble the next frontier rank-sorted: identical order to the
  // sequential engine's FIFO waiting queue.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.accepted.size();
  merged.reserve(total);
  for (const Shard& shard : shards_)
    merged.insert(merged.end(), shard.accepted.begin(), shard.accepted.end());
  std::sort(merged.begin(), merged.end());
  next_frontier_.clear();
  next_frontier_.reserve(merged.size());
  for (const auto& [rank, id] : merged) next_frontier_.push_back(id);
  frontier_.swap(next_frontier_);
}

ExploreStats Reachability::snapshot_stats() const {
  ExploreStats stats = stats_;
  stats.states_stored = total_stored_.load(std::memory_order_relaxed);
  stats.subsumed = 0;
  for (const Shard& shard : shards_) stats.subsumed += shard.subsumed;
  return stats;
}

Trace Reachability::build_trace(std::uint64_t id) const {
  std::vector<std::uint64_t> chain;
  for (std::uint64_t cursor = id; cursor != kNoParent; cursor = stored(cursor).parent)
    chain.push_back(cursor);
  std::reverse(chain.begin(), chain.end());
  Trace trace;
  for (std::uint64_t link : chain) {
    const Stored& entry = stored(link);
    trace.steps.push_back(TraceStep{entry.label, entry.state.to_string(net_)});
  }
  return trace;
}

std::vector<Trace> Reachability::traces_of(const std::vector<std::uint64_t>& ids) const {
  std::vector<Trace> traces;
  traces.reserve(ids.size());
  for (std::uint64_t id : ids) traces.push_back(build_trace(id));
  return traces;
}

ReachResult Reachability::run() {
  ReachResult result;
  const std::uint64_t initial = seed_initial();
  if (satisfies(net_, stored(initial).state, goal_)) {
    result.reachable = true;
    result.trace = build_trace(initial);
    result.stats = snapshot_stats();
    return result;
  }
  while (!frontier_.empty()) {
    check_cancel(opts_);
    generate_wave(/*compute_goal=*/true, /*compute_blocked=*/false);
    bool any_goal = false;
    for (std::size_t i = 0; i < frontier_.size() && !any_goal; ++i) {
      for (const GenSucc& gs : wave_succs_[i]) {
        if (gs.is_goal) {
          any_goal = true;
          break;
        }
      }
    }
    if (!any_goal) {
      insert_wave();
      continue;
    }
    // Terminal wave: a goal candidate exists. Insert shard-parallel in
    // bounded rank chunks; the first *accepted* goal in global rank order
    // wins (a subsumed candidate keeps the search going), reproducing the
    // sequential engine's early exit and its statistics exactly.
    if (insert_terminal_wave(result)) return result;
  }
  result.reachable = false;
  result.stats = snapshot_stats();
  return result;
}

bool Reachability::insert_terminal_wave(ReachResult& result) {
  const std::size_t prior_stored = total_stored_.load(std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    shard.pending.clear();
    shard.pending_cursor = 0;
    shard.accepted.clear();
    shard.subsumed_ranks.clear();
  }
  // Route every successor to its owning shard in rank order, and keep the
  // global rank sequence for chunk boundaries.
  std::vector<std::uint64_t> all_ranks;
  std::size_t total_ranks = 0;
  for (std::size_t i = 0; i < frontier_.size(); ++i) total_ranks += wave_succs_[i].size();
  all_ranks.reserve(total_ranks);
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    for (std::size_t j = 0; j < wave_succs_[i].size(); ++j) {
      const std::uint64_t rank = (static_cast<std::uint64_t>(i) << 32) | j;
      all_ranks.push_back(rank);
      shards_[shard_of(wave_succs_[i][j].hash, kNumShards)].pending.push_back(rank);
    }
  }
  // Acceptance of a candidate depends only on its own shard's earlier
  // insertions (equal discrete hash implies equal shard), so shard-parallel
  // rank-order insertion decides exactly like the sequential engine; chunk
  // barriers bound how far past the winning goal the wave can run.
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min<std::size_t>(kTerminalChunk, opts_.max_states));
  for (std::size_t begin = 0; begin < total_ranks; begin += chunk) {
    const std::uint64_t boundary = all_ranks[std::min(begin + chunk, total_ranks) - 1];
    for (Shard& shard : shards_) shard.accepted_goals.clear();
    run_parallel(kNumShards, [&](std::size_t s) {
      Shard& shard = shards_[s];
      while (shard.pending_cursor < shard.pending.size() &&
             shard.pending[shard.pending_cursor] <= boundary) {
        const std::uint64_t rank = shard.pending[shard.pending_cursor++];
        const std::size_t i = static_cast<std::size_t>(rank >> 32);
        const std::size_t j = static_cast<std::size_t>(rank & 0xffffffffu);
        GenSucc& gs = wave_succs_[i][j];
        const bool is_goal = gs.is_goal;
        const auto id = insert(std::move(gs), frontier_[i], /*enforce_cap=*/false);
        if (!id.has_value()) {
          shard.subsumed_ranks.push_back(rank);
          continue;
        }
        shard.accepted.emplace_back(rank, *id);
        if (is_goal) shard.accepted_goals.emplace_back(rank, *id);
      }
    });
    // First accepted goal in global rank order wins.
    std::optional<std::pair<std::uint64_t, std::uint64_t>> winner;
    for (const Shard& shard : shards_) {
      if (!shard.accepted_goals.empty() &&
          (!winner.has_value() || shard.accepted_goals.front().first < winner->first)) {
        winner = shard.accepted_goals.front();
      }
    }
    if (winner.has_value()) {
      const std::uint64_t rank_r = winner->first;
      // States ranked past the winner were never inserted by the
      // sequential engine: subtract them from the reported statistics.
      std::size_t accepted_le = 0;
      std::size_t accepted_gt = 0;
      std::size_t subsumed_gt = 0;
      for (const Shard& shard : shards_) {
        for (const auto& [rank, id] : shard.accepted) {
          (void)id;
          rank <= rank_r ? ++accepted_le : ++accepted_gt;
        }
        for (const std::uint64_t rank : shard.subsumed_ranks) {
          if (rank > rank_r) ++subsumed_gt;
        }
      }
      // The sequential engine checks the cap before every store up to and
      // including the goal's own: reproduce its throw/no-throw decision.
      PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, prior_stored + accepted_le <= opts_.max_states,
                  "state-space exploration exceeded the configured limit of " +
                      std::to_string(opts_.max_states) + " states");
      const std::size_t i_r = static_cast<std::size_t>(rank_r >> 32);
      stats_.states_explored += i_r + 1;
      for (std::size_t i = 0; i < i_r; ++i) stats_.transitions_fired += wave_succs_[i].size();
      stats_.transitions_fired += static_cast<std::size_t>(rank_r & 0xffffffffu) + 1;
      result.reachable = true;
      result.trace = build_trace(winner->second);
      result.stats = snapshot_stats();
      result.stats.states_stored -= accepted_gt;
      result.stats.subsumed -= subsumed_gt;
      return true;
    }
    // No goal accepted yet: the sequential engine processed this whole
    // chunk too — apply its cap decision at the deterministic barrier.
    PSV_REQUIRE_AS(::psv::ErrorCode::kVerify, total_stored_.load(std::memory_order_relaxed) <= opts_.max_states,
                "state-space exploration exceeded the configured limit of " +
                    std::to_string(opts_.max_states) + " states");
  }
  // Every goal candidate was subsumed: the wave completed — account it and
  // assemble the next frontier exactly like insert_wave().
  stats_.states_explored += frontier_.size();
  stats_.transitions_fired += total_ranks;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> merged;
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.accepted.size();
  merged.reserve(total);
  for (const Shard& shard : shards_)
    merged.insert(merged.end(), shard.accepted.begin(), shard.accepted.end());
  std::sort(merged.begin(), merged.end());
  next_frontier_.clear();
  next_frontier_.reserve(merged.size());
  for (const auto& [rank, id] : merged) next_frontier_.push_back(id);
  frontier_.swap(next_frontier_);
  return false;
}

ExploreStats Reachability::explore_all(const std::function<void(const SymState&)>& visit) {
  if (!visit) return explore_all_ids(nullptr);
  return explore_all_ids([&visit](const SymState& state, std::uint64_t) { visit(state); });
}

ExploreStats Reachability::explore_all_ids(
    const std::function<void(const SymState&, std::uint64_t)>& visit,
    const std::function<bool()>& stop) {
  seed_initial();
  while (!frontier_.empty()) {
    // Visiting before generating is behavior-identical to the historical
    // generate-then-visit order (visits depend only on the frontier), and
    // it lets the stop predicate fire before the expensive wave.
    if (visit) {
      for (const std::uint64_t id : frontier_) visit(stored(id).state, id);
    }
    check_cancel(opts_);
    if (stop && stop()) break;
    generate_wave(/*compute_goal=*/false, /*compute_blocked=*/false);
    insert_wave();
  }
  return snapshot_stats();
}

DeadlockResult Reachability::find_deadlock(const std::function<void(const SymState&)>& visit) {
  if (!visit) return find_deadlock_ids(nullptr);
  return find_deadlock_ids([&visit](const SymState& state, std::uint64_t) { visit(state); });
}

DeadlockResult Reachability::find_deadlock_ids(
    const std::function<void(const SymState&, std::uint64_t)>& visit) {
  DeadlockResult result;
  std::optional<std::uint64_t> first_quiescent;
  seed_initial();
  while (!frontier_.empty()) {
    check_cancel(opts_);
    generate_wave(/*compute_goal=*/false, /*compute_blocked=*/true);
    // Scan the wave in rank (exploration) order: visit callbacks fire
    // sequentially, quiescence is recorded at the first occurrence, and a
    // timelock stops the scan exactly where the sequential engine stopped.
    std::optional<std::size_t> timelock_rank;
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      if (visit) visit(stored(frontier_[i]).state, frontier_[i]);
      if (!wave_succs_[i].empty()) continue;
      if (wave_blocked_[i]) {
        timelock_rank = i;
        break;
      }
      // Plain quiescence (time diverges) is recorded but the search
      // continues: a benign quiescent corner must not mask a timelock.
      if (!first_quiescent) first_quiescent = frontier_[i];
    }
    if (timelock_rank.has_value()) {
      // States past the timelock were never explored by the sequential
      // engine; commit only the earlier ranks' successors and stats.
      for (std::size_t i = 0; i <= *timelock_rank; ++i) {
        ++stats_.states_explored;
        for (GenSucc& gs : wave_succs_[i]) {
          ++stats_.transitions_fired;
          insert(std::move(gs), frontier_[i]);
        }
      }
      result.found = true;
      result.timelock = true;
      result.trace = build_trace(frontier_[*timelock_rank]);
      result.stats = snapshot_stats();
      return result;
    }
    insert_wave();
  }
  if (first_quiescent.has_value()) {
    result.found = true;
    result.timelock = false;
    result.trace = build_trace(*first_quiescent);
  }
  result.stats = snapshot_stats();
  return result;
}

ReachResult reachable(const ta::Network& net, const StateFormula& goal, ExploreOptions opts) {
  return Reachability(net, goal, opts).run();
}

SafetyResult holds_always_not(const ta::Network& net, const StateFormula& bad,
                              ExploreOptions opts) {
  SafetyResult result;
  result.violation = reachable(net, bad, opts);
  result.holds = !result.violation.reachable;
  return result;
}

}  // namespace psv::mc
