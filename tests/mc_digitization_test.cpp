// Cross-validation of the zone-based model checker against an independent
// discrete-time explicit-state checker.
//
// For closed timed automata (only non-strict clock constraints), integer
// digitization preserves location reachability [Henzinger/Manna/Pnueli],
// so a brute-force BFS over integer clock valuations (with clocks capped
// one past the largest constant) must agree with the DBM engine on every
// reachability question. Random networks are generated per seed and every
// (automaton, location) pair is compared. Closed zones have integer upper
// bounds, so the maximum of each clock at each location must agree too
// wherever the discrete maximum lies below its cap (mc::max_clock_values).
//
// A second generator builds networks whose clocks are inactive at some
// locations (reset before every later read), with one clock shared by both
// automata: the zone engine frees those clocks and extrapolates the rest
// per location (ta::LocationClockBounds), and must still agree.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <set>

#include "mc/query.h"
#include "mc/reach.h"
#include "ta/model.h"
#include "ta/validate.h"

namespace psv::mc {
namespace {

using namespace psv::ta;

constexpr std::int32_t kMaxConst = 5;

// --- independent discrete-time checker -------------------------------------

struct DiscreteState {
  std::vector<LocId> locs;
  std::vector<std::int32_t> clocks;  // capped at kMaxConst + 1

  bool operator<(const DiscreteState& o) const {
    if (locs != o.locs) return locs < o.locs;
    return clocks < o.clocks;
  }
};

bool clock_cc_holds(const ClockConstraint& cc, std::int32_t value) {
  switch (cc.op) {
    case CmpOp::kLt: return value < cc.bound;
    case CmpOp::kLe: return value <= cc.bound;
    case CmpOp::kEq: return value == cc.bound;
    case CmpOp::kGe: return value >= cc.bound;
    case CmpOp::kGt: return value > cc.bound;
    case CmpOp::kNe: return value != cc.bound;
  }
  return false;
}

class DiscreteChecker {
 public:
  explicit DiscreteChecker(const Network& net) : net_(net) { explore(); }

  bool loc_reachable(AutomatonId a, LocId l) const {
    for (const DiscreteState& s : visited_)
      if (s.locs[static_cast<std::size_t>(a)] == l) return true;
    return false;
  }

  /// Largest (capped) value of `clock` over the reachable states at (a, l);
  /// nullopt when the location is unreachable.
  std::optional<std::int32_t> max_clock_at(AutomatonId a, LocId l, ClockId clock) const {
    std::optional<std::int32_t> best;
    for (const DiscreteState& s : visited_)
      if (s.locs[static_cast<std::size_t>(a)] == l)
        best = std::max(best.value_or(0), s.clocks[static_cast<std::size_t>(clock)]);
    return best;
  }

 private:
  bool guard_holds(const Guard& g, const std::vector<std::int32_t>& clocks) const {
    for (const ClockConstraint& cc : g.clocks)
      if (!clock_cc_holds(cc, clocks[static_cast<std::size_t>(cc.clock)])) return false;
    return g.data.is_trivially_true();  // generator emits no data guards
  }

  bool invariants_hold(const std::vector<LocId>& locs,
                       const std::vector<std::int32_t>& clocks) const {
    for (AutomatonId a = 0; a < net_.num_automata(); ++a)
      for (const ClockConstraint& cc :
           net_.automaton(a).location(locs[static_cast<std::size_t>(a)]).invariant)
        if (!clock_cc_holds(cc, clocks[static_cast<std::size_t>(cc.clock)])) return false;
    return true;
  }

  void apply_resets(const Update& u, std::vector<std::int32_t>& clocks) const {
    for (const ClockReset& r : u.resets) clocks[static_cast<std::size_t>(r.clock)] = r.value;
  }

  void push(DiscreteState s) {
    if (visited_.insert(s).second) frontier_.push_back(std::move(s));
  }

  void explore() {
    DiscreteState init;
    for (AutomatonId a = 0; a < net_.num_automata(); ++a)
      init.locs.push_back(net_.automaton(a).initial());
    init.clocks.assign(static_cast<std::size_t>(net_.num_clocks()), 0);
    if (!invariants_hold(init.locs, init.clocks)) return;
    push(init);
    while (!frontier_.empty()) {
      const DiscreteState s = frontier_.front();
      frontier_.pop_front();
      // Delay by one unit (cap past the max constant: larger values are
      // indistinguishable for closed constraints <= kMaxConst).
      DiscreteState delayed = s;
      for (std::int32_t& c : delayed.clocks) c = std::min<std::int32_t>(c + 1, kMaxConst + 1);
      if (invariants_hold(delayed.locs, delayed.clocks)) push(std::move(delayed));
      // Internal edges.
      for (AutomatonId a = 0; a < net_.num_automata(); ++a) {
        const Automaton& aut = net_.automaton(a);
        for (int ei : aut.edges_from(s.locs[static_cast<std::size_t>(a)])) {
          const Edge& e = aut.edges()[static_cast<std::size_t>(ei)];
          if (e.sync.dir != SyncDir::kNone) continue;
          if (!guard_holds(e.guard, s.clocks)) continue;
          DiscreteState next = s;
          next.locs[static_cast<std::size_t>(a)] = e.dst;
          apply_resets(e.update, next.clocks);
          if (invariants_hold(next.locs, next.clocks)) push(std::move(next));
        }
      }
      // Binary synchronizations.
      for (AutomatonId sa = 0; sa < net_.num_automata(); ++sa) {
        const Automaton& sender = net_.automaton(sa);
        for (int si : sender.edges_from(s.locs[static_cast<std::size_t>(sa)])) {
          const Edge& se = sender.edges()[static_cast<std::size_t>(si)];
          if (se.sync.dir != SyncDir::kSend) continue;
          if (!guard_holds(se.guard, s.clocks)) continue;
          for (AutomatonId ra = 0; ra < net_.num_automata(); ++ra) {
            if (ra == sa) continue;
            const Automaton& receiver = net_.automaton(ra);
            for (int ri : receiver.edges_from(s.locs[static_cast<std::size_t>(ra)])) {
              const Edge& re = receiver.edges()[static_cast<std::size_t>(ri)];
              if (re.sync.dir != SyncDir::kReceive || re.sync.chan != se.sync.chan) continue;
              if (!guard_holds(re.guard, s.clocks)) continue;
              DiscreteState next = s;
              next.locs[static_cast<std::size_t>(sa)] = se.dst;
              next.locs[static_cast<std::size_t>(ra)] = re.dst;
              apply_resets(se.update, next.clocks);
              apply_resets(re.update, next.clocks);
              if (invariants_hold(next.locs, next.clocks)) push(std::move(next));
            }
          }
        }
      }
    }
  }

  const Network& net_;
  std::set<DiscreteState> visited_;
  std::deque<DiscreteState> frontier_;
};

// --- random closed-TA generator ---------------------------------------------

Network random_network(std::mt19937& gen) {
  Network net("random");
  std::uniform_int_distribution<int> clock_count(1, 2);
  std::uniform_int_distribution<int> loc_count(2, 3);
  std::uniform_int_distribution<int> edge_count(2, 4);
  std::uniform_int_distribution<std::int32_t> constant(0, kMaxConst);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> die(0, 5);

  const int n_clocks = clock_count(gen);
  for (int c = 0; c < n_clocks; ++c) net.add_clock("c" + std::to_string(c));
  const ChanId chan = net.add_channel("sync", ChanKind::kBinary);

  std::uniform_int_distribution<int> clock_pick(0, n_clocks - 1);
  for (int a = 0; a < 2; ++a) {
    Automaton aut("A" + std::to_string(a));
    const int n_locs = loc_count(gen);
    for (int l = 0; l < n_locs; ++l) {
      std::vector<ClockConstraint> inv;
      // Invariants sparingly, always satisfiable at zero (bound >= 0).
      if (die(gen) == 0) inv.push_back(cc_le(clock_pick(gen), constant(gen)));
      aut.add_location("L" + std::to_string(l), LocKind::kNormal, std::move(inv));
    }
    std::uniform_int_distribution<int> loc_pick(0, n_locs - 1);
    const int n_edges = edge_count(gen);
    for (int e = 0; e < n_edges; ++e) {
      Edge edge;
      edge.src = loc_pick(gen);
      edge.dst = loc_pick(gen);
      // Closed guards only (<= / >=) so digitization is exact.
      if (coin(gen) == 1)
        edge.guard.clocks.push_back(coin(gen) == 1 ? cc_ge(clock_pick(gen), constant(gen))
                                                   : cc_le(clock_pick(gen), constant(gen)));
      const int role = die(gen);
      if (role == 0) {
        edge.sync = SyncLabel::send(chan);
      } else if (role == 1) {
        edge.sync = SyncLabel::receive(chan);
      }
      if (coin(gen) == 1) edge.update.resets.push_back({clock_pick(gen), 0});
      aut.add_edge(std::move(edge));
    }
    net.add_automaton(std::move(aut));
  }
  return net;
}

/// Networks with inactive clocks: clock 0 is shared (both automata read and
/// reset it), clock 1 + a is local to automaton a. Each automaton is a ring
/// through all its locations plus a few shortcuts, so reads reach back over
/// chains of edges; local clocks are reset on about half the edges, so from
/// some locations every path resets them before its next read. Invariants
/// are denser than in random_network: they are reads too.
Network inactive_clock_network(std::mt19937& gen) {
  Network net("inactive");
  std::uniform_int_distribution<int> loc_count(3, 5);
  std::uniform_int_distribution<int> extra_edges(0, 2);
  std::uniform_int_distribution<std::int32_t> constant(0, kMaxConst);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> die(0, 5);

  const ClockId shared = net.add_clock("s");
  const ChanId chan = net.add_channel("sync", ChanKind::kBinary);
  for (int a = 0; a < 2; ++a) {
    const ClockId local = net.add_clock("l" + std::to_string(a));
    auto pick = [&]() { return coin(gen) == 1 ? local : shared; };
    Automaton aut("A" + std::to_string(a));
    const int n_locs = loc_count(gen);
    for (int l = 0; l < n_locs; ++l) {
      std::vector<ClockConstraint> inv;
      if (die(gen) < 2) inv.push_back(cc_le(pick(), constant(gen)));
      aut.add_location("L" + std::to_string(l), LocKind::kNormal, std::move(inv));
    }
    std::uniform_int_distribution<int> loc_pick(0, n_locs - 1);
    const int n_edges = n_locs + extra_edges(gen);
    for (int e = 0; e < n_edges; ++e) {
      Edge edge;
      // A ring through every location, plus a few random shortcuts.
      edge.src = e < n_locs ? e : loc_pick(gen);
      edge.dst = e < n_locs ? (e + 1) % n_locs : loc_pick(gen);
      if (die(gen) < 4)
        edge.guard.clocks.push_back(coin(gen) == 1 ? cc_ge(pick(), constant(gen))
                                                   : cc_le(pick(), constant(gen)));
      const int role = die(gen);
      if (role == 0) {
        edge.sync = SyncLabel::send(chan);
      } else if (role == 1) {
        edge.sync = SyncLabel::receive(chan);
      }
      if (coin(gen) == 1) edge.update.resets.push_back({local, 0});
      if (die(gen) == 0) edge.update.resets.push_back({shared, 0});
      aut.add_edge(std::move(edge));
    }
    net.add_automaton(std::move(aut));
  }
  return net;
}

/// Query limit of the maximum-clock comparison: well past the discrete cap.
constexpr std::int64_t kQueryLimit = 64;

/// Compare location reachability and every clock's maximum at every location
/// between the zone engine and the discrete checker.
void expect_agreement(const Network& net, int seed) {
  const DiscreteChecker discrete(net);

  std::vector<BoundQuery> queries;
  std::vector<std::int32_t> expected;  // discrete maximum, -1 if unreachable
  std::vector<std::string> where;
  for (AutomatonId a = 0; a < net.num_automata(); ++a) {
    const Automaton& aut = net.automaton(a);
    for (LocId l = 0; l < static_cast<LocId>(aut.locations().size()); ++l) {
      StateFormula goal;
      goal.and_loc(a, l);
      const bool zone_says = reachable(net, goal).reachable;
      const bool discrete_says = discrete.loc_reachable(a, l);
      EXPECT_EQ(zone_says, discrete_says)
          << "disagreement on " << aut.name() << "." << aut.location(l).name << " (seed "
          << seed << ")";
      for (ClockId c = 0; c < net.num_clocks(); ++c) {
        BoundQuery q;
        q.pred = goal;
        q.clock = c;
        q.limit = kQueryLimit;
        q.hint = kMaxConst + 2;
        q.top_k = 0;
        queries.push_back(q);
        expected.push_back(discrete.max_clock_at(a, l, c).value_or(-1));
        where.push_back(aut.name() + "." + aut.location(l).name + " " + net.clock_name(c));
      }
    }
  }

  const std::vector<MaxClockResult> results = max_clock_values(net, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MaxClockResult& r = results[i];
    if (expected[i] < 0) {
      EXPECT_TRUE(r.condition_unreachable) << where[i] << " (seed " << seed << ")";
    } else if (expected[i] <= kMaxConst) {
      // Below the cap the discrete maximum is the real one.
      EXPECT_TRUE(r.bounded) << where[i] << " (seed " << seed << ")";
      EXPECT_EQ(r.bound, expected[i]) << where[i] << " (seed " << seed << ")";
    } else {
      EXPECT_TRUE(!r.bounded || r.bound > kMaxConst) << where[i] << " (seed " << seed << ")";
    }
  }
}

/// Stored states of `net` in which some clock that the network does compare
/// is inactive in every automaton's current location — the states whose
/// zones the engine frees that clock in.
std::size_t states_with_freed_clocks(const Network& net) {
  const LocationClockBounds bounds(net);
  const std::vector<std::int32_t> global = clock_max_constants(net);
  std::size_t count = 0;
  Reachability engine(net, StateFormula{});
  engine.explore_all([&](const SymState& state) {
    for (ClockId c = 0; c < net.num_clocks(); ++c) {
      if (global[static_cast<std::size_t>(c)] < 0) continue;
      bool inactive = true;
      for (AutomatonId a = 0; a < net.num_automata(); ++a)
        inactive = inactive && bounds.bound(a, state.locs[static_cast<std::size_t>(a)], c) < 0;
      if (inactive) {
        ++count;
        return;
      }
    }
  });
  return count;
}

constexpr int kSeeds = 40;

class DigitizationTest : public ::testing::TestWithParam<int> {};

TEST_P(DigitizationTest, ZoneEngineAgreesWithDiscreteChecker) {
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  expect_agreement(random_network(gen), GetParam());
}

TEST_P(DigitizationTest, InactiveClockNetsAgreeWithDiscreteChecker) {
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  expect_agreement(inactive_clock_network(gen), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigitizationTest, ::testing::Range(0, kSeeds));

// The oracle above only checks freed clocks if the seeds reach states that
// free one: most inactive-clock nets must.
TEST(Digitization, InactiveClockSeedsExerciseFreedClocks) {
  int exercising = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 gen(static_cast<unsigned>(seed));
    exercising += states_with_freed_clocks(inactive_clock_network(gen)) > 0 ? 1 : 0;
  }
  EXPECT_GE(exercising, kSeeds / 2) << exercising << " of " << kSeeds << " seeds free a clock";
}

}  // namespace
}  // namespace psv::mc
