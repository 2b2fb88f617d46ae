#include "sim/event_tap.h"

#include <sstream>
#include <utility>

#include "dbm/dbm.h"
#include "mc/succ.h"

namespace psv::sim {

namespace {

/// Last reset of a clock along the schedule: firing-time variable index
/// (0 = the run start) and the reset value.
struct ResetPoint {
  int at = 0;
  std::int32_t value = 0;
};

/// Builds and solves the firing-time difference system.
class TimeSystem {
 public:
  /// `transitions` firing times T_1..T_n plus T_end live at DBM indices
  /// 1..n+1; index 0 is the run start (T_0 = 0).
  TimeSystem(int transitions, int num_model_clocks)
      : end_(transitions + 1),
        zone_(dbm::Dbm::universal(transitions + 1)),
        resets_(static_cast<std::size_t>(num_model_clocks)) {}

  int end_index() const { return end_; }

  /// Apply one clock constraint of the model, read at firing time `at`
  /// against the clock's last reset. Returns false (with `error` set) on
  /// infeasibility or an unsupported form.
  bool apply(const ta::ClockConstraint& cc, int at, std::string& error) {
    const ResetPoint rp = resets_[static_cast<std::size_t>(cc.clock)];
    const std::int32_t rhs = cc.bound - rp.value;
    // Clock value at T_at is rp.value + (T_at - T_rp); when the clock was
    // reset by this very transition the value is the constant rp.value.
    const bool self = rp.at == at;
    auto upper = [&](bool weak) {  // value <= / < bound
      if (self) return weak ? rp.value <= cc.bound : rp.value < cc.bound;
      return zone_.constrain(at, rp.at, dbm::make_bound(rhs, weak));
    };
    auto lower = [&](bool weak) {  // value >= / > bound
      if (self) return weak ? rp.value >= cc.bound : rp.value > cc.bound;
      return zone_.constrain(rp.at, at, dbm::make_bound(-rhs, weak));
    };
    bool ok = true;
    switch (cc.op) {
      case ta::CmpOp::kLe: ok = upper(true); break;
      case ta::CmpOp::kLt: ok = upper(false); break;
      case ta::CmpOp::kGe: ok = lower(true); break;
      case ta::CmpOp::kGt: ok = lower(false); break;
      case ta::CmpOp::kEq: ok = upper(true) && lower(true); break;
      case ta::CmpOp::kNe:
        error = "clock guard with != is not supported by the concretizer";
        return false;
    }
    if (!ok) error = "firing-time system infeasible (the trace is not a real behaviour)";
    return ok;
  }

  /// T_a == T_b (urgency) or T_a <= T_b (monotone flow of time).
  bool order(int a, int b, bool equal, std::string& error) {
    bool ok = zone_.constrain(a, b, dbm::kLeZero);
    if (ok && equal) ok = zone_.constrain(b, a, dbm::kLeZero);
    if (!ok) error = "firing-time system infeasible (time ordering)";
    return ok;
  }

  void note_reset(const ta::ClockReset& reset, int at) {
    resets_[static_cast<std::size_t>(reset.clock)] = {at, reset.value};
  }

  const ResetPoint& reset_point(ta::ClockId clock) const {
    return resets_[static_cast<std::size_t>(clock)];
  }

  /// Maximize clock `clock` at T_end, pin the optimum, and return it (in
  /// model time units). Fails when the dwell is unbounded.
  bool maximize(ta::ClockId clock, std::int64_t& value, std::string& error) {
    const ResetPoint rp = resets_[static_cast<std::size_t>(clock)];
    const dbm::raw_t diff = zone_.at(end_, rp.at);
    if (dbm::is_inf(diff)) {
      error = "final dwell is unbounded; no worst-case schedule exists";
      return false;
    }
    if (!dbm::is_weak(diff)) {
      error = "the worst-case delay is a strict bound and is never attained";
      return false;
    }
    const std::int32_t max_diff = dbm::bound_value(diff);
    value = static_cast<std::int64_t>(rp.value) + max_diff;
    if (!zone_.constrain(rp.at, end_, dbm::bound_le(-max_diff))) {
      error = "firing-time system infeasible (pinning the optimum)";
      return false;
    }
    return true;
  }

  /// Earliest-feasible integer assignment, in index order. The zone is
  /// canonical after every constrain, so each variable's lower bound is
  /// attainable given the already-pinned predecessors.
  bool solve(std::vector<std::int64_t>& times, std::string& error) {
    times.assign(static_cast<std::size_t>(end_) + 1, 0);
    for (int i = 1; i <= end_; ++i) {
      const dbm::raw_t lo = zone_.at(0, i);  // encodes -(lower bound of T_i)
      std::int32_t t = -dbm::bound_value(lo);
      if (!dbm::is_weak(lo)) ++t;  // strict lower bound: next integer point
      if (!zone_.constrain(i, 0, dbm::bound_le(t)) ||
          !zone_.constrain(0, i, dbm::bound_le(-t))) {
        error = "no integer schedule exists (strict-bound gap)";
        return false;
      }
      times[static_cast<std::size_t>(i)] = t;
    }
    return true;
  }

 private:
  int end_;
  dbm::Dbm zone_;
  std::vector<ResetPoint> resets_;
};

}  // namespace

TapResult tap_trace(const ta::Network& net, const mc::Trace& trace,
                    const std::vector<std::int32_t>& witness_consts,
                    ta::ClockId maximize_clock) {
  TapResult result;
  if (trace.steps.empty()) {
    result.error = "empty trace";
    return result;
  }

  // Re-derive the trace through the symbolic semantics, recording edges: the
  // participating edges of every step are what the time system and the
  // event mapping are built from.
  mc::SuccGen gen(net, witness_consts);
  gen.set_record_edges(true);
  std::vector<mc::SymState> states;
  std::vector<std::vector<mc::EdgeRef>> edges;
  states.push_back(gen.initial());
  edges.emplace_back();
  {
    const mc::TraceStep& first = trace.steps.front();
    if (!first.label.empty()) {
      result.error = "step 0 carries an edge label; traces start at the initial state";
      return result;
    }
    if (states.front().to_string(net) != first.state) {
      result.error = "initial state mismatch";
      return result;
    }
  }
  for (std::size_t i = 1; i < trace.steps.size(); ++i) {
    const mc::TraceStep& step = trace.steps[i];
    std::vector<mc::SymSuccessor> successors = gen.successors(states.back());
    bool matched = false;
    for (mc::SymSuccessor& s : successors) {
      if (s.label == step.label && s.state.to_string(net) == step.state) {
        states.push_back(std::move(s.state));
        edges.push_back(std::move(s.edges));
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::ostringstream os;
      os << "step " << i << ": no successor matches label '" << step.label
         << "' with the recorded state";
      result.error = os.str();
      return result;
    }
  }

  const int n = static_cast<int>(trace.steps.size()) - 1;
  TimeSystem sys(n, net.num_clocks());
  const int end = sys.end_index();

  auto edge_of = [&](const mc::EdgeRef& ref) -> const ta::Edge& {
    return net.automata()[static_cast<std::size_t>(ref.automaton)]
        .edges()[static_cast<std::size_t>(ref.edge_index)];
  };
  auto apply_invariants = [&](const mc::SymState& state, int at) {
    for (std::size_t a = 0; a < state.locs.size(); ++a) {
      const ta::Location& loc =
          net.automata()[a].location(state.locs[a]);
      for (const ta::ClockConstraint& cc : loc.invariant)
        if (!sys.apply(cc, at, result.error)) return false;
    }
    return true;
  };

  for (int i = 1; i <= n; ++i) {
    const mc::SymState& prev = states[static_cast<std::size_t>(i - 1)];
    // Time flows from T_{i-1} to T_i inside the source locations — unless
    // one of them is urgent/committed, which freezes time.
    if (!sys.order(i - 1, i, gen.time_frozen(prev.locs), result.error)) return result;
    // Source invariants hold until the jump (upper bounds: check at T_i),
    // then guards, both against the pre-step reset map (guards before
    // resets, as in SuccGen::replay).
    if (!apply_invariants(prev, i)) return result;
    for (const mc::EdgeRef& ref : edges[static_cast<std::size_t>(i)])
      for (const ta::ClockConstraint& cc : edge_of(ref).guard.clocks)
        if (!sys.apply(cc, i, result.error)) return result;
    for (const mc::EdgeRef& ref : edges[static_cast<std::size_t>(i)])
      for (const ta::ClockReset& reset : edge_of(ref).update.resets) sys.note_reset(reset, i);
    // Target invariants at entry (post-reset map): a reset value must not
    // already break them.
    if (!apply_invariants(states[static_cast<std::size_t>(i)], i)) return result;
  }

  // The final dwell: time may pass in the last state until T_end (frozen
  // states pin T_end = T_n), under its invariants.
  const mc::SymState& last = states.back();
  if (!sys.order(n, end, gen.time_frozen(last.locs), result.error)) return result;
  if (!apply_invariants(last, end)) return result;

  if (!sys.maximize(maximize_clock, result.max_value_ms, result.error)) return result;
  std::vector<std::int64_t> times_ms;
  if (!sys.solve(times_ms, result.error)) return result;

  // Read the boundary events off the schedule: one per synchronizing step
  // whose channel carries a boundary prefix (core/transform.h naming).
  for (int i = 1; i <= n; ++i) {
    for (const mc::EdgeRef& ref : edges[static_cast<std::size_t>(i)]) {
      const ta::Edge& e = edge_of(ref);
      if (e.sync.dir != ta::SyncDir::kSend) continue;
      const std::string chan = net.channel_name(e.sync.chan);
      if (chan.size() < 3 || chan[1] != '_') continue;
      const char b = chan[0];
      if (b != 'm' && b != 'i' && b != 'o' && b != 'c') continue;
      result.events.push_back({times_ms[static_cast<std::size_t>(i)] * 1000, b, chan.substr(2),
                               static_cast<std::size_t>(i)});
    }
  }
  result.end_us = times_ms[static_cast<std::size_t>(end)] * 1000;
  result.ok = true;
  return result;
}

}  // namespace psv::sim
