#include "ta/validate.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace psv::ta {

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& e : errors) os << "error: " << e << "\n";
  for (const auto& w : warnings) os << "warning: " << w << "\n";
  return os.str();
}

namespace {

class Validator {
 public:
  explicit Validator(const Network& net) : net_(net) {}

  ValidationReport run() {
    if (net_.num_automata() == 0) error("network has no automata");
    for (AutomatonId a = 0; a < net_.num_automata(); ++a) check_automaton(a);
    check_channel_usage();
    return std::move(report_);
  }

 private:
  void error(const std::string& msg) { report_.errors.push_back(msg); }
  void warning(const std::string& msg) { report_.warnings.push_back(msg); }

  std::string at(const Automaton& aut, const Edge& e) const {
    return aut.name() + ": " + aut.location(e.src).name + " -> " + aut.location(e.dst).name;
  }

  void check_clock(ClockId c, const std::string& where) {
    if (c < 0 || c >= net_.num_clocks())
      error(where + ": clock id " + std::to_string(c) + " not declared");
  }

  void check_vars_of_bool(const BoolExpr& e, const std::string& where) {
    std::vector<VarId> vars;
    e.collect_vars(vars);
    for (VarId v : vars)
      if (v < 0 || v >= net_.num_vars())
        error(where + ": variable id " + std::to_string(v) + " not declared");
  }

  void check_vars_of_int(const IntExpr& e, const std::string& where) {
    std::vector<VarId> vars;
    e.collect_vars(vars);
    for (VarId v : vars)
      if (v < 0 || v >= net_.num_vars())
        error(where + ": variable id " + std::to_string(v) + " not declared");
  }

  void check_automaton(AutomatonId id) {
    const Automaton& aut = net_.automaton(id);
    if (aut.initial() < 0 || aut.initial() >= static_cast<LocId>(aut.locations().size())) {
      error(aut.name() + ": invalid initial location");
      return;
    }
    for (const Location& loc : aut.locations()) {
      for (const ClockConstraint& cc : loc.invariant) {
        check_clock(cc.clock, aut.name() + "." + loc.name + " invariant");
        if (cc.op != CmpOp::kLt && cc.op != CmpOp::kLe)
          error(aut.name() + "." + loc.name +
                ": invariants must be upper bounds (< or <=), got " + cmp_op_str(cc.op));
        if (cc.bound < 0)
          error(aut.name() + "." + loc.name + ": invariant bound is negative");
      }
    }
    for (const Edge& e : aut.edges()) {
      const std::string where = at(aut, e);
      check_vars_of_bool(e.guard.data, where + " guard");
      for (const ClockConstraint& cc : e.guard.clocks) check_clock(cc.clock, where + " guard");
      if (e.sync.dir != SyncDir::kNone) {
        if (e.sync.chan < 0 || e.sync.chan >= static_cast<ChanId>(net_.channels().size())) {
          error(where + ": channel id " + std::to_string(e.sync.chan) + " not declared");
        } else if (net_.channels()[static_cast<std::size_t>(e.sync.chan)].kind ==
                       ChanKind::kBroadcast &&
                   e.sync.dir == SyncDir::kReceive && e.guard.has_clock_constraints()) {
          error(where + ": broadcast receive edges must not have clock guards (channel '" +
                net_.channel_name(e.sync.chan) + "')");
        }
      }
      for (const Assignment& asg : e.update.assignments) {
        if (asg.var < 0 || asg.var >= net_.num_vars())
          error(where + ": assignment to undeclared variable id " + std::to_string(asg.var));
        check_vars_of_int(asg.value, where + " assignment");
      }
      for (const ClockReset& r : e.update.resets) {
        check_clock(r.clock, where + " reset");
        if (r.value < 0) error(where + ": clock reset to negative value");
      }
    }
  }

  void check_channel_usage() {
    const auto& chans = net_.channels();
    std::vector<bool> has_send(chans.size(), false), has_recv(chans.size(), false);
    for (const Automaton& aut : net_.automata()) {
      for (const Edge& e : aut.edges()) {
        if (e.sync.dir == SyncDir::kSend && e.sync.chan >= 0 &&
            e.sync.chan < static_cast<ChanId>(chans.size()))
          has_send[static_cast<std::size_t>(e.sync.chan)] = true;
        if (e.sync.dir == SyncDir::kReceive && e.sync.chan >= 0 &&
            e.sync.chan < static_cast<ChanId>(chans.size()))
          has_recv[static_cast<std::size_t>(e.sync.chan)] = true;
      }
    }
    for (std::size_t c = 0; c < chans.size(); ++c) {
      if (chans[c].kind == ChanKind::kBinary && has_send[c] != has_recv[c])
        warning("binary channel '" + chans[c].name +
                "' has senders or receivers only; those edges can never fire");
    }
  }

  const Network& net_;
  ValidationReport report_;
};

}  // namespace

ValidationReport validate(const Network& net) { return Validator(net).run(); }

void validate_or_throw(const Network& net) {
  ValidationReport report = validate(net);
  if (!report.ok())
    throw Error("network '" + net.name() + "' failed validation:\n" + report.to_string());
}

std::vector<std::int32_t> clock_max_constants(const Network& net) {
  std::vector<std::int32_t> max_consts(static_cast<std::size_t>(net.num_clocks()), -1);
  auto bump = [&](ClockId c, std::int32_t v) {
    if (c >= 0 && c < net.num_clocks())
      max_consts[static_cast<std::size_t>(c)] =
          std::max(max_consts[static_cast<std::size_t>(c)], v);
  };
  for (const Automaton& aut : net.automata()) {
    for (const Location& loc : aut.locations())
      for (const ClockConstraint& cc : loc.invariant) bump(cc.clock, cc.bound);
    for (const Edge& e : aut.edges()) {
      for (const ClockConstraint& cc : e.guard.clocks) bump(cc.clock, cc.bound);
      for (const ClockReset& r : e.update.resets) bump(r.clock, r.value);
    }
  }
  return max_consts;
}

LocationClockBounds::LocationClockBounds(const Network& net) : num_clocks_(net.num_clocks()) {
  const auto n = static_cast<std::size_t>(num_clocks_);
  for (const Automaton& aut : net.automata()) {
    const std::size_t base = bounds_.size();
    offsets_.push_back(base);
    bounds_.resize(base + aut.locations().size() * n, -1);
    auto cell = [&](LocId l, ClockId c) -> std::int32_t& {
      return bounds_[base + static_cast<std::size_t>(l) * n + static_cast<std::size_t>(c)];
    };
    // Local reads: the location's invariant and its outgoing guards
    // (undeclared clocks are validate()'s to report).
    auto bump = [&](LocId l, const ClockConstraint& cc) {
      if (cc.clock >= 0 && cc.clock < num_clocks_)
        cell(l, cc.clock) = std::max(cell(l, cc.clock), cc.bound);
    };
    for (LocId l = 0; l < static_cast<LocId>(aut.locations().size()); ++l)
      for (const ClockConstraint& cc : aut.location(l).invariant) bump(l, cc);
    for (const Edge& e : aut.edges())
      for (const ClockConstraint& cc : e.guard.clocks) bump(e.src, cc);
    // Backward propagation along edges that do not reset the clock.
    for (bool changed = true; changed;) {
      changed = false;
      for (const Edge& e : aut.edges()) {
        for (ClockId c = 0; c < num_clocks_; ++c) {
          const std::int32_t later = cell(e.dst, c);
          if (later <= cell(e.src, c)) continue;
          const bool resets = std::any_of(e.update.resets.begin(), e.update.resets.end(),
                                          [c](const ClockReset& r) { return r.clock == c; });
          if (resets) continue;
          cell(e.src, c) = later;
          changed = true;
        }
      }
    }
  }
}

}  // namespace psv::ta
