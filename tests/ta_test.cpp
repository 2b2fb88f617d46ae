// Tests for the timed-automata model, validation and printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ta/model.h"
#include "ta/print.h"
#include "ta/validate.h"
#include "util/error.h"

namespace psv::ta {
namespace {

using psv::Error;

// A tiny two-automaton network: a sender pings on channel `go`, a receiver
// accepts; one clock with an invariant, one variable.
Network make_ping_network() {
  Network net("ping");
  const ClockId x = net.add_clock("x");
  const VarId count = net.add_var("count", 0, 0, 10);
  const ChanId go = net.add_channel("go", ChanKind::kBinary);

  Automaton sender("Sender");
  const LocId s0 = sender.add_location("Idle");
  const LocId s1 = sender.add_location("Done", LocKind::kNormal, {cc_le(x, 5)});
  Edge e;
  e.src = s0;
  e.dst = s1;
  e.guard.clocks.push_back(cc_ge(x, 1));
  e.sync = SyncLabel::send(go);
  e.update.assignments.push_back({count, IntExpr::var(count) + IntExpr::constant(1)});
  e.update.resets.push_back({x, 0});
  sender.add_edge(e);
  net.add_automaton(std::move(sender));

  Automaton receiver("Receiver");
  const LocId r0 = receiver.add_location("Wait");
  const LocId r1 = receiver.add_location("Got");
  Edge r;
  r.src = r0;
  r.dst = r1;
  r.sync = SyncLabel::receive(go);
  receiver.add_edge(r);
  net.add_automaton(std::move(receiver));
  return net;
}

TEST(Automaton, FirstLocationIsInitial) {
  Automaton a("A");
  const LocId l0 = a.add_location("first");
  a.add_location("second");
  EXPECT_EQ(a.initial(), l0);
}

TEST(Automaton, SetInitialOverrides) {
  Automaton a("A");
  a.add_location("first");
  const LocId l1 = a.add_location("second");
  a.set_initial(l1);
  EXPECT_EQ(a.initial(), l1);
}

TEST(Automaton, DuplicateLocationNameRejected) {
  Automaton a("A");
  a.add_location("L");
  EXPECT_THROW(a.add_location("L"), Error);
}

TEST(Automaton, EdgeEndpointsValidated) {
  Automaton a("A");
  a.add_location("L");
  Edge e;
  e.src = 0;
  e.dst = 5;
  EXPECT_THROW(a.add_edge(e), Error);
}

TEST(Automaton, LocByNameAndEdgesFrom) {
  Network net = make_ping_network();
  const Automaton& sender = net.automaton(0);
  EXPECT_EQ(sender.loc_by_name("Idle"), 0);
  EXPECT_EQ(sender.loc_by_name("Done"), 1);
  EXPECT_THROW(sender.loc_by_name("Nope"), Error);
  EXPECT_EQ(sender.edges_from(0).size(), 1u);
  EXPECT_TRUE(sender.edges_from(1).empty());
}

TEST(Network, DeclarationsAndLookups) {
  Network net = make_ping_network();
  EXPECT_EQ(net.num_clocks(), 1);
  EXPECT_EQ(net.num_vars(), 1);
  EXPECT_EQ(net.channels().size(), 1u);
  EXPECT_EQ(net.num_automata(), 2);
  EXPECT_EQ(net.clock_by_name("x"), std::optional<ClockId>(0));
  EXPECT_EQ(net.var_by_name("count"), std::optional<VarId>(0));
  EXPECT_EQ(net.channel_by_name("go"), std::optional<ChanId>(0));
  EXPECT_EQ(net.automaton_by_name("Receiver"), std::optional<AutomatonId>(1));
  EXPECT_FALSE(net.clock_by_name("nope").has_value());
}

TEST(Network, DuplicateNamesRejected) {
  Network net;
  net.add_clock("x");
  EXPECT_THROW(net.add_clock("x"), Error);
  net.add_var("v", 0, 0, 1);
  EXPECT_THROW(net.add_var("v", 0, 0, 1), Error);
  net.add_channel("c", ChanKind::kBinary);
  EXPECT_THROW(net.add_channel("c", ChanKind::kBroadcast), Error);
}

TEST(Network, VarRangeValidated) {
  Network net;
  EXPECT_THROW(net.add_var("v", 5, 0, 4), Error);
  EXPECT_THROW(net.add_var("w", 0, 3, 2), Error);
}

TEST(Network, InitialVars) {
  Network net;
  net.add_var("a", 3, 0, 5);
  net.add_var("b", -1, -2, 2);
  const auto init = net.initial_vars();
  ASSERT_EQ(init.size(), 2u);
  EXPECT_EQ(init[0], 3);
  EXPECT_EQ(init[1], -1);
}

TEST(Validate, WellFormedNetworkPasses) {
  const Network net = make_ping_network();
  const ValidationReport report = validate(net);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_NO_THROW(validate_or_throw(net));
}

TEST(Validate, EmptyNetworkFails) {
  Network net("empty");
  EXPECT_FALSE(validate(net).ok());
  EXPECT_THROW(validate_or_throw(net), Error);
}

TEST(Validate, LowerBoundInvariantRejected) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  a.add_location("L", LocKind::kNormal, {cc_ge(x, 3)});
  net.add_automaton(std::move(a));
  const ValidationReport report = validate(net);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("upper bounds"), std::string::npos);
}

TEST(Validate, UndeclaredClockInGuardRejected) {
  Network net;
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.guard.clocks.push_back(cc_le(7, 1));
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(validate(net).ok());
}

TEST(Validate, UndeclaredVariableInAssignmentRejected) {
  Network net;
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.assignments.push_back({9, IntExpr::constant(0)});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(validate(net).ok());
}

TEST(Validate, BroadcastReceiveWithClockGuardRejected) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ChanId b = net.add_channel("sig", ChanKind::kBroadcast);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.sync = SyncLabel::receive(b);
  e.guard.clocks.push_back(cc_le(x, 2));
  a.add_edge(e);
  net.add_automaton(std::move(a));
  const ValidationReport report = validate(net);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("broadcast"), std::string::npos);
}

TEST(Validate, BinaryReceiveWithClockGuardAllowed) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ChanId b = net.add_channel("sig", ChanKind::kBinary);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.sync = SyncLabel::receive(b);
  e.guard.clocks.push_back(cc_le(x, 2));
  a.add_edge(e);
  net.add_automaton(std::move(a));
  Automaton s("S");
  const LocId sl = s.add_location("L");
  Edge se;
  se.src = sl;
  se.dst = sl;
  se.sync = SyncLabel::send(b);
  s.add_edge(se);
  net.add_automaton(std::move(s));
  EXPECT_TRUE(validate(net).ok());
}

TEST(Validate, HalfUsedBinaryChannelWarns) {
  Network net;
  const ChanId c = net.add_channel("only_send", ChanKind::kBinary);
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.sync = SyncLabel::send(c);
  a.add_edge(e);
  net.add_automaton(std::move(a));
  const ValidationReport report = validate(net);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.warnings.empty());
}

TEST(Validate, NegativeClockResetRejected) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l = a.add_location("L");
  Edge e;
  e.src = l;
  e.dst = l;
  e.update.resets.push_back({x, -1});
  a.add_edge(e);
  net.add_automaton(std::move(a));
  EXPECT_FALSE(validate(net).ok());
}

TEST(ClockMaxConstants, CollectsFromGuardsInvariantsResets) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ClockId y = net.add_clock("y");
  const ClockId z = net.add_clock("z");
  Automaton a("A");
  const LocId l0 = a.add_location("L0", LocKind::kNormal, {cc_le(x, 100)});
  const LocId l1 = a.add_location("L1");
  Edge e;
  e.src = l0;
  e.dst = l1;
  e.guard.clocks.push_back(cc_ge(x, 250));
  e.guard.clocks.push_back(cc_lt(y, 30));
  e.update.resets.push_back({y, 7});
  a.add_edge(e);
  net.add_automaton(std::move(a));

  const auto consts = clock_max_constants(net);
  ASSERT_EQ(consts.size(), 3u);
  EXPECT_EQ(consts[static_cast<std::size_t>(x)], 250);
  EXPECT_EQ(consts[static_cast<std::size_t>(y)], 30);
  EXPECT_EQ(consts[static_cast<std::size_t>(z)], -1);  // never compared
}

// --- LocationClockBounds ----------------------------------------------------

/// Add src -> dst to `aut` with the given clock guard and resets.
void add_edge(Automaton& aut, LocId src, LocId dst, std::vector<ClockConstraint> guard = {},
              std::vector<ClockReset> resets = {}) {
  Edge e;
  e.src = src;
  e.dst = dst;
  e.guard.clocks = std::move(guard);
  e.update.resets = std::move(resets);
  aut.add_edge(e);
}

TEST(LocationClockBounds, ClockResetBeforeEveryReadIsInactive) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  const LocId l1 = a.add_location("L1");
  const LocId l2 = a.add_location("L2");
  const LocId l3 = a.add_location("L3");
  add_edge(a, l0, l1, {}, {{x, 0}});
  add_edge(a, l0, l2, {}, {{x, 0}});
  add_edge(a, l1, l3, {cc_ge(x, 3)});
  add_edge(a, l2, l3, {cc_le(x, 8)});
  add_edge(a, l3, l0, {cc_ge(x, 2)}, {{x, 0}});  // a resetting edge's own guard still counts
  net.add_automaton(std::move(a));

  const LocationClockBounds bounds(net);
  EXPECT_EQ(bounds.num_clocks(), 1);
  EXPECT_EQ(bounds.bound(0, l0, x), -1) << "every path from L0 resets x before reading it";
  EXPECT_EQ(bounds.bound(0, l1, x), 3);
  EXPECT_EQ(bounds.bound(0, l2, x), 8);
  EXPECT_EQ(bounds.bound(0, l3, x), 2);
}

TEST(LocationClockBounds, TargetInvariantKeepsClockActiveInSource) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId l0 = a.add_location("L0");
  const LocId l1 = a.add_location("L1", LocKind::kNormal, {cc_le(x, 7)});
  const LocId l2 = a.add_location("L2");
  const LocId l3 = a.add_location("L3", LocKind::kNormal, {cc_le(x, 9)});
  add_edge(a, l0, l1);
  add_edge(a, l2, l3, {}, {{x, 0}});
  net.add_automaton(std::move(a));

  const LocationClockBounds bounds(net);
  EXPECT_EQ(bounds.bound(0, l0, x), 7) << "L1's invariant reads x on arrival";
  EXPECT_EQ(bounds.bound(0, l1, x), 7);
  EXPECT_EQ(bounds.bound(0, l2, x), -1) << "the edge into L3 resets x first";
  EXPECT_EQ(bounds.bound(0, l3, x), 9);
}

TEST(LocationClockBounds, ReadPropagatesBackThroughNonResettingChain) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ClockId y = net.add_clock("y");
  Automaton a("A");
  std::vector<LocId> l;
  for (int i = 0; i < 5; ++i) l.push_back(a.add_location("L" + std::to_string(i)));
  add_edge(a, l[0], l[1], {}, {{y, 0}});
  add_edge(a, l[1], l[2], {cc_le(y, 2)});
  add_edge(a, l[2], l[3]);
  add_edge(a, l[3], l[4], {cc_ge(x, 9), cc_ge(y, 4)});
  add_edge(a, l[4], l[0]);  // a cycle: L4 reaches the read at L3 again
  net.add_automaton(std::move(a));

  const LocationClockBounds bounds(net);
  for (LocId loc : l) EXPECT_EQ(bounds.bound(0, loc, x), 9) << "x at L" << loc;
  EXPECT_EQ(bounds.bound(0, l[0], y), -1) << "L0 -> L1 resets y before any read";
  EXPECT_EQ(bounds.bound(0, l[1], y), 4);
  EXPECT_EQ(bounds.bound(0, l[2], y), 4);
  EXPECT_EQ(bounds.bound(0, l[3], y), 4);
  EXPECT_EQ(bounds.bound(0, l[4], y), -1);
}

TEST(LocationClockBounds, SharedClockStaysActiveWhileEitherAutomatonMayReadIt) {
  Network net;
  const ClockId x = net.add_clock("x");
  Automaton a("A");
  const LocId a0 = a.add_location("A0");
  const LocId a1 = a.add_location("A1");
  add_edge(a, a0, a1, {cc_ge(x, 2)}, {{x, 0}});
  net.add_automaton(std::move(a));
  Automaton b("B");
  const LocId b0 = b.add_location("B0");
  const LocId b1 = b.add_location("B1");
  add_edge(b, b0, b1, {cc_le(x, 6)});
  net.add_automaton(std::move(b));

  const LocationClockBounds bounds(net);
  // The network's bound at a location vector is the max over its rows.
  auto at = [&](LocId la, LocId lb) {
    return std::max(bounds.bound(0, la, x), bounds.bound(1, lb, x));
  };
  EXPECT_EQ(bounds.bound(0, a1, x), -1) << "A never reads x again after A0";
  EXPECT_EQ(at(a1, b0), 6) << "B may still read x although A reset it";
  EXPECT_EQ(at(a0, b1), 2) << "A may still read x although B is done with it";
  EXPECT_EQ(at(a0, b0), 6);
  EXPECT_EQ(at(a1, b1), -1) << "neither automaton reads x any more";
}

TEST(LocationClockBounds, NeverComparedClockIsInactiveEverywhere) {
  Network net;
  const ClockId x = net.add_clock("x");
  const ClockId z = net.add_clock("z");
  Automaton a("A");
  const LocId l0 = a.add_location("L0", LocKind::kNormal, {cc_le(x, 5)});
  const LocId l1 = a.add_location("L1");
  add_edge(a, l0, l1, {cc_ge(x, 1)}, {{z, 3}});  // written, never read
  add_edge(a, l1, l0, {}, {{x, 0}});
  net.add_automaton(std::move(a));

  const LocationClockBounds bounds(net);
  EXPECT_EQ(clock_max_constants(net)[static_cast<std::size_t>(z)], 3) << "resets count globally";
  EXPECT_EQ(bounds.bound(0, l0, z), -1);
  EXPECT_EQ(bounds.bound(0, l1, z), -1);
  EXPECT_EQ(bounds.bound(0, l0, x), 5);
  EXPECT_EQ(bounds.bound(0, l1, x), -1);
}

TEST(Print, GuardAndUpdateStrings) {
  Network net = make_ping_network();
  const Edge& e = net.automaton(0).edges()[0];
  EXPECT_EQ(guard_str(net, e.guard), "x>=1");
  EXPECT_EQ(update_str(net, e.update), "count := (count + 1), x := 0");
  EXPECT_EQ(sync_str(net, e.sync), "go!");
}

TEST(Print, AutomatonText) {
  Network net = make_ping_network();
  const std::string text = automaton_text(net, 0);
  EXPECT_NE(text.find("automaton Sender"), std::string::npos);
  EXPECT_NE(text.find("Idle"), std::string::npos);
  EXPECT_NE(text.find("[initial]"), std::string::npos);
  EXPECT_NE(text.find("x<=5"), std::string::npos);
  EXPECT_NE(text.find("go!"), std::string::npos);
}

TEST(Print, NetworkText) {
  Network net = make_ping_network();
  const std::string text = network_text(net);
  EXPECT_NE(text.find("network ping"), std::string::npos);
  EXPECT_NE(text.find("clocks: x"), std::string::npos);
  EXPECT_NE(text.find("Receiver"), std::string::npos);
}

TEST(Print, Dot) {
  Network net = make_ping_network();
  const std::string dot = automaton_dot(net, 0);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("L0 -> L1"), std::string::npos);
  EXPECT_NE(dot.find("go!"), std::string::npos);
}

TEST(Print, UrgentAndCommittedTags) {
  Network net;
  Automaton a("A");
  a.add_location("N");
  a.add_location("U", LocKind::kUrgent);
  a.add_location("C", LocKind::kCommitted);
  net.add_automaton(std::move(a));
  const std::string text = automaton_text(net, 0);
  EXPECT_NE(text.find("[urgent]"), std::string::npos);
  EXPECT_NE(text.find("[committed]"), std::string::npos);
}

}  // namespace
}  // namespace psv::ta
