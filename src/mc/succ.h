// Symbolic successor generation for networks of timed automata.
//
// Implements the standard UPPAAL-style symbolic semantics:
//   * states carry delay-closed, invariant-constrained, extrapolated zones;
//   * internal edges, binary rendezvous and broadcast synchronizations;
//   * committed locations take network-wide priority and block delay;
//   * urgent locations block delay.
//
// Broadcast receivers are required (by ta::validate) to carry no clock
// guards, which keeps the "all enabled receivers participate" rule exact on
// zones: enabledness is a function of the discrete state only.
#pragma once

#include <string>
#include <vector>

#include "mc/state.h"

namespace psv::mc {

/// A participating edge of a transition, by raw network position.
struct EdgeRef {
  ta::AutomatonId automaton = 0;
  int edge_index = 0;
};

/// One symbolic transition: the successor state plus a printable label of
/// the participating edges (for diagnostic traces). With edge recording on
/// (SuccGen::set_record_edges) the participants ride along as well.
struct SymSuccessor {
  SymState state;
  std::string label;
  /// Participating edges in firing order (sender first); empty unless the
  /// generator records edges.
  std::vector<EdgeRef> edges;
};

/// Generates initial states and successors for a validated network.
class SuccGen {
 public:
  /// `extra_clock_consts` lets queries extend the extrapolation constants
  /// (entry per clock, -1 = no additional constraint). Pass {} for none.
  SuccGen(const ta::Network& net, std::vector<std::int32_t> extra_clock_consts);

  const ta::Network& net() const { return net_; }

  /// The (delay-closed, extrapolated) initial symbolic state.
  SymState initial() const;

  /// All action successors of `state`.
  std::vector<SymSuccessor> successors(const SymState& state) const;

  /// True iff some automaton rests in an urgent or committed location.
  bool time_frozen(const std::vector<ta::LocId>& locs) const;

  /// Record the participating edges on every generated successor (the
  /// simulator's event tap maps them to platform events). Off by default;
  /// the exploration path pays nothing.
  void set_record_edges(bool record) { record_edges_ = record; }

 private:
  const ta::Edge& edge(const EdgeRef& ref) const;

  /// Apply one clock constraint to a zone; false on emptiness.
  static bool apply_clock_constraint(dbm::Dbm& zone, const ta::ClockConstraint& cc);

  /// Conjoin a full guard (data part must already be checked); false on empty.
  static bool apply_clock_guard(dbm::Dbm& zone, const ta::Guard& guard);

  /// Conjoin the invariants of all locations in `locs`; false on empty.
  bool apply_invariants(dbm::Dbm& zone, const std::vector<ta::LocId>& locs) const;

  /// Run assignments of the participating edges in order against `vars`.
  void apply_assignments(const ta::Update& update, std::vector<std::int64_t>& vars) const;

  /// Apply clock resets to the zone.
  static void apply_resets(const ta::Update& update, dbm::Dbm& zone);

  /// Finish a successor: target invariants, optional delay closure,
  /// invariants again, extrapolation. Returns false if the zone is empty.
  bool finalize(SymState& state) const;

  /// Priority filter: with committed locations active, only edges leaving a
  /// committed location (in some participant) may fire.
  bool committed_active(const std::vector<ta::LocId>& locs) const;
  bool loc_committed(ta::AutomatonId a, ta::LocId l) const;

  /// Finalize `next` and append it to `out` (dropping empty zones), with the
  /// participants when edges are recorded.
  void emit(SymState&& next, std::vector<EdgeRef>&& edges, std::string&& label,
            std::vector<SymSuccessor>& out) const;

  void append_internal(const SymState& state, bool committed_only,
                       std::vector<SymSuccessor>& out) const;
  void append_binary(const SymState& state, bool committed_only,
                     std::vector<SymSuccessor>& out) const;
  void append_broadcast(const SymState& state, bool committed_only,
                        std::vector<SymSuccessor>& out) const;

  std::string edge_label(const EdgeRef& ref) const;

  const ta::Network& net_;
  std::vector<std::int32_t> max_consts_;  // indexed by DBM clock index (0..n)
  bool record_edges_ = false;
  // Edge indices grouped for fast lookup.
  std::vector<EdgeRef> internal_edges_;
  std::vector<std::vector<EdgeRef>> send_edges_;  // per channel
  std::vector<std::vector<EdgeRef>> recv_edges_;  // per channel
};

}  // namespace psv::mc
