// Structural validation of timed-automata networks.
//
// The model checker and the PIM->PSM transformation both assume well-formed
// networks; validate() centralizes those checks and produces actionable
// diagnostics instead of undefined downstream behavior.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ta/model.h"

namespace psv::ta {

/// Outcome of validating a network.
struct ValidationReport {
  std::vector<std::string> errors;
  std::vector<std::string> warnings;

  bool ok() const { return errors.empty(); }
  /// All diagnostics joined for display.
  std::string to_string() const;
};

/// Validate structural well-formedness:
///  * every automaton has locations and a valid initial location,
///  * guards/updates/invariants reference declared clocks and variables,
///  * invariants use only upper-bound operators (< or <=),
///  * clock resets are non-negative,
///  * broadcast receive edges carry no clock guards (required for exact
///    symbolic broadcast successors),
///  * binary channels have both senders and receivers somewhere (warning).
ValidationReport validate(const Network& net);

/// Validate and throw psv::Error listing all problems if any check failed.
void validate_or_throw(const Network& net);

/// Largest constant each clock is compared against across all guards,
/// invariants and resets: the location-independent extrapolation constant
/// of query clocks (probe and predicate clocks). Returns one entry per
/// declared clock; -1 when the clock is never compared.
std::vector<std::int32_t> clock_max_constants(const Network& net);

/// Per-location clock bounds (static guard analysis with inactive clocks).
/// For automaton a, location l and clock c, bound(a, l, c) is the largest
/// constant a can compare c against from l on — in l's invariant, in a
/// guard of an edge leaving l, or later along a's edges — before a itself
/// resets c; -1 where c is inactive (a never reads it again before a
/// reset). A backward fixpoint over each automaton's edges: a resetting
/// edge stops propagation, its own guard still counts. Reset values never
/// count: they are written, not read.
///
/// In a network, the element-wise max of the rows of the current locations
/// bounds every comparison any automaton can make before its next reset, so
/// extrapolating a zone against that vector (and freeing the -1 clocks)
/// preserves location reachability.
class LocationClockBounds {
 public:
  explicit LocationClockBounds(const Network& net);

  int num_clocks() const { return num_clocks_; }
  std::int32_t bound(AutomatonId a, LocId l, ClockId c) const {
    return row(a, l)[static_cast<std::size_t>(c)];
  }
  /// The num_clocks() bounds of (a, l), indexed by clock id.
  const std::int32_t* row(AutomatonId a, LocId l) const {
    return bounds_.data() + offsets_[static_cast<std::size_t>(a)] +
           static_cast<std::size_t>(l) * static_cast<std::size_t>(num_clocks_);
  }

 private:
  int num_clocks_;
  std::vector<std::size_t> offsets_;  // per automaton: start of its location 0 row
  std::vector<std::int32_t> bounds_;
};

}  // namespace psv::ta
