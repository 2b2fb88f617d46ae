// Difference bound matrices: the symbolic zone representation used by the
// model checker.
//
// A Dbm over n clocks is an (n+1)x(n+1) matrix D where entry (i,j) bounds
// x_i - x_j and index 0 is the constant-zero reference clock. A canonical
// (all-pairs-shortest-path closed) non-empty Dbm uniquely represents a
// convex clock zone.
#pragma once

#include <string>
#include <vector>

#include "dbm/bound.h"

namespace psv::dbm {

/// Outcome of Dbm::relation, as a bit set: kEqual == kSubset | kSuperset.
enum Relation : unsigned {
  kDifferent = 0,  ///< neither zone includes the other
  kSubset = 1,     ///< this ⊆ other
  kSuperset = 2,   ///< this ⊇ other
  kEqual = 3,      ///< this == other
};

/// A clock zone as a difference bound matrix.
///
/// Invariant maintained by all mutating operations except `set`: the matrix
/// is canonical, or `empty()` is true. Callers using raw `set` must call
/// `canonicalize` before relying on any query.
class Dbm {
 public:
  /// Zone over `num_clocks` real clocks (dimension num_clocks + 1).
  /// Initialized to the zone where all clocks equal zero.
  explicit Dbm(int num_clocks);

  /// The zone {all clocks = 0}.
  static Dbm zero(int num_clocks);
  /// The zone {all clocks >= 0} (otherwise unconstrained).
  static Dbm universal(int num_clocks);

  int num_clocks() const { return dim_ - 1; }
  int dim() const { return dim_; }

  raw_t at(int i, int j) const { return data_[static_cast<std::size_t>(i * dim_ + j)]; }
  /// Raw entry write; invalidates canonical form until canonicalize().
  void set(int i, int j, raw_t b) { data_[static_cast<std::size_t>(i * dim_ + j)] = b; }

  /// True iff the zone contains no clock valuation.
  bool empty() const { return empty_; }

  /// Close the matrix (Floyd-Warshall) and detect emptiness. A non-empty
  /// result is entry-for-entry the textbook closure.
  void canonicalize();

  /// Intersect with the constraint x_i - x_j <= / < bound. Keeps canonical
  /// form. Returns false iff the result is empty.
  bool constrain(int i, int j, raw_t bound);

  /// Delay closure ("up"): remove all upper bounds, letting time elapse.
  void up();

  /// Reset clock x to the constant `value` (x := value).
  void reset(int clock, std::int32_t value);

  /// Remove all constraints on `clock` except clock >= 0.
  void free_clock(int clock);

  /// True iff `other` is included in this zone (other ⊆ this). Both zones
  /// must be canonical and non-empty.
  bool includes(const Dbm& other) const;

  /// Both inclusion directions in one pass over the matrices, stopping as
  /// soon as neither can hold. Same preconditions as includes().
  Relation relation(const Dbm& other) const;

  /// True iff intersecting with x_i - x_j ≺ bound would be non-empty.
  bool intersects(int i, int j, raw_t bound) const;

  /// Classic maximal-constants extrapolation (ExtraM). `max_consts[i]` is
  /// the largest constant clock i can still be compared against in the
  /// model or query (mc::SuccGen passes per-location bounds); index 0 must
  /// be 0. A negative max constant clamps to 0: only clock i's distinction
  /// between 0 and positive values survives (free_clock drops even that).
  /// Re-canonicalizes.
  void extrapolate_max_bounds(const std::vector<std::int32_t>& max_consts);

  /// Upper bound entry of a clock (D[x][0]); kInf when unbounded above.
  raw_t upper(int clock) const { return at(clock, 0); }
  /// Lower bound entry of a clock (D[0][x] encodes -lower).
  raw_t lower(int clock) const { return at(0, clock); }

  /// Structural equality of canonical forms.
  bool operator==(const Dbm& other) const;

  /// Hash of the canonical matrix contents.
  std::size_t hash() const;

  /// The dim() x dim() entries, row-major. Writing through the mutable
  /// overload invalidates canonical form until canonicalize(), like set().
  const raw_t* data() const { return data_.data(); }
  raw_t* data() { return data_.data(); }

  /// Render constraints, e.g. "x<=5 && y-x<2". `names[i]` labels clock i+1.
  std::string to_string(const std::vector<std::string>& clock_names) const;

 private:
  int dim_;
  bool empty_ = false;
  std::vector<raw_t> data_;
};

}  // namespace psv::dbm
