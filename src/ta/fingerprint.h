// Canonical semantic fingerprints of timed-automata networks.
//
// fingerprint() reduces a Network to a 128-bit content digest of its
// *semantics*: two networks that differ only in presentation — names of
// clocks, variables, channels, locations or automata; the order of
// clock/variable/channel declarations; the order of edges, of invariant
// conjuncts, or of guard clock-constraints — hash identically, while any
// change visible to the model checker (a guard constant, an edge retarget,
// an invariant bound, a variable range, a channel kind, an initial location)
// produces a different digest. The digest keys the persistent verification
// cache (src/mc/artifact.h): semantic edits invalidate artifacts, formatting
// edits do not.
//
// Canonicalization:
//   1. edges are ordered by a name/id-free structural skeleton (shape of the
//      guard, constants, sync direction, update shape) — this makes the
//      subsequent id assignment independent of edge declaration order;
//   2. clocks, variables and channels are renumbered by first use along that
//      canonical walk (declaration order and names never enter); unused
//      declarations are appended sorted by their semantic signature;
//   3. the network is serialized with canonical ids — conjunct lists sorted,
//      edge encodings sorted, resets stable-sorted by clock — and hashed.
//      Assignment lists keep their order: the engine applies assignments
//      sequentially against the mutating valuation, so their order is
//      semantic.
//
// The normalization is sound but not complete: semantically equivalent
// networks that differ structurally (e.g. reassociated guard expressions,
// reordered edges distinguishable only through the identity of the clocks
// they touch, or swapped conjuncts whose (op, bound) signatures tie so the
// first-use ranks of their clocks trade places) may hash differently. A
// spurious difference merely costs a cache miss, never a wrong answer.
#pragma once

#include <vector>

#include "ta/model.h"
#include "util/hash.h"
#include "util/serde.h"

namespace psv::ta {

/// Canonical renumbering of a network's declarations, computed by
/// fingerprint(). rank[id] is the presentation-independent index of the
/// declaration; encoding queries with ranks instead of raw ids keeps query
/// cache keys stable when a model edit merely reorders or renames
/// declarations.
struct CanonicalIds {
  std::vector<int> clock_rank;  ///< ClockId -> canonical rank
  std::vector<int> var_rank;    ///< VarId -> canonical rank
  std::vector<int> chan_rank;   ///< ChanId -> canonical rank

  int clock(ClockId id) const { return clock_rank.at(static_cast<std::size_t>(id)); }
  int var(VarId id) const { return var_rank.at(static_cast<std::size_t>(id)); }
  int chan(ChanId id) const { return chan_rank.at(static_cast<std::size_t>(id)); }
};

/// A network's semantic digest plus the canonical renumbering that produced
/// it (needed to encode queries against the same canonical id space).
struct NetworkFingerprint {
  Digest128 digest;  ///< psv::Digest128, stable across runs and platforms
  CanonicalIds ids;
};

/// Compute the canonical fingerprint of `net`. Cost is one linear walk of
/// the network plus an edge sort — negligible next to any exploration.
NetworkFingerprint fingerprint(const Network& net);

/// Structural skeleton digest: the network with every clock-constraint
/// BOUND (guard and invariant constants) masked out, everything else —
/// locations, kinds, edges, sync, data guards, assignments, resets with
/// values, variable ranges, initial locations — encoded in RAW declaration
/// order with raw ids. Two networks with equal skeletons differ at most in
/// clock constants at structurally identical positions, so raw edge and
/// location indices align between them — the shape of a one-constant
/// scheme edit. Deliberately NOT canonicalized: a reordered edge list
/// changes raw indices, so it must (and does) change the skeleton.
Digest128 skeleton_digest(const Network& net);

// --- Canonical encoders shared with query-key computation (src/mc) --------
//
// `ids == nullptr` writes rank placeholders instead of canonical ranks; the
// fingerprint pass uses that mode to build the id-free edge skeletons.

void encode_int_expr(ByteWriter& out, const IntExpr& e, const CanonicalIds* ids);
void encode_bool_expr(ByteWriter& out, const BoolExpr& e, const CanonicalIds* ids);
void encode_clock_constraint(ByteWriter& out, const ClockConstraint& cc, const CanonicalIds* ids);

}  // namespace psv::ta
