// Persistent, content-addressed verification artifacts.
//
// A VerificationArtifact is the externalized memo of a VerificationSession:
// every answered bound query (keyed by a canonical query digest) plus the
// shared C1–C4 flag/deadlock sweep. An ArtifactStore keeps artifacts in a
// cache directory, one file per key, where the key is composed of
//
//   { canonical network fingerprint (ta::fingerprint — probe instrumentation
//     is part of the network, so the probe set is part of the key),
//     the ExploreOptions knobs that can affect results (max_states, engine;
//     jobs is excluded — exploration is deterministic across thread counts),
//     the artifact format version }.
//
// A warm session therefore answers the whole §V query load of an unchanged
// model without exploring a single state, with results — bounds, witness
// traces, statistics — bit-identical to the cold run that stored them.
//
// Robustness: the on-disk format carries a magic, a format version, a native
// endianness marker, an echo of the key, and a 128-bit payload checksum.
// load() treats ANY mismatch — truncation, bit flips, version or endianness
// drift, a foreign key — as a miss: one warning line, no crash, and the
// caller falls back to exploration. Since format v4, individual
// query_reachable() / check_bounded_response() calls are persisted alongside
// the batch bounds and the shared flag sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mc/query.h"
#include "ta/fingerprint.h"
#include "util/hash.h"

namespace psv::mc {

/// Bumped whenever the artifact payload layout, the canonical fingerprint
/// encoding, or the semantics of a stored field change; files with any
/// other version are ignored — a warned miss followed by re-exploration.
/// Version 4 added memoized reachability and bounded-response results (the
/// failing-path witness searches a repeated FAIL request re-runs). Version
/// 5 dropped v4's skeleton digest and exported passed store, which only
/// served the removed warm start.
inline constexpr std::uint32_t kArtifactFormatVersion = 5;

/// Content-addressed cache key; hex() names the artifact file.
struct ArtifactKey {
  Digest128 digest;

  std::string hex() const { return digest.hex(); }
  friend bool operator==(const ArtifactKey& a, const ArtifactKey& b) {
    return a.digest == b.digest;
  }
};

/// Compose the cache key for a fingerprinted network under `opts`.
ArtifactKey artifact_key(const ta::NetworkFingerprint& fp, const ExploreOptions& opts);

// Shared serde helpers for engine result payloads. Used by the artifact
// format below and by the report serialization of the wire protocol
// (core/report_serde.h); both encode traces and statistics identically, so
// a report travels the wire bit-exactly the way it is cached on disk.
void write_explore_stats(ByteWriter& out, const ExploreStats& stats);
ExploreStats read_explore_stats(ByteReader& in);
void write_trace(ByteWriter& out, const Trace& trace);
/// Throws psv::Error (kProtocol) on malformed input; never reads out of
/// bounds.
Trace read_trace(ByteReader& in);

/// Canonical digest of one bound query. Uses the network's canonical id
/// ranks, so the digest survives declaration reorders and renames that keep
/// the fingerprint unchanged; location/automaton indices are raw because
/// the artifact key's fingerprint already pins their order. The hint is
/// deliberately excluded: it cannot change a bound (only how much work
/// finding it costs), matching the in-session memoization semantics.
/// top_k IS encoded: it changes the ranked-trace payload a result carries,
/// so queries with different retention depths must not share a memo entry.
Digest128 bound_query_digest(const ta::CanonicalIds& ids, const BoundQuery& query);

/// Canonical digest of a bare state formula, with the same id treatment as
/// bound_query_digest. Keys the memoized query_reachable() results.
Digest128 state_formula_digest(const ta::CanonicalIds& ids, const StateFormula& formula);

/// Canonical digest of one bounded-response check
/// (A[](pending => clock <= delta)). Keys the memoized
/// check_bounded_response() results.
Digest128 bounded_response_digest(const ta::CanonicalIds& ids, const StateFormula& pending,
                                  ta::ClockId clock, std::int64_t delta);

/// The serializable memo of a verification session.
struct VerificationArtifact {
  struct BoundEntry {
    Digest128 query;        ///< bound_query_digest of the answered query
    MaxClockResult result;  ///< served verbatim on a hit (incl. stats/trace)
  };
  /// Sorted by query digest so serialization is deterministic.
  std::vector<BoundEntry> bounds;

  /// The shared full-space C1–C4 flag + deadlock sweep, when it ran.
  bool has_flag_sweep = false;
  std::vector<std::uint8_t> var_seen_one;  ///< canonical var order, 0/1
  DeadlockResult deadlock;

  // --- Format v4 ------------------------------------------------------------

  /// Memoized plain reachability checks (state_formula_digest-keyed): the
  /// witness searches a failing requirement re-runs on every repeated
  /// request. Sorted by query digest.
  struct ReachEntry {
    Digest128 query;
    ReachResult result;
  };
  std::vector<ReachEntry> reaches;

  /// Memoized bounded-response checks (bounded_response_digest-keyed).
  /// Sorted by query digest.
  struct ResponseEntry {
    Digest128 query;
    BoundedResponseResult result;
  };
  std::vector<ResponseEntry> responses;

  /// Payload encoding (header-less; ArtifactStore adds framing + checksum).
  std::vector<std::uint8_t> serialize() const;
  /// Throws psv::Error on any malformed input; never reads out of bounds.
  static VerificationArtifact deserialize(ByteReader& in);
};

/// Directory-backed artifact store: one `<key-hex>.psvart` file per key.
/// Writes go through a temp file + rename, so concurrent writers of the
/// same key cannot tear each other's files.
class ArtifactStore {
 public:
  using WarnFn = std::function<void(const std::string&)>;

  /// `warn` receives one line per ignored (corrupt/mismatched) or unwritable
  /// artifact; the default prints to stderr.
  explicit ArtifactStore(std::string dir, WarnFn warn = {});

  const std::string& dir() const { return dir_; }
  std::string path_of(const ArtifactKey& key) const;

  /// Load the artifact for `key`. Missing file -> silent miss; invalid file
  /// (truncated, bit-flipped, wrong version/endianness/key) -> warned miss.
  std::optional<VerificationArtifact> load(const ArtifactKey& key) const;

  /// Persist `artifact` under `key` (creating the directory if needed).
  /// Returns false with a warning when the filesystem refuses.
  bool store(const ArtifactKey& key, const VerificationArtifact& artifact) const;

 private:
  void warn(const std::string& message) const;

  std::string dir_;
  WarnFn warn_;
};

}  // namespace psv::mc
