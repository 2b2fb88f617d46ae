// Persistent verification-artifact cache: round-trips, hardened loading,
// and the warm-vs-cold differential guarantee.
//
// The cache must be invisible to correctness: a warm run serves bounds,
// witness traces, constraint verdicts and even exploration statistics
// bit-identical to the cold run that stored them, while exploring zero
// states. And it must be unbreakable from disk: a truncated, bit-flipped,
// version-bumped or foreign-endian artifact file is ignored with a warning
// and the session falls back to exploration — never a crash, never a wrong
// bound (every single-bit corruption of a stored file is exercised below).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/framework.h"
#include "core/service.h"
#include "core/pim.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/artifact.h"
#include "mc/session.h"
#include "model_paths.h"
#include "util/rng.h"

namespace psv {
namespace {

using namespace psv::ta;
using psv::testing::find_model_dir;
using psv::testing::read_file;

/// Self-cleaning unique temp directory for one test.
struct TempCacheDir {
  std::filesystem::path path;
  TempCacheDir() {
    Rng rng(::testing::UnitTest::GetInstance()->random_seed() + 7919u);
    path = std::filesystem::temp_directory_path() /
           ("psv-cache-test-" + std::to_string(rng.uniform_int(0, 1'000'000'000)));
    std::filesystem::create_directories(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

mc::VerificationArtifact sample_artifact() {
  mc::VerificationArtifact artifact;
  mc::VerificationArtifact::BoundEntry entry;
  entry.query = Digest128{0x1111, 0x2222};
  entry.result.bounded = true;
  entry.result.bound = 490;
  entry.result.probes = 2;
  entry.result.stats = {100, 90, 300, 12};
  entry.result.witness.steps = {{"P.L0->L1[ch!]", "(L1, M0) vars{a=1} zone{x<=5}"},
                                {"Q.M0->M1[ch?]", "(L1, M1) vars{a=1} zone{}"}};
  // v3 payload: the ranked critical traces and the extrapolation constants
  // that replay them. The fuzzing tests below corrupt these bytes too.
  entry.result.ranked.push_back({490, entry.result.witness});
  mc::Trace runner_up;
  runner_up.steps = {{"P.L0->L1[ch!]", "(L1, M0) vars{a=0} zone{x<=3}"}};
  entry.result.ranked.push_back({470, runner_up});
  entry.result.witness_consts = {500, -1, 489};
  artifact.bounds.push_back(entry);
  entry.query = Digest128{0x3333, 0x4444};
  entry.result.bounded = false;
  entry.result.bound = 0;
  entry.result.condition_unreachable = true;
  entry.result.witness.steps.clear();
  entry.result.ranked.clear();
  entry.result.witness_consts.clear();
  artifact.bounds.push_back(entry);
  artifact.has_flag_sweep = true;
  artifact.var_seen_one = {1, 0, 0, 1};
  artifact.deadlock.found = true;
  artifact.deadlock.timelock = false;
  artifact.deadlock.trace.steps = {{"delay", "(L0, M0) vars{} zone{}"}};
  artifact.deadlock.stats = {100, 90, 300, 12};

  // v4 payload: memoized reachability / bounded-response results. The
  // fuzzing tests below corrupt (and truncate inside) these bytes too.
  mc::VerificationArtifact::ReachEntry reach;
  reach.query = Digest128{0x5555, 0x6666};
  reach.result.reachable = true;
  reach.result.trace.steps = {{"P.L0->L1[ch!]", "(L1, M0) vars{a=1} zone{x<=5}"}};
  reach.result.stats = {40, 33, 80, 4};
  artifact.reaches.push_back(reach);
  mc::VerificationArtifact::ResponseEntry response;
  response.query = Digest128{0x7777, 0x9999};
  response.result.holds = false;
  response.result.violation.steps = {{"delay", "(L1, M0) vars{} zone{t>80}"}};
  response.result.stats = {41, 34, 81, 5};
  artifact.responses.push_back(response);
  return artifact;
}

void expect_artifacts_equal(const mc::VerificationArtifact& a, const mc::VerificationArtifact& b) {
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    EXPECT_EQ(a.bounds[i].query, b.bounds[i].query);
    EXPECT_EQ(a.bounds[i].result.bounded, b.bounds[i].result.bounded);
    EXPECT_EQ(a.bounds[i].result.bound, b.bounds[i].result.bound);
    EXPECT_EQ(a.bounds[i].result.condition_unreachable, b.bounds[i].result.condition_unreachable);
    EXPECT_EQ(a.bounds[i].result.probes, b.bounds[i].result.probes);
    EXPECT_EQ(a.bounds[i].result.stats.states_explored, b.bounds[i].result.stats.states_explored);
    ASSERT_EQ(a.bounds[i].result.witness.steps.size(), b.bounds[i].result.witness.steps.size());
    for (std::size_t s = 0; s < a.bounds[i].result.witness.steps.size(); ++s) {
      EXPECT_EQ(a.bounds[i].result.witness.steps[s].label,
                b.bounds[i].result.witness.steps[s].label);
      EXPECT_EQ(a.bounds[i].result.witness.steps[s].state,
                b.bounds[i].result.witness.steps[s].state);
    }
    ASSERT_EQ(a.bounds[i].result.ranked.size(), b.bounds[i].result.ranked.size());
    for (std::size_t r = 0; r < a.bounds[i].result.ranked.size(); ++r) {
      EXPECT_EQ(a.bounds[i].result.ranked[r].value, b.bounds[i].result.ranked[r].value);
      EXPECT_EQ(a.bounds[i].result.ranked[r].trace.to_string(),
                b.bounds[i].result.ranked[r].trace.to_string());
    }
    EXPECT_EQ(a.bounds[i].result.witness_consts, b.bounds[i].result.witness_consts);
  }
  EXPECT_EQ(a.has_flag_sweep, b.has_flag_sweep);
  EXPECT_EQ(a.var_seen_one, b.var_seen_one);
  EXPECT_EQ(a.deadlock.found, b.deadlock.found);
  EXPECT_EQ(a.deadlock.timelock, b.deadlock.timelock);
  EXPECT_EQ(a.deadlock.stats.states_stored, b.deadlock.stats.states_stored);
  ASSERT_EQ(a.deadlock.trace.steps.size(), b.deadlock.trace.steps.size());

  ASSERT_EQ(a.reaches.size(), b.reaches.size());
  for (std::size_t i = 0; i < a.reaches.size(); ++i) {
    EXPECT_EQ(a.reaches[i].query, b.reaches[i].query);
    EXPECT_EQ(a.reaches[i].result.reachable, b.reaches[i].result.reachable);
    EXPECT_EQ(a.reaches[i].result.trace.to_string(), b.reaches[i].result.trace.to_string());
    EXPECT_EQ(a.reaches[i].result.stats.states_explored, b.reaches[i].result.stats.states_explored);
  }
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].query, b.responses[i].query);
    EXPECT_EQ(a.responses[i].result.holds, b.responses[i].result.holds);
    EXPECT_EQ(a.responses[i].result.violation.to_string(),
              b.responses[i].result.violation.to_string());
  }
}

TEST(Artifact, PayloadRoundTrip) {
  const mc::VerificationArtifact original = sample_artifact();
  const std::vector<std::uint8_t> payload = original.serialize();
  ByteReader reader(payload);
  const mc::VerificationArtifact restored = mc::VerificationArtifact::deserialize(reader);
  expect_artifacts_equal(original, restored);
}

TEST(Artifact, StoreLoadRoundTrip) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0xabcd, 0xef01}};
  EXPECT_FALSE(store.load(key).has_value()) << "missing file is a silent miss";
  EXPECT_EQ(warnings, 0);

  const mc::VerificationArtifact original = sample_artifact();
  ASSERT_TRUE(store.store(key, original));
  const auto restored = store.load(key);
  ASSERT_TRUE(restored.has_value());
  expect_artifacts_equal(original, *restored);
  EXPECT_EQ(warnings, 0);
}

// --- Hardened loading: every corruption is a warned miss, never a crash ----

std::vector<std::uint8_t> stored_file_bytes(const mc::ArtifactStore& store,
                                            const mc::ArtifactKey& key) {
  std::ifstream in(store.path_of(key), std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(ArtifactHardening, EverySingleBitFlipIsRejected) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0x5151, 0x2323}};
  ASSERT_TRUE(store.store(key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);
  ASSERT_FALSE(pristine.empty());

  std::vector<std::uint8_t> fuzzed = pristine;
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      fuzzed[byte] = pristine[byte] ^ static_cast<std::uint8_t>(1u << bit);
      write_file_bytes(store.path_of(key), fuzzed);
      EXPECT_FALSE(store.load(key).has_value())
          << "bit " << bit << " of byte " << byte << " flipped but the artifact loaded";
      fuzzed[byte] = pristine[byte];
    }
  }
  EXPECT_GT(warnings, 0) << "corrupt files must warn";

  write_file_bytes(store.path_of(key), pristine);
  EXPECT_TRUE(store.load(key).has_value()) << "restored pristine bytes must load again";
}

TEST(ArtifactHardening, EveryTruncationIsRejected) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const mc::ArtifactKey key{Digest128{0x7777, 0x8888}};
  ASSERT_TRUE(store.store(key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);

  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    write_file_bytes(store.path_of(key),
                     std::vector<std::uint8_t>(pristine.begin(),
                                               pristine.begin() + static_cast<long>(cut)));
    EXPECT_FALSE(store.load(key).has_value()) << "prefix of " << cut << " bytes loaded";
  }
  // Trailing garbage is rejected too (payload size no longer matches).
  std::vector<std::uint8_t> padded = pristine;
  padded.push_back(0);
  write_file_bytes(store.path_of(key), padded);
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_GT(warnings, 0);
}

TEST(ArtifactHardening, VersionAndEndiannessMismatchesAreRejected) {
  TempCacheDir dir;
  std::vector<std::string> warnings;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string& w) { warnings.push_back(w); });
  const mc::ArtifactKey key{Digest128{0x9999, 0xaaaa}};
  ASSERT_TRUE(store.store(key, sample_artifact()));
  const std::vector<std::uint8_t> pristine = stored_file_bytes(store, key);

  // Format version lives right after the 4-byte magic, little-endian.
  std::vector<std::uint8_t> bumped = pristine;
  bumped[4] = static_cast<std::uint8_t>(mc::kArtifactFormatVersion + 1);
  write_file_bytes(store.path_of(key), bumped);
  EXPECT_FALSE(store.load(key).has_value());

  // A stale file of the previous version is rejected the same way: a
  // warned miss that makes the session re-explore and overwrite it with the
  // current format.
  std::vector<std::uint8_t> stale = pristine;
  stale[4] = static_cast<std::uint8_t>(mc::kArtifactFormatVersion - 1);
  write_file_bytes(store.path_of(key), stale);
  EXPECT_FALSE(store.load(key).has_value());

  // The endianness marker follows the version; a byte swap simulates a file
  // written by a foreign-endian machine.
  std::vector<std::uint8_t> foreign = pristine;
  std::swap(foreign[8], foreign[9]);
  write_file_bytes(store.path_of(key), foreign);
  EXPECT_FALSE(store.load(key).has_value());

  ASSERT_EQ(warnings.size(), 3u);
  EXPECT_NE(warnings[0].find("version"), std::string::npos) << warnings[0];
  EXPECT_NE(warnings[1].find("version"), std::string::npos) << warnings[1];
  EXPECT_NE(warnings[2].find("byte order"), std::string::npos) << warnings[2];
}

// --- Session-level persistence ---------------------------------------------

/// Small two-automaton request/response network with an exact bound of 30.
Network tiny_net() {
  Network net("tiny");
  const ClockId t = net.add_clock("t");
  const ChanId req = net.add_channel("req", ChanKind::kBinary);
  const ChanId resp = net.add_channel("resp", ChanKind::kBinary);
  Automaton env("ENV");
  const LocId idle = env.add_location("Idle");
  const LocId await = env.add_location("Await");
  Edge send;
  send.src = idle;
  send.dst = await;
  send.sync = SyncLabel::send(req);
  send.update.resets = {{t, 0}};
  env.add_edge(send);
  Edge recv;
  recv.src = await;
  recv.dst = idle;
  recv.sync = SyncLabel::receive(resp);
  env.add_edge(recv);
  net.add_automaton(std::move(env));
  Automaton m("M");
  const ClockId x = net.add_clock("x");
  const LocId midle = m.add_location("Idle");
  const LocId work = m.add_location("Work", LocKind::kNormal, {cc_le(x, 30)});
  Edge take;
  take.src = midle;
  take.dst = work;
  take.sync = SyncLabel::receive(req);
  take.update.resets = {{x, 0}};
  m.add_edge(take);
  Edge give;
  give.src = work;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x, 1)};
  give.sync = SyncLabel::send(resp);
  m.add_edge(give);
  net.add_automaton(std::move(m));
  return net;
}

mc::BoundQuery tiny_query(const Network& net) {
  mc::BoundQuery q;
  q.pred = mc::at(net, "ENV", "Await");
  q.clock = *net.clock_by_name("t");
  q.limit = 10'000;
  return q;
}

TEST(SessionPersistence, WarmSessionAnswersWithoutExploration) {
  TempCacheDir dir;
  mc::ArtifactStore store(dir.str());
  const Network net = tiny_net();

  mc::VerificationSession cold(net, {});
  EXPECT_FALSE(cold.load(store)) << "first run must miss";
  const mc::MaxClockResult cold_result = cold.max_clock_value(tiny_query(net));
  const mc::VerificationSession::FlagReport cold_flags = cold.check_flags({});
  ASSERT_TRUE(cold_result.bounded);
  EXPECT_EQ(cold_result.bound, 30);
  EXPECT_GT(cold.stats().explorations, 0);
  ASSERT_TRUE(cold.store(store));

  mc::VerificationSession warm(net, {});
  EXPECT_TRUE(warm.load(store));
  EXPECT_TRUE(warm.warm_loaded());
  EXPECT_EQ(warm.stats().entries_loaded, 2) << "one bound entry + the flag sweep";
  const mc::MaxClockResult warm_result = warm.max_clock_value(tiny_query(net));
  const mc::VerificationSession::FlagReport warm_flags = warm.check_flags({});
  EXPECT_EQ(warm.stats().explorations, 0) << "warm session must not explore";
  EXPECT_EQ(warm.stats().explore.states_explored, 0u);

  // Bit-identical service: bounds, traces, and even stats match the cold run.
  EXPECT_EQ(warm_result.bounded, cold_result.bounded);
  EXPECT_EQ(warm_result.bound, cold_result.bound);
  EXPECT_EQ(warm_result.probes, cold_result.probes);
  EXPECT_EQ(warm_result.stats.states_explored, cold_result.stats.states_explored);
  EXPECT_EQ(warm_result.witness.to_string(), cold_result.witness.to_string());
  EXPECT_EQ(warm_flags.deadlock.found, cold_flags.deadlock.found);
  EXPECT_EQ(warm_flags.deadlock.stats.states_stored, cold_flags.deadlock.stats.states_stored);

  // Nothing fresh: store() must skip the write.
  EXPECT_FALSE(warm.store(store));
}

// Warm slack surface: a loaded v3 artifact serves ranked critical traces
// and byte-identical slack reports with ZERO exploration, and a different
// retention depth is a distinct query (its payload differs, so it must not
// share the memo entry).
TEST(SessionPersistence, WarmSlackQueriesServeRankedTracesWithoutExploration) {
  TempCacheDir dir;
  mc::ArtifactStore store(dir.str());
  const Network net = tiny_net();
  mc::BoundQuery query = tiny_query(net);
  query.top_k = 3;
  const std::vector<core::TimingRequirement> reqs = {{"R", "req", "resp", 40}};

  mc::VerificationSession cold(net, {});
  const mc::MaxClockResult cold_result = cold.max_clock_value(query);
  ASSERT_TRUE(cold_result.bounded);
  ASSERT_FALSE(cold_result.ranked.empty());
  const core::SlackReport cold_slack = core::compute_slack_report(reqs, {cold_result}, 10'000);
  ASSERT_TRUE(cold.store(store));

  mc::VerificationSession warm(net, {});
  ASSERT_TRUE(warm.load(store));
  const std::vector<mc::RankedWitness> warm_traces = warm.top_traces(query);
  const mc::MaxClockResult warm_result = warm.max_clock_value(query);
  EXPECT_EQ(warm.stats().explorations, 0) << "warm slack queries must not explore";
  EXPECT_EQ(warm.stats().explore.states_explored, 0u);

  // Byte-identical ranked payload and slack report.
  ASSERT_EQ(warm_traces.size(), cold_result.ranked.size());
  for (std::size_t i = 0; i < warm_traces.size(); ++i) {
    EXPECT_EQ(warm_traces[i].value, cold_result.ranked[i].value);
    EXPECT_EQ(warm_traces[i].trace.to_string(), cold_result.ranked[i].trace.to_string());
  }
  EXPECT_EQ(warm_result.witness_consts, cold_result.witness_consts);
  const core::SlackReport warm_slack = core::compute_slack_report(reqs, {warm_result}, 10'000);
  EXPECT_EQ(warm_slack.to_string(3), cold_slack.to_string(3));
  EXPECT_EQ(warm_slack.min_slack_ms, 40 - cold_result.bound);

  // A different top_k is a different query: the memo must not serve the
  // 3-deep payload for it, so fresh exploration happens.
  mc::BoundQuery shallow = query;
  shallow.top_k = 1;
  const mc::MaxClockResult shallow_result = warm.max_clock_value(shallow);
  EXPECT_GT(warm.stats().explorations, 0) << "different retention depth must re-explore";
  EXPECT_EQ(shallow_result.bound, cold_result.bound);
  EXPECT_EQ(shallow_result.ranked.size(), 1u);
}

TEST(SessionPersistence, WarmHitSurvivesRenamesAndDeclReorder) {
  TempCacheDir dir;
  mc::ArtifactStore store(dir.str());
  const Network net = tiny_net();
  mc::VerificationSession cold(net, {});
  const mc::MaxClockResult cold_result = cold.max_clock_value(tiny_query(net));
  ASSERT_TRUE(cold.store(store));

  // The "edited" model: same semantics, new names. (tiny_net declares t
  // before x; here the reordered declarations and renames must still land
  // on the same canonical key.)
  Network edited("tiny-rewritten");
  const ClockId x2 = edited.add_clock("worker_clock");
  const ClockId t2 = edited.add_clock("probe_clock");
  const ChanId resp2 = edited.add_channel("response", ChanKind::kBinary);
  const ChanId req2 = edited.add_channel("request", ChanKind::kBinary);
  Automaton env("Environment");
  const LocId idle = env.add_location("Quiet");
  const LocId await = env.add_location("Waiting");
  Edge send;
  send.src = idle;
  send.dst = await;
  send.sync = SyncLabel::send(req2);
  send.update.resets = {{t2, 0}};
  env.add_edge(send);
  Edge recv;
  recv.src = await;
  recv.dst = idle;
  recv.sync = SyncLabel::receive(resp2);
  env.add_edge(recv);
  edited.add_automaton(std::move(env));
  Automaton m("Machine");
  const LocId midle = m.add_location("Rest");
  const LocId work = m.add_location("Busy", LocKind::kNormal, {cc_le(x2, 30)});
  Edge take;
  take.src = midle;
  take.dst = work;
  take.sync = SyncLabel::receive(req2);
  take.update.resets = {{x2, 0}};
  m.add_edge(take);
  Edge give;
  give.src = work;
  give.dst = midle;
  give.guard.clocks = {cc_ge(x2, 1)};
  give.sync = SyncLabel::send(resp2);
  m.add_edge(give);
  edited.add_automaton(std::move(m));

  mc::VerificationSession warm(edited, {});
  EXPECT_TRUE(warm.load(store)) << "rename/reorder edit must still hit";
  mc::BoundQuery q;
  q.pred = mc::at(edited, "Environment", "Waiting");
  q.clock = t2;
  q.limit = 10'000;
  const mc::MaxClockResult warm_result = warm.max_clock_value(q);
  EXPECT_EQ(warm.stats().explorations, 0);
  EXPECT_EQ(warm_result.bound, cold_result.bound);
}

TEST(SessionPersistence, CorruptArtifactFallsBackToExploration) {
  TempCacheDir dir;
  int warnings = 0;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string&) { ++warnings; });
  const Network net = tiny_net();
  {
    mc::VerificationSession cold(net, {});
    cold.max_clock_value(tiny_query(net));
    ASSERT_TRUE(cold.store(store));
  }
  // Corrupt the stored file in the middle of the payload.
  mc::VerificationSession probe_session(net, {});
  const std::string path = store.path_of(probe_session.cache_key());
  std::vector<std::uint8_t> bytes = stored_file_bytes(store, probe_session.cache_key());
  ASSERT_GT(bytes.size(), 60u);
  bytes[bytes.size() / 2] ^= 0x10;
  write_file_bytes(path, bytes);

  EXPECT_FALSE(probe_session.load(store));
  EXPECT_EQ(warnings, 1);
  const mc::MaxClockResult result = probe_session.max_clock_value(tiny_query(net));
  ASSERT_TRUE(result.bounded);
  EXPECT_EQ(result.bound, 30);
  EXPECT_GT(probe_session.stats().explorations, 0) << "must have re-explored";
}

// --- Artifact format v5 ----------------------------------------------------

/// Size of the artifact file header: magic, version, endianness marker, key
/// echo, payload size and payload checksum.
constexpr std::size_t kArtifactHeaderSize = 4 + 4 + 2 + 16 + 8 + 16;

/// Frame `payload` the way ArtifactStore does, under an arbitrary version.
std::vector<std::uint8_t> framed_artifact(std::uint32_t version, const mc::ArtifactKey& key,
                                          const std::vector<std::uint8_t>& payload) {
  ByteWriter out;
  out.raw("PSVA", 4);
  out.u32(version);
  const std::uint16_t endian = 0xFEFF;
  out.raw(&endian, sizeof endian);  // native order, as the store writes it
  out.u64(key.digest.hi);
  out.u64(key.digest.lo);
  out.u64(payload.size());
  const Digest128 checksum = digest128(payload.data(), payload.size());
  out.u64(checksum.hi);
  out.u64(checksum.lo);
  out.raw(payload.data(), payload.size());
  return out.take();
}

// A format-v4 file (a v5 payload followed by v4's skeleton digest and its
// passed-store section) written under the current key layout: the store
// must treat it as a warned miss without throwing, and the session must
// re-explore and replace it with a v5 file that loads.
TEST(ArtifactFormat, HandWrittenV4ArtifactIsACleanMiss) {
  TempCacheDir dir;
  std::vector<std::string> warnings;
  mc::ArtifactStore store(dir.str(), [&warnings](const std::string& w) { warnings.push_back(w); });
  const Network net = tiny_net();

  std::vector<std::uint8_t> payload = sample_artifact().serialize();
  ByteWriter v4_tail;
  v4_tail.u64(0xbbbb);  // skeleton digest
  v4_tail.u64(0xcccc);
  v4_tail.boolean(false);  // no passed store
  payload.insert(payload.end(), v4_tail.buffer().begin(), v4_tail.buffer().end());

  mc::VerificationSession session(net, {});
  write_file_bytes(store.path_of(session.cache_key()),
                   framed_artifact(4, session.cache_key(), payload));
  std::optional<mc::VerificationArtifact> loaded;
  EXPECT_NO_THROW(loaded = store.load(session.cache_key()));
  EXPECT_FALSE(loaded.has_value());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("version 4"), std::string::npos) << warnings[0];

  EXPECT_FALSE(session.load(store));
  const mc::MaxClockResult result = session.max_clock_value(tiny_query(net));
  ASSERT_TRUE(result.bounded);
  EXPECT_EQ(result.bound, 30);
  EXPECT_GT(session.stats().explorations, 0) << "a v4 file must not serve answers";
  ASSERT_TRUE(session.store(store));

  mc::VerificationSession reloaded(net, {});
  EXPECT_TRUE(reloaded.load(store)) << "the v5 file written over it must load";
  EXPECT_EQ(reloaded.max_clock_value(tiny_query(net)).bound, 30);
  EXPECT_EQ(reloaded.stats().explorations, 0);
}

// A v5 reload of the quickstart pipeline answers every stage without
// exploring, and the cache directory holds nothing but v5 artifacts whose
// payloads are exactly the memo sections: decoding and re-encoding each one
// reproduces its bytes, so no passed-store section can hide in them.
TEST(ArtifactFormat, V5ReloadExploresNothingAndStoresNoPassedStore) {
  const std::string model_dir = find_model_dir();
  if (model_dir.empty()) GTEST_SKIP() << "example model files not found from test cwd";
  core::VerifyRequest request;
  request.pim = lang::parse_model(read_file(model_dir + "quickstart.psv"));
  request.schemes = {lang::parse_scheme(read_file(model_dir + "fast.pss"))};
  request.requirements = {{"QREQ", "Req", "Ack", 80}};
  TempCacheDir dir;
  request.options.cache_dir = dir.str();

  const core::VerifyReport cold = core::Verifier().verify(request);
  const core::VerifyReport reload = core::Verifier().verify(request);
  EXPECT_EQ(reload.schemes[0].requirements[0].bounds.to_string(),
            cold.schemes[0].requirements[0].bounds.to_string());
  EXPECT_EQ(reload.schemes[0].slack.to_string(4), cold.schemes[0].slack.to_string(4));
  std::vector<core::VerifyStageStats> stages = reload.pim_stages;
  stages.insert(stages.end(), reload.schemes[0].stages.begin(), reload.schemes[0].stages.end());
  for (const core::VerifyStageStats& stage : stages) {
    EXPECT_EQ(stage.explore.states_explored, 0u) << stage.name;
    EXPECT_EQ(stage.explorations, 0) << stage.name;
  }

  int artifacts = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir.path)) {
    EXPECT_EQ(file.path().extension(), ".psvart") << file.path();
    std::ifstream in(file.path(), std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), kArtifactHeaderSize);
    ByteReader header(bytes.data(), kArtifactHeaderSize);
    char magic[4];
    header.raw(magic, sizeof magic);
    EXPECT_EQ(header.u32(), 5u) << file.path();
    const std::vector<std::uint8_t> payload(bytes.begin() + kArtifactHeaderSize, bytes.end());
    ByteReader reader(payload);
    const mc::VerificationArtifact decoded = mc::VerificationArtifact::deserialize(reader);
    EXPECT_EQ(decoded.serialize(), payload) << file.path();
    ++artifacts;
  }
  EXPECT_EQ(artifacts, 2) << "one artifact for the PIM stage, one for the PSM stages";
}

// --- Pipeline-level warm/cold differential ---------------------------------

std::string summary_without_cache_lines(const core::FrameworkResult& result) {
  std::istringstream in(result.summary());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("[cache]", 0) != 0) out << line << "\n";
  return out.str();
}

TEST(WarmColdDifferential, QuickstartPipelineIsBitIdenticalWarm) {
  const std::string model_dir = find_model_dir();
  if (model_dir.empty()) GTEST_SKIP() << "example model files not found from test cwd";
  const Network pim = lang::parse_model(read_file(model_dir + "quickstart.psv"));
  const core::PimInfo info = core::analyze_pim(pim);
  const core::ImplementationScheme scheme = lang::parse_scheme(read_file(model_dir + "fast.pss"));
  const core::TimingRequirement req{"QREQ", "Req", "Ack", 80};

  TempCacheDir dir;
  core::FrameworkOptions options;
  options.cache_dir = dir.str();

  const core::FrameworkResult cold = core::run_framework(pim, info, scheme, req, options);
  const core::FrameworkResult warm = core::run_framework(pim, info, scheme, req, options);

  // Bit-identical bounds, traces (via the rendered report), and verdicts.
  EXPECT_EQ(summary_without_cache_lines(cold), summary_without_cache_lines(warm));
  EXPECT_EQ(cold.bounds.to_string(), warm.bounds.to_string());
  EXPECT_EQ(cold.constraints.to_string(), warm.constraints.to_string());
  EXPECT_EQ(cold.psm_meets_original, warm.psm_meets_original);
  EXPECT_EQ(cold.psm_meets_relaxed, warm.psm_meets_relaxed);
  EXPECT_EQ(cold.pim.max_delay, warm.pim.max_delay);

  // The warm run's exploring stages served everything from the cache.
  for (const core::StageStats& stage : warm.stages) {
    if (stage.name == "transform") continue;
    EXPECT_EQ(stage.explore.states_explored, 0u) << stage.name;
    EXPECT_EQ(stage.explorations, 0) << stage.name;
    EXPECT_STREQ(stage.cache.state(), "warm") << stage.name;
    EXPECT_EQ(stage.cache.misses, 0) << stage.name;
  }
  // And the cold run reported cold stages with stores.
  int cold_stores = 0;
  for (const core::StageStats& stage : cold.stages) {
    if (stage.name == "transform") continue;
    EXPECT_STREQ(stage.cache.state(), "cold") << stage.name;
    cold_stores += stage.cache.stores;
  }
  EXPECT_GT(cold_stores, 0);

  // A run without a cache dir reports disabled stages and no [cache] lines.
  const core::FrameworkResult disabled = core::run_framework(pim, info, scheme, req, {});
  for (const core::StageStats& stage : disabled.stages)
    EXPECT_STREQ(stage.cache.state(), "disabled") << stage.name;
  EXPECT_EQ(disabled.summary().find("[cache]"), std::string::npos);
  EXPECT_EQ(summary_without_cache_lines(cold), disabled.summary());
}

TEST(WarmColdDifferential, SchemeEditOnlyInvalidatesDownstreamStages) {
  const std::string model_dir = find_model_dir();
  if (model_dir.empty()) GTEST_SKIP() << "example model files not found from test cwd";
  const Network pim = lang::parse_model(read_file(model_dir + "quickstart.psv"));
  const core::PimInfo info = core::analyze_pim(pim);
  core::ImplementationScheme scheme = lang::parse_scheme(read_file(model_dir + "fast.pss"));
  const core::TimingRequirement req{"QREQ", "Req", "Ack", 80};

  TempCacheDir dir;
  core::FrameworkOptions options;
  options.cache_dir = dir.str();
  core::run_framework(pim, info, scheme, req, options);

  // Edit the scheme: the PSM changes, the PIM does not.
  scheme.outputs.begin()->second.delay_max += 1;
  const core::FrameworkResult rerun = core::run_framework(pim, info, scheme, req, options);
  int psm_explorations = 0;
  for (const core::StageStats& stage : rerun.stages) {
    if (stage.name == "pim-verification") {
      EXPECT_STREQ(stage.cache.state(), "warm") << "PIM stage must survive a scheme edit";
      EXPECT_EQ(stage.explore.states_explored, 0u);
    } else if (stage.name == "constraints" || stage.name == "bounds") {
      EXPECT_STREQ(stage.cache.state(), "cold") << stage.name << " must re-verify";
      psm_explorations += stage.explorations;
    }
  }
  // The batch planner answers constraints AND bounds from one combined
  // sweep (attributed to the constraints stage), so the re-verification
  // shows up as fresh exploration across the two stages together.
  EXPECT_GT(psm_explorations, 0) << "scheme edit must re-explore the PSM";
}

}  // namespace
}  // namespace psv
