// The three workloads. Each runs in its own process so that peak RSS is its
// own, and every thread count is explicit: at most 4 threads explore at any
// time.
//
//   pump_edit          the CLI user's edit cycle on the Table-I case: cold
//                      verify, re-verify after a one-constant edit (warm
//                      start from the on-disk ancestor), re-verify again
//                      (pure artifact hit). Exercises the mc zone store,
//                      mc/store warm start and mc/artifact.
//   pump_synth         the 200-candidate StopInfusion-delay sweep, 2 workers x
//                      2 exploration threads. Exercises core/synth scheduling,
//                      dominance pruning, cancellation and the shared pinned
//                      ancestor.
//   quickstart_service many small requests to an in-process net::Server over
//                      loopback, then on-line enforcement of a verified bound
//                      with monitor::DelayMonitor. Exercises net, report serde,
//                      lang, transform, fingerprinting and the session pool;
//                      mc does little, so a zone-store change should not show.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/report_serde.h"
#include "core/synth.h"
#include "monitor/monitor.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "util/error.h"
#include "util/io.h"
#include "util/serde.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace psv;

namespace {

/// True while another operation of `last_s` seconds still fits in the
/// window. Outside smoke runs at least two operations run whatever the
/// window: the first pays one-off costs (page faults, allocator growth), and
/// a run whose median mixed one or two operations by chance would not be
/// comparable with the next.
bool fits(const Options& options, Clock::time_point window, const std::vector<double>& done_s) {
  if (options.smoke) return done_s.empty();
  return done_s.size() < 2 || seconds_since(window) + done_s.back() <= options.seconds;
}

/// What the operations of an untraced run measured: duration and peak RSS
/// of each.
struct Samples {
  std::vector<double> seconds;
  std::vector<double> peak_mb;

  /// Time one operation; its peak RSS is taken from a reset high-water mark.
  template <typename Op>
  void take(Op&& op) {
    reset_peak_rss();
    seconds.push_back(op());
    peak_mb.push_back(peak_rss_mb());
  }
};

void report_samples(Result& result, const Samples& samples) {
  double busy = 0;
  for (const double s : samples.seconds) busy += s;
  result.metric("latency_p50_ms", median(samples.seconds) * 1e3);
  result.metric("ops_per_s", static_cast<double>(samples.seconds.size()) / busy);
  result.metric("peak_rss_mb", median(samples.peak_mb));
}

std::string requirement_text(const core::TimingRequirement& r) {
  return r.name + ": " + r.input + " -> " + r.output + " within " + std::to_string(r.bound_ms);
}

std::vector<std::string> requirement_texts(const std::vector<core::TimingRequirement>& reqs) {
  std::vector<std::string> texts;
  for (const core::TimingRequirement& r : reqs) texts.push_back(requirement_text(r));
  return texts;
}

core::SourceRequest source_request(const std::string& model, const std::string& scheme,
                                   const std::vector<core::TimingRequirement>& reqs,
                                   unsigned jobs) {
  core::SourceRequest source;
  source.model_source = model;
  source.scheme_sources = {scheme};
  source.requirements = reqs;
  source.options.explore.jobs = jobs;
  return source;
}

/// One verification through a fresh Verifier, the way one psv_verify
/// process runs it; the Verifier's teardown is part of the time.
double timed_verify(Tracer& tracer, const char* span, const core::VerifyRequest& request,
                    core::VerifyReport& report) {
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope scope(tracer, span);
    core::Verifier verifier;
    report = verifier.verify(request);
  }
  return seconds_since(start);
}

/// Scheme-stage exploration counters of a report (the PIM stage is shared
/// per model and excluded, as in bench_incremental).
mc::ExploreStats scheme_stats(const core::VerifyReport& report) {
  mc::ExploreStats total;
  for (const core::SchemeVerification& sv : report.schemes)
    for (const core::VerifyStageStats& stage : sv.stages) mc::accumulate_stats(total, stage.explore);
  return total;
}

void report_warm(Result& result, const mc::ExploreStats& s) {
  result.metric("mc.warm.reused", static_cast<double>(s.warm_states_reused));
  result.metric("mc.warm.revalidated", static_cast<double>(s.warm_states_revalidated));
  result.metric("mc.warm.fresh_states",
                static_cast<double>(s.states_explored - s.warm_seed_expansions));
  if (s.states_explored > 0)
    result.metric("mc.warm.seed_share", static_cast<double>(s.warm_seed_expansions) /
                                            static_cast<double>(s.states_explored));
}

/// Untraced parse + verification of `source` through a fresh Verifier: the
/// reference the layer walk's spans are held against.
double untraced_verify_s(const core::SourceRequest& source, core::VerifyReport& report) {
  const Clock::time_point start = Clock::now();
  {
    core::Verifier verifier;
    report = verifier.verify(core::to_verify_request(source));
  }
  return seconds_since(start);
}

/// Sum of the walk's layer spans over the untraced time of the same
/// verification through core::Verifier: below 1 shows an unattributed gap,
/// above 1 tracing overhead or work the Verifier shares.
void report_coverage(Tracer& tracer, Result& result, double untraced_s) {
  double layers_ms = 0;
  for (const char* name : {"lang.parse", "core.pim", "core.transform", "core.instrument",
                           "ta.fingerprint", "mc.verify_batch", "core.analysis"})
    layers_ms += tracer.total_ms(name);
  result.metric("trace.coverage", layers_ms / (untraced_s * 1e3));
}

}  // namespace

// --- pump_edit -------------------------------------------------------------------

void run_pump_edit(const Options& options, Tracer& tracer, Result& result) {
  constexpr unsigned kJobs = 4;
  PumpInputs in;
  core::VerifyRequest base, edited;
  result.metric("setup_s", median_setup_s([&] {
    in = load_pump(options.models_dir);
    base = core::to_verify_request(source_request(in.model, in.scheme, pump_requirements(), kJobs));
    edited = core::to_verify_request(
        source_request(in.model, in.edited_scheme, pump_requirements(), kJobs));
  }));

  struct Cycle {
    double cold_s = 0, reverify_s = 0, reload_s = 0;
    core::VerifyReport reverified;
  };
  // Three fresh Verifiers over one fresh cache directory, the way three
  // `psv_verify --cache-dir` processes run the edit cycle.
  const auto cycle = [&](int index, bool traced) {
    Tracer quiet(false, "");
    Tracer& t = traced ? tracer : quiet;
    const std::string cache = options.work_dir + "/edit-" + std::to_string(index);
    fs::remove_all(cache);
    core::VerifyRequest cold_request = base, edit_request = edited;
    cold_request.options.cache_dir = edit_request.options.cache_dir = cache;
    Cycle c;
    core::VerifyReport cold, reload;
    result.operation("pump_edit cold verify", [&] {
      c.cold_s = timed_verify(t, "step.cold_verify", cold_request, cold);
      return check_table1(cold) && expect(value_lines(cold) == kPumpBaseValues,
                                          "base values:\n" + value_lines(cold));
    });
    result.operation("pump_edit re-verify after the edit", [&] {
      c.reverify_s = timed_verify(t, "step.reverify", edit_request, c.reverified);
      return expect(value_lines(c.reverified) == kPumpEditedValues,
                    "edited values:\n" + value_lines(c.reverified));
    });
    result.operation("pump_edit reload", [&] {
      c.reload_s = timed_verify(t, "step.reload", edit_request, reload);
      return expect(value_lines(reload) == value_lines(c.reverified),
                    "reloaded report differs from the re-verified one");
    });
    fs::remove_all(cache);
    return c;
  };

  if (!options.trace) {
    Samples cycles;
    std::vector<double> cold_s, reverify_s, reload_s;
    const Clock::time_point window = Clock::now();
    while (fits(options, window, cycles.seconds)) {
      cycles.take([&] {
        const Cycle c = cycle(static_cast<int>(cold_s.size()), false);
        cold_s.push_back(c.cold_s);
        reverify_s.push_back(c.reverify_s);
        reload_s.push_back(c.reload_s);
        return c.cold_s + c.reverify_s + c.reload_s;
      });
    }
    report_samples(result, cycles);
    // The step split of the untraced cycles, for the record.
    result.record("cold_verify_s", std::to_string(median(cold_s)));
    result.record("reverify_s", std::to_string(median(reverify_s)));
    result.record("reload_s", std::to_string(median(reload_s)));
    return;
  }

  // The coverage reference brackets the walk, so that neither side alone
  // pays the process's first-exploration costs.
  const core::SourceRequest base_source =
      source_request(in.model, in.scheme, pump_requirements(), kJobs);
  double reference_s = 0;
  const auto reference = [&] {
    result.operation("pump_edit untraced verify", [&] {
      core::VerifyReport untraced;
      reference_s += untraced_verify_s(base_source, untraced) / 2;
      return expect(value_lines(untraced) == kPumpBaseValues, "untraced base values");
    });
  };
  reference();
  WalkInput walk{in.model, in.scheme, requirement_texts(pump_requirements()), kJobs, true};
  const core::VerifyReport walked = walk_layers(tracer, walk, options.work_dir + "/walk", result);
  result.check(value_lines(walked) == kPumpBaseValues, "layer walk reproduces the base report");
  reference();
  report_coverage(tracer, result, reference_s);

  const Cycle traced = cycle(0, true);
  result.metric("edit.cold_verify_s", traced.cold_s);
  result.metric("edit.reverify_s", traced.reverify_s);
  result.metric("edit.reload_s", traced.reload_s);
  report_warm(result, scheme_stats(traced.reverified));
  if (!options.smoke) {
    const Cycle plain = cycle(1, false);
    result.metric("trace.overhead",
                  (traced.cold_s + traced.reverify_s + traced.reload_s) /
                          (plain.cold_s + plain.reverify_s + plain.reload_s) -
                      1.0);
  }
}

// --- pump_synth ------------------------------------------------------------------

void run_pump_synth(const Options& options, Tracer& tracer, Result& result) {
  constexpr unsigned kWorkers = 2, kJobs = 2;
  const core::TimingRequirement sreq = pump_sweep_requirement(kPumpSweepBaseDelay + 10);
  PumpInputs in;
  core::SynthRequest request;
  result.metric("setup_s", median_setup_s([&] {
    in = load_pump(options.models_dir);
    core::SourceSynthRequest source;
    source.model_source = in.model;
    source.template_source = in.sweep_template;
    source.requirements = {sreq};
    source.options.explore.jobs = kJobs;
    source.synth.workers = kWorkers;
    request = core::to_synth_request(source);
  }));

  const auto sweep = [&](Tracer& t, core::SynthReport& report) {
    double seconds = 0;
    result.operation("pump_synth sweep", [&] {
      const Clock::time_point start = Clock::now();
      {
        Tracer::Scope scope(t, "step.synth");
        core::Verifier verifier;  // fresh: every sweep pays its own cold exploration
        core::SchemeSynthesizer synthesizer(verifier);
        report = synthesizer.run(request);
      }
      seconds = seconds_since(start);
      return expect(report.frontier_text() == kPumpFrontier,
                    "frontier:\n" + report.frontier_text());
    });
    return seconds;
  };

  Tracer quiet(false, "");
  core::SynthReport report;
  if (!options.trace) {
    Samples sweeps;
    const Clock::time_point window = Clock::now();
    while (fits(options, window, sweeps.seconds)) sweeps.take([&] { return sweep(quiet, report); });
    report_samples(result, sweeps);
    return;
  }

  // One cold verification of the base candidate, before and after the walk
  // (their mean): the coverage reference and the unit of synth.amortization.
  double cold_s = 0;
  const auto reference = [&] {
    result.operation("pump_synth base verify", [&] {
      core::VerifyReport cold;
      cold_s += untraced_verify_s(source_request(in.model, in.scheme, {sreq}, 4), cold) / 2;
      const std::int64_t delay = cold.schemes[0].requirements[0].bounds.verified_mc_delay;
      return expect(delay == kPumpSweepBaseDelay, "SREQ base delay " + std::to_string(delay));
    });
  };
  reference();
  WalkInput walk{in.model, in.scheme, {requirement_text(sreq)}, 4, true};
  const core::VerifyReport walked = walk_layers(tracer, walk, options.work_dir + "/walk", result);
  result.check(walked.schemes[0].requirements[0].bounds.verified_mc_delay == kPumpSweepBaseDelay,
               "layer walk finds the pinned SREQ delay");
  reference();
  report_coverage(tracer, result, cold_s);

  const double traced_s = sweep(tracer, report);
  result.metric("synth.sweep_s", traced_s);
  result.metric("synth.explored_cold", static_cast<double>(report.stats.explored_cold));
  result.metric("synth.explored_warm", static_cast<double>(report.stats.explored_warm));
  result.metric("synth.pruned_dominated", static_cast<double>(report.stats.pruned_dominated));
  result.metric("synth.pruned_analytic", static_cast<double>(report.stats.pruned_analytic));
  result.metric("synth.fresh_states", static_cast<double>(report.stats.fresh_states));
  result.metric("synth.amortization", traced_s / cold_s);
  mc::ExploreStats warm;
  for (const core::CandidateOutcome& c : report.candidates) mc::accumulate_stats(warm, c.explore);
  report_warm(result, warm);
  if (!options.smoke) result.metric("trace.overhead", traced_s / sweep(quiet, report) - 1.0);
}

// --- quickstart_service --------------------------------------------------------------

namespace {

/// One quickstart platform: the fast interrupt-driven scheme with a given
/// Ack device-delay ceiling and invocation period, or (late) the broken
/// single-buffer platform whose period overruns M's response window.
struct Variant {
  int ack_max = 3;
  int period = 10;
  bool late = false;

  std::string scheme() const {
    std::ostringstream os;
    os << "scheme IS1-q" << (late ? "late" : "") << ack_max << "p" << period << " {\n"
       << "  input Req {\n    signal pulse\n    read interrupt\n    delay 1 3\n  }\n"
       << "  output Ack {\n    delay 1 " << ack_max << "\n  }\n"
       << "  io {\n    invocation periodic " << period << "\n    transfer buffers "
       << (late ? 1 : 5) << "\n    policy read-all\n    stages 1 1 1\n  }\n}\n";
    return os.str();
  }
};

/// The variant catalogue in popularity order: 36 fast platforms (6 Ack
/// ceilings x 6 periods) with 4 late ones interleaved at ranks 4, 14, 24
/// and 34. 40 platforms against a 32-session pool (one session is the
/// shared PIM), so the Zipf tail misses or evicts.
std::vector<Variant> variant_catalogue() {
  std::vector<Variant> fast;
  for (const int period : {10, 15, 20, 25, 30, 35})
    for (const int ack : {3, 8, 13, 18, 23, 28}) fast.push_back({ack, period, false});
  const Variant late[] = {{3, 200, true}, {3, 150, true}, {8, 250, true}, {3, 300, true}};
  std::vector<Variant> all;
  std::size_t next_late = 0;
  for (const Variant& v : fast) {
    if (all.size() % 10 == 4 && next_late < std::size(late)) all.push_back(late[next_late++]);
    all.push_back(v);
  }
  while (next_late < std::size(late)) all.push_back(late[next_late++]);
  return all;
}

/// Seeded request stream over the catalogue, Zipf(1) by popularity rank.
/// The stream is stratified: every block of 1000 requests holds each
/// variant its expected number of times (largest remainder), and the seed
/// orders each block. Seeds then differ in the order requests arrive and so
/// in which ones miss the pool, not in how often each variant is asked for.
std::vector<std::size_t> request_stream(std::uint64_t seed, std::size_t variants,
                                        std::size_t blocks) {
  constexpr std::size_t kBlock = 1000;
  double harmonic = 0;
  for (std::size_t k = 1; k <= variants; ++k) harmonic += 1.0 / static_cast<double>(k);
  std::vector<std::size_t> count(variants);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < variants; ++k) {
    const double expected = kBlock / (static_cast<double>(k + 1) * harmonic);
    count[k] = static_cast<std::size_t>(expected);
    assigned += count[k];
    remainders.push_back({expected - static_cast<double>(count[k]), k});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; assigned < kBlock; ++i, ++assigned) ++count[remainders[i].second];
  std::vector<std::size_t> block;
  for (std::size_t k = 0; k < variants; ++k) block.insert(block.end(), count[k], k);
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> stream;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::shuffle(block.begin(), block.end(), rng);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  return stream;
}

const core::TimingRequirement kQuickReq{"QREQ", "Req", "Ack", 80};

/// What a closed-loop stream measured, and the first summary each variant
/// came back with (every later response of the variant must match it).
struct StreamResult {
  std::vector<double> rtt_s;
  double window_s = 0;
  std::vector<std::string> first_summary;
  std::vector<std::size_t> served;  ///< responses per variant
};

/// Closed loop: `clients` connections, each with one outstanding request,
/// drawing the next request of the shared stream until the window closes.
StreamResult run_stream(Tracer& tracer, Result& result, std::uint16_t port,
                        const std::vector<core::SourceRequest>& requests,
                        const std::vector<std::size_t>& stream, double seconds) {
  constexpr int kClients = 2;
  StreamResult out;
  out.first_summary.resize(requests.size());
  out.served.assign(requests.size(), 0);
  std::mutex mu;  // guards out and result
  std::atomic<std::size_t> next{0};
  const Clock::time_point window = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::optional<net::Client> client;
      try {
        client.emplace("127.0.0.1", port);
      } catch (const Error& e) {
        std::lock_guard<std::mutex> lock(mu);
        result.check(false, std::string("client connect: ") + e.what());
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= stream.size() || seconds_since(window) >= seconds) break;
        const std::size_t v = stream[i];
        core::VerifyReport report;
        std::string error;
        const Clock::time_point start = Clock::now();
        try {
          Tracer::Scope span(tracer, "net.request");
          report = client->verify(requests[v]);
        } catch (const Error& e) {
          error = std::string(error_code_name(e.code())) + ": " + e.what();
        }
        const double rtt = seconds_since(start);
        const std::string summary = error.empty() ? report.summary() : std::string();
        std::lock_guard<std::mutex> lock(mu);
        result.operation("quickstart request", [&] {
          if (!error.empty()) throw Error(error, ErrorCode::kInternal);
          if (out.first_summary[v].empty()) out.first_summary[v] = summary;
          return expect(summary == out.first_summary[v], "wire summary changed between requests");
        });
        out.rtt_s.push_back(rtt);
        ++out.served[v];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.window_s = seconds_since(window);
  return out;
}

/// Seeded event stream with injected violations through one DelayMonitor.
/// Episodes: Req at t, Ack within [1, verified] ms after it, the next Req
/// 100-200 ms after the Ack. The stream is cut into chunks; a chunk holds
/// at most one injected violation (a late Ack, or a missing one), and the
/// monitor is reset between chunks. Every chunk must report exactly the
/// violation injected into it: its kind and its timestamp (the late Ack's,
/// or the missed deadline).
void run_monitor(Tracer& tracer, Result& result, const monitor::MonitorSpec& spec,
                 std::uint64_t seed, std::size_t total_events) {
  constexpr std::size_t kEpisodes = 512;  // per chunk, two events each
  const monitor::MonitorRequirement& req = spec.requirements.at(0);
  const std::int64_t bound_us = req.bound_ms * 1000, verified_us = req.verified_ms * 1000;
  const std::string names[2] = {req.input, req.output};
  struct Event {
    char kind;
    std::uint8_t name;
    std::int64_t at_us;
  };
  std::mt19937_64 rng(seed ^ 0x6d6f6e69746f72ull);
  std::uniform_int_distribution<std::int64_t> ok_delay(1000, verified_us);
  std::uniform_int_distribution<std::int64_t> gap(100'000, 200'000);
  std::uniform_int_distribution<std::int64_t> overrun(1, 50'000);
  std::uniform_int_distribution<std::size_t> where(0, kEpisodes - 2);
  std::bernoulli_distribution inject(0.3), missing(0.5);

  monitor::DelayMonitor mon(spec);
  std::vector<Event> chunk;
  std::size_t events = 0, found = 0;
  double observe_s = 0;
  result.operation("monitor stream", [&] {
    bool chunks_ok = true;
    std::int64_t t = 0;
    while (events < total_events) {
      chunk.clear();
      const bool violate = inject(rng);
      const std::size_t at = where(rng);
      const bool drop_ack = missing(rng);
      monitor::Violation expected;
      for (std::size_t e = 0; e < kEpisodes; ++e) {
        t += gap(rng);
        chunk.push_back({'m', 0, t});
        if (violate && e == at && drop_ack) {
          expected = {0, monitor::ViolationKind::kMissed, t + bound_us, 0, 0};
          t += bound_us;  // no Ack: the next Req arrives past the deadline
          continue;
        }
        const std::int64_t delay = violate && e == at ? bound_us + overrun(rng) : ok_delay(rng);
        t += delay;
        chunk.push_back({'c', 1, t});
        if (violate && e == at) expected = {0, monitor::ViolationKind::kLate, t, delay, 0};
      }
      const Clock::time_point start = Clock::now();
      {
        Tracer::Scope span(tracer, "monitor.observe");
        for (const Event& ev : chunk) mon.observe(ev.kind, names[ev.name], ev.at_us);
        mon.finish(t + 1);
      }
      observe_s += seconds_since(start);
      const std::vector<monitor::Violation> seen = mon.violations();
      const bool chunk_ok =
          violate ? seen.size() == 1 && seen[0].kind == expected.kind &&
                        seen[0].at_us == expected.at_us && seen[0].delay_us == expected.delay_us
                  : seen.empty();
      chunks_ok = expect(chunk_ok, "monitor chunk reports the injected violation") && chunks_ok;
      found += seen.size();
      events += chunk.size();
      mon.reset();
    }
    return chunks_ok;
  });
  result.metric("monitor.events_per_s", static_cast<double>(events) / observe_s);
  result.record("monitor_violations", std::to_string(found));
}

}  // namespace

void run_quickstart_service(const Options& options, Tracer& tracer, Result& result) {
  const std::string model = util::try_read_file(options.models_dir + "/quickstart.psv").value_or("");
  const std::vector<Variant> variants = variant_catalogue();
  std::vector<core::SourceRequest> requests;
  std::vector<std::size_t> stream;
  std::unique_ptr<net::Server> server;

  // Set-up: generate the request stream and bring up the daemon. Every
  // repetition starts a new server; the last one serves the run.
  result.metric("setup_s", median_setup_s([&] {
    requests.clear();
    for (const Variant& v : variants) {
      core::SourceRequest r;
      r.model_source = model;
      r.scheme_sources = {v.scheme()};
      r.requirements = {kQuickReq};
      r.options.explore.jobs = 1;
      requests.push_back(std::move(r));
    }
    stream = request_stream(options.seed, variants.size(), options.smoke ? 1 : 100);
    server.reset();
    net::ServerConfig config;  // 127.0.0.1, ephemeral port, 32-session pool
    server = std::make_unique<net::Server>(config);
    server->start();
  }));
  result.check(!model.empty(), "quickstart.psv found");

  // Window split in the traced run: the traced stream, the untraced stream
  // (tracing overhead) and the in-process stream share the run's seconds.
  const double stream_s = options.trace ? options.seconds / 3 : options.seconds;
  Tracer quiet(false, "");
  reset_peak_rss();
  const StreamResult wire =
      run_stream(options.trace ? tracer : quiet, result, server->port(), requests, stream, stream_s);
  const net::ServerStats stats = server->stats();
  // Before the oracle below adds its own Verifier's sessions.
  result.metric("peak_rss_mb", peak_rss_mb());

  // In-process twins: every wire report must render the summary of the same
  // request verified in-process. All responses of a variant already equal
  // its first one, so a first one that differs makes all of them wrong.
  core::Verifier twin_verifier;
  std::vector<std::optional<core::VerifyReport>> twins(variants.size());
  const auto twin = [&](std::size_t v) -> const core::VerifyReport& {
    if (!twins[v]) twins[v] = twin_verifier.verify(core::to_verify_request(requests[v]));
    return *twins[v];
  };
  std::size_t fail_requests = 0, served = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    if (wire.served[v] == 0) continue;
    served += wire.served[v];
    if (!twin(v).all_passed()) fail_requests += wire.served[v];
    if (wire.first_summary[v] != twin(v).summary())
      result.reject(wire.served[v], "wire summary differs from the in-process twin of variant " +
                                        std::to_string(v));
  }
  const double pool_hit_share =
      1.0 - static_cast<double>(stats.explorations_total) /
                static_cast<double>(std::max<std::uint64_t>(stats.requests_received, 1));
  const double fail_share =
      static_cast<double>(fail_requests) / static_cast<double>(std::max<std::size_t>(served, 1));
  result.record("pool_hit_share", std::to_string(pool_hit_share));
  result.record("fail_share", std::to_string(fail_share));
  result.record("requests", std::to_string(served));

  // Enforcement: the monitor derived from the most popular (PASS) variant.
  const monitor::MonitorSpec spec = core::Verifier::monitor_spec(twin(0));
  result.record("monitor_verified_ms", std::to_string(spec.requirements.at(0).verified_ms));
  run_monitor(options.trace ? tracer : quiet, result, spec, options.seed,
              options.smoke ? 100'000 : 20'000'000);

  if (!options.trace) {
    result.metric("latency_p50_ms", median(wire.rtt_s) * 1e3);
    result.metric("ops_per_s", static_cast<double>(wire.rtt_s.size()) / wire.window_s);
    server->stop();
    return;
  }

  result.metric("net.rtt_p50_ms", median(wire.rtt_s) * 1e3);
  result.metric("net.rtt_p99_ms", percentile(wire.rtt_s, 99) * 1e3);
  result.metric("net.requests_per_s", static_cast<double>(wire.rtt_s.size()) / wire.window_s);
  result.metric("net.pool_hit_share", pool_hit_share);
  result.metric("net.busy_rejections", static_cast<double>(stats.requests_busy));
  result.metric("mc.warm.reused", static_cast<double>(stats.states_reused));

  // Tracing overhead: the same stream again, untraced, on a fresh server.
  server->stop();
  server = std::make_unique<net::Server>(net::ServerConfig{});
  server->start();
  const StreamResult plain = run_stream(quiet, result, server->port(), requests, stream, stream_s);
  result.metric("trace.overhead", median(wire.rtt_s) / median(plain.rtt_s) - 1.0);
  server->stop();

  // The same stream through an in-process Verifier: the wire's share of a
  // round trip is what remains.
  std::vector<double> inproc_s;
  {
    core::Verifier verifier;
    const Clock::time_point window = Clock::now();
    for (std::size_t i = 0; i < stream.size() && seconds_since(window) < stream_s; ++i) {
      const std::size_t v = stream[i];
      result.operation("quickstart in-process request", [&] {
        const Clock::time_point start = Clock::now();
        core::VerifyReport report;
        {
          Tracer::Scope span(tracer, "core.verify_inproc");
          report = verifier.verify(core::to_verify_request(requests[v]));
        }
        inproc_s.push_back(seconds_since(start));
        return expect(report.summary() == twin(v).summary(), "in-process summary");
      });
    }
  }
  result.metric("net.inproc_ms", median(inproc_s) * 1e3);
  result.metric("net.overhead_ms", (median(wire.rtt_s) - median(inproc_s)) * 1e3);

  // Frame codec cost on the most popular variant's report.
  constexpr int kFrameReps = 2000;
  std::vector<std::uint8_t> frame;
  {
    Tracer::Scope span(tracer, "net.frame_encode");
    for (int i = 0; i < kFrameReps; ++i) {
      ByteWriter out;
      core::encode_verify_report(out, twin(0));
      frame = net::encode_frame(net::FrameType::kReport, 1, out.take());
    }
  }
  {
    Tracer::Scope span(tracer, "net.frame_decode");
    for (int i = 0; i < kFrameReps; ++i) {
      std::uint8_t header[net::kFrameHeaderSize];
      std::copy(frame.begin(), frame.begin() + net::kFrameHeaderSize, header);
      const net::FrameHeader h = net::decode_frame_header(header);
      const std::vector<std::uint8_t> payload(frame.begin() + net::kFrameHeaderSize, frame.end());
      const bool intact = net::payload_checksum(payload) == h.checksum;  // as read_frame does
      ByteReader in(payload);
      const core::VerifyReport decoded = core::decode_verify_report(in);
      if (i == 0) result.check(intact && decoded.summary() == twin(0).summary(), "frame round trip");
    }
  }
  result.record("frame_bytes", std::to_string(frame.size()));
  result.metric("net.frame_encode_us", tracer.total_ms("net.frame_encode") * 1e3 / kFrameReps);
  result.metric("net.frame_decode_us", tracer.total_ms("net.frame_decode") * 1e3 / kFrameReps);

  WalkInput walk{model, variants[0].scheme(), {requirement_text(kQuickReq)}, 1, false};
  const core::VerifyReport walked = walk_layers(tracer, walk, options.work_dir + "/walk", result);
  result.check(value_lines(walked) == value_lines(twin(0)), "layer walk reproduces the twin");
  std::vector<double> verify_s;
  for (int i = 0; i < 5; ++i) {
    core::VerifyReport plain_report;
    verify_s.push_back(untraced_verify_s(requests[0], plain_report));
  }
  report_coverage(tracer, result, median(verify_s));
}

}  // namespace perfbench
