#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unistd.h>

#include "bench.h"
#include "core/analysis.h"
#include "core/constraints.h"
#include "core/pim.h"
#include "core/report_serde.h"
#include "core/schedulability.h"
#include "core/transform.h"
#include "lang/model_parser.h"
#include "lang/scheme_parser.h"
#include "mc/artifact.h"
#include "mc/session.h"
#include "ta/fingerprint.h"
#include "util/error.h"
#include "util/io.h"
#include "util/serde.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace psv;

bool Result::operation(const std::string& what, const std::function<bool()>& op) {
  ++attempted_;
  bool ok = false;
  try {
    ok = op();
    if (!ok) std::cerr << "perfbench: wrong answer: " << what << "\n";
  } catch (const Error& e) {
    std::cerr << "perfbench: " << what << " failed (" << error_code_name(e.code())
              << "): " << e.what() << "\n";
  }
  if (!ok) ++failed_;
  return ok;
}

void Result::reject(std::uint64_t operations, const std::string& what) {
  failed_ += operations;
  std::cerr << "perfbench: wrong answer (" << operations << " operations): " << what << "\n";
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    ++checks_failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

bool expect(bool ok, const std::string& what) {
  if (!ok) std::cerr << "perfbench: mismatch: " << what << "\n";
  return ok;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // reset the peak RSS (VmHWM) to the current RSS
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double dir_bytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += static_cast<double>(entry.file_size(ec));
  return bytes;
}

double median_setup_s(const std::function<void()>& fn) {
  constexpr int kMinReps = 5;
  constexpr double kMinTotalS = 1.0;
  std::vector<double> samples;
  const Clock::time_point first = Clock::now();
  while (samples.size() < kMinReps || seconds_since(first) < kMinTotalS) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

std::string value_lines(const core::VerifyReport& report) {
  std::ostringstream os;
  for (const core::SchemeVerification& sv : report.schemes) {
    os << "scheme " << sv.scheme_name << "\n";
    for (const core::ConstraintCheck& check : sv.constraints.checks)
      os << "  constraint " << check.id << " " << check.name << ": "
         << (check.holds ? "holds" : "VIOLATED") << "\n";
    for (const core::RequirementResult& r : sv.requirements) {
      os << "  verdict " << (r.passed ? "PASS" : "FAIL") << " " << r.requirement.name
         << " pim_max=" << r.pim.max_delay << " lemma2=" << r.bounds.lemma2_total
         << " mc=" << r.bounds.verified_mc_delay
         << " bounded=" << (r.bounds.verified_mc_bounded ? 1 : 0) << "\n";
    }
    for (std::size_t i = 0; i < sv.slack.requirements.size(); ++i) {
      const core::RequirementSlack& rs = sv.slack.requirements[i];
      os << "  slack " << rs.requirement << " " << rs.slack_ms << "ms"
         << " bounded=" << (rs.bounded ? 1 : 0)
         << (i == sv.slack.binding_index ? " [binding]" : "") << "\n";
    }
  }
  return os.str();
}

// --- inputs ------------------------------------------------------------------

namespace {

std::string read_model(const std::string& dir, const std::string& name) {
  const auto text = util::try_read_file(dir + "/" + name);
  if (!text) throw Error("model file not found: " + dir + "/" + name, ErrorCode::kIo);
  return *text;
}

std::string replace_once(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) throw Error("scheme lacks '" + from + "'", ErrorCode::kModel);
  return text.replace(at, from.size(), to);
}

}  // namespace

PumpInputs load_pump(const std::string& models_dir) {
  PumpInputs in;
  in.model = read_model(models_dir, "pump_short.psv");
  in.scheme = read_model(models_dir, "board.pss");
  // The StopInfusion device-delay ceiling: only a clock-constraint bound
  // changes, so the PSM skeleton is kept and the edit can warm-start.
  in.edited_scheme = replace_once(in.scheme, "delay 10 50", "delay 10 55");
  in.sweep_template = replace_once(in.scheme, "delay 10 50", "delay 10 sweep 50..1045 step 5");
  return in;
}

std::vector<core::TimingRequirement> pump_requirements() {
  return {{"REQ1", "BolusReq", "StartInfusion", 500},
          {"REQ2", "BolusReq", "StopInfusion", 2500}};
}

core::TimingRequirement pump_sweep_requirement(std::int64_t bound_ms) {
  return {"SREQ", "BolusReq", "StopInfusion", bound_ms};
}

bool check_table1(const core::VerifyReport& report) {
  if (!expect(!report.schemes.empty() && !report.schemes[0].requirements.empty(),
              "pump report has no REQ1 cell"))
    return false;
  const core::SchemeVerification& sv = report.schemes[0];
  const core::RequirementResult& r = sv.requirements[0];
  const auto analytic = [](const std::vector<core::DelayBound>& bounds,
                           const std::string& name) -> std::int64_t {
    for (const core::DelayBound& b : bounds)
      if (b.name == name) return b.analytic;
    return -1;
  };
  bool ok = expect(r.requirement.name == "REQ1", "first requirement is REQ1");
  ok = expect(r.pim.holds && r.pim.max_delay == 500, "PIM |= P(500), exact 500") && ok;
  ok = expect(r.bounds.lemma2_total == 1430, "Lemma-2 total 1430") && ok;
  ok = expect(analytic(r.bounds.input_delays, "Input-Delay(BolusReq)") == 490,
              "Input-Delay 490") && ok;
  ok = expect(analytic(r.bounds.output_delays, "Output-Delay(StartInfusion)") == 440,
              "Output-Delay 440") && ok;
  ok = expect(!r.psm_meets_original, "PSM fails P(500)") && ok;
  ok = expect(r.psm_meets_relaxed, "PSM meets P(1430)") && ok;
  ok = expect(sv.constraints.all_hold(), "C1-C4 hold") && ok;
  return ok;
}

// --- the layer walk ------------------------------------------------------------

core::VerifyReport walk_layers(Tracer& tracer, const WalkInput& input,
                               const std::string& artifact_dir, Result& result) {
  constexpr std::int64_t kSearchLimit = 1'000'000;  // VerifyOptions' default
  mc::ExploreOptions explore;
  explore.jobs = input.jobs;

  Tracer::Scope root(tracer, "walk.verify");
  ta::Network pim;
  core::ImplementationScheme scheme;
  std::vector<core::TimingRequirement> reqs;
  {
    Tracer::Scope span(tracer, "lang.parse");
    pim = lang::parse_model(input.model);
    scheme = lang::parse_scheme(input.scheme);
    for (const std::string& text : input.requirements) reqs.push_back(lang::parse_requirement(text));
  }

  core::PimInfo info;
  core::PimBatchVerification pim_batch;
  {
    Tracer::Scope span(tracer, "core.pim");
    info = core::analyze_pim(pim);
    pim_batch = core::verify_pim_requirements(pim, info, reqs, kSearchLimit, explore);
  }
  std::vector<std::int64_t> internals;
  for (std::size_t r = 0; r < reqs.size(); ++r)
    internals.push_back(pim_batch.requirements[r].bounded ? pim_batch.requirements[r].max_delay
                                                          : reqs[r].bound_ms);

  core::SchemeVerification sv;
  sv.scheme_name = scheme.name;
  {
    Tracer::Scope span(tracer, "core.transform");
    sv.schedulability = core::check_schedulability(pim, info, scheme);
    sv.psm = core::transform(pim, info, scheme);
  }
  core::InstrumentedPsmBatch instrumented;
  {
    Tracer::Scope span(tracer, "core.instrument");
    instrumented = core::instrument_psm_for_requirements(sv.psm, reqs);
  }
  {
    Tracer::Scope span(tracer, "ta.fingerprint");
    const ta::NetworkFingerprint fp = ta::fingerprint(instrumented.net);
    const Digest128 skeleton = ta::skeleton_digest(instrumented.net);
    result.check(!(fp.digest == Digest128{}) && !(skeleton == Digest128{}),
                 "instrumented PSM has a fingerprint");
  }

  const core::BoundQueryPlan plan = core::plan_bound_queries(
      sv.psm, instrumented.mc_probes, reqs, internals, kSearchLimit);
  const std::vector<ta::VarId> flags = core::constraint_flag_vars(sv.psm);
  mc::VerificationSession session(instrumented.net, explore);
  // Hand the allocator's free pages back first, so that the growth counts
  // the session's own states and not how much memory earlier work left free.
  malloc_trim(0);
  const double rss_before = current_rss_bytes();
  Clock::time_point start = Clock::now();
  {
    Tracer::Scope span(tracer, "mc.verify_batch");
    session.verify_batch(plan.queries, flags);
  }
  const double batch_s = seconds_since(start);
  const double rss_growth = current_rss_bytes() - rss_before;
  const mc::ExploreStats stats = session.stats().explore;

  {
    Tracer::Scope span(tracer, "core.analysis");
    sv.constraints = core::check_constraints(session, sv.psm, /*include_deadlock_check=*/true);
    const std::vector<mc::MaxClockResult> answers = session.max_clock_values(plan.queries);
    std::vector<core::BoundAnalysis> analyses = core::assemble_bound_analyses(
        plan, sv.psm, reqs, internals, answers, kSearchLimit);
    sv.slack = core::compute_slack_report(
        reqs,
        std::vector<mc::MaxClockResult>(answers.end() - static_cast<std::ptrdiff_t>(reqs.size()),
                                        answers.end()),
        kSearchLimit);
    for (std::size_t r = 0; r < reqs.size(); ++r) {
      core::RequirementResult rr;
      rr.requirement = reqs[r];
      rr.pim = pim_batch.requirements[r];
      rr.bounds = std::move(analyses[r]);
      rr.psm_meets_original =
          rr.bounds.verified_mc_bounded && rr.bounds.verified_mc_delay <= reqs[r].bound_ms;
      rr.psm_meets_relaxed =
          rr.bounds.verified_mc_bounded && rr.bounds.verified_mc_delay <= rr.bounds.lemma2_total;
      rr.passed = sv.constraints.all_hold() && rr.psm_meets_relaxed;
      sv.requirements.push_back(std::move(rr));
    }
  }

  const mc::ArtifactStore store(artifact_dir);
  {
    Tracer::Scope span(tracer, "mc.artifact_store");
    result.check(session.store(store), "session artifact written");
  }
  {
    mc::VerificationSession reloaded(instrumented.net, explore);
    Tracer::Scope span(tracer, "mc.artifact_load");
    result.check(reloaded.load(store), "session artifact loaded back");
  }

  core::VerifyReport report;
  report.requirements = reqs;
  report.schemes.push_back(std::move(sv));
  // Encoding and decoding take microseconds on the small reports, so each
  // is repeated and the mean per call reported.
  constexpr int kSerdeReps = 20;
  std::vector<std::uint8_t> encoded;
  {
    Tracer::Scope span(tracer, "core.serde_encode");
    for (int i = 0; i < kSerdeReps; ++i) {
      ByteWriter out;
      core::encode_verify_report(out, report);
      encoded = out.take();
    }
  }
  {
    Tracer::Scope span(tracer, "core.serde_decode");
    for (int i = 0; i < kSerdeReps; ++i) {
      ByteReader in(encoded);
      const core::VerifyReport decoded = core::decode_verify_report(in);
      if (i == 0) result.check(value_lines(decoded) == value_lines(report), "report serde round trip");
    }
  }

  double j1_s = 0.0;
  if (input.scaling) {
    mc::ExploreOptions inline_explore = explore;
    inline_explore.jobs = 1;
    mc::VerificationSession inline_session(instrumented.net, inline_explore);
    start = Clock::now();
    Tracer::Scope span(tracer, "mc.verify_batch_j1");
    inline_session.verify_batch(plan.queries, flags);
    j1_s = seconds_since(start);
  }

  result.metric("lang.parse_ms", tracer.total_ms("lang.parse"));
  result.metric("core.pim_ms", tracer.total_ms("core.pim"));
  result.metric("core.transform_ms", tracer.total_ms("core.transform"));
  result.metric("core.instrument_ms", tracer.total_ms("core.instrument"));
  result.metric("ta.fingerprint_ms", tracer.total_ms("ta.fingerprint"));
  result.metric("core.analysis_ms", tracer.total_ms("core.analysis"));
  result.metric("core.serde_encode_ms", tracer.total_ms("core.serde_encode") / kSerdeReps);
  result.metric("core.serde_decode_ms", tracer.total_ms("core.serde_decode") / kSerdeReps);
  result.metric("mc.verify_batch_ms", batch_s * 1e3);
  if (input.scaling) {
    result.metric("mc.verify_batch_j1_ms", j1_s * 1e3);
    result.metric("mc.scaling", j1_s / batch_s);
  }
  const double stored = static_cast<double>(stats.states_stored);
  result.metric("mc.states_stored", stored);
  result.metric("mc.states_explored", static_cast<double>(stats.states_explored));
  result.metric("mc.transitions_fired", static_cast<double>(stats.transitions_fired));
  result.metric("mc.subsumed", static_cast<double>(stats.subsumed));
  result.metric("mc.states_per_s", static_cast<double>(stats.states_explored) / batch_s);
  result.metric("mc.store_yield", stored / (stored + static_cast<double>(stats.subsumed)));
  result.metric("mc.bytes_per_state", stored > 0 ? rss_growth / stored : 0.0);
  result.metric("mc.artifact.store_ms", tracer.total_ms("mc.artifact_store"));
  result.metric("mc.artifact.load_ms", tracer.total_ms("mc.artifact_load"));
  result.metric("mc.artifact.mb", dir_bytes(artifact_dir) / 1e6);
  return report;
}

}  // namespace perfbench

namespace perfbench {

const char* const kPumpBaseValues =
    "scheme IS1-board\n"
    "  constraint C1 C1: detection of all m_BolusReq signals: holds\n"
    "  constraint C2 C2: no input buffer overflow for BolusReq: holds\n"
    "  constraint C3 C3: no output buffer overflow for StartInfusion: holds\n"
    "  constraint C3 C3: no output buffer overflow for StopInfusion: holds\n"
    "  constraint C4 C4: no internal transition while an input is pending: holds\n"
    "  constraint C3 C3: environment accepts outputs / scheme schedulable (no timelock): holds\n"
    "  verdict PASS REQ1 pim_max=500 lemma2=1430 mc=1150 bounded=1\n"
    "  verdict PASS REQ2 pim_max=1000 lemma2=1540 mc=1160 bounded=1\n"
    "  slack REQ1 -650ms bounded=1 [binding]\n"
    "  slack REQ2 1340ms bounded=1\n";
const char* const kPumpEditedValues =
    "scheme IS1-board\n"
    "  constraint C1 C1: detection of all m_BolusReq signals: holds\n"
    "  constraint C2 C2: no input buffer overflow for BolusReq: holds\n"
    "  constraint C3 C3: no output buffer overflow for StartInfusion: holds\n"
    "  constraint C3 C3: no output buffer overflow for StopInfusion: holds\n"
    "  constraint C4 C4: no internal transition while an input is pending: holds\n"
    "  constraint C3 C3: environment accepts outputs / scheme schedulable (no timelock): holds\n"
    "  verdict PASS REQ1 pim_max=500 lemma2=1430 mc=1150 bounded=1\n"
    "  verdict PASS REQ2 pim_max=1000 lemma2=1545 mc=1165 bounded=1\n"
    "  slack REQ1 -650ms bounded=1 [binding]\n"
    "  slack REQ2 1335ms bounded=1\n";
const std::int64_t kPumpSweepBaseDelay = 1160;
const char* const kPumpFrontier =
    "frontier: pareto IS1-board[output.StopInfusion.delay_max=50] SREQ=1160ms\n"
    "frontier: feasibility SREQ tightest=1160ms via IS1-board[output.StopInfusion.delay_max=50]\n";

}  // namespace perfbench
