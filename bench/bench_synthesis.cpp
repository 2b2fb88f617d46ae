// Scheme-synthesis benchmark + gate: amortized search over a 200-candidate
// pump lattice.
//
//   bench_synthesis [--models DIR] [--out FILE]
//
// A cold probe first verifies the pump model (pump.psv + board.pss) against
// "SREQ: BolusReq -> StopInfusion" to learn the base verified delay D and
// the wall clock of ONE cold verification. The benchmark then sweeps the
// StopInfusion device-delay ceiling across 200 candidates
// (delay 10 sweep 50..1045 step 5) against the bound D + 10 — tight enough
// that only the first few candidates satisfy it and every slower candidate
// is dominance-pruned behind the first explored failure.
//
// Gates (exit 1 on violation, 2 on usage/setup errors), each checked at
// every synthesis worker count in {1, 2, 8}:
//
//   * the run prunes candidates by dominance (pruned_dominated > 0);
//   * the frontier ('frontier:' lines) is byte-identical across worker
//     counts;
//
// and, at workers=1 only, one wall-clock ratio measured in the same run:
//
//   * COST: the sweep's wall clock is at most (explored candidates + 1) x
//     the cold probe's — pruning is cheap and each exploration costs no
//     more than one cold verification.
//
// The peak RSS of each worker count is recorded (Linux: VmHWM, reset
// between runs through /proc/self/clear_refs).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/report_serde.h"
#include "core/service.h"
#include "core/synth.h"
#include "util/io.h"
#include "util/json.h"

namespace {

int usage() {
  std::cerr << "usage: bench_synthesis [--models DIR] [--out FILE]\n";
  return 2;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Reset the process's peak RSS to its current RSS (Linux only; elsewhere
/// the peak stays cumulative).
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

/// Peak RSS since the last reset, in MB; 0 when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string models_dir;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--models" && i + 1 < argc) {
      models_dir = argv[++i];
      if (!models_dir.empty() && models_dir.back() != '/') models_dir += '/';
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (models_dir.empty()) {
    for (const char* prefix : {"examples/models/", "../examples/models/"}) {
      if (psv::util::try_read_file(std::string(prefix) + "pump.psv")) {
        models_dir = prefix;
        break;
      }
    }
  }
  const auto model_source = psv::util::try_read_file(models_dir + "pump.psv");
  const auto scheme_source = psv::util::try_read_file(models_dir + "board.pss");
  if (!model_source || !scheme_source) {
    std::cerr << "bench_synthesis: example models not found (try --models DIR)\n";
    return 2;
  }

  // The swept position: the StopInfusion device-delay ceiling.
  const std::string original_constant = "delay 10 50";
  const std::string sweep_constant = "delay 10 sweep 50..1045 step 5";  // 200 values
  const std::size_t at = scheme_source->find(original_constant);
  if (at == std::string::npos) {
    std::cerr << "bench_synthesis: board.pss no longer contains '" << original_constant
              << "'; update the sweep\n";
    return 2;
  }
  std::string template_source = *scheme_source;
  template_source.replace(at, original_constant.size(), sweep_constant);

  const unsigned kWorkerCounts[] = {1, 2, 8};
  bool cost_ok = true, prune_ok = true, frontier_ok = true;
  double cold_s = 0.0;
  std::int64_t bound_ms = 0;
  psv::core::SynthStats first_stats;
  double first_sweep_s = 0.0;
  std::vector<double> sweep_s_by_workers, peak_mb;
  std::vector<std::uint64_t> explored;
  std::string reference_frontier;

  try {
    // Cold probe: the base scheme through a fresh Verifier. Its verified
    // delay D anchors the synthesis bound at D + 10 (so only the first few
    // candidates pass), and its wall clock is the unit of the cost gate.
    psv::core::SourceRequest probe;
    probe.model_source = *model_source;
    probe.scheme_sources = {*scheme_source};
    probe.requirements = {{"SREQ", "BolusReq", "StopInfusion", 1'000'000}};
    psv::core::Verifier probe_verifier;
    const auto probe_start = std::chrono::steady_clock::now();
    const psv::core::VerifyReport probe_report =
        probe_verifier.verify(psv::core::to_verify_request(probe));
    cold_s = seconds_since(probe_start);
    const psv::core::RequirementResult& probe_result =
        probe_report.schemes.front().requirements.front();
    if (!probe_result.bounds.verified_mc_bounded) {
      std::cerr << "bench_synthesis: probe delay unbounded; model changed?\n";
      return 2;
    }
    bound_ms = probe_result.bounds.verified_mc_delay + 10;

    for (const unsigned workers : kWorkerCounts) {
      psv::core::SourceSynthRequest source;
      source.model_source = *model_source;
      source.template_source = template_source;
      source.requirements = {{"SREQ", "BolusReq", "StopInfusion", bound_ms}};
      source.synth.workers = workers;

      // A fresh Verifier per worker count: every run pays its own cold
      // explorations, so the cost and the frontier are measured honestly.
      reset_peak_rss();
      const auto sweep_start = std::chrono::steady_clock::now();
      psv::core::SynthReport report;
      {
        psv::core::Verifier verifier;
        psv::core::SchemeSynthesizer synthesizer(verifier);
        report = synthesizer.run(psv::core::to_synth_request(source));
      }
      const double sweep_s = seconds_since(sweep_start);
      sweep_s_by_workers.push_back(sweep_s);
      peak_mb.push_back(peak_rss_mb());
      explored.push_back(report.stats.explored_cold);

      if (workers == kWorkerCounts[0]) {
        first_stats = report.stats;
        first_sweep_s = sweep_s;
        const double budget_s = static_cast<double>(report.stats.explored_cold + 1) * cold_s;
        if (sweep_s > budget_s) {
          cost_ok = false;
          std::cerr << "ERROR: workers=" << workers << ": sweep took " << sweep_s << "s for "
                    << report.stats.explored_cold << " exploration(s); budget "
                    << budget_s << "s = (explored + 1) x " << cold_s << "s cold\n";
        }
      }
      if (report.stats.pruned_dominated == 0) {
        prune_ok = false;
        std::cerr << "ERROR: workers=" << workers << ": no candidate was dominance-pruned\n";
      }

      const std::string frontier = report.frontier_text();
      if (reference_frontier.empty()) reference_frontier = frontier;
      if (frontier != reference_frontier) {
        frontier_ok = false;
        std::cerr << "ERROR: workers=" << workers << ": frontier differs from workers="
                  << kWorkerCounts[0] << "\n--- workers=" << workers << " ---\n"
                  << frontier << "--- reference ---\n" << reference_frontier;
      }
      std::cerr << "workers=" << workers << ": " << report.stats.candidates_total
                << " candidate(s): " << report.stats.explored_cold << " explored, "
                << report.stats.pruned_dominated << " dominated, "
                << report.stats.pruned_analytic << " analytic; "
                << report.stats.fresh_states << " state(s) in " << sweep_s << "s (cold "
                << cold_s << "s), peak RSS " << peak_mb.back() << " MB\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_synthesis: " << e.what() << "\n";
    return 2;
  }

  std::ostringstream os;
  {
    psv::json::Writer w(os);
    w.begin_object();
    w.field("model", "pump-synthesis");
    w.field("sweep", sweep_constant);
    w.field("bound_ms", bound_ms);
    w.field("candidates_total", first_stats.candidates_total);
    w.field("pruned_analytic", first_stats.pruned_analytic);
    w.field("pruned_dominated", first_stats.pruned_dominated);
    w.field("explored_cold", first_stats.explored_cold);
    w.field("fresh_states", first_stats.fresh_states);
    w.field("cold_verify_s", cold_s);
    w.field("sweep_s_workers_1", first_sweep_s);
    w.field("sweep_cost_ratio", first_sweep_s / cold_s);
    w.key("by_workers");
    w.begin_array();
    for (std::size_t i = 0; i < peak_mb.size(); ++i) {
      w.begin_object();
      w.field("workers", kWorkerCounts[i]);
      w.field("explored", explored[i]);
      w.field("sweep_s", sweep_s_by_workers[i]);
      w.field("peak_rss_mb", peak_mb[i]);
      w.end_object();
    }
    w.end_array();
    w.field("sweep_within_explored_plus_1_cold", cost_ok);
    w.field("pruned_dominated_nonzero", prune_ok);
    w.field("frontier_identical", frontier_ok);
    w.end_object();
  }
  os << "\n";

  if (out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream out(out_path);
    out << os.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return cost_ok && prune_ok && frontier_ok ? 0 : 1;
}
