// psv_perfbench: the pipeline benchmark's binary.
//
//   psv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --models DIR --work DIR [--smoke] [--spans FILE]
//                 [--record FILE] [--source-id ID]
//
// Workloads: pump_edit, pump_synth, quickstart_service (see workloads.cpp).
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs (--trace 0) report the end-to-end
// metrics; traced runs (--trace 1) the per-layer ones, and write their
// spans to --spans as JSON lines. --record receives what the run was fed
// (seed, nproc, build type, source id, input shares) and every metric.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports in untraced runs.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics of traced runs. A workload that bypasses a layer
/// reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"lang.parse_ms", "ms"},
    {"ta.fingerprint_ms", "ms"},
    {"core.pim_ms", "ms"},
    {"core.transform_ms", "ms"},
    {"core.instrument_ms", "ms"},
    {"core.analysis_ms", "ms"},
    {"core.serde_encode_ms", "ms"},
    {"core.serde_decode_ms", "ms"},
    {"mc.verify_batch_ms", "ms"},
    {"mc.verify_batch_j1_ms", "ms"},
    {"mc.scaling", "ratio"},
    {"mc.states_stored", "count"},
    {"mc.states_explored", "count"},
    {"mc.transitions_fired", "count"},
    {"mc.subsumed", "count"},
    {"mc.states_per_s", "1/s"},
    {"mc.store_yield", "ratio"},
    {"mc.bytes_per_state", "B"},
    {"mc.warm.reused", "count"},
    {"mc.warm.revalidated", "count"},
    {"mc.warm.fresh_states", "count"},
    {"mc.warm.seed_share", "ratio"},
    {"mc.artifact.store_ms", "ms"},
    {"mc.artifact.load_ms", "ms"},
    {"mc.artifact.mb", "MB"},
    {"edit.cold_verify_s", "s"},
    {"edit.reverify_s", "s"},
    {"edit.reload_s", "s"},
    {"synth.sweep_s", "s"},
    {"synth.explored_cold", "count"},
    {"synth.explored_warm", "count"},
    {"synth.pruned_dominated", "count"},
    {"synth.pruned_analytic", "count"},
    {"synth.fresh_states", "count"},
    {"synth.amortization", "ratio"},
    {"net.rtt_p50_ms", "ms"},
    {"net.rtt_p99_ms", "ms"},
    {"net.requests_per_s", "1/s"},
    {"net.inproc_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"net.frame_encode_us", "us"},
    {"net.frame_decode_us", "us"},
    {"net.pool_hit_share", "ratio"},
    {"net.busy_rejections", "count"},
    {"monitor.events_per_s", "1/s"},
    {"self.lang_ms", "ms"},
    {"self.ta_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.mc_ms", "ms"},
    {"self.net_ms", "ms"},
    {"self.monitor_ms", "ms"},
    {"self.unattributed_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

int usage() {
  std::cerr << "usage: psv_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--models DIR --work DIR [--smoke] [--spans FILE] [--record FILE] "
               "[--source-id ID]\n";
  return 2;
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// The metrics object of the result line, in definition order.
template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    out += (i ? ", " : "") + quoted(defs[i].name) + ": {\"value\": " + number(v) +
           ", \"unit\": " + quoted(defs[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string spans_path, record_path, source_id = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--models") {
      options.models_dir = argv[++i];
    } else if (arg == "--work") {
      options.work_dir = argv[++i];
    } else if (arg == "--spans") {
      spans_path = argv[++i];
    } else if (arg == "--record") {
      record_path = argv[++i];
    } else if (arg == "--source-id") {
      source_id = argv[++i];
    } else {
      return usage();
    }
  }
  if ((trace != 0 && trace != 1) || options.models_dir.empty() || options.work_dir.empty() ||
      !(options.seconds > 0))
    return usage();
  options.trace = trace == 1;

  void (*run)(const Options&, Tracer&, Result&) = nullptr;
  if (options.workload == "pump_edit") run = run_pump_edit;
  if (options.workload == "pump_synth") run = run_pump_synth;
  if (options.workload == "quickstart_service") run = run_quickstart_service;
  if (run == nullptr) {
    std::cerr << "psv_perfbench: unknown workload '" << options.workload << "'\n";
    return usage();
  }

  const std::string run_id =
      options.workload + "-" + std::to_string(options.seed) + (options.trace ? "-traced" : "");
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  Tracer tracer(options.trace, run_id);
  Result result;
  try {
    run(options, tracer, result);
  } catch (const std::exception& e) {
    std::cerr << "psv_perfbench: " << options.workload << " aborted: " << e.what() << "\n";
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);

  const unsigned nproc = std::thread::hardware_concurrency();
  if (options.trace) {
    const std::map<std::string, double> self = tracer.self_ms_by_layer();
    for (const char* layer : {"lang", "ta", "core", "mc", "net", "monitor"}) {
      const auto it = self.find(layer);
      result.metric(std::string("self.") + layer + "_ms", it == self.end() ? 0.0 : it->second);
    }
    double unattributed = 0;
    for (const char* root : {"walk", "step"})
      if (self.count(root)) unattributed += self.at(root);
    result.metric("self.unattributed_ms", unattributed);
  }
  for (const auto& [name, value] : result.metrics())
    result.check(std::isfinite(value), "metric " + name + " is finite");

  if (!spans_path.empty() && options.trace) {
    std::ofstream spans(spans_path);
    tracer.write_jsonl(spans);
  }
  if (!record_path.empty()) {
    std::ofstream record(record_path);
    record << "{\"run\": " << quoted(run_id) << ", \"seed\": " << options.seed
           << ", \"seconds\": " << number(options.seconds) << ", \"smoke\": "
           << (options.smoke ? "true" : "false") << ", \"nproc\": " << nproc
           << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
           << ", \"source_id\": " << quoted(source_id);
    for (const auto& [key, value] : result.recorded()) record << ", " << quoted(key) << ": " << quoted(value);
    record << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : result.metrics()) {
      record << (first ? "" : ", ") << quoted(name) << ": " << number(value);
      first = false;
    }
    record << "}}\n";
  }

  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted() << ", \"failed\": " << result.failed()
            << ", \"metrics\": "
            << (options.trace ? metrics_json(kPerLayer, result.metrics())
                              : metrics_json(kEndToEnd, result.metrics()))
            << "}" << std::endl;
  return 0;
}
