// Shared pieces of the pipeline benchmark: run options, the result record
// every workload fills, failure accounting, the benchmark's inputs and the
// known answers it checks every timed operation against.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/service.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring window of the run
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  bool smoke = false;     ///< reduced sizes, same checks (the benchmark's own test)
  std::string models_dir; ///< the benchmark's input models
  std::string work_dir;   ///< scratch space for caches and artifacts (emptied per run)
};

/// What one run reports: named metrics, operations attempted and failed,
/// and the recorded facts about its inputs.
class Result {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

  void record(const std::string& key, const std::string& value) { record_[key] = value; }
  const std::map<std::string, std::string>& recorded() const { return record_; }

  /// Run one checked operation: it counts as failed when `op` returns false
  /// (a wrong answer) or throws (psv::Error, including kBusy).
  bool operation(const std::string& what, const std::function<bool()>& op);

  /// Mark `operations` already attempted as failed: their answers proved
  /// wrong only after they were timed.
  void reject(std::uint64_t operations, const std::string& what);

  /// A check outside any timed operation; a false one makes the run incorrect.
  bool check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> record_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// Report a mismatch on stderr; returns `ok` so checks chain with &&.
bool expect(bool ok, const std::string& what);

/// Median of a sample (0 for an empty one).
double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// Reset the process's peak resident set size to its current one
/// (/proc/self/clear_refs), so that the next peak_rss_mb() covers only what
/// ran in between.
void reset_peak_rss();
/// Peak resident set size [MB] since the last reset_peak_rss(), or since
/// the process started (VmHWM; ru_maxrss where /proc is unavailable).
double peak_rss_mb();
/// Current resident set size [bytes] (/proc/self/statm).
double current_rss_bytes();
/// Bytes under `dir`, recursively.
double dir_bytes(const std::string& dir);

/// The benchmark's set-up time [s]: `fn` is timed at least 5 times and for
/// at least 1 s in all, and the median is returned, so that neither the
/// first (cold) repetition nor a short slow spell of the host decides it.
double median_setup_s(const std::function<void()>& fn);

/// Canonical value-only rendering of a report: verdicts, exact bounds,
/// constraint verdicts and slack values. Warm, cold and reloaded runs must
/// agree on it exactly; witness traces may legitimately differ.
std::string value_lines(const psv::core::VerifyReport& report);

// --- inputs ----------------------------------------------------------------

/// The pump case: the short-bolus pump PIM and the Table-I board scheme,
/// plus the one-constant edit and the 200-candidate sweep derived from it.
struct PumpInputs {
  std::string model;           ///< pump_short.psv
  std::string scheme;          ///< board.pss
  std::string edited_scheme;   ///< StopInfusion "delay 10 50" -> "delay 10 55"
  std::string sweep_template;  ///< "delay 10 sweep 50..1045 step 5" (200 points)
};
PumpInputs load_pump(const std::string& models_dir);

/// REQ1 (Table I) and REQ2, the pump edit cycle's requirement set.
std::vector<psv::core::TimingRequirement> pump_requirements();
/// SREQ: BolusReq -> StopInfusion within `bound_ms`, the sweep's requirement.
psv::core::TimingRequirement pump_sweep_requirement(std::int64_t bound_ms);

/// Known answers (short-bolus pump + board.pss). The Table-I figures hold
/// for this model as for the full pump; the verified M-C maxima and slack
/// are this model's own, pinned from the library at the time the
/// benchmark was written.
extern const char* const kPumpBaseValues;    ///< value_lines of REQ1+REQ2, base scheme
extern const char* const kPumpEditedValues;  ///< the same after the edit
extern const std::int64_t kPumpSweepBaseDelay;  ///< SREQ verified delay, base scheme
extern const char* const kPumpFrontier;      ///< frontier_text() of the sweep

/// Table-I checks on REQ1 of a pump report (scheme 0): PIM 500, Lemma-2
/// 1430, Input-Delay 490, Output-Delay 440, PSM fails 500 and meets 1430,
/// C1-C4 hold.
bool check_table1(const psv::core::VerifyReport& report);

// --- layers ------------------------------------------------------------------

/// One verification taken apart layer by layer through the public API,
/// each call inside its own span: lang parsing, PIM stage, transform,
/// instrumentation, fingerprinting, the combined verify_batch, bound
/// analysis, artifact store and load, and report serde. Fills the per-layer
/// metrics it measures into `result` and returns the report it assembled,
/// which must equal what core::Verifier answers for the same request.
struct WalkInput {
  std::string model;
  std::string scheme;
  std::vector<std::string> requirements;  ///< requirement texts ("N: A -> B within D")
  unsigned jobs = 1;
  bool scaling = false;  ///< also run verify_batch at jobs=1 for mc.scaling
};
psv::core::VerifyReport walk_layers(Tracer& tracer, const WalkInput& input,
                                    const std::string& artifact_dir, Result& result);

// --- workloads ---------------------------------------------------------------

void run_pump_edit(const Options& options, Tracer& tracer, Result& result);
void run_pump_synth(const Options& options, Tracer& tracer, Result& result);
void run_quickstart_service(const Options& options, Tracer& tracer, Result& result);

}  // namespace perfbench
