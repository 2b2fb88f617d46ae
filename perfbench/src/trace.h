// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call from the benchmark into a layer of the library
// (name "<layer>.<operation>", e.g. "core.transform"). Spans nest through a
// per-thread stack, so a span's parent is the innermost span open on the
// same thread when it began. Spans are kept in memory and written out once,
// when the run ends, as JSON lines.
//
// A disabled recorder records nothing and costs one branch per span, so the
// same code paths serve the untraced runs that give the end-to-end numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
};

class Tracer {
 public:
  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (tracer_.enabled_) id_ = tracer_.open(std::move(name));
    }
    ~Scope() {
      if (id_ >= 0) tracer_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_ = -1;
  };

  /// Total duration [ms] of the spans named `name`.
  double total_ms(const std::string& name) const;

  /// Self time [ms] per layer: each span's duration minus the part covered
  /// by its children, summed over the spans of the layer (the name's prefix
  /// before the first '.').
  std::map<std::string, double> self_ms_by_layer() const;

  /// One JSON object per span: name, start/end [ns], id, parent, run id.
  void write_jsonl(std::ostream& out) const;

 private:
  int open(std::string name);
  void close(int id);
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  const bool enabled_;
  const std::string run_id_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
