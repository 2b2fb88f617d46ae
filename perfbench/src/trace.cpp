#include "trace.h"

namespace perfbench {

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;
}  // namespace

int Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  const std::int64_t end = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

double Tracer::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.name == name) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) / 1e6;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  // Children of one parent run one after another on the parent's thread,
  // so subtracting their durations removes exactly the covered part.
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += static_cast<double>(self[i]) / 1e6;
  }
  return by_layer;
}

void Tracer::write_jsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"run\": \"" << run_id_ << "\"}\n";
  }
}

}  // namespace perfbench
