// Minimal JSON emission helpers shared by the CLI stats writers, the batch
// report output, and the bench harnesses.
//
// The framework only ever *writes* JSON (machine-readable stats and batch
// reports consumed by CI); it never parses it, so this is an emitter, not a
// document model. Writer produces deterministic, human-diffable output:
// two-space indentation, keys in insertion order, and the same number
// formatting as the long-standing ostream-based writers it replaced (CI
// gates diff these files byte-for-byte across runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace psv::json {

/// Minimal JSON string escaping: quotes, backslashes, control characters.
std::string escape(const std::string& s);

/// Streaming JSON writer with comma/indent bookkeeping.
///
///   json::Writer w(out);
///   w.begin_object();
///   w.field("model", path);
///   w.key("stages");
///   w.begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///
/// Scalars are rendered with the stream's default formatting (doubles via
/// operator<<, bools as true/false). Misuse — a value without a key inside
/// an object, unbalanced begin/end — throws psv::Error.
class Writer {
 public:
  /// `indent` spaces per nesting level; 0 renders compact single-line JSON.
  explicit Writer(std::ostream& out, int indent = 2);
  ~Writer() = default;

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit an object key; the next value/begin_* call provides its value.
  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v);
  void value(std::int64_t v);
  void value(int v);
  void value(unsigned v);
  void value(std::uint64_t v);
  void value(double v);
  void value(bool v);
  /// Renders `null`.
  void value(std::nullptr_t);

  /// key() + value() in one call.
  template <typename T>
  void field(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

  /// True once every begin_* has been matched by its end_*.
  bool complete() const { return stack_.empty() && wrote_root_; }

 private:
  enum class Scope { kObject, kArray };
  struct Level {
    Scope scope;
    bool has_items = false;
  };

  /// Bookkeeping before any value (or container start) is written.
  void pre_value();
  void newline_indent();

  std::ostream& out_;
  int indent_;
  std::vector<Level> stack_;
  bool key_pending_ = false;
  bool wrote_root_ = false;
};

}  // namespace psv::json
