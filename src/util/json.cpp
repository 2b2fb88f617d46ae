#include "util/json.h"

#include <cstdio>

#include "util/error.h"

namespace psv::json {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Writer::Writer(std::ostream& out, int indent) : out_(out), indent_(indent) {
  PSV_REQUIRE(indent >= 0, "json::Writer: negative indent");
}

void Writer::newline_indent() {
  if (indent_ == 0) return;
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i) out_ << ' ';
}

void Writer::pre_value() {
  if (stack_.empty()) {
    PSV_REQUIRE(!wrote_root_, "json::Writer: more than one root value");
    wrote_root_ = true;
    return;
  }
  Level& level = stack_.back();
  if (level.scope == Scope::kObject) {
    PSV_REQUIRE(key_pending_, "json::Writer: object value without a key");
    key_pending_ = false;
  } else {
    if (level.has_items) out_ << ',';
    newline_indent();
  }
  level.has_items = true;
}

void Writer::begin_object() {
  pre_value();
  out_ << '{';
  stack_.push_back(Level{Scope::kObject});
}

void Writer::end_object() {
  PSV_REQUIRE(!stack_.empty() && stack_.back().scope == Scope::kObject,
              "json::Writer: end_object outside an object");
  PSV_REQUIRE(!key_pending_, "json::Writer: dangling key at end_object");
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  out_ << '}';
}

void Writer::begin_array() {
  pre_value();
  out_ << '[';
  stack_.push_back(Level{Scope::kArray});
}

void Writer::end_array() {
  PSV_REQUIRE(!stack_.empty() && stack_.back().scope == Scope::kArray,
              "json::Writer: end_array outside an array");
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  out_ << ']';
}

void Writer::key(const std::string& name) {
  PSV_REQUIRE(!stack_.empty() && stack_.back().scope == Scope::kObject,
              "json::Writer: key outside an object");
  PSV_REQUIRE(!key_pending_, "json::Writer: consecutive keys");
  if (stack_.back().has_items) out_ << ',';
  newline_indent();
  out_ << '"' << escape(name) << '"' << ':';
  if (indent_ > 0) out_ << ' ';
  key_pending_ = true;
}

void Writer::value(const std::string& v) {
  pre_value();
  out_ << '"' << escape(v) << '"';
}

void Writer::value(const char* v) { value(std::string(v)); }

void Writer::value(std::int64_t v) {
  pre_value();
  out_ << v;
}

void Writer::value(int v) { value(static_cast<std::int64_t>(v)); }

void Writer::value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

void Writer::value(std::uint64_t v) {
  pre_value();
  out_ << v;
}

void Writer::value(double v) {
  pre_value();
  out_ << v;
}

void Writer::value(bool v) {
  pre_value();
  out_ << (v ? "true" : "false");
}

void Writer::value(std::nullptr_t) {
  pre_value();
  out_ << "null";
}

}  // namespace psv::json
