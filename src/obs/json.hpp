// Minimal hand-rolled JSON document builder (no external dependencies).
//
// The observability layer needs to *emit* machine-readable artifacts —
// BENCH_*.json benchmark series, Chrome trace_event files, metric dumps —
// with byte-stable output so identical runs diff clean (the determinism
// guard in tests/trace_test.cpp relies on this). Design choices to that end:
//   * objects preserve insertion order (no hash-map iteration order leaks
//     into the file),
//   * integers are kept exact (separate from doubles) and doubles render
//     via the shortest round-trip representation (std::to_chars),
//   * non-finite doubles serialize as null (JSON has no NaN/Inf).
// Json::parse reads the subset the writer emits (tools/bench-diff loads
// BENCH_*.json artifacts through it); the tests additionally round-trip the
// writer against a tiny independent parser as a conformance check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace srds::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(int v) : type_(Type::kInt), int_(v) {}
  Json(long v) : type_(Type::kInt), int_(v) {}
  Json(long long v) : type_(Type::kInt), int_(v) {}
  Json(unsigned v) : type_(Type::kUint), uint_(v) {}
  Json(unsigned long v) : type_(Type::kUint), uint_(v) {}
  Json(unsigned long long v) : type_(Type::kUint), uint_(v) {}
  Json(double v) : type_(Type::kDouble), double_(v) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Array append. The value must be an array (or null, which promotes).
  Json& push_back(Json v);

  /// Object insert/overwrite, preserving first-insertion order. The value
  /// must be an object (or null, which promotes).
  Json& set(const std::string& key, Json v);

  /// Object lookup; returns nullptr when absent or not an object.
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key) {
    return const_cast<Json*>(static_cast<const Json*>(this)->find(key));
  }

  const std::vector<Json>& items() const { return array_; }
  const std::vector<std::pair<std::string, Json>>& members() const { return object_; }

  /// Scalar accessors with coercion across the numeric kinds; the fallback
  /// value is returned on type mismatch (readers of bench artifacts treat
  /// absent/mistyped fields as missing data, not errors).
  bool as_bool(bool fallback = false) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  double as_double(double fallback = 0) const;
  const std::string& as_string() const { return string_; }

  /// Parse `text` into `out`. Accepts standard JSON (the writer's output is
  /// a subset). Returns false and fills *err (when non-null) with a
  /// byte-offset message on malformed input.
  static bool parse(std::string_view text, Json& out, std::string* err = nullptr);

  /// Serialize. indent < 0 = compact single line; indent >= 0 = pretty,
  /// `indent` spaces per nesting level.
  std::string dump(int indent = -1) const;

  /// Append the JSON escaping of `s` (quotes included) to `out`.
  static void escape(const std::string& s, std::string& out);

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Write `text` to `path`, creating missing parent directories first (CI
/// points artifact writers at directories that do not exist yet); false on
/// any I/O failure, close included.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace srds::obs
