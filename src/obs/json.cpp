#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace srds::obs {

Json& Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw std::logic_error("Json::push_back on non-array");
  array_.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw std::logic_error("Json::set on non-object");
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::escape(const std::string& s, std::string& out) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

namespace {

void append_double(double v, std::string& out) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) {
    out += "null";
    return;
  }
  out.append(buf, ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      out += std::to_string(int_);
      break;
    case Type::kUint:
      out += std::to_string(uint_);
      break;
    case Type::kDouble:
      append_double(double_, out);
      break;
    case Type::kString:
      escape(string_, out);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out.push_back(',');
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out.push_back(',');
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        escape(object_[i].first, out);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        object_[i].second.write(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

bool Json::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  switch (type_) {
    case Type::kInt: return int_;
    case Type::kUint: return static_cast<std::int64_t>(uint_);
    case Type::kDouble: return static_cast<std::int64_t>(double_);
    default: return fallback;
  }
}

std::uint64_t Json::as_uint(std::uint64_t fallback) const {
  switch (type_) {
    case Type::kInt: return int_ < 0 ? fallback : static_cast<std::uint64_t>(int_);
    case Type::kUint: return uint_;
    case Type::kDouble: return double_ < 0 ? fallback : static_cast<std::uint64_t>(double_);
    default: return fallback;
  }
}

double Json::as_double(double fallback) const {
  switch (type_) {
    case Type::kInt: return static_cast<double>(int_);
    case Type::kUint: return static_cast<double>(uint_);
    case Type::kDouble: return double_;
    default: return fallback;
  }
}

namespace {

// Recursive-descent parser for standard JSON. Numbers without '.', 'e', or
// a leading '-' land in kUint (then kInt when negative), matching how the
// writer partitions the numeric kinds, so parse(dump(x)) preserves types.
class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  bool run(Json& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& what) {
    if (err_ && err_->empty()) {
      *err_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char want) {
    if (pos_ < text_.size() && text_[pos_] == want) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= text_.size()) return fail("truncated \\u escape");
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex digit in \\u escape");
            }
            // UTF-8 encode the code point (surrogate pairs are not combined;
            // the writer only emits \u for control characters < 0x20).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return fail("bad escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start + (negative ? 1u : 0u)) return fail("expected digits");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      if (negative) {
        std::int64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc()) {
          out = Json(v);
          return true;
        }
      } else {
        std::uint64_t v = 0;
        if (std::from_chars(first, last, v).ec == std::errc()) {
          out = Json(v);
          return true;
        }
      }
      // Out-of-range integer: fall back to double below.
    }
    double v = 0;
    if (std::from_chars(first, last, v).ec != std::errc()) {
      return fail("malformed number");
    }
    out = Json(v);
    return true;
  }

  bool value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (literal("null")) {
          out = Json(nullptr);
          return true;
        }
        return fail("expected 'null'");
      case 't':
        if (literal("true")) {
          out = Json(true);
          return true;
        }
        return fail("expected 'true'");
      case 'f':
        if (literal("false")) {
          out = Json(false);
          return true;
        }
        return fail("expected 'false'");
      case '"': {
        std::string s;
        if (!string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos_;
        out = Json::array();
        skip_ws();
        if (consume(']')) return true;
        while (true) {
          Json elem;
          skip_ws();
          if (!value(elem, depth + 1)) return false;
          out.push_back(std::move(elem));
          skip_ws();
          if (consume(']')) return true;
          if (!consume(',')) return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++pos_;
        out = Json::object();
        skip_ws();
        if (consume('}')) return true;
        while (true) {
          skip_ws();
          std::string key;
          if (!string(key)) return false;
          skip_ws();
          if (!consume(':')) return fail("expected ':'");
          Json elem;
          skip_ws();
          if (!value(elem, depth + 1)) return false;
          out.set(key, std::move(elem));
          skip_ws();
          if (consume('}')) return true;
          if (!consume(',')) return fail("expected ',' or '}'");
        }
      }
      default:
        return number(out);
    }
  }

  std::string_view text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Json::parse(std::string_view text, Json& out, std::string* err) {
  if (err) err->clear();
  Parser p(text, err);
  Json parsed;
  if (!p.run(parsed)) {
    if (err && err->empty()) *err = "malformed JSON";
    return false;
  }
  out = std::move(parsed);
  return true;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace srds::obs
