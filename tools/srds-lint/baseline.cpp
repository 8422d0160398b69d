#include "baseline.hpp"

#include <algorithm>
#include <set>
#include <tuple>

namespace srds::lint {

namespace {

auto entry_key(const BaselineEntry& e) { return std::tie(e.file, e.line, e.rule); }

/// Minimal JSON reader for the baseline schema: objects, arrays, strings
/// and unsigned integers — written independently of obs::Json (which is
/// writer-only by design; see src/obs/json.hpp).
class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}

  bool parse(Baseline& out, std::string& error) {
    try {
      skip_ws();
      expect('{');
      bool seen_baseline = false;
      while (true) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "baseline") {
          parse_entries(out);
          seen_baseline = true;
        } else {
          skip_value();
        }
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
      if (!seen_baseline) throw std::string("missing \"baseline\" array");
      return true;
    } catch (const std::string& why) {
      error = "baseline parse error at byte " + std::to_string(pos_) + ": " + why;
      return false;
    }
  }

 private:
  [[noreturn]] void fail(const std::string& why) const { throw why; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
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
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit");
          }
          if (code > 0xFF) fail("unsupported \\u escape");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  std::size_t integer() {
    std::size_t start = pos_;
    std::size_t v = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      v = v * 10 + static_cast<std::size_t>(s_[pos_] - '0');
      ++pos_;
    }
    if (pos_ == start) fail("expected integer");
    return v;
  }

  void parse_entries(Baseline& out) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      expect('{');
      BaselineEntry e;
      while (true) {
        skip_ws();
        std::string key = string();
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "file") {
          e.file = string();
        } else if (key == "rule") {
          e.rule = string();
        } else if (key == "message") {
          e.message = string();
        } else if (key == "line") {
          e.line = integer();
        } else {
          skip_value();
        }
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
      if (e.file.empty() || e.rule.empty()) fail("entry missing file/rule");
      out.entries.push_back(std::move(e));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  void skip_value() {
    skip_ws();
    char c = peek();
    if (c == '"') {
      (void)string();
      return;
    }
    if (c == '{' || c == '[') {
      char close = (c == '{') ? '}' : ']';
      int depth = 0;
      bool in_str = false;
      while (pos_ < s_.size()) {
        char x = s_[pos_++];
        if (in_str) {
          if (x == '\\') ++pos_;
          else if (x == '"') in_str = false;
          continue;
        }
        if (x == '"') in_str = true;
        else if (x == c) ++depth;
        else if (x == close && --depth == 0) return;
      }
      fail("unterminated value");
    }
    // number / literal
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' && s_[pos_] != ']') ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Baseline make_baseline(const std::vector<Finding>& findings) {
  Baseline b;
  for (const Finding& f : findings) {
    if (f.suppressed || f.severity != Severity::kError) continue;
    b.entries.push_back(BaselineEntry{f.file, f.line, f.rule, f.message});
  }
  std::sort(b.entries.begin(), b.entries.end(),
            [](const BaselineEntry& a, const BaselineEntry& c) {
              return entry_key(a) < entry_key(c);
            });
  b.entries.erase(std::unique(b.entries.begin(), b.entries.end(),
                              [](const BaselineEntry& a, const BaselineEntry& c) {
                                return entry_key(a) == entry_key(c);
                              }),
                  b.entries.end());
  return b;
}

obs::Json baseline_json(const Baseline& b) {
  obs::Json arr = obs::Json::array();
  for (const BaselineEntry& e : b.entries) {
    obs::Json j = obs::Json::object();
    j.set("file", e.file);
    j.set("line", static_cast<unsigned long long>(e.line));
    j.set("rule", e.rule);
    j.set("message", e.message);
    arr.push_back(std::move(j));
  }
  obs::Json out = obs::Json::object();
  out.set("tool", "srds-lint");
  out.set("schema", 1);
  out.set("baseline", std::move(arr));
  return out;
}

bool parse_baseline(const std::string& text, Baseline& out, std::string& error) {
  out = Baseline{};
  if (!MiniJson(text).parse(out, error)) return false;
  std::sort(out.entries.begin(), out.entries.end(),
            [](const BaselineEntry& a, const BaselineEntry& c) {
              return entry_key(a) < entry_key(c);
            });
  return true;
}

BaselineDiff diff_baseline(const std::vector<Finding>& findings, const Baseline& b) {
  std::set<std::tuple<std::string, std::size_t, std::string>> listed;
  for (const BaselineEntry& e : b.entries) listed.insert({e.file, e.line, e.rule});

  std::set<std::tuple<std::string, std::size_t, std::string>> current;
  BaselineDiff d;
  for (const Finding& f : findings) {
    if (f.suppressed || f.severity != Severity::kError) continue;
    current.insert({f.file, f.line, f.rule});
    if (!listed.count({f.file, f.line, f.rule})) d.fresh.push_back(f);
  }
  for (const BaselineEntry& e : b.entries) {
    if (!current.count({e.file, e.line, e.rule})) d.stale.push_back(e);
  }
  return d;
}

}  // namespace srds::lint
