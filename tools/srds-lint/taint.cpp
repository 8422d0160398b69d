#include "taint.hpp"

#include <set>

namespace srds::lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_control_keyword(const std::string& s) {
  static const std::set<std::string> kControl = {"if",     "for",   "while", "switch",
                                                "catch",  "return", "sizeof", "alignof",
                                                "decltype"};
  return kControl.count(s) != 0;
}

/// Tokens that may sit between a declarator's ')' and the body '{':
/// cv-qualifiers, noexcept, override/final (all idents), trailing return
/// types and member-initializer lists.
bool is_trailer_token(const Tok& t) {
  if (t.kind == Tok::kIdent || t.kind == Tok::kNum) return true;
  return t.text == "::" || t.text == "->" || t.text == "<" || t.text == ">" ||
         t.text == "," || t.text == "*" || t.text == "&" || t.text == ":";
}

/// Tokens allowed between a class-head keyword and its '{' (name, bases,
/// template args, final).
bool is_class_head_token(const Tok& t) {
  if (t.kind == Tok::kIdent || t.kind == Tok::kNum) return true;
  return t.text == "::" || t.text == "<" || t.text == ">" || t.text == ":" ||
         t.text == "," || t.text == "&" || t.text == "*" || t.text == "[" ||
         t.text == "]";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::vector<FuncBody> function_bodies(const Lexed& lx) {
  const std::vector<Tok>& toks = lx.toks;
  // Matching ')' -> '(' indices.
  std::vector<std::size_t> open_of(toks.size(), kNpos);
  {
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].text == "(") {
        stack.push_back(i);
      } else if (toks[i].text == ")" && !stack.empty()) {
        open_of[i] = stack.back();
        stack.pop_back();
      }
    }
  }

  std::vector<FuncBody> out;
  int depth = 0;
  bool in_func = false;
  int func_open_depth = 0;
  // Enclosing class/struct bodies, for qualifying in-class definitions.
  struct ClassScope {
    std::string name;
    int depth;  // brace depth inside the class body
  };
  std::vector<ClassScope> classes;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.text == "{") {
      ++depth;
      if (in_func) continue;
      // Walk back over declarator trailer tokens to the ')' (if any). A
      // constructor's member-initializer list puts `: a_(1), b_(2)` between
      // the parameter list and the body; when the ')' we find belongs to an
      // initializer (its name chain is preceded by ':' or ','), hop left to
      // the previous group until the real declarator surfaces.
      std::size_t j = i;
      std::size_t close = kNpos, open = kNpos;
      bool is_func = false;
      for (int hop = 0; hop < 32; ++hop) {
        close = kNpos;
        while (j > 0) {
          const Tok& p = toks[j - 1];
          if (p.text == ")") {
            close = j - 1;
            break;
          }
          if (!is_trailer_token(p)) break;
          --j;
        }
        if (close == kNpos) break;
        open = open_of[close];
        if (open == kNpos || open == 0) break;
        const Tok& before = toks[open - 1];
        if (before.text == "]") break;  // lambda at namespace scope
        if (before.kind != Tok::kIdent || is_control_keyword(before.text)) break;
        // Start of the qualified name chain (`A::B::name`).
        std::size_t k = open - 1;
        while (k >= 2 && toks[k - 1].text == "::" && toks[k - 2].kind == Tok::kIdent) k -= 2;
        if (k > 0 && (toks[k - 1].text == ":" || toks[k - 1].text == ",")) {
          j = open;  // initializer-list member; keep hopping left
          continue;
        }
        is_func = true;
        // Build name + qualified chain.
        FuncBody fb;
        fb.name = before.text;
        for (std::size_t q = k; q < open; ++q) fb.qual += toks[q].text;
        if (fb.qual.find("::") == std::string::npos && !classes.empty()) {
          fb.qual = classes.back().name + "::" + fb.name;
        }
        fb.open_line = t.line;
        fb.open_tok = i;
        fb.close_tok = toks.size() ? toks.size() - 1 : 0;
        fb.close_line = toks.empty() ? t.line : toks.back().line;
        fb.lparen_tok = open;
        fb.rparen_tok = close;
        out.push_back(std::move(fb));
        in_func = true;
        func_open_depth = depth;
        break;
      }
      if (is_func) continue;
      // Not a function body: is it a class/struct body? Walk back over the
      // class head (name, bases, template args) looking for the keyword.
      std::size_t back = i;
      std::string class_name;
      for (int steps = 0; back > 0 && steps < 64; ++steps) {
        const Tok& p = toks[back - 1];
        if (p.kind == Tok::kIdent && (p.text == "class" || p.text == "struct" ||
                                      p.text == "union")) {
          if (back < toks.size() && toks[back].kind == Tok::kIdent) {
            class_name = toks[back].text;
          }
          break;
        }
        if (!is_class_head_token(p)) break;
        --back;
      }
      if (!class_name.empty()) classes.push_back(ClassScope{class_name, depth});
      continue;
    }
    if (t.text == "}") {
      if (in_func && depth == func_open_depth) {
        out.back().close_tok = i;
        out.back().close_line = t.line;
        in_func = false;
      }
      if (!in_func && !classes.empty() && depth == classes.back().depth) classes.pop_back();
      if (depth > 0) --depth;
    }
  }
  return out;
}

std::vector<Marker> parse_markers(const Lexed& lx) {
  std::vector<Marker> out;
  for (const Comment& c : lx.comments) {
    std::size_t pos = c.text.find("srds-lint:");
    if (pos == std::string::npos) continue;
    std::size_t i = pos + 10;
    while (i < c.text.size() && (c.text[i] == ' ' || c.text[i] == '\t')) ++i;
    const std::string kw = "hotpath";
    if (c.text.compare(i, kw.size(), kw) != 0) continue;
    // Word boundary: "hotpathology" is not a marker.
    i += kw.size();
    if (i < c.text.size() && (std::isalnum(static_cast<unsigned char>(c.text[i])) ||
                              c.text[i] == '_' || c.text[i] == '-')) {
      continue;
    }
    Marker m;
    m.line = c.line;
    while (i < c.text.size() && (c.text[i] == ' ' || c.text[i] == '\t')) ++i;
    if (i < c.text.size() && c.text[i] == '(') {
      std::size_t closep = c.text.find(')', i);
      if (closep != std::string::npos) m.name = trim(c.text.substr(i + 1, closep - i - 1));
    }
    out.push_back(std::move(m));
  }
  return out;
}

bool marker_name_matches(const std::string& name, const FuncBody& fb) {
  if (name.empty()) return true;
  if (name == fb.name || name == fb.qual) return true;
  if (ends_with(fb.qual, "::" + name)) return true;
  // A qualified marker name may carry *more* context than the def's
  // extracted qual (namespace prefix, say) — but only when the def's own
  // qualifier doesn't contradict it. `Foo::run` must never match a def
  // known to be `Bar::run`, else every same-named method becomes a match.
  if (fb.qual == fb.name && ends_with(name, "::" + fb.name)) return true;
  if (fb.qual != fb.name && ends_with(name, "::" + fb.qual)) return true;
  return false;
}

std::size_t resolve_marker(const Marker& m, const std::vector<FuncBody>& funcs,
                           std::string* error) {
  // A marker inside a body marks that body; otherwise the next body below.
  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    const FuncBody& fb = funcs[fi];
    if (fb.open_line <= m.line && m.line <= fb.close_line) {
      if (!marker_name_matches(m.name, fb)) {
        *error = "names '" + m.name + "' but sits inside the body of '" + fb.qual +
                 "'; was the target deleted or renamed?";
        return kNpos;
      }
      return fi;
    }
    if (fb.open_line >= m.line) {
      if (!m.name.empty()) {
        if (marker_name_matches(m.name, fb)) return fi;
        *error = "names '" + m.name + "' but the next function body (line " +
                 std::to_string(fb.open_line) + ") belongs to '" + fb.qual +
                 "'; was the target deleted or renamed?";
        return kNpos;
      }
      if (fb.open_line - m.line <= kMarkerAttachWindow) return fi;
      *error = "no function body opens within " + std::to_string(kMarkerAttachWindow) +
               " lines (next is '" + fb.qual + "' at line " + std::to_string(fb.open_line) +
               "); was the target deleted or moved?";
      return kNpos;
    }
  }
  *error = "matches no function body";
  return kNpos;
}

namespace {

bool is_validation_ident(const std::string& s) {
  if (s == "untag_body" || s == "Reader") return true;
  return s.find("deserialize") != std::string::npos || s.find("validate") != std::string::npos;
}

bool is_byte_read_member(const std::string& s) {
  static const std::set<std::string> kReads = {"data",  "begin",  "end",  "front",
                                               "back",  "rbegin", "rend", "cbegin",
                                               "cend",  "view"};
  return kReads.count(s) != 0;
}

bool in_taint_scope(const std::string& path) {
  return path_under(path, "src/ba") || path_under(path, "src/consensus") ||
         path_under(path, "src/srds") || path_under(path, "src/mpc");
}

}  // namespace

void check_t1(const std::string& path, const Lexed& lx, std::vector<Finding>& out) {
  if (!in_taint_scope(path)) return;
  const std::vector<Tok>& toks = lx.toks;
  const std::vector<FuncBody> funcs = function_bodies(lx);

  for (const FuncBody& fb : funcs) {
    // First validation point in the body, as a token index.
    std::size_t first_valid = kNpos;
    for (std::size_t i = fb.open_tok; i <= fb.close_tok && i < toks.size(); ++i) {
      if (toks[i].kind == Tok::kIdent && is_validation_ident(toks[i].text)) {
        first_valid = i;
        break;
      }
    }

    std::set<std::size_t> flagged_lines;
    auto flag = [&](std::size_t tok_idx, const std::string& how) {
      if (first_valid != kNpos && first_valid <= tok_idx) return;
      if (!flagged_lines.insert(toks[tok_idx].line).second) return;
      Finding f;
      f.file = path;
      f.line = toks[tok_idx].line;
      f.rule = "T1";
      f.message = "function '" + fb.name + "' reads Message::payload bytes (" + how +
                  ") without a prior deserialize/validate/untag_body/Reader call in the "
                  "same body; adversary-controlled bytes must pass a bounds-checked "
                  "parse before protocol logic acts on them";
      out.push_back(std::move(f));
    };

    for (std::size_t i = fb.open_tok; i <= fb.close_tok && i < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      if (t.text == "payload") {
        const Tok* n1 = (i + 1 < toks.size()) ? &toks[i + 1] : nullptr;
        const Tok* n2 = (i + 2 < toks.size()) ? &toks[i + 2] : nullptr;
        if (n1 && n1->text == "[") {
          flag(i, "indexing");
        } else if (n1 && (n1->text == "." || n1->text == "->") && n2 &&
                   n2->kind == Tok::kIdent && is_byte_read_member(n2->text)) {
          flag(i, "." + n2->text + "()");
        }
        continue;
      }
      // memcpy/memmove/memcmp with the payload buffer as any argument.
      if ((t.text == "memcpy" || t.text == "memmove" || t.text == "memcmp") &&
          i + 1 < toks.size() && toks[i + 1].text == "(") {
        int pdepth = 0;
        for (std::size_t j = i + 1; j <= fb.close_tok && j < toks.size(); ++j) {
          if (toks[j].text == "(") ++pdepth;
          if (toks[j].text == ")" && --pdepth == 0) break;
          if (toks[j].kind == Tok::kIdent && toks[j].text == "payload") {
            flag(i, t.text + " over the buffer");
            break;
          }
        }
      }
    }
  }
}

std::vector<HotpathViolation> hotpath_violations(const Lexed& lx, const FuncBody& fb) {
  const std::vector<Tok>& toks = lx.toks;
  std::vector<HotpathViolation> out;
  for (std::size_t i = fb.open_tok; i <= fb.close_tok && i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    if (t.text == "throw") {
      out.push_back(HotpathViolation{t.line, "'throw'"});
    } else if (t.text == "new") {
      out.push_back(HotpathViolation{t.line, "'new'"});
    } else if (t.text == "std" && i + 2 < toks.size() && toks[i + 1].text == "::" &&
               toks[i + 2].text == "function") {
      out.push_back(HotpathViolation{t.line, "std::function construction"});
    }
  }
  return out;
}

void check_p1(const std::string& path, const Lexed& lx, std::vector<Finding>& out) {
  const std::vector<Marker> markers = parse_markers(lx);
  if (markers.empty()) return;

  const std::vector<FuncBody> funcs = function_bodies(lx);
  std::set<std::size_t> marked;  // indices into funcs

  for (const Marker& m : markers) {
    std::string err;
    std::size_t target = resolve_marker(m, funcs, &err);
    if (target == kNpos) {
      Finding f;
      f.file = path;
      f.line = m.line;
      f.rule = "P1";
      f.message = "srds-lint: hotpath marker " + err;
      out.push_back(std::move(f));
      continue;
    }
    marked.insert(target);
  }

  for (std::size_t fi : marked) {
    const FuncBody& fb = funcs[fi];
    for (const HotpathViolation& v : hotpath_violations(lx, fb)) {
      Finding f;
      f.file = path;
      f.line = v.line;
      f.rule = "P1";
      f.message = v.what + " in hotpath function '" + fb.name +
                  "': the delivery/aggregation path runs per message; it must not "
                  "allocate, unwind, or type-erase";
      out.push_back(std::move(f));
    }
  }
}

}  // namespace srds::lint
