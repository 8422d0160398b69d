#include "bench_args.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/prof.hpp"

namespace srds::bench {

namespace {

bool g_quiet = false;

[[noreturn]] void usage(const char* prog, int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s [--n-list N1,N2,...] [--seed S] [--json-out DIR | --no-json]\n"
               "          [--quiet] [--strict-budgets] [--repeats K] [--prof]\n"
               "  --n-list   override the sweep sizes (comma-separated)\n"
               "  --seed     override the base RNG seed\n"
               "  --json-out directory for BENCH_*.json artifacts (default: .)\n"
               "  --no-json  do not write JSON artifacts\n"
               "  --quiet    suppress the text tables\n"
               "  --strict-budgets  abort (exit 3) on a communication-budget violation\n"
               "  --repeats  timed repeats per row; rows report median wall ns/op + spread\n"
               "  --prof     enable the profiling layer (prof block in the artifact)\n",
               prog);
  std::exit(code);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (!*s) return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end && *end == '\0';
}

bool parse_n_list(const char* s, std::vector<std::size_t>& out) {
  out.clear();
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      std::uint64_t v;
      if (!parse_u64(token.c_str(), v) || v == 0) return false;
      out.push_back(static_cast<std::size_t>(v));
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return !out.empty();
}

}  // namespace

bool quiet() { return g_quiet; }
void set_quiet(bool q) { g_quiet = q; }

Args Args::parse(int& argc, char** argv) {
  Args args;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0], 0);
    } else if (std::strcmp(a, "--n-list") == 0) {
      if (!parse_n_list(value("--n-list"), args.n_list)) {
        std::fprintf(stderr, "%s: bad --n-list (want comma-separated sizes)\n", argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!parse_u64(value("--seed"), args.seed) || args.seed == 0) {
        std::fprintf(stderr, "%s: bad --seed (want a positive integer)\n", argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(a, "--json-out") == 0) {
      args.json_out = value("--json-out");
    } else if (std::strcmp(a, "--no-json") == 0) {
      args.json_out.clear();
    } else if (std::strcmp(a, "--quiet") == 0) {
      args.quiet = true;
    } else if (std::strcmp(a, "--strict-budgets") == 0) {
      args.strict_budgets = true;
    } else if (std::strcmp(a, "--repeats") == 0) {
      std::uint64_t k = 0;
      if (!parse_u64(value("--repeats"), k) || k == 0) {
        std::fprintf(stderr, "%s: bad --repeats (want a positive integer)\n", argv[0]);
        std::exit(2);
      }
      args.repeats = static_cast<std::size_t>(k);
    } else if (std::strcmp(a, "--prof") == 0) {
      args.prof = true;
    } else {
      argv[out++] = argv[i];  // unknown: leave for the caller's parser
    }
  }
  argc = out;
  argv[argc] = nullptr;
  set_quiet(args.quiet);
  obs::prof_set_enabled(args.prof);
  return args;
}

}  // namespace srds::bench
