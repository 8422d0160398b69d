// srds-lint fixture: every D1 nondeterminism source, one per line group.
// Presented to the linter under a protocol-dir logical path (src/ba/...),
// so the unordered-container checks fire too. Line numbers are asserted
// exactly by tests/lint_test.cpp — edit with care.
#include <unordered_map>

#include <random>

namespace fixture {

int wall_clock_seed() {
  int x = rand();                 // line 12: rand()
  std::random_device rd;          // line 13: random_device
  long t = time(nullptr);         // line 14: time()
  auto now = std::chrono::system_clock::now();  // line 15: system_clock
  std::mt19937 eng(now.time_since_epoch().count());  // line 16: <random> engine
  return x + static_cast<int>(rd()) + static_cast<int>(t) + static_cast<int>(eng());
}

void container_order() {
  std::unordered_map<int, int> m;  // line 21: unordered_map
  std::unordered_set<int> s;       // line 22: unordered_set
  (void)m;
  (void)s;
}

// Comment mentions rand() and unordered_map — must NOT fire (lexer strips
// comments). Nor does the string literal below.
const char* kNote = "call rand() and iterate an unordered_map";

}  // namespace fixture
