// Call-graph fixture: mutual recursion under a hotpath root. The traversal
// must terminate and report the one planted violation exactly once.

// srds-lint: hotpath(ping)
void ping(int n) {
  if (n > 0) pong(n - 1);
}

void pong(int n) {
  if (n < 0) throw n;  // the only violation in the cycle
  ping(n);
}
