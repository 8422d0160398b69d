// Call-graph fixture: the root's file defines no `helper`, so resolution
// falls back to every same-name definition (cg_overload_b.cpp and
// cg_overload_c.cpp) — the documented over-approximation.

// srds-lint: hotpath(run_round)
void run_round() {
  helper(1);
}
