// Call-graph fixture: first `helper` overload candidate (see
// cg_overload_a.cpp). Planted: a heap allocation.
int* g_votes = nullptr;

void helper(int x) {
  g_votes = new int(x);
}
