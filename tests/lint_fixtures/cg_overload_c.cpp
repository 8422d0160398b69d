// Call-graph fixture: second `helper` overload candidate (see
// cg_overload_a.cpp). Planted: type erasure.
void helper(int x) {
  std::function<int(int)> f = [](int v) { return v; };
  f(x);
}
