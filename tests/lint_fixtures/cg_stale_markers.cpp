// Call-graph fixture: a named hotpath marker whose function no longer
// exists. Stale markers are findings (P1), never silently dropped.

// srds-lint: hotpath(RemovedFast::send)

void unrelated(int x) {
  (void)x;
}
