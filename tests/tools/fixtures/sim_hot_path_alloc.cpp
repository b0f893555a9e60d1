// hepex-lint-fixture-expect: sim-hot-path-alloc
// Fixture: every raw-heap-allocation form the simulator hot path must
// not contain. The "sim_" name prefix makes the self-test lint this as
// src/sim/<name> (the rule covers all of src/sim).
// Placement new and a justified suppression stay silent. NOT compiled —
// linted by `hepex_lint --self-test` (tools.hepex_lint_fixtures).
#include <cstddef>
#include <memory>
#include <new>

struct Node {
  int value = 0;
};

Node* grow() {
  auto owned = std::make_unique<Node>();   // fires
  auto shared = std::make_shared<Node>();  // fires
  (void)owned;
  (void)shared;
  return new Node{};  // fires
}

void* raw_cell(std::size_t n) {
  return ::operator new(n);  // fires
}

Node* park(void* cell) {
  // Placement new into an already-owned cell allocates nothing — this is
  // how SmallFn builds a capture in its inline buffer.
  return ::new (cell) Node{};
}

// hepex-lint: allow(sim-hot-path-alloc) one-time setup table built before the event loop starts
Node* startup_table = new Node{};
