// Compile-fail probe: a capture larger than a SmallFn's inline buffer
// must not build -- the event kernel has no heap fallback, so an
// oversized capture is a compile error instead of a silent allocation.
// Without HEPEX_ILLEGAL this TU is the positive control proving that a
// capture filling EventFn's 56-byte buffer and one filling
// CompletionFn's 32-byte buffer both compile.
#include <array>

#include "sim/event_fn.hpp"

int main() {
  std::array<double, 7> seven{};  // 56 bytes: exactly EventFn's buffer
  std::array<double, 4> four{};   // 32 bytes: exactly CompletionFn's
  hepex::sim::EventFn event([seven] { (void)seven; });
  hepex::sim::CompletionFn done([four](hepex::q::Seconds) { (void)four; });
#ifdef HEPEX_ILLEGAL
  std::array<double, 8> eight{};  // 64 bytes: one word too many
  hepex::sim::EventFn bad([eight] { (void)eight; });
  bad();
#endif
  event();
  done(hepex::q::Seconds{});
  return 0;
}
