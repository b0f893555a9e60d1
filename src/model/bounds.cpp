#include "model/bounds.hpp"

#include "util/error.hpp"

namespace hepex::model {

double amdahl_speedup(double serial_fraction, int processors) {
  HEPEX_REQUIRE(serial_fraction >= 0.0 && serial_fraction <= 1.0,
                "serial fraction must be in [0, 1]");
  HEPEX_REQUIRE(processors >= 1, "need at least one processor");
  const double p = processors;
  return 1.0 / (serial_fraction + (1.0 - serial_fraction) / p);
}

}  // namespace hepex::model
