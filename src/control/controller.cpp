#include "control/controller.h"

#include <algorithm>
#include <cmath>

namespace flower::control {

double ActuatorLimits::Clamp(double u) const {
  return std::clamp(u, min, max);
}

double ActuatorLimits::Quantize(double u) const {
  u = Clamp(u);
  if (integer) u = std::clamp(std::round(u), std::ceil(min), std::floor(max));
  return u;
}

}  // namespace flower::control
