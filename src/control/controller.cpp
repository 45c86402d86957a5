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

void Controller::Reset(double initial_u) {
  last_time_ = -1.0;
  ResetLaw(initial_u);
}

Result<double> Controller::Update(SimTime now, double y) {
  if (now < last_time_) {
    std::string message = name();
    message += ": time moved backwards";
    return Status::InvalidArgument(message);
  }
  // Duplicate tick: running the law again at one instant would double
  // its gain, integral, breach or cooldown action.
  if (now == last_time_) return current_u();
  last_time_ = now;
  return Step(now, y);
}

}  // namespace flower::control
