#include "util/period.h"

namespace ermes::util {

double estimate_period(const std::vector<std::int64_t>& times) {
  return estimate_period<std::vector<std::int64_t>>(times);
}

}  // namespace ermes::util
