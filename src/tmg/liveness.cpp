#include "tmg/liveness.h"

#include "tmg/csr.h"

namespace ermes::tmg {

LivenessResult check_liveness(const MarkedGraph& tmg) {
  LivenessResult result;
  result.live = !find_zero_token_cycle(tmg, &result.dead_cycle);
  return result;
}

}  // namespace ermes::tmg
