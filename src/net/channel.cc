#include "src/net/channel.h"

#include "src/base/bits.h"
#include "src/core/timer_facility.h"

namespace twheel::net {

std::unique_ptr<TimerService> MakeNetworkClock(const ChannelConfig& link) {
  FacilityConfig config;
  config.scheme = SchemeId::kScheme6HashedUnsorted;
  config.wheel_size = NextPowerOfTwo(ClampDelays(link).delay_hi + 1);
  return MakeTimerService(config);
}

}  // namespace twheel::net
