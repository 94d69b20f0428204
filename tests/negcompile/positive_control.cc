// MUST COMPILE: control for the negative-compile suite.
//
// Performs, with a legitimate DirectPhase token (SerialPhase is one of its
// two leaves), exactly the operations the sibling *.cc files attempt with an
// ExecutePhase. If this file ever stops compiling, the negative tests are
// failing for the wrong reason (broken headers, stale include paths) and
// their WILL_FAIL results are meaningless.

#include <span>
#include <string>

#include "src/devices/pic.h"
#include "src/mem/frame_pool.h"
#include "src/net/network.h"
#include "src/util/logging.h"
#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion {

void Control(const SerialPhase& sp, SimClock& clock, net::VirtualSwitch& sw,
             mem::FramePool& pool, net::Frame frame, net::Frame fabric_frame,
             mem::HostFrame f, net::FrameSink& sink,
             std::span<const net::Frame> frames, devices::InterruptController& pic) {
  clock.ScheduleAt(sp, 100, [](const SerialPhase&) {});
  pic.RaiseIpi(sp, 0b0110);
  sw.Send(sp, std::move(frame));
  sw.DeliverFromFabric(sp, std::move(fabric_frame), 0);
  pool.DecRefImmediate(sp, f);
  internal::WriteLogText(sp, std::string("direct log line"));
  sink.OnFrames(sp, frames);
}

}  // namespace hyperion
