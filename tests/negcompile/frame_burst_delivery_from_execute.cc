// MUST NOT COMPILE: coalesced frame delivery from inside an execute slice.
//
// FrameSink::OnFrames demands a SerialPhase token: frame delivery runs
// only from the dispatch loop's clock callbacks, where it mutates shared NIC
// state (RX rings, backlog, interrupt lines) without a lock. Invoking it
// from a worker lane would race those structures; slice code transmits via
// VirtualSwitch::TransmitBurst, which stages the frames for the barrier.

#include <span>

#include "src/net/network.h"
#include "src/util/phase.h"

namespace hyperion {

void Violation(const ExecutePhase& ep, net::FrameSink& sink,
               std::span<const net::Frame> frames) {
  sink.OnFrames(ep, frames);
}

}  // namespace hyperion
