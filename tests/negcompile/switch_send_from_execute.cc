// MUST NOT COMPILE: direct switch transmission from inside an execute slice.
//
// VirtualSwitch::Send demands a DirectPhase token; delivering (or even
// enqueueing) a frame directly from a worker lane would order cross-VM
// traffic by thread timing. Slice code goes through Transmit(const Phase&,
// ...), which appends to the TxStage its ExecutePhase carries.

#include <utility>

#include "src/net/network.h"
#include "src/util/phase.h"

namespace hyperion {

void Violation(const ExecutePhase& ep, net::VirtualSwitch& sw, net::Frame frame) {
  sw.Send(ep, std::move(frame));
}

}  // namespace hyperion
