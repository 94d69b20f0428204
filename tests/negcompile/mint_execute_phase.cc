// MUST NOT COMPILE: minting an ExecutePhase outside the host run loop.
//
// ExecutePhase's constructor is private (friend: core::Host). If arbitrary
// code could fabricate the token, every staging-only signature in the tree
// would be decorative. The violation below passes real stages of the right
// types, so only the constructor's access can reject it. The only sources of
// phase evidence are Host's run loop (ExecutePhase/CommitPhase/SerialPhase)
// and ScopedSerialPhase, whose constructor aborts inside a slice.

#include <string>

#include "src/core/host.h"
#include "src/mem/frame_pool.h"
#include "src/net/network.h"
#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion {

void Violation() {
  ClockStage clock;
  net::TxStage tx;
  mem::PoolStage pool;
  core::WakeStage wakes;
  std::string log;
  ExecutePhase forged(0, clock, tx, pool, wakes, log);
  (void)forged;
}

}  // namespace hyperion
