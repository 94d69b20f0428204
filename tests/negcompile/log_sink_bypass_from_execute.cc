// MUST NOT COMPILE: writing the shared log sink from inside an execute
// slice.
//
// internal::WriteLogText demands a DirectPhase token; bypassing the
// per-slice log buffer from a worker lane would interleave log lines by
// thread timing and break the bit-identical-across-worker-counts guarantee.
// Slice logging goes through HYP_LOG, which appends to the log buffer the
// slice's ExecutePhase carries; the buffer is flushed at commit.

#include <string>

#include "src/util/logging.h"
#include "src/util/phase.h"

namespace hyperion {

void Violation(const ExecutePhase& ep) {
  internal::WriteLogText(ep, std::string("smuggled past the stage"));
}

}  // namespace hyperion
