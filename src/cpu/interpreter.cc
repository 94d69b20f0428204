#include "src/cpu/interpreter.h"

#include "src/cpu/exec_core.h"

namespace hyperion::cpu {

RunResult Interpreter::Run(VcpuContext& ctx, uint64_t max_cycles) {
  ExecCore core(ctx, this);
  CpuState& s = ctx.state;

  while (!core.exited() && core.cycles() < max_cycles) {
    core.CheckTimer();
    if (core.DeliverInterruptIfPending()) {
      if (core.exited()) {
        break;  // trap with no handler installed
      }
    }
    uint32_t word = 0;
    if (!core.Fetch(s.pc, &word)) {
      continue;  // trap vectored or exit latched
    }
    core.Execute(isa::Decode(word));
  }
  return core.Finish();
}

std::unique_ptr<ExecutionEngine> MakeInterpreter() { return std::make_unique<Interpreter>(); }

}  // namespace hyperion::cpu
