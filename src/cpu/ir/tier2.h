// Tier-2 optimizer: lifts a hot DBT superblock into a small SSA-ish linear
// IR, optimizes it, and lowers it to a compact micro-op form the tier-2
// executor runs with fewer dispatches and memory touches per guest
// instruction than per-instruction ExecCore::Execute.
//
// Pipeline (see DESIGN.md §12):
//
//   lift      — one IR op per guest instruction, pc-relative values (auipc,
//               jal/jalr link registers, branch targets) resolved to
//               constants because the trace pins every instruction's va.
//   fold      — constant folding + copy propagation over a linear abstract
//               state (per-register known-constant lattice). Folds evaluate
//               through ExecCore::Alu, so a folded result can never diverge
//               from the interpreter.
//   dce       — backward dead-write elimination over pure ops. Liveness is
//               reset to all-live at every op that can leave the unit with
//               architectural state observable (memory ops, control
//               terminals, CSR accesses, seams), so a trap or off-trace
//               exit always sees exactly the interpreter's register file.
//   csr-elide — a supervisor scratch-CSR write that is provably overwritten
//               before any read (csrrw rd=r0 ... csrrw rd=r0, nothing but
//               pure ops and no seam between) is demoted to a kPrivGuard:
//               the privilege check and trap-and-emulate cost survive, the
//               dead write is dropped.
//   compact   — runs of eliminated ops collapse into counted kNops so dead
//               instructions cost one dispatch per run, not one each.
//
// Retirement parity: every guest instruction in the trace maps to exactly
// one micro-op retirement (counted kNops retire `aux` instructions), so
// cycles/instret — which the cross-engine differential tests compare — are
// identical to tier-1 execution. Eliminated instructions still retire; they
// just do no work.
//
// The unit records no pc guards at all (tier-1 traces pay one per chunk):
// inside a unit the logical pc is implicit in the op index, and every exit
// path writes the correct architectural pc before returning.

#ifndef SRC_CPU_IR_TIER2_H_
#define SRC_CPU_IR_TIER2_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/isa/hv32.h"

namespace hyperion::cpu::ir {

// Micro-op opcodes. Register-file ops carry their operands inline; anything
// the executor cannot retire inline falls back to ExecCore::Execute on the
// original decoded instruction (kFallback), which preserves every trap,
// MMIO, COW and dirty-logging side effect bit-for-bit.
enum class T2Op : uint8_t {
  kNop = 0,     // retire `aux` eliminated guest instructions
  kMovImm,      // rd = imm
  kMov,         // rd = rs1
  kAluRR,       // rd = Alu(funct, rs1, rs2)
  kAluRI,       // rd = Alu(funct, rs1, imm)
  kBranch,      // funct = cond; taken -> imm (absolute va), else va+4
  kJal,         // rd = va+4; jump to imm (absolute va)
  kJalr,        // rd = va+4; jump to (rs1 + imm) & ~3
  kSeam,        // former block entry: SMC / timer / interrupt window
  kCsrScratch,  // funct = 0/1/2 for csrrw/csrrs/csrrc on the scratch CSR
  kPrivGuard,   // privilege check + T&E cost of an elided dead scratch write
  kFallback,    // ExecCore::Execute(fallback[imm])
};

struct Tier2Op {
  T2Op op = T2Op::kNop;
  uint8_t funct = 0;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;
  // kNop: retirement count. kBranch/kJal/kJalr: expected next va when the
  // transfer stays on the trace (the successor op's va, or head_va for the
  // loop-closing terminal).
  uint32_t aux = 0;
  uint32_t va = 0;  // guest va of the original instruction (exit/trap pc)
};

// The compiler's view of one hot superblock: the trace's instructions plus
// the chunk structure tier-1 derived (chunk va anchors each instruction's
// guest address; seams mark former block entry points).
struct Tier2Input {
  struct Piece {
    uint32_t begin = 0;  // [begin, end) indices into instrs
    uint32_t end = 0;
    uint32_t va = 0;  // va of instrs[begin]
    uint8_t seam = 0;
  };
  uint32_t head_va = 0;
  std::vector<isa::Instruction> instrs;
  std::vector<Piece> pieces;
};

// A compiled tier-2 translation unit.
struct Tier2Unit {
  uint32_t head_va = 0;
  std::vector<Tier2Op> ops;
  // Original decoded instructions referenced by kFallback ops (imm indexes).
  std::vector<isa::Instruction> fallback;
  // Guard set for lazy mapping revalidation: one (probe va, expected gpn)
  // pair per guest code page the unit fetches from. Filled by the engine at
  // promotion or restore; a stale-epoch unit reruns only these probes.
  std::vector<std::pair<uint32_t, uint32_t>> page_map;
  uint64_t map_gen = 0;  // epoch the unit was (re)validated in

  // Optimization summary (folded into VcpuStats at promotion).
  uint32_t folds = 0;          // instructions constant-folded to kMovImm
  uint32_t dead = 0;           // pure ops eliminated as dead writes
  uint32_t csr_elided = 0;     // dead scratch-CSR writes demoted to guards
  uint32_t guards_elided = 0;  // tier-1 per-chunk pc guards removed
};

// Compiles a superblock. Returns nullopt when the trace contains an
// instruction tier-2 refuses to lift (anything that can invalidate the
// hoisted status/timecmp assumptions: non-scratch CSR accesses, privileged
// control) — the caller keeps running the tier-1 trace.
std::optional<Tier2Unit> Compile(const Tier2Input& input);

}  // namespace hyperion::cpu::ir

#endif  // SRC_CPU_IR_TIER2_H_
