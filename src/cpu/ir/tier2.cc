#include "src/cpu/ir/tier2.h"

#include <array>

#include "src/cpu/exec_core.h"

namespace hyperion::cpu::ir {

namespace {

using isa::AluOp;
using isa::Opcode;

// Micro-ops with no side effects beyond a register write: candidates for
// dead-write elimination and transparent to the scratch-CSR elision scan.
bool PureOp(T2Op op) {
  switch (op) {
    case T2Op::kNop:
    case T2Op::kMovImm:
    case T2Op::kMov:
    case T2Op::kAluRR:
    case T2Op::kAluRI:
      return true;
    default:
      return false;
  }
}

bool Commutative(AluOp op) {
  switch (op) {
    case AluOp::kAdd:
    case AluOp::kAnd:
    case AluOp::kOr:
    case AluOp::kXor:
    case AluOp::kMul:
    case AluOp::kMulhu:
      return true;
    default:
      return false;
  }
}

// Per-register known-constant lattice, walked linearly over the unit. Facts
// are sound for every execution because a unit is entered only at op 0 and
// left only through exits (never re-entered mid-stream), and an exit aborts
// the pass before any fact derived later could be consumed.
struct ConstState {
  std::array<bool, 16> known{};
  std::array<uint32_t, 16> val{};

  ConstState() {
    known[0] = true;  // r0 is architecturally zero
    val[0] = 0;
  }

  void Kill(uint8_t rd) {
    if (rd != 0) {
      known[rd] = false;
    }
  }
  void Set(uint8_t rd, uint32_t v) {
    if (rd != 0) {
      known[rd] = true;
      val[rd] = v;
    }
  }
};

Tier2Op MakeNop(uint32_t va) {
  Tier2Op o;
  o.op = T2Op::kNop;
  o.aux = 1;
  o.va = va;
  return o;
}

// Lifts one guest instruction at `va` (trace successor `next_va`) into a
// micro-op, folding through the abstract state. Returns false when the
// instruction cannot be lifted (the caller abandons the compilation).
bool Lift(const isa::Instruction& in, uint32_t va, uint32_t next_va,
          ConstState& st, Tier2Unit& unit) {
  Tier2Op o;
  o.va = va;
  switch (in.opcode) {
    case Opcode::kOp: {
      auto f = static_cast<AluOp>(in.funct);
      bool ak = st.known[in.rs1];
      bool bk = st.known[in.rs2];
      if (in.rd == 0) {
        unit.ops.push_back(MakeNop(va));
        ++unit.dead;
        return true;
      }
      if (ak && bk) {
        uint32_t res = ExecCore::Alu(f, st.val[in.rs1], st.val[in.rs2]);
        o.op = T2Op::kMovImm;
        o.rd = in.rd;
        o.imm = static_cast<int32_t>(res);
        st.Set(in.rd, res);
        ++unit.folds;
        unit.ops.push_back(o);
        return true;
      }
      if (bk || (ak && Commutative(f))) {
        uint8_t reg = bk ? in.rs1 : in.rs2;
        uint32_t c = bk ? st.val[in.rs2] : st.val[in.rs1];
        if (f == AluOp::kAdd && c == 0) {
          o.op = T2Op::kMov;
          o.rd = in.rd;
          o.rs1 = reg;
        } else {
          o.op = T2Op::kAluRI;
          o.funct = in.funct;
          o.rd = in.rd;
          o.rs1 = reg;
          o.imm = static_cast<int32_t>(c);
        }
        if (o.op == T2Op::kMov && st.known[reg]) {
          st.Set(in.rd, st.val[reg]);
        } else {
          st.Kill(in.rd);
        }
        unit.ops.push_back(o);
        return true;
      }
      o.op = T2Op::kAluRR;
      o.funct = in.funct;
      o.rd = in.rd;
      o.rs1 = in.rs1;
      o.rs2 = in.rs2;
      st.Kill(in.rd);
      unit.ops.push_back(o);
      return true;
    }
    case Opcode::kOpImm: {
      auto f = static_cast<AluOp>(in.funct);
      if (in.rd == 0) {
        unit.ops.push_back(MakeNop(va));
        ++unit.dead;
        return true;
      }
      if (st.known[in.rs1]) {
        uint32_t res =
            ExecCore::Alu(f, st.val[in.rs1], static_cast<uint32_t>(in.imm));
        o.op = T2Op::kMovImm;
        o.rd = in.rd;
        o.imm = static_cast<int32_t>(res);
        st.Set(in.rd, res);
        ++unit.folds;
      } else if (f == AluOp::kAdd && in.imm == 0) {
        o.op = T2Op::kMov;
        o.rd = in.rd;
        o.rs1 = in.rs1;
        st.Kill(in.rd);
      } else {
        o.op = T2Op::kAluRI;
        o.funct = in.funct;
        o.rd = in.rd;
        o.rs1 = in.rs1;
        o.imm = in.imm;
        st.Kill(in.rd);
      }
      unit.ops.push_back(o);
      return true;
    }
    case Opcode::kLui:
      if (in.rd == 0) {
        unit.ops.push_back(MakeNop(va));
        ++unit.dead;
        return true;
      }
      o.op = T2Op::kMovImm;
      o.rd = in.rd;
      o.imm = in.imm;
      st.Set(in.rd, static_cast<uint32_t>(in.imm));
      unit.ops.push_back(o);
      return true;
    case Opcode::kAuipc: {
      // The trace pins this instruction's va, so the pc-relative value is a
      // compile-time constant.
      if (in.rd == 0) {
        unit.ops.push_back(MakeNop(va));
        ++unit.dead;
        return true;
      }
      uint32_t res = va + static_cast<uint32_t>(in.imm);
      o.op = T2Op::kMovImm;
      o.rd = in.rd;
      o.imm = static_cast<int32_t>(res);
      st.Set(in.rd, res);
      ++unit.folds;
      unit.ops.push_back(o);
      return true;
    }
    case Opcode::kJal:
      o.op = T2Op::kJal;
      o.rd = in.rd;
      o.imm = static_cast<int32_t>(va + static_cast<uint32_t>(in.imm));
      o.aux = next_va;
      st.Set(in.rd, va + 4);
      unit.ops.push_back(o);
      return true;
    case Opcode::kJalr:
      if (st.known[in.rs1]) {
        // Constant-target indirect jump (e.g. a return through an in-trace
        // link register): becomes a direct jump. The fact is derived from
        // in-trace defs, so every execution reaching this op agrees.
        o.op = T2Op::kJal;
        o.rd = in.rd;
        o.imm = static_cast<int32_t>(
            (st.val[in.rs1] + static_cast<uint32_t>(in.imm)) & ~3u);
        ++unit.folds;
      } else {
        o.op = T2Op::kJalr;
        o.rd = in.rd;
        o.rs1 = in.rs1;
        o.imm = in.imm;
      }
      o.aux = next_va;
      st.Set(in.rd, va + 4);
      unit.ops.push_back(o);
      return true;
    case Opcode::kBranch:
      o.op = T2Op::kBranch;
      o.funct = in.funct;
      o.rs1 = in.rs1;
      o.rs2 = in.rs2;
      o.imm = static_cast<int32_t>(va + static_cast<uint32_t>(in.imm));
      o.aux = next_va;
      unit.ops.push_back(o);
      return true;
    case Opcode::kCsrrw:
    case Opcode::kCsrrs:
    case Opcode::kCsrrc:
      // Only the scratch CSR may retire inline: anything else could move
      // status/timecmp out from under the executor's hoisted checks.
      if (in.imm != static_cast<int32_t>(isa::Csr::kScratch)) {
        return false;
      }
      o.op = T2Op::kCsrScratch;
      o.funct = static_cast<uint8_t>(in.opcode == Opcode::kCsrrw   ? 0
                                     : in.opcode == Opcode::kCsrrs ? 1
                                                                   : 2);
      o.rd = in.rd;
      o.rs1 = in.rs1;
      st.Kill(in.rd);
      unit.ops.push_back(o);
      return true;
    case Opcode::kLw:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kAmoSwap:
    case Opcode::kAmoAdd:
      st.Kill(in.rd);
      [[fallthrough]];
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb:
      o.op = T2Op::kFallback;
      o.imm = static_cast<int32_t>(unit.fallback.size());
      unit.fallback.push_back(in);
      unit.ops.push_back(o);
      return true;
    default:
      // Privileged / environment instructions never appear inside a
      // traceable superblock; refuse defensively rather than mis-lift.
      return false;
  }
}

// Backward dead-write elimination. Liveness resets to all-live at every op
// that can leave the unit with architectural state observable, so a trap or
// off-trace exit always sees the same register file the interpreter would.
void EliminateDeadWrites(Tier2Unit& unit) {
  std::array<bool, 16> live;
  live.fill(true);
  for (size_t n = unit.ops.size(); n-- > 0;) {
    Tier2Op& o = unit.ops[n];
    switch (o.op) {
      case T2Op::kNop:
        break;
      case T2Op::kMovImm:
      case T2Op::kMov:
      case T2Op::kAluRR:
      case T2Op::kAluRI: {
        if (o.rd != 0 && !live[o.rd]) {
          uint32_t va = o.va;
          o = MakeNop(va);
          ++unit.dead;
          break;
        }
        if (o.rd != 0) {
          live[o.rd] = false;
        }
        if (o.op == T2Op::kMov || o.op == T2Op::kAluRI) {
          live[o.rs1] = true;
        } else if (o.op == T2Op::kAluRR) {
          live[o.rs1] = true;
          live[o.rs2] = true;
        }
        break;
      }
      default:
        live.fill(true);
        break;
    }
  }
}

// Demotes a scratch-CSR write that is provably overwritten before any read
// — csrrw rd=r0 followed by another csrrw rd=r0 with nothing but pure ops
// (and no seam) between — to a kPrivGuard. The second write must also
// discard the old value (rd = r0), since csrrw with rd != r0 observes the
// first write through its read-back.
void ElideDeadScratchWrites(Tier2Unit& unit) {
  for (size_t i = 0; i < unit.ops.size(); ++i) {
    Tier2Op& o = unit.ops[i];
    if (o.op != T2Op::kCsrScratch || o.funct != 0 || o.rd != 0) {
      continue;
    }
    size_t j = i + 1;
    while (j < unit.ops.size() && PureOp(unit.ops[j].op)) {
      ++j;
    }
    if (j < unit.ops.size() && unit.ops[j].op == T2Op::kCsrScratch &&
        unit.ops[j].funct == 0 && unit.ops[j].rd == 0) {
      o.op = T2Op::kPrivGuard;
      o.rs1 = 0;
      ++unit.csr_elided;
    }
  }
}

// Collapses adjacent kNops into counted retirements: a run of eliminated
// instructions costs one dispatch, not one each. Adjacency never spans a
// seam or a barrier (those are distinct ops), so retirement order relative
// to every exit point is preserved.
void CompactNops(Tier2Unit& unit) {
  std::vector<Tier2Op> out;
  out.reserve(unit.ops.size());
  for (const Tier2Op& o : unit.ops) {
    if (o.op == T2Op::kNop && !out.empty() && out.back().op == T2Op::kNop) {
      out.back().aux += o.aux;
    } else {
      out.push_back(o);
    }
  }
  unit.ops = std::move(out);
}

}  // namespace

std::optional<Tier2Unit> Compile(const Tier2Input& input) {
  const size_t n = input.instrs.size();
  if (n == 0 || input.pieces.empty()) {
    return std::nullopt;
  }
  // Pieces must tile [0, n) in order — they anchor every instruction's va.
  uint32_t expect = 0;
  for (const Tier2Input::Piece& p : input.pieces) {
    if (p.begin != expect || p.end <= p.begin || p.end > n) {
      return std::nullopt;
    }
    expect = p.end;
  }
  if (expect != n) {
    return std::nullopt;
  }

  std::vector<uint32_t> va(n);
  for (const Tier2Input::Piece& p : input.pieces) {
    for (uint32_t i = p.begin; i < p.end; ++i) {
      va[i] = p.va + 4 * (i - p.begin);
    }
  }

  Tier2Unit unit;
  unit.head_va = input.head_va;
  unit.guards_elided = static_cast<uint32_t>(input.pieces.size());
  ConstState st;
  size_t piece_idx = 0;
  for (uint32_t i = 0; i < n; ++i) {
    while (piece_idx < input.pieces.size() &&
           input.pieces[piece_idx].begin == i) {
      if (input.pieces[piece_idx].seam != 0) {
        Tier2Op seam;
        seam.op = T2Op::kSeam;
        seam.va = input.pieces[piece_idx].va;
        unit.ops.push_back(seam);
      }
      ++piece_idx;
    }
    uint32_t next_va = i + 1 < n ? va[i + 1] : input.head_va;
    if (!Lift(input.instrs[i], va[i], next_va, st, unit)) {
      return std::nullopt;
    }
  }

  EliminateDeadWrites(unit);
  ElideDeadScratchWrites(unit);
  CompactNops(unit);
  return unit;
}

}  // namespace hyperion::cpu::ir
