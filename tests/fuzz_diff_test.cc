// Differential fuzzing: random guest programs executed on both engines
// (interpreter, DBT) and both virtualizers must leave identical
// architectural state. Programs are generated to terminate by construction:
// only forward control flow, ending in HALT.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/core/host.h"
#include "src/guest/programs.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "tests/guest_harness.h"

namespace hyperion {
namespace {

using core::Host;
using core::HostConfig;
using core::VmConfig;
using core::VmState;
using isa::AluOp;
using isa::Instruction;
using isa::Opcode;

// Generates a random terminating program of `n` instructions.
//  - ALU ops over all registers
//  - loads/stores confined to a scratch window via masked addresses: the
//    generator emits `andi` to clamp a base register before each access
//  - forward-only branches and jumps
// Register 15 (s3) is reserved as the scratch-window base and is never a
// destination, so memory accesses stay inside [0x9000, 0xB000).
constexpr uint8_t kScratchBase = 15;
constexpr uint32_t kScratchAddr = 0x9000;

std::vector<uint32_t> RandomProgram(Xoshiro256& rng, size_t n) {
  std::vector<uint32_t> words;

  auto push = [&words](const Instruction& in) {
    auto w = isa::Encode(in);
    if (w.ok()) {
      words.push_back(*w);
    }
  };

  // Destinations exclude the reserved base register.
  auto reg = [&rng]() -> uint8_t { return static_cast<uint8_t>(rng.NextBelow(15)); };
  auto src = [&rng]() -> uint8_t { return static_cast<uint8_t>(rng.NextBelow(16)); };

  // s3 = kScratchAddr (0x8000 via lui + 0x1000 via addi).
  {
    Instruction lui;
    lui.opcode = Opcode::kLui;
    lui.rd = kScratchBase;
    lui.imm = 0x8000;
    push(lui);
    Instruction addi;
    addi.opcode = Opcode::kOpImm;
    addi.funct = static_cast<uint8_t>(AluOp::kAdd);
    addi.rd = kScratchBase;
    addi.rs1 = kScratchBase;
    addi.imm = static_cast<int32_t>(kScratchAddr) - 0x8000;
    push(addi);
  }

  // Seed a few registers with random values.
  for (int i = 0; i < 6; ++i) {
    Instruction lui;
    lui.opcode = Opcode::kLui;
    lui.rd = reg();
    lui.imm = static_cast<int32_t>((rng.Next() & 0x3FFFF) << 14);
    push(lui);
    Instruction addi;
    addi.opcode = Opcode::kOpImm;
    addi.funct = static_cast<uint8_t>(AluOp::kAdd);
    addi.rd = lui.rd;
    addi.rs1 = lui.rd;
    addi.imm = static_cast<int32_t>(rng.NextBelow(0x2000)) - 0x1000;
    push(addi);
  }

  while (words.size() < n) {
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // R-type ALU
        Instruction in;
        in.opcode = Opcode::kOp;
        in.funct = static_cast<uint8_t>(rng.NextBelow(16));
        in.rd = reg();
        in.rs1 = reg();
        in.rs2 = reg();
        push(in);
        break;
      }
      case 4:
      case 5: {  // I-type ALU
        Instruction in;
        in.opcode = Opcode::kOpImm;
        in.funct = static_cast<uint8_t>(rng.NextBelow(16));
        in.rd = reg();
        in.rs1 = reg();
        in.imm = static_cast<int32_t>(rng.NextBelow(0x2000)) - 0x1000;
        push(in);
        break;
      }
      case 6:
      case 7: {  // memory access through the reserved scratch base
        static constexpr Opcode kMemOps[] = {Opcode::kLw, Opcode::kLh,  Opcode::kLhu,
                                             Opcode::kLb, Opcode::kLbu, Opcode::kSw,
                                             Opcode::kSh, Opcode::kSb};
        Instruction mem;
        mem.opcode = kMemOps[rng.NextBelow(8)];
        uint32_t align = 1;
        if (mem.opcode == Opcode::kLw || mem.opcode == Opcode::kSw) {
          align = 4;
        } else if (mem.opcode == Opcode::kLh || mem.opcode == Opcode::kLhu ||
                   mem.opcode == Opcode::kSh) {
          align = 2;
        }
        mem.rd = mem.opcode == Opcode::kSw || mem.opcode == Opcode::kSh ||
                         mem.opcode == Opcode::kSb
                     ? src()   // store data may come from any register
                     : reg();  // load destinations avoid the base
        mem.rs1 = kScratchBase;
        mem.imm = static_cast<int32_t>(rng.NextBelow(0x2000 / align)) * static_cast<int32_t>(align);
        push(mem);
        break;
      }
      case 8: {  // forward branch
        Instruction in;
        in.opcode = Opcode::kBranch;
        in.funct = static_cast<uint8_t>(rng.NextBelow(6));
        in.rs1 = src();
        in.rs2 = src();
        in.imm = static_cast<int32_t>(1 + rng.NextBelow(8)) * 4;  // forward only
        push(in);
        break;
      }
      default: {  // forward jump with link
        Instruction in;
        in.opcode = Opcode::kJal;
        in.rd = reg();
        in.imm = static_cast<int32_t>(1 + rng.NextBelow(8)) * 4;
        push(in);
        break;
      }
    }
  }
  // Branch/jump targets may point past the buffer: pad a landing zone of
  // NOPs, then HALT.
  Instruction nop;
  nop.opcode = Opcode::kOpImm;
  nop.funct = static_cast<uint8_t>(AluOp::kAdd);
  for (int i = 0; i < 9; ++i) {
    push(nop);
  }
  Instruction halt;
  halt.opcode = Opcode::kHalt;
  push(halt);
  return words;
}

// The DBT's tier axis: tier-1 only (superblock traces, no optimizer) versus
// tier-2 with a forced-low promotion threshold, so hot loops spend nearly
// all their iterations inside optimized units. Differential equality across
// this axis is what proves the optimizer preserves architectural semantics.
cpu::DbtOptions Tier1Only() {
  cpu::DbtOptions o;
  o.enable_tier2 = false;
  return o;
}

cpu::DbtOptions Tier2Hot() {
  cpu::DbtOptions o;
  o.tier2_threshold = 2;
  return o;
}

// Like RandomProgram, but wraps the random body in a counted hot loop so the
// DBT forms traces and (on the tier-2 axis) optimized units over it.
// Register 14 (s2) is additionally reserved as the loop counter; a pad of
// NOPs before the loop latch keeps the body's forward jumps (<= 8 instrs)
// from skipping the decrement.
std::vector<uint32_t> RandomLoopedProgram(Xoshiro256& rng, size_t n) {
  constexpr uint8_t kLoopCounter = 14;
  std::vector<uint32_t> words = RandomProgram(rng, n);
  // Strip RandomProgram's NOP pad + HALT tail; rebuild around the loop.
  words.resize(words.size() - 10);
  std::vector<uint32_t> out;
  auto push = [&out](const Instruction& in) {
    auto w = isa::Encode(in);
    if (w.ok()) {
      out.push_back(*w);
    }
  };
  Instruction li_cnt;
  li_cnt.opcode = Opcode::kOpImm;
  li_cnt.funct = static_cast<uint8_t>(AluOp::kAdd);
  li_cnt.rd = kLoopCounter;
  li_cnt.imm = 40;  // iterations: far past heat + tier-2 thresholds
  push(li_cnt);
  const size_t body_start = out.size();
  // The body: random code with rd != loop counter (and != scratch base).
  for (uint32_t w : words) {
    Instruction in = isa::Decode(w);
    bool writes = in.opcode == Opcode::kOp || in.opcode == Opcode::kOpImm ||
                  in.opcode == Opcode::kLui || in.opcode == Opcode::kJal ||
                  in.opcode == Opcode::kLw || in.opcode == Opcode::kLh ||
                  in.opcode == Opcode::kLhu || in.opcode == Opcode::kLb ||
                  in.opcode == Opcode::kLbu;
    if (writes && in.rd == kLoopCounter) {
      in.rd = 4;  // retarget to a0: keeps the instruction, guards the counter
    }
    auto rw = isa::Encode(in);
    if (rw.ok()) {
      out.push_back(*rw);
    }
  }
  Instruction nop;
  nop.opcode = Opcode::kOpImm;
  nop.funct = static_cast<uint8_t>(AluOp::kAdd);
  for (int i = 0; i < 8; ++i) {
    push(nop);  // landing zone: forward jumps resolve before the latch
  }
  Instruction dec;
  dec.opcode = Opcode::kOpImm;
  dec.funct = static_cast<uint8_t>(AluOp::kAdd);
  dec.rd = kLoopCounter;
  dec.rs1 = kLoopCounter;
  dec.imm = -1;
  push(dec);
  Instruction latch;
  latch.opcode = Opcode::kBranch;
  latch.funct = static_cast<uint8_t>(isa::BranchCond::kNe);
  latch.rs1 = kLoopCounter;
  latch.rs2 = 0;
  latch.imm = -static_cast<int32_t>(4 * (out.size() - body_start));
  push(latch);
  for (int i = 0; i < 9; ++i) {
    push(nop);
  }
  Instruction halt;
  halt.opcode = Opcode::kHalt;
  push(halt);
  return out;
}

struct MachineSnapshot {
  std::array<uint32_t, 16> regs;
  uint32_t pc;
  uint64_t instret;
  uint32_t mem_crc;
};

MachineSnapshot Execute(const std::vector<uint32_t>& words, mmu::PagingMode paging,
                        cpu::EngineKind engine, cpu::DbtOptions dbt = {},
                        cpu::VcpuStats* stats_out = nullptr) {
  testing::TestMachine m(1u << 20, paging, engine, cpu::VirtMode::kHardwareAssist, dbt);
  // Load raw words at the reset pc.
  uint32_t addr = isa::kResetPc;
  for (uint32_t w : words) {
    EXPECT_TRUE(m.memory().WriteU32(addr, w).ok());
    addr += 4;
  }
  m.ctx().state.pc = isa::kResetPc;
  auto r = m.Run(5'000'000);
  EXPECT_EQ(r.reason, cpu::ExitReason::kHalt);

  MachineSnapshot snap;
  snap.regs = m.ctx().state.regs;
  snap.pc = m.ctx().state.pc;
  snap.instret = m.ctx().state.instret;
  // Checksum the scratch window the program may have written.
  std::vector<uint8_t> scratch(0x2000);
  EXPECT_TRUE(m.memory().Read(kScratchAddr, scratch.data(), scratch.size()).ok());
  snap.mem_crc = Crc32(scratch.data(), scratch.size());
  if (stats_out != nullptr) {
    *stats_out = m.ctx().stats;
  }
  return snap;
}

TEST(FuzzDiffTest, EnginesAgreeOnRandomPrograms) {
  Xoshiro256 rng(0xF00DF00D);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint32_t> words = RandomProgram(rng, 80 + rng.NextBelow(200));
    MachineSnapshot interp =
        Execute(words, mmu::PagingMode::kNested, cpu::EngineKind::kInterpreter);
    MachineSnapshot dbt = Execute(words, mmu::PagingMode::kNested, cpu::EngineKind::kDbt);
    ASSERT_EQ(interp.regs, dbt.regs) << "trial " << trial;
    ASSERT_EQ(interp.pc, dbt.pc) << "trial " << trial;
    ASSERT_EQ(interp.instret, dbt.instret) << "trial " << trial;
    ASSERT_EQ(interp.mem_crc, dbt.mem_crc) << "trial " << trial;
  }
}

// The tier axis over looped random programs: the interpreter, the tier-1-only
// DBT, and the tier-2 DBT with a forced-low promotion threshold must agree on
// every architectural bit -- including instret, since the optimizer's folded
// and eliminated micro-ops must still retire their original instructions.
// Non-vacuity: the counted loops are hot enough that tier-2 units actually
// form and execute across the trial set.
TEST(FuzzDiffTest, TiersAgreeOnRandomLoopedPrograms) {
  Xoshiro256 rng(0x7EE27EE2);
  uint64_t total_promotions = 0;
  uint64_t total_tier2_execs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint32_t> words = RandomLoopedProgram(rng, 60 + rng.NextBelow(120));
    MachineSnapshot interp =
        Execute(words, mmu::PagingMode::kNested, cpu::EngineKind::kInterpreter);
    MachineSnapshot tier1 =
        Execute(words, mmu::PagingMode::kNested, cpu::EngineKind::kDbt, Tier1Only());
    cpu::VcpuStats stats;
    MachineSnapshot tier2 = Execute(words, mmu::PagingMode::kNested, cpu::EngineKind::kDbt,
                                    Tier2Hot(), &stats);
    ASSERT_EQ(interp.regs, tier1.regs) << "trial " << trial;
    ASSERT_EQ(interp.pc, tier1.pc) << "trial " << trial;
    ASSERT_EQ(interp.instret, tier1.instret) << "trial " << trial;
    ASSERT_EQ(interp.mem_crc, tier1.mem_crc) << "trial " << trial;
    ASSERT_EQ(interp.regs, tier2.regs) << "trial " << trial;
    ASSERT_EQ(interp.pc, tier2.pc) << "trial " << trial;
    ASSERT_EQ(interp.instret, tier2.instret) << "trial " << trial;
    ASSERT_EQ(interp.mem_crc, tier2.mem_crc) << "trial " << trial;
    total_promotions += stats.tier2_promotions;
    total_tier2_execs += stats.tier2_executions;
  }
  EXPECT_GT(total_promotions, 0u);
  EXPECT_GT(total_tier2_execs, 0u);
}

TEST(FuzzDiffTest, VirtualizersAgreeOnRandomPrograms) {
  Xoshiro256 rng(0xCAFE1234);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<uint32_t> words = RandomProgram(rng, 80 + rng.NextBelow(150));
    MachineSnapshot shadow =
        Execute(words, mmu::PagingMode::kShadow, cpu::EngineKind::kInterpreter);
    MachineSnapshot nested =
        Execute(words, mmu::PagingMode::kNested, cpu::EngineKind::kInterpreter);
    ASSERT_EQ(shadow.regs, nested.regs) << "trial " << trial;
    ASSERT_EQ(shadow.mem_crc, nested.mem_crc) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Adversarial differential tests targeting the DBT fast paths: block
// chaining, hot-trace superblocks, and the per-vCPU translation fast path.
// Each runs an assembled program under both engines and requires identical
// architectural state.
// ---------------------------------------------------------------------------

MachineSnapshot ExecuteAsm(const std::string& source, mmu::PagingMode paging,
                           cpu::EngineKind engine, uint64_t max_cycles = 100'000'000,
                           cpu::DbtOptions dbt = {}) {
  testing::TestMachine m(8u << 20, paging, engine, cpu::VirtMode::kHardwareAssist, dbt);
  m.Load(source);
  auto r = m.Run(max_cycles);
  EXPECT_EQ(r.reason, cpu::ExitReason::kHalt) << "engine " << static_cast<int>(engine);

  MachineSnapshot snap;
  snap.regs = m.ctx().state.regs;
  snap.pc = m.ctx().state.pc;
  snap.instret = m.ctx().state.instret;
  std::vector<uint8_t> scratch(0x2000);
  EXPECT_TRUE(m.memory().Read(kScratchAddr, scratch.data(), scratch.size()).ok());
  snap.mem_crc = Crc32(scratch.data(), scratch.size());
  return snap;
}

TEST(FuzzDiffAdversarialTest, SmcRewritesChainedSuccessor) {
  // The caller loop chains to (and eventually splices a trace through) the
  // victim function, then keeps rewriting the victim's first instruction
  // between calls. A DBT that follows a stale chain link or trace would add
  // the wrong increment; the interpreter is the oracle, down to instret.
  const char* program = R"(
_start:
    li sp, 0x40000
    li s0, 200
    li a0, 0
    la s1, victim
    la s2, patch_a
    la s3, patch_b
loop:
    call victim
    andi t0, s0, 1
    beqz t0, even
    lw t1, 0(s3)
    j patch
even:
    lw t1, 0(s2)
patch:
    sw t1, 0(s1)          ; rewrite victim's first instruction
    addi s0, s0, -1
    bnez s0, loop
    halt
victim:
    addi a0, a0, 1
    ret
patch_a:
    addi a0, a0, 1
patch_b:
    addi a0, a0, 2
  )";
  MachineSnapshot interp =
      ExecuteAsm(program, mmu::PagingMode::kNested, cpu::EngineKind::kInterpreter);
  MachineSnapshot dbt = ExecuteAsm(program, mmu::PagingMode::kNested, cpu::EngineKind::kDbt);
  EXPECT_EQ(interp.regs, dbt.regs);
  EXPECT_EQ(interp.pc, dbt.pc);
  EXPECT_EQ(interp.instret, dbt.instret);
  EXPECT_GT(dbt.regs[isa::kA0], 200u);  // both increments actually landed
  // SMC under tier-2: the forced-low threshold promotes the caller loop (and
  // the victim) before the first rewrite, so the page-write guard must tear
  // down an optimized unit, not just a chained block.
  MachineSnapshot tier2 = ExecuteAsm(program, mmu::PagingMode::kNested,
                                     cpu::EngineKind::kDbt, 100'000'000, Tier2Hot());
  EXPECT_EQ(interp.regs, tier2.regs);
  EXPECT_EQ(interp.pc, tier2.pc);
  EXPECT_EQ(interp.instret, tier2.instret);
}

TEST(FuzzDiffAdversarialTest, SfenceAndPtbrSwitchLandMidTrace) {
  // A hot inner loop (which the DBT promotes to a superblock) is repeatedly
  // interrupted by SFENCE and a PTBR rewrite under active paging. Mapping
  // epochs must invalidate lazily without perturbing architectural state.
  const char* program = R"(
.org 0x1000
.equ PT_ROOT, 0x80000
_start:
    li t0, PT_ROOT
    li t1, 0x7F           ; identity 4MiB superpage V|R|W|X|U|A|D
    sw t1, 0(t0)
    li t1, 0x80
    csrw ptbr, t1
    csrr t1, status
    ori t1, t1, 0x10      ; STATUS.PG
    csrw status, t1
    li s0, 30
    li a0, 0
outer:
    li t0, 0x9000
    li s1, 400
inner:
    sw s1, 0(t0)
    lw t1, 0(t0)
    add a0, a0, t1
    addi s1, s1, -1
    bnez s1, inner
    sfence                ; cut chains, bump the mapping epoch mid-trace
    csrr t2, ptbr
    csrw ptbr, t2         ; address-space switch to the same root
    addi s0, s0, -1
    bnez s0, outer
    halt
  )";
  MachineSnapshot interp =
      ExecuteAsm(program, mmu::PagingMode::kNested, cpu::EngineKind::kInterpreter);
  MachineSnapshot dbt = ExecuteAsm(program, mmu::PagingMode::kNested, cpu::EngineKind::kDbt);
  EXPECT_EQ(interp.regs, dbt.regs);
  EXPECT_EQ(interp.pc, dbt.pc);
  EXPECT_EQ(interp.instret, dbt.instret);
  EXPECT_EQ(interp.mem_crc, dbt.mem_crc);
  MachineSnapshot shadow =
      ExecuteAsm(program, mmu::PagingMode::kShadow, cpu::EngineKind::kDbt);
  EXPECT_EQ(interp.regs, shadow.regs);
  EXPECT_EQ(interp.mem_crc, shadow.mem_crc);
  // Mid-trace sfence under tier-2: the inner loop promotes within the first
  // two episodes, so every later sfence + ptbr rewrite lands against a live
  // optimized unit and must revalidate (or kill) it without state skew.
  MachineSnapshot tier2 = ExecuteAsm(program, mmu::PagingMode::kNested,
                                     cpu::EngineKind::kDbt, 100'000'000, Tier2Hot());
  EXPECT_EQ(interp.regs, tier2.regs);
  EXPECT_EQ(interp.pc, tier2.pc);
  EXPECT_EQ(interp.instret, tier2.instret);
  EXPECT_EQ(interp.mem_crc, tier2.mem_crc);
  MachineSnapshot tier1 = ExecuteAsm(program, mmu::PagingMode::kNested,
                                     cpu::EngineKind::kDbt, 100'000'000, Tier1Only());
  EXPECT_EQ(interp.regs, tier1.regs);
  EXPECT_EQ(interp.instret, tier1.instret);
}

TEST(FuzzDiffAdversarialTest, InterruptsAssertedBetweenChainedBlocks) {
  // Timer interrupts preempt a chained/traced spin loop. The engines take
  // the interrupt at different cycle counts (translation costs differ), so
  // instret is NOT compared; every architectural register and all memory
  // must still converge because the handler's work is count-based: it fires
  // exactly five times, then disarms and releases the spinner via a flag.
  const char* program = R"(
_start:
    la t0, handler
    csrw tvec, t0
    li t1, 400
    csrw timecmp, t1
    csrr t1, status
    ori t1, t1, 1         ; STATUS.IE
    csrw status, t1
    li s0, 0x9000         ; count
    li s1, 0x9004         ; flag
spin:
    lw t0, 0(s1)
    beqz t0, spin
    lw a0, 0(s0)          ; a0 = final count
    halt
handler:
    li t2, 0x9000
    lw t1, 0(t2)
    addi t1, t1, 1
    sw t1, 0(t2)
    li t3, 5
    blt t1, t3, rearm
    li t3, 1
    sw t3, 4(t2)          ; release the spinner
    li t3, 0
    csrw timecmp, t3      ; disarm
    sret
rearm:
    li t3, 400
    csrw timecmp, t3
    sret
  )";
  MachineSnapshot interp =
      ExecuteAsm(program, mmu::PagingMode::kNested, cpu::EngineKind::kInterpreter);
  MachineSnapshot dbt = ExecuteAsm(program, mmu::PagingMode::kNested, cpu::EngineKind::kDbt);
  EXPECT_EQ(interp.regs, dbt.regs);
  EXPECT_EQ(interp.pc, dbt.pc);
  EXPECT_EQ(interp.mem_crc, dbt.mem_crc);
  EXPECT_EQ(dbt.regs[isa::kA0], 5u);
  // Timer interrupts must also preempt a tier-2 unit at its seams: the spin
  // loop promotes almost immediately at the forced-low threshold, so every
  // handler entry exits an optimized unit mid-flight.
  MachineSnapshot tier2 = ExecuteAsm(program, mmu::PagingMode::kNested,
                                     cpu::EngineKind::kDbt, 100'000'000, Tier2Hot());
  EXPECT_EQ(interp.regs, tier2.regs);
  EXPECT_EQ(interp.pc, tier2.pc);
  EXPECT_EQ(interp.mem_crc, tier2.mem_crc);
  EXPECT_EQ(tier2.regs[isa::kA0], 5u);
}

// ---------------------------------------------------------------------------
// SMP differential fuzzing: seeded random compute blocks spliced into a
// multi-vCPU skeleton that boots paging on every hart, runs TLB-shootdown
// rounds (so IPIs land while workers are mid-block — mid-trace for the DBT),
// and publishes per-hart results through an amoadd accumulator. For a fixed
// (seed, vcpus) the final per-vCPU register files, RAM regions, and IPI /
// shootdown counters must be identical across engine × paging × virt.
//
// Determinism notes baked into the skeleton:
//  * instret is NOT compared (engines take interrupts at different cycle
//    counts), and neither are worker pcs (a worker stopped by vCPU 0's
//    shutdown may sit on `halt` or one instruction before it).
//  * random blocks touch only a0-a3 plus loads/stores through s0 (a private
//    per-hart scratch page) and AMO addresses in t1; the IPI handler
//    saves/restores t0-t3, so a block is transparent to interrupt delivery.
//  * each hart zeroes its handler save area before raising its done flag, so
//    no timing-dependent bytes survive into the digested RAM.
// ---------------------------------------------------------------------------

// One straight-line compute block over a0-a3: ALU ops, loads/stores through
// s0 (per-hart scratch page), and amoswap/amoadd through t1. Ends in `ret`.
std::string RandomSmpBlock(Xoshiro256& rng, size_t n) {
  std::ostringstream out;
  out << "run_block:\n";
  auto emit = [&out](const Instruction& in) {
    auto w = isa::Encode(in);
    if (w.ok()) {
      out << "    .word " << *w << "\n";
    }
  };
  auto areg = [&rng]() -> uint8_t { return static_cast<uint8_t>(4 + rng.NextBelow(4)); };
  for (size_t i = 0; i < n; ++i) {
    switch (rng.NextBelow(8)) {
      case 0:
      case 1:
      case 2: {  // R-type ALU
        Instruction in;
        in.opcode = Opcode::kOp;
        in.funct = static_cast<uint8_t>(rng.NextBelow(16));
        in.rd = areg();
        in.rs1 = areg();
        in.rs2 = areg();
        emit(in);
        break;
      }
      case 3:
      case 4: {  // I-type ALU
        Instruction in;
        in.opcode = Opcode::kOpImm;
        in.funct = static_cast<uint8_t>(rng.NextBelow(16));
        in.rd = areg();
        in.rs1 = areg();
        in.imm = static_cast<int32_t>(rng.NextBelow(0x2000)) - 0x1000;
        emit(in);
        break;
      }
      case 5:
      case 6: {  // word load/store through the private scratch base
        Instruction in;
        in.opcode = rng.NextBelow(2) ? Opcode::kLw : Opcode::kSw;
        in.rd = areg();
        in.rs1 = 12;  // s0
        in.imm = static_cast<int32_t>(rng.NextBelow(0x400)) * 4;
        emit(in);
        break;
      }
      default: {  // AMO on a private scratch word: addi t1, s0, off; amo* a, t1, a
        Instruction addr;
        addr.opcode = Opcode::kOpImm;
        addr.funct = static_cast<uint8_t>(AluOp::kAdd);
        addr.rd = 9;  // t1
        addr.rs1 = 12;
        addr.imm = static_cast<int32_t>(rng.NextBelow(0x400)) * 4;
        emit(addr);
        Instruction amo;
        amo.opcode = rng.NextBelow(2) ? Opcode::kAmoSwap : Opcode::kAmoAdd;
        amo.rd = areg();
        amo.rs1 = 9;
        amo.rs2 = areg();
        emit(amo);
        break;
      }
    }
  }
  out << "    ret\n";
  return out.str();
}

// The SMP skeleton with the seeded block spliced in. Progress is a pass/fail
// flag (1 = every hart observed the final remapped probe value), not a sum,
// so the host-side assertion is seed-independent.
std::string SmpFuzzProgram(uint64_t seed, uint32_t vcpus) {
  Xoshiro256 rng(seed);
  constexpr uint32_t kRounds = 3;
  const uint32_t sibling_mask = ((1u << vcpus) - 1u) & ~1u;
  std::string block = RandomSmpBlock(rng, 24 + rng.NextBelow(24));
  // Per-hart initial a0-a3: base + hartid * stride, both seeded.
  uint32_t base[4];
  uint32_t stride[4];
  for (int i = 0; i < 4; ++i) {
    base[i] = static_cast<uint32_t>(rng.Next());
    stride[i] = static_cast<uint32_t>(rng.Next());
  }
  std::ostringstream out;
  out << R"(.org 0x1000
.equ HC_SHUTDOWN, 4
.equ HC_START_VCPU, 10
.equ PIC_BASE, 0xF0001000
.equ PT_ROOT, 0x80000
.equ VA_PAGE, 0x400000
    j _start
.align 4096
progress:
    .word 0
bar_count:
    .word 0
bar_sense:
    .word 0
rounds_done:
    .word 0
shared:
    .word 0
acks:
    .space 64
results:
    .space 64
done_flags:
    .space 64
save:
    .space 256
.align 4096
_start:
    li t0, PT_ROOT
    li t1, 0x7F              ; identity 4MiB superpage V|R|W|X|U|A|D
    sw t1, 0(t0)
    li t1, 0xF0000067        ; MMIO window superpage V|R|W|A|D
    li t2, PT_ROOT + 960*4
    sw t1, 0(t2)
    li t1, 0x82001           ; L1[1] -> L2 table at page 0x82
    li t2, PT_ROOT + 4
    sw t1, 0(t2)
    li t0, 0x82000
    li t1, 0x30006F          ; VA_PAGE -> pa 0x300000 initially
    sw t1, 0(t0)
    li t0, 0x300000
    li t1, 0xB0B0
    sw t1, 0(t0)
    li s0, 1
start_loop:
    li t0, )" << vcpus << R"(
    bgeu s0, t0, boot_done
    li a0, HC_START_VCPU
    mv a1, s0
    la a2, secondary
    mv a3, s0
    hcall
    addi s0, s0, 1
    j start_loop
boot_done:
    li a0, 0
secondary:
    mv s1, a0                ; s1 = hartid
    li t1, 0x80
    csrw ptbr, t1
    la t0, ipi_handler
    csrw tvec, t0
    la gp, save
    slli t0, s1, 4
    add gp, gp, t0
    li s3, 0                 ; barrier sense
    li s0, 0x200000          ; s0 = private scratch page
    slli t0, s1, 12
    add s0, s0, t0
)";
  for (int i = 0; i < 4; ++i) {
    out << "    li t0, " << stride[i] << "\n"
        << "    mul t0, t0, s1\n"
        << "    li a" << i << ", " << base[i] << "\n"
        << "    add a" << i << ", a" << i << ", t0\n";
  }
  out << R"(    csrr t0, status
    ori t0, t0, 0x11         ; STATUS.PG | STATUS.IE
    csrw status, t0

    jal barrier
    li t0, VA_PAGE           ; warm a TLB entry for the probe VA
    lw t1, 0(t0)
    jal barrier

    bnez s1, worker_path
    jal run_block            ; vCPU 0: one block pass, then shootdown rounds
    li s2, 1
init_round:
    li t0, )" << kRounds << R"(
    bgtu s2, t0, rounds_over
    li t0, 0x300000          ; prefill page (0x300 + round) with 0xB0B0+round
    slli t1, s2, 12
    add t0, t0, t1
    li t1, 0xB0B0
    add t1, t1, s2
    sw t1, 0(t0)
    li t0, 0x82000           ; remap VA_PAGE -> page (0x300 + round)
    li t1, 0x30006F
    slli t2, s2, 12
    add t1, t1, t2
    sw t1, 0(t0)
    sfence
    la t0, acks
    li t2, 1
clear_acks:
    li t1, )" << vcpus << R"(
    bgeu t2, t1, acks_cleared
    slli t3, t2, 2
    add t3, t0, t3
    sw zero, 0(t3)
    addi t2, t2, 1
    j clear_acks
acks_cleared:
    li t0, PIC_BASE
    li t1, )" << sibling_mask << R"(
    sw t1, 0x14(t0)          ; IPI_RAISE every sibling
    li t2, 1
wait_acks:
    li t1, )" << vcpus << R"(
    bgeu t2, t1, acks_in
    la t0, acks
    slli t3, t2, 2
    add t3, t0, t3
    lw t1, 0(t3)
    beqz t1, wait_acks
    addi t2, t2, 1
    j wait_acks
acks_in:
    la t0, rounds_done
    sw s2, 0(t0)
    addi s2, s2, 1
    j init_round
rounds_over:
    j after_rounds
worker_path:
    li t0, 10                ; workers grind the block while rounds land
wblock:
    jal run_block
    addi t0, t0, -1
    bnez t0, wblock
    la t0, rounds_done
wr_spin:
    lw t1, 0(t0)
    li t2, )" << kRounds << R"(
    bltu t1, t2, wr_spin
after_rounds:
    jal barrier
    li t0, VA_PAGE           ; stale TLB => old page => wrong value
    lw t1, 0(t0)
    la t0, results
    slli t2, s1, 2
    add t0, t0, t2
    sw t1, 0(t0)
    add a0, a0, a1           ; fold the accumulators and publish atomically
    add a0, a0, a2
    add a0, a0, a3
    la t1, shared
    amoadd t2, t1, a0
    jal barrier
    sw zero, 0(gp)           ; scrub timing-dependent handler save bytes
    sw zero, 4(gp)
    sw zero, 8(gp)
    sw zero, 12(gp)
    li t2, 0                 ; scrub the amoadd return (arrival-order value)
    la t0, done_flags
    slli t1, s1, 2
    add t0, t0, t1
    li t1, 1
    sw t1, 0(t0)
    bnez s1, worker_halt
    li t2, 1                 ; vCPU 0 waits for every worker's done flag
wait_done:
    li t1, )" << vcpus << R"(
    bgeu t2, t1, grade
    la t0, done_flags
    slli t3, t2, 2
    add t3, t0, t3
    lw t1, 0(t3)
    beqz t1, wait_done
    addi t2, t2, 1
    j wait_done
grade:
    li s2, 0
    li s0, 0
check_loop:
    li t0, )" << vcpus << R"(
    bgeu s0, t0, graded
    la t0, results
    slli t1, s0, 2
    add t0, t0, t1
    lw t1, 0(t0)
    li t2, )" << (0xB0B0 + kRounds) << R"(
    beq t1, t2, check_next
    li s2, 1
check_next:
    addi s0, s0, 1
    j check_loop
graded:
    bnez s2, finish          ; progress stays 0 on a stale probe
    la t0, progress
    li t1, 1
    sw t1, 0(t0)
finish:
    li a0, HC_SHUTDOWN
    hcall
    halt
worker_halt:
    halt

ipi_handler:
    sw t0, 0(gp)
    sw t1, 4(gp)
    sw t2, 8(gp)
    sw t3, 12(gp)
    sfence                   ; drop whatever the initiator just invalidated
    csrr t0, hartid
    li t1, PIC_BASE
    li t3, 1
    sll t3, t3, t0
    sw t3, 0x1C(t1)          ; IPI_ACK own doorbell bit first (edge rearm)
    la t1, acks
    slli t2, t0, 2
    add t1, t1, t2
    li t2, 1
    sw t2, 0(t1)
    lw t3, 12(gp)
    lw t2, 8(gp)
    lw t1, 4(gp)
    lw t0, 0(gp)
    sret

barrier:
    xori s3, s3, 1
    la t0, bar_count
    li t1, 1
    amoadd t2, t0, t1
    li t1, )" << vcpus - 1 << R"(
    bne t2, t1, bar_wait
    la t0, bar_count
    sw zero, 0(t0)
    la t0, bar_sense
    sw s3, 0(t0)
    ret
bar_wait:
    la t0, bar_sense
bar_spin:
    lw t1, 0(t0)
    bne t1, s3, bar_spin
    ret

)" << block;
  return out.str();
}

// Everything that must be bit-identical across engine/paging/virt for a
// fixed (seed, vcpus): per-vCPU register files, vCPU 0's stop pc, the RAM
// regions the program touches, and the SMP event counters. instret and
// worker pcs are deliberately absent (see the determinism notes above).
struct SmpSnapshot {
  std::vector<std::array<uint32_t, 16>> regs;
  uint32_t pc0 = 0;
  std::vector<uint32_t> region_crcs;
  uint64_t ipis_received = 0;
  uint64_t shootdowns = 0;
  bool operator==(const SmpSnapshot&) const = default;
};

// Field-level comparison so a matrix mismatch pinpoints the diverging
// component (which vCPU's registers, which RAM region, which counter).
void ExpectSnapshotsEqual(const SmpSnapshot& baseline, const SmpSnapshot& snap,
                          const std::string& label) {
  for (size_t i = 0; i < baseline.regs.size() && i < snap.regs.size(); ++i) {
    for (size_t r = 0; r < 16; ++r) {
      EXPECT_EQ(snap.regs[i][r], baseline.regs[i][r])
          << label << " vcpu " << i << " reg " << r;
    }
  }
  EXPECT_EQ(snap.pc0, baseline.pc0) << label;
  for (size_t i = 0; i < baseline.region_crcs.size() && i < snap.region_crcs.size(); ++i) {
    EXPECT_EQ(snap.region_crcs[i], baseline.region_crcs[i]) << label << " region " << i;
  }
  EXPECT_EQ(snap.ipis_received, baseline.ipis_received) << label;
  EXPECT_EQ(snap.shootdowns, baseline.shootdowns) << label;
}

SmpSnapshot SmpExecute(const std::string& program, uint32_t vcpus, cpu::EngineKind engine,
                       mmu::PagingMode paging, cpu::VirtMode virt,
                       cpu::DbtOptions dbt = {}) {
  HostConfig host_cfg;
  host_cfg.num_pcpus = 4;
  Host host(host_cfg);
  auto image = guest::Build(program);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  VmConfig cfg;
  cfg.name = "smpfuzz";
  cfg.ram_bytes = 8u << 20;
  cfg.num_vcpus = vcpus;
  cfg.paging_mode = paging;
  cfg.engine = engine;
  cfg.virt_mode = virt;
  cfg.dbt = dbt;
  auto vm = host.CreateVm(cfg);
  EXPECT_TRUE(vm.ok());
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  EXPECT_TRUE(host.RunUntilVmStops(*vm, 10 * kSimTicksPerSec));
  EXPECT_EQ((*vm)->state(), VmState::kShutdown) << (*vm)->crash_reason().ToString();

  // progress == 1 iff every hart probed the final remapped page: the
  // shootdown worked on this config, independent of the seed.
  auto progress_addr = guest::ProgressAddress(*image);
  EXPECT_TRUE(progress_addr.ok());
  EXPECT_EQ((*vm)->memory().ReadU32(*progress_addr).value_or(0), 1u);

  SmpSnapshot snap;
  for (uint32_t i = 0; i < vcpus; ++i) {
    const cpu::VcpuContext& ctx = (*vm)->vcpu(i);
    snap.regs.push_back(ctx.state.regs);
    snap.ipis_received += ctx.stats.ipis_received;
    snap.shootdowns += ctx.stats.shootdowns;
  }
  snap.pc0 = (*vm)->vcpu(0).state.pc;
  // CRC the touched RAM: the data page, the probe pages, and the per-hart
  // scratch pages.
  struct Region {
    uint32_t base;
    uint32_t size;
  };
  const Region regions[] = {{0x2000, 0x1000}, {0x300000, 0x4000}, {0x200000, 0x4000}};
  std::vector<uint8_t> buf;
  for (const Region& r : regions) {
    buf.resize(r.size);
    EXPECT_TRUE((*vm)->memory().Read(r.base, buf.data(), buf.size()).ok());
    snap.region_crcs.push_back(Crc32(buf.data(), buf.size()));
  }

  // Non-vacuity: three rounds kick every sibling exactly once (doorbell acks
  // re-arm the edge before the memory acks release the initiator).
  const uint64_t expected = 3u * (vcpus - 1);
  EXPECT_EQ(snap.ipis_received, expected);
  EXPECT_EQ(snap.shootdowns, expected);
  return snap;
}

// The full cross-engine differential matrix: for each seed and vcpu count,
// all engine-tier × paging × virt combinations must yield the same
// SmpSnapshot, with shootdowns observed mid-trace whenever there is more
// than one vCPU. The DBT runs twice -- tier-1 only, and tier-2 at a
// forced-low threshold so IPIs and shootdowns land against optimized units.
TEST(FuzzDiffSmpTest, MatrixAgreesAcrossVcpuCounts) {
  struct EngineTier {
    cpu::EngineKind kind;
    cpu::DbtOptions dbt;
    const char* name;
  };
  const EngineTier tiers[] = {
      {cpu::EngineKind::kInterpreter, {}, "interp"},
      {cpu::EngineKind::kDbt, Tier1Only(), "dbt-t1"},
      {cpu::EngineKind::kDbt, Tier2Hot(), "dbt-t2"},
  };
  const uint64_t seeds[] = {0x5EED0001, 0x5EED0002};
  for (uint64_t seed : seeds) {
    for (uint32_t vcpus : {1u, 2u, 4u}) {
      std::string program = SmpFuzzProgram(seed, vcpus);
      SmpSnapshot baseline;
      bool have_baseline = false;
      for (const EngineTier& tier : tiers) {
        for (auto paging : {mmu::PagingMode::kShadow, mmu::PagingMode::kNested}) {
          for (auto virt : {cpu::VirtMode::kTrapAndEmulate, cpu::VirtMode::kHardwareAssist}) {
            SmpSnapshot snap =
                SmpExecute(program, vcpus, tier.kind, paging, virt, tier.dbt);
            if (!have_baseline) {
              baseline = snap;
              have_baseline = true;
              continue;
            }
            std::ostringstream label;
            label << "seed " << seed << " vcpus " << vcpus << " tier " << tier.name
                  << " paging " << static_cast<int>(paging) << " virt "
                  << static_cast<int>(virt);
            ExpectSnapshotsEqual(baseline, snap, label.str());
          }
        }
      }
    }
  }
}

// Decoding random words must never crash or mis-encode (harness-level fuzz
// of the decoder's totality; legal decodes must re-encode losslessly).
TEST(FuzzDiffTest, DecoderTotalOnRandomWords) {
  Xoshiro256 rng(42424242);
  for (int i = 0; i < 100000; ++i) {
    uint32_t word = static_cast<uint32_t>(rng.Next());
    Instruction in = isa::Decode(word);
    if (in.opcode == Opcode::kIllegal) {
      continue;
    }
    auto re = isa::Encode(in);
    ASSERT_TRUE(re.ok());
    ASSERT_EQ(isa::Decode(*re), in);
  }
}

}  // namespace
}  // namespace hyperion
