// CPU engine tests: instruction semantics, traps, privilege, paging,
// interrupts, virtualization exits. Most suites are parameterized over
// {shadow, nested} x {interpreter, DBT} x {hardware-assist, trap&emulate}
// so every engine/virtualizer combination proves the same architecture.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/util/cost_model.h"
#include "src/util/crc32.h"
#include "tests/test_phase.h"
#include "src/verify/audit.h"
#include "tests/guest_harness.h"

namespace hyperion {
namespace {

using cpu::EngineKind;
using cpu::ExitReason;
using cpu::VirtMode;
using mmu::PagingMode;
using testing::AllMachineParams;
using testing::MachineParam;
using testing::MachineParamName;
using testing::TestMachine;

// Boot stub: builds an identity map (one 4 MiB user-accessible superpage) plus
// an MMIO superpage, loads PTBR, and turns paging on. Appended tests run with
// translation active.
constexpr char kPagingBoot[] = R"(
.org 0x1000
.equ PT_ROOT, 0x80000
_start:
    li t0, PT_ROOT
    li t1, 0x7F              ; identity 4MiB superpage V|R|W|X|U|A|D
    sw t1, 0(t0)
    li t1, 0xF0000067        ; MMIO window superpage V|R|W|A|D
    li t2, PT_ROOT + 960*4
    sw t1, 0(t2)
    li t1, 0x80              ; root PT page number
    csrw ptbr, t1
    csrr t1, status
    ori t1, t1, 0x10         ; STATUS.PG
    csrw status, t1
)";

class MachineTest : public ::testing::TestWithParam<MachineParam> {
 protected:
  TestMachine MakeMachine(uint32_t ram = 1u << 20) {
    const MachineParam& p = GetParam();
    return TestMachine(ram, p.paging, p.engine, p.virt_mode);
  }
};

INSTANTIATE_TEST_SUITE_P(AllModes, MachineTest, ::testing::ValuesIn(AllMachineParams()),
                         MachineParamName);

// ---------------------------------------------------------------------------
// Basic computation
// ---------------------------------------------------------------------------

TEST_P(MachineTest, ArithmeticLoop) {
  TestMachine m = MakeMachine();
  // 10! = 3628800 computed by repeated multiplication.
  m.Load(R"(
_start:
    li a0, 1
    li t0, 1
    li t1, 10
loop:
    mul a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 3628800u);
}

TEST_P(MachineTest, LoadStoreWidths) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li t0, 0x9000
    li t1, 0x80FF80FF
    sw t1, 0(t0)
    lb a0, 0(t0)       ; 0xFF sign-extended -> 0xFFFFFFFF
    lbu a1, 0(t0)      ; 0xFF zero-extended
    lh a2, 0(t0)       ; 0x80FF sign-extended
    lhu a3, 2(t0)      ; 0x80FF zero-extended
    sb a1, 4(t0)
    sh a3, 8(t0)
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 0xFFFFFFFFu);
  EXPECT_EQ(m.Reg(isa::kA1), 0xFFu);
  EXPECT_EQ(m.Reg(isa::kA2), 0xFFFF80FFu);
  EXPECT_EQ(m.Reg(isa::kA3), 0x80FFu);
  EXPECT_EQ(m.Word(0x9004) & 0xFF, 0xFFu);
  EXPECT_EQ(m.Word(0x9008) & 0xFFFF, 0x80FFu);
}

TEST_P(MachineTest, DivisionEdgeCases) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li t0, 7
    li t1, 0
    div a0, t0, t1      ; /0 -> -1
    remu a1, t0, t1     ; %0 -> dividend
    li t0, 0x80000000   ; INT_MIN
    li t1, -1
    div a2, t0, t1      ; overflow -> INT_MIN
    rem a3, t0, t1      ; overflow -> 0
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 0xFFFFFFFFu);
  EXPECT_EQ(m.Reg(isa::kA1), 7u);
  EXPECT_EQ(m.Reg(isa::kA2), 0x80000000u);
  EXPECT_EQ(m.Reg(isa::kA3), 0u);
}

TEST_P(MachineTest, RecursiveCallsViaStack) {
  TestMachine m = MakeMachine();
  // fib(12) = 144 with a classic recursive implementation.
  m.Load(R"(
_start:
    li sp, 0x40000
    li a0, 12
    call fib
    halt
fib:
    li t0, 2
    blt a0, t0, base
    addi sp, sp, -12
    sw ra, 0(sp)
    sw a0, 4(sp)
    addi a0, a0, -1
    call fib
    sw a0, 8(sp)
    lw a0, 4(sp)
    addi a0, a0, -2
    call fib
    lw t1, 8(sp)
    add a0, a0, t1
    lw ra, 0(sp)
    addi sp, sp, 12
base:
    ret
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 144u);
}

TEST_P(MachineTest, ZeroRegisterIsImmutable) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li t0, 99
    add zero, t0, t0
    mv a0, zero
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kZero), 0u);
  EXPECT_EQ(m.Reg(isa::kA0), 0u);
}

// ---------------------------------------------------------------------------
// Traps and privilege
// ---------------------------------------------------------------------------

TEST_P(MachineTest, EcallTrapAndSret) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    li a0, 0
    ecall                 ; supervisor ecall
    li a1, 77             ; resumed here after sret
    halt
handler:
    csrr a2, cause        ; 9 = ecall from supervisor
    csrr t1, epc
    addi t1, t1, 4
    csrw epc, t1
    li a0, 1
    sret
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 1u);
  EXPECT_EQ(m.Reg(isa::kA1), 77u);
  EXPECT_EQ(m.Reg(isa::kA2),
            static_cast<uint32_t>(isa::TrapCause::kEcallFromSupervisor));
  EXPECT_GE(m.ctx().stats.guest_traps, 1u);
}

TEST_P(MachineTest, UserModeEcall) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    la t0, user_code
    csrw epc, t0
    csrr t1, status       ; clear PPRV so sret drops to user
    li t2, 8
    not t2, t2
    and t1, t1, t2
    csrw status, t1
    sret
user_code:
    li a3, 5
    ecall
spin:
    j spin
handler:
    csrr a2, cause        ; 8 = ecall from user
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kEcallFromUser));
  EXPECT_EQ(m.Reg(isa::kA3), 5u);  // user code actually ran
}

TEST_P(MachineTest, PrivilegedInstructionInUserModeTraps) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    la t0, user_code
    csrw epc, t0
    csrr t1, status
    li t2, 8
    not t2, t2
    and t1, t1, t2
    csrw status, t1
    sret
user_code:
    halt                  ; privileged -> trap
spin:
    j spin
handler:
    csrr a2, cause
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kPrivilegeViolation));
}

TEST_P(MachineTest, IllegalInstructionTraps) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    .word 0xFC000000      ; opcode 63: illegal
spin:
    j spin
handler:
    csrr a2, cause
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kIllegalInstruction));
}

TEST_P(MachineTest, MisalignedLoadTraps) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    li t1, 0x9002
    lw a0, 0(t1)
spin:
    j spin
handler:
    csrr a2, cause
    csrr a3, tval
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kLoadMisaligned));
  EXPECT_EQ(m.Reg(isa::kA3), 0x9002u);
}

TEST_P(MachineTest, TrapWithoutHandlerIsFatal) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    .word 0xFC000000
  )");
  auto r = m.Run();
  EXPECT_EQ(r.reason, ExitReason::kError);
  EXPECT_FALSE(r.error.ok());
}

TEST_P(MachineTest, EpcAndStatusStacking) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    csrr t1, status
    ori t1, t1, 1         ; IE on
    csrw status, t1
    ecall
resume:
    csrr a1, status       ; IE must be restored by sret
    halt
handler:
    csrr a0, status       ; IE must be off inside the handler
    csrr t1, epc
    addi t1, t1, 4
    csrw epc, t1
    sret
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0) & isa::StatusBits::kIe, 0u);
  EXPECT_EQ(m.Reg(isa::kA1) & isa::StatusBits::kIe, isa::StatusBits::kIe);
}

// ---------------------------------------------------------------------------
// Paging
// ---------------------------------------------------------------------------

TEST_P(MachineTest, PagingIdentityMapRuns) {
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    li a0, 0
    li t0, 1
    li t1, 100
sum:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, sum
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 5050u);
  EXPECT_GT(m.virt().stats().walks, 0u);
}

TEST_P(MachineTest, PagingRemapTakesEffect) {
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    ; L1[1] -> L2 table at 0x82000; L2[0] -> pa page 0x10
    li t0, PT_ROOT + 4
    li t1, 0x82001
    sw t1, 0(t0)
    li t0, 0x82000
    li t1, 0x1006F
    sw t1, 0(t0)
    sfence
    li t2, 0x400000
    li t3, 0xAAAA
    sw t3, 0(t2)
    ; remap the same va to pa page 0x11
    li t1, 0x1106F
    sw t1, 0(t0)
    sfence
    li t3, 0xBBBB
    sw t3, 0(t2)
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Word(0x10000), 0xAAAAu);
  EXPECT_EQ(m.Word(0x11000), 0xBBBBu);
}

TEST_P(MachineTest, PageFaultOnUnmappedAddress) {
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    la t0, handler
    csrw tvec, t0
    li t1, 0x700000       ; no L1 entry for this region
    lw a0, 0(t1)
spin:
    j spin
handler:
    csrr a2, cause
    csrr a3, tval
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kLoadPageFault));
  EXPECT_EQ(m.Reg(isa::kA3), 0x700000u);
}

TEST_P(MachineTest, UserCannotTouchKernelOnlyPage) {
  TestMachine m = MakeMachine(8u << 20);
  // Map va 0x400000 -> pa 0x10000 without the U bit, then drop to user and
  // attempt a load: must fault with kLoadPageFault.
  m.Load(std::string(kPagingBoot) + R"(
    li t0, PT_ROOT + 4
    li t1, 0x82001
    sw t1, 0(t0)
    li t0, 0x82000
    li t1, 0x1006F        ; V|R|W|X|A|D but no U
    sw t1, 0(t0)
    sfence
    la t0, handler
    csrw tvec, t0
    la t0, user_code
    csrw epc, t0
    csrr t1, status
    li t2, 8
    not t2, t2
    and t1, t1, t2
    csrw status, t1
    sret
user_code:
    li t1, 0x400000
    lw a0, 0(t1)
spin:
    j spin
handler:
    csrr a2, cause
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kLoadPageFault));
}

TEST_P(MachineTest, DirtyAndAccessedBitsSet) {
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    li t0, PT_ROOT + 4
    li t1, 0x82001
    sw t1, 0(t0)
    li t0, 0x82000
    li t1, 0x1000F        ; V|R|W|X, A/D clear
    sw t1, 0(t0)
    sfence
    li t2, 0x400000
    lw a0, 0(t2)          ; sets A
    sw a0, 0(t2)          ; sets D
    halt
  )");
  m.RunToHalt();
  uint32_t pte = m.Word(0x82000);
  EXPECT_TRUE(pte & isa::Pte::kAccessed);
  EXPECT_TRUE(pte & isa::Pte::kDirty);
}

// ---------------------------------------------------------------------------
// Interrupts, WFI, timer
// ---------------------------------------------------------------------------

TEST_P(MachineTest, TimerInterruptFires) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    li t1, 5000
    csrw timecmp, t1
    csrr t1, status
    ori t1, t1, 1
    csrw status, t1
spin:
    j spin
handler:
    csrr a1, cause
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA1), static_cast<uint32_t>(isa::TrapCause::kTimerInterrupt));
  EXPECT_GE(m.ctx().stats.interrupts_delivered, 1u);
}

TEST_P(MachineTest, WfiParksAndWakes) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li t1, 100000
    csrw timecmp, t1      ; due far in the future
    wfi
    li a0, 42             ; IE off: pending wakes us without vectoring
    halt
  )");
  auto r = m.Run();
  EXPECT_EQ(r.reason, ExitReason::kWfi);
  EXPECT_TRUE(m.ctx().state.waiting);

  // Model the host idling until the timer is due.
  m.ctx().slice_start = 200000;
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 42u);
}

TEST_P(MachineTest, ExternalInterruptDelivery) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    csrr t1, status
    ori t1, t1, 1
    csrw status, t1
spin:
    j spin
handler:
    csrr a1, cause
    csrr a2, ipend
    halt
  )");
  m.ctx().state.RaisePending(isa::Interrupt::kExternal);
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA1), static_cast<uint32_t>(isa::TrapCause::kExternalInterrupt));
  EXPECT_NE(m.Reg(isa::kA2), 0u);
}

// ---------------------------------------------------------------------------
// Virtualization exits
// ---------------------------------------------------------------------------

TEST_P(MachineTest, HypercallExitsWithAdvancedPc) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li a0, 3              ; hypercall number
    li a1, 1234
    hcall
    mv a3, a0             ; VMM writes the result into a0
    halt
  )");
  auto r = m.Run();
  ASSERT_EQ(r.reason, ExitReason::kHypercall);
  EXPECT_EQ(m.Reg(isa::kA0), 3u);
  EXPECT_EQ(m.Reg(isa::kA1), 1234u);
  // Emulate the VMM: return a value and resume.
  m.ctx().state.WriteReg(isa::kA0, 999);
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA3), 999u);
  EXPECT_EQ(m.ctx().stats.hypercalls, 1u);
}

struct RecordingMmio : cpu::MmioHandler {
  struct Op {
    uint32_t gpa;
    uint32_t size;
    bool write;
    uint32_t value;
  };
  std::vector<Op> ops;
  Result<uint32_t> MmioRead(uint32_t gpa, uint32_t size) override {
    ops.push_back({gpa, size, false, 0});
    return 0xCAFE0000u | size;
  }
  Status MmioWrite(const Phase& ph, uint32_t gpa, uint32_t size, uint32_t value) override {
    (void)ph;
    ops.push_back({gpa, size, true, value});
    return OkStatus();
  }
};

TEST_P(MachineTest, MmioAccessDispatchesToHandler) {
  TestMachine m = MakeMachine();
  RecordingMmio mmio;
  m.ctx().mmio = &mmio;
  m.Load(R"(
_start:
    li t0, 0xF0000000
    li t1, 0x1234
    sw t1, 8(t0)
    lw a0, 12(t0)
    halt
  )");
  m.RunToHalt();
  ASSERT_EQ(mmio.ops.size(), 2u);
  EXPECT_TRUE(mmio.ops[0].write);
  EXPECT_EQ(mmio.ops[0].gpa, 0xF0000008u);
  EXPECT_EQ(mmio.ops[0].value, 0x1234u);
  EXPECT_FALSE(mmio.ops[1].write);
  EXPECT_EQ(m.Reg(isa::kA0), 0xCAFE0004u);
  EXPECT_EQ(m.ctx().stats.mmio_exits, 2u);
}

TEST_P(MachineTest, MmioUnderPaging) {
  TestMachine m = MakeMachine(8u << 20);
  RecordingMmio mmio;
  m.ctx().mmio = &mmio;
  m.Load(std::string(kPagingBoot) + R"(
    li t0, 0xF0000000
    li t1, 0x77
    sw t1, 0(t0)
    halt
  )");
  m.RunToHalt();
  ASSERT_EQ(mmio.ops.size(), 1u);
  EXPECT_EQ(mmio.ops[0].gpa, 0xF0000000u);
}

TEST_P(MachineTest, MmioWithoutHandlerFaultsGuest) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    la t0, handler
    csrw tvec, t0
    li t1, 0xF0000000
    lw a0, 0(t1)
spin:
    j spin
handler:
    csrr a2, cause
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kLoadPageFault));
}

TEST_P(MachineTest, HaltedVcpuStaysHalted) {
  TestMachine m = MakeMachine();
  m.Load("_start:\n halt\n");
  m.RunToHalt();
  auto r = m.Run();
  EXPECT_EQ(r.reason, ExitReason::kHalt);
  EXPECT_EQ(r.instructions, 0u);
}

TEST_P(MachineTest, CowBreakOnSharedPageStore) {
  TestMachine m = MakeMachine();
  // Pre-populate the page, then mark it COW-shared as KSM would.
  ASSERT_TRUE(m.memory().WriteU32(0x30000, 0x5555).ok());
  m.memory().SetShared(0x30, true);
  m.virt().InvalidateGpn(0x30);

  m.Load(R"(
_start:
    li t0, 0x30000
    lw a0, 0(t0)          ; reads through the shared mapping
    li t1, 0x6666
    sw t1, 4(t0)          ; must break sharing first
    lw a1, 4(t0)
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 0x5555u);
  EXPECT_EQ(m.Reg(isa::kA1), 0x6666u);
  EXPECT_EQ(m.ctx().stats.cow_breaks, 1u);
  EXPECT_FALSE(m.memory().IsShared(0x30));
  EXPECT_EQ(m.Word(0x30000), 0x5555u);  // original data carried to the copy
}

TEST_P(MachineTest, MissingPageExitsAndResumes) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li t0, 0x40000
    lw a0, 0(t0)
    halt
  )");
  ASSERT_TRUE(m.memory().ReleasePage(TestPhase(), 0x40).ok());
  m.virt().InvalidateGpn(0x40);

  auto r = m.Run();
  ASSERT_EQ(r.reason, ExitReason::kMissingPage);
  EXPECT_EQ(r.missing_gpn, 0x40u);

  // Emulate post-copy: the page arrives with content, then the vCPU resumes
  // and re-executes the faulting load.
  ASSERT_TRUE(m.memory().PopulatePage(0x40).ok());
  ASSERT_TRUE(m.memory().WriteU32(0x40000, 0xD00D).ok());
  m.virt().InvalidateGpn(0x40);
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 0xD00Du);
}

TEST_P(MachineTest, BudgetExhaustionPreemptsAndResumes) {
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li a0, 0
    li t1, 200000
loop:
    addi a0, a0, 1
    blt a0, t1, loop
    halt
  )");
  int slices = 0;
  cpu::RunResult r;
  do {
    r = m.Run(10000);  // tiny timeslices
    ++slices;
    ASSERT_LT(slices, 1000);
  } while (r.reason == ExitReason::kBudget);
  EXPECT_EQ(r.reason, ExitReason::kHalt);
  EXPECT_GT(slices, 10);  // preemption actually happened
  EXPECT_EQ(m.Reg(isa::kA0), 200000u);
}

// ---------------------------------------------------------------------------
// Mode-specific behaviors
// ---------------------------------------------------------------------------

std::string PtChurnProgram() {
  // Builds an L2 mapping and rewrites it in a loop: heavy PT churn.
  return std::string(kPagingBoot) + R"(
    li t0, PT_ROOT + 4
    li t1, 0x82001
    sw t1, 0(t0)
    li s0, 0x82000        ; L2 base
    li s1, 50             ; iterations
    li s2, 0x400000       ; test va
churn:
    li t1, 0x1006F
    sw t1, 0(s0)          ; map va -> pa 0x10000
    sfence
    sw s1, 0(s2)          ; touch through the fresh mapping
    li t1, 0x1106F
    sw t1, 0(s0)          ; remap va -> pa 0x11000
    sfence
    sw s1, 0(s2)
    addi s1, s1, -1
    bnez s1, churn
    halt
  )";
}

TEST(ShadowPagingTest, PtWritesTrap) {
  TestMachine m(8u << 20, PagingMode::kShadow, EngineKind::kInterpreter,
                VirtMode::kHardwareAssist);
  m.Load(PtChurnProgram());
  m.RunToHalt(100'000'000);
  EXPECT_GT(m.ctx().stats.pt_write_exits, 50u);
  EXPECT_GT(m.virt().stats().pt_write_traps, 50u);
}

TEST(NestedPagingTest, PtWritesDoNotTrap) {
  TestMachine m(8u << 20, PagingMode::kNested, EngineKind::kInterpreter,
                VirtMode::kHardwareAssist);
  m.Load(PtChurnProgram());
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.ctx().stats.pt_write_exits, 0u);
}

TEST(PagingCompareTest, ShadowCheaperOnStableNestedCheaperOnChurn) {
  // The headline F1 crossover, verified at unit scale.
  auto run_cycles = [](PagingMode mode, const std::string& program) {
    TestMachine m(8u << 20, mode, EngineKind::kInterpreter, VirtMode::kHardwareAssist);
    m.Load(program);
    m.RunToHalt(1'000'000'000);
    return m.ctx().stats.cycles;
  };

  // Stable workload: touch the same pages repeatedly after one setup.
  std::string stable = std::string(kPagingBoot) + R"(
    li s1, 2000
    li s2, 0x9000
loop:
    lw t1, 0(s2)
    sw t1, 4(s2)
    addi s1, s1, -1
    bnez s1, loop
    halt
  )";
  uint64_t shadow_stable = run_cycles(PagingMode::kShadow, stable);
  uint64_t nested_stable = run_cycles(PagingMode::kNested, stable);

  uint64_t shadow_churn = run_cycles(PagingMode::kShadow, PtChurnProgram());
  uint64_t nested_churn = run_cycles(PagingMode::kNested, PtChurnProgram());

  // On churn, nested must win decisively.
  EXPECT_LT(nested_churn, shadow_churn);
  // Relative penalty of churn must be far worse under shadow.
  double shadow_ratio = static_cast<double>(shadow_churn) / shadow_stable;
  double nested_ratio = static_cast<double>(nested_churn) / nested_stable;
  EXPECT_GT(shadow_ratio, nested_ratio);
}

TEST(TrapAndEmulateTest, CostsMoreThanHardwareAssist) {
  auto run = [](VirtMode mode) {
    TestMachine m(1u << 20, PagingMode::kNested, EngineKind::kInterpreter, mode);
    m.Load(R"(
_start:
    li s1, 200
loop:
    csrr t1, scratch
    addi t1, t1, 1
    csrw scratch, t1
    addi s1, s1, -1
    bnez s1, loop
    halt
    )");
    m.RunToHalt(1'000'000'000);
    return m.ctx();
  };
  auto hw = run(VirtMode::kHardwareAssist);
  auto te = run(VirtMode::kTrapAndEmulate);
  EXPECT_EQ(hw.state.scratch, te.state.scratch);
  EXPECT_GT(te.stats.priv_emulations, 400u);
  EXPECT_EQ(hw.stats.priv_emulations, 0u);
  EXPECT_GT(te.stats.cycles, 2 * hw.stats.cycles);
}

TEST(DbtTest, SelfModifyingCodeInvalidates) {
  TestMachine m(1u << 20, PagingMode::kNested, EngineKind::kDbt, VirtMode::kHardwareAssist);
  // Call `bump` twice; between the calls, patch its addi immediate from 1 to
  // 2 by rewriting the instruction word. A stale block would add 1 again.
  m.Load(R"(
_start:
    li sp, 0x40000
    li a0, 0
    call bump             ; a0 += 1
    la t0, patch_site
    lw t1, 0(t0)
    la t2, bump
    sw t1, 0(t2)          ; overwrite "addi a0, a0, 1" with "addi a0, a0, 2"
    call bump             ; a0 += 2 if invalidation worked
    halt
bump:
    addi a0, a0, 1
    ret
patch_site:
    addi a0, a0, 2
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 3u);
  EXPECT_GT(m.ctx().stats.blocks_translated, 0u);
}

TEST(DbtTest, HotLoopReusesBlocks) {
  TestMachine m(1u << 20, PagingMode::kNested, EngineKind::kDbt, VirtMode::kHardwareAssist);
  m.Load(R"(
_start:
    li a0, 0
    li t1, 10000
loop:
    addi a0, a0, 1
    blt a0, t1, loop
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 10000u);
  // The loop body must be translated once; steady-state iterations run as
  // superblock passes once the loop head crosses the heat threshold, so the
  // combined execution count covers ~10000 iterations.
  EXPECT_LT(m.ctx().stats.blocks_translated, 20u);
  EXPECT_GT(m.ctx().stats.block_executions + m.ctx().stats.trace_executions, 9000u);
  EXPECT_GE(m.ctx().stats.traces_formed, 1u);
  EXPECT_GT(m.ctx().stats.chain_hits, 0u);
}

TEST(DbtTest, SurgicalEvictionProtectsCorrectness) {
  // 34-odd blocks cycled through an 8-block cache: capacity pressure must be
  // absorbed by surgical (per-block) eviction, never a full flush, and the
  // program still computes the right answer.
  std::string source = R"(
_start:
    li s0, 5
    li a0, 0
again:
    j b0
)";
  constexpr int kBlocks = 32;
  for (int i = 0; i < kBlocks; ++i) {
    source += "b" + std::to_string(i) + ":\n    addi a0, a0, 1\n";
    if (i + 1 < kBlocks) {
      source += "    j b" + std::to_string(i + 1) + "\n";
    }
  }
  source += R"(
    addi s0, s0, -1
    bnez s0, again
    halt
)";
  TestMachine m(1u << 20, PagingMode::kNested, EngineKind::kDbt, VirtMode::kHardwareAssist,
                cpu::DbtOptions{.max_blocks = 8});
  m.Load(source);
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 5u * kBlocks);
  EXPECT_GT(m.ctx().stats.evictions_surgical, 0u);
  EXPECT_EQ(m.ctx().stats.evictions_full, 0u);
}

// ---------------------------------------------------------------------------
// Tier-2 optimizing JIT (src/cpu/ir/)
// ---------------------------------------------------------------------------

cpu::DbtOptions LowTier2Threshold() {
  cpu::DbtOptions o;
  o.tier2_threshold = 2;  // promote almost immediately, for unit tests
  return o;
}

TestMachine MakeTier2Machine() {
  return TestMachine(1u << 20, PagingMode::kNested, EngineKind::kDbt,
                     VirtMode::kHardwareAssist, LowTier2Threshold());
}

// A data-dependent compute loop: enough ALU work per iteration that tier-2's
// batched retirement matters, and a final value that any skipped or
// double-retired instruction would change.
constexpr char kComputeLoop[] = R"(
_start:
    li a0, 0
    li t1, 20000
    li s0, 3
    li s1, 7
loop:
    addi a0, a0, 1
    mul t2, a0, s0
    xor t3, t2, s1
    add s1, s1, t3
    srli t0, s1, 3
    xor s1, s1, t0
    blt a0, t1, loop
    halt
)";

TEST(Tier2Test, PromotesHotLoopAndMatchesInterpreter) {
  TestMachine interp(1u << 20, PagingMode::kNested, EngineKind::kInterpreter);
  interp.Load(kComputeLoop);
  interp.RunToHalt(100'000'000);

  TestMachine m = MakeTier2Machine();
  m.Load(kComputeLoop);
  m.RunToHalt(100'000'000);

  // Bit-identical architectural outcome, including the retirement count.
  for (uint8_t r = 0; r < 16; ++r) {
    EXPECT_EQ(m.Reg(r), interp.Reg(r)) << "register x" << int(r);
  }
  EXPECT_EQ(m.ctx().state.instret, interp.ctx().state.instret);

  const cpu::VcpuStats& st = m.ctx().stats;
  EXPECT_GE(st.tier2_promotions, 1u);
  EXPECT_GT(st.tier2_executions, 15000u);  // steady state runs in tier-2
  EXPECT_GT(st.guards_elided, 0u);         // per-chunk pc guards removed
  EXPECT_EQ(st.deopts, 0u);                // nothing in this loop bails out
}

TEST(Tier2Test, ConstantFoldingAndDeadCodeFireAndStayCorrect) {
  // `li a1, 11` is fully overwritten by `li a1, 22` (dead), and both `li`
  // expansions give the optimizer lui+addi pairs to fold into single
  // constants. s1 accumulates t5 so the surviving write stays observable.
  constexpr char kSrc[] = R"(
_start:
    li a0, 0
    li t1, 5000
    li s1, 0
loop:
    li a1, 11
    li a1, 22
    add s1, s1, a1
    addi a0, a0, 1
    blt a0, t1, loop
    halt
)";
  TestMachine m = MakeTier2Machine();
  m.Load(kSrc);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.Reg(isa::kA0), 5000u);
  EXPECT_EQ(m.Reg(isa::kS1), 5000u * 22u);
  EXPECT_GE(m.ctx().stats.tier2_promotions, 1u);
  EXPECT_GT(m.ctx().stats.tier2_ops_folded, 0u);
  EXPECT_GT(m.ctx().stats.tier2_ops_dead, 0u);
}

TEST(Tier2Test, DeadScratchWriteElided) {
  // Two back-to-back scratch writes per iteration: the first is dead (no
  // read between them, no seam — scratch CSR ops sit mid-block) and must be
  // demoted to a bare privilege check. The final csrr observes the second.
  constexpr char kSrc[] = R"(
_start:
    li a0, 0
    li t1, 5000
loop:
    csrw scratch, a0
    csrw scratch, t1
    addi a0, a0, 1
    blt a0, t1, loop
    csrr s2, scratch
    halt
)";
  TestMachine interp(1u << 20, PagingMode::kNested, EngineKind::kInterpreter);
  interp.Load(kSrc);
  interp.RunToHalt(100'000'000);

  TestMachine m = MakeTier2Machine();
  m.Load(kSrc);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.Reg(isa::kS2), interp.Reg(isa::kS2));
  EXPECT_EQ(m.Reg(isa::kS2), 5000u);
  EXPECT_EQ(m.ctx().state.scratch, interp.ctx().state.scratch);
  EXPECT_EQ(m.ctx().state.instret, interp.ctx().state.instret);
  EXPECT_GE(m.ctx().stats.tier2_promotions, 1u);
  EXPECT_GT(m.ctx().stats.csr_writes_elided, 0u);
}

TEST(Tier2Test, FallbackTrapDeoptsPrecisely) {
  // The load address gains +1 exactly once (iteration 1500 of 3000), which
  // misaligns it: the in-unit fallback load traps, the unit deopts with a
  // precise pc, and the handler observes the same state the interpreter
  // produces.
  constexpr char kSrc[] = R"(
_start:
    la t0, handler
    csrw tvec, t0
    li a1, 0x40000
    li a0, 0
    li t1, 3000
    li a2, 1500
loop:
    lw t2, 0(a1)
    addi a0, a0, 1
    xor t3, a0, a2
    sltui t3, t3, 1       ; t3 = (a0 == 1500) ? 1 : 0
    add a1, a1, t3
    blt a0, t1, loop
    halt
handler:
    csrr s2, epc
    csrr s3, cause
    halt
)";
  TestMachine interp(1u << 20, PagingMode::kNested, EngineKind::kInterpreter);
  interp.Load(kSrc);
  interp.RunToHalt(100'000'000);

  TestMachine m = MakeTier2Machine();
  m.Load(kSrc);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.Reg(isa::kA0), interp.Reg(isa::kA0));
  EXPECT_EQ(m.Reg(isa::kS2), interp.Reg(isa::kS2));  // epc: the faulting lw
  EXPECT_EQ(m.Reg(isa::kS3), interp.Reg(isa::kS3));  // cause: misaligned load
  EXPECT_EQ(m.ctx().state.instret, interp.ctx().state.instret);
  EXPECT_GE(m.ctx().stats.tier2_promotions, 1u);
  EXPECT_GE(m.ctx().stats.deopts, 1u);
}

TEST(Tier2Test, SelfModifyingCodeInvalidatesTier2Unit) {
  // The loop runs 500 iterations at +1, then patches its own increment
  // instruction to +2 and runs 500 more — while the loop body is a hot
  // tier-2 unit. The store must kill the unit at the next seam.
  constexpr char kSrc[] = R"(
_start:
    li a0, 0
    li t1, 1000
    li a2, 500
loop:
    addi a0, a0, 1
inc_site:
    addi s1, s1, 1
    beq a0, a2, patch
back:
    blt a0, t1, loop
    halt
patch:
    la t0, patch_word
    lw t2, 0(t0)
    la t3, inc_site
    sw t2, 0(t3)          ; addi s1, s1, 1  ->  addi s1, s1, 2
    j back
patch_word:
    addi s1, s1, 2
)";
  TestMachine m = MakeTier2Machine();
  m.Load(kSrc);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.Reg(isa::kA0), 1000u);
  EXPECT_EQ(m.Reg(isa::kS1), 500u * 1 + 500u * 2);
  EXPECT_GE(m.ctx().stats.tier2_promotions, 1u);
  EXPECT_GT(m.ctx().stats.tier2_executions, 0u);
}

TEST(Tier2Test, SfenceRevalidatesTier2UnitWithoutRetranslation) {
  // An sfence between hot-loop episodes bumps the mapping epoch; the tier-2
  // unit must revalidate via its guard probes and keep running rather than
  // being dropped and recompiled from scratch.
  constexpr char kSrc[] = R"(
_start:
    li s0, 40
    li s1, 0
outer:
    li a0, 0
    li t1, 400
inner:
    addi a0, a0, 1
    add s1, s1, a0
    blt a0, t1, inner
    sfence
    addi s0, s0, -1
    bnez s0, outer
    halt
)";
  TestMachine m = MakeTier2Machine();
  m.Load(kSrc);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.Reg(isa::kS1), 40u * (400u * 401u / 2));
  const cpu::VcpuStats& st = m.ctx().stats;
  EXPECT_GE(st.tier2_promotions, 1u);
  // One compile total: every sfence afterwards revalidates instead of
  // killing the unit (a kill would force a fresh promotion per episode).
  EXPECT_LE(st.tier2_promotions, 2u);
  EXPECT_GT(st.tier2_executions, 35u * 1u);
}

TEST(Tier2Test, PersistRoundTripInstallsWithZeroColdTranslates) {
  TestMachine warm = MakeTier2Machine();
  warm.Load(kComputeLoop);
  warm.RunToHalt(100'000'000);
  ASSERT_GE(warm.ctx().stats.tier2_promotions, 1u);
  std::vector<uint8_t> blob = warm.engine().SerializeTranslations();
  ASSERT_FALSE(blob.empty());

  // Fresh machine, same image: install the persisted cache, then run. Every
  // block must come from the blob — zero cold translates — and the run must
  // be bit-identical to the warm machine's.
  TestMachine fresh = MakeTier2Machine();
  fresh.Load(kComputeLoop);
  fresh.engine().InstallTranslations(fresh.ctx(), blob);
  EXPECT_GT(fresh.ctx().stats.persist_hits, 0u);
  EXPECT_EQ(fresh.ctx().stats.persist_misses, 0u);
  fresh.RunToHalt(100'000'000);
  EXPECT_EQ(fresh.ctx().stats.blocks_translated, 0u);
  for (uint8_t r = 0; r < 16; ++r) {
    EXPECT_EQ(fresh.Reg(r), warm.Reg(r)) << "register x" << int(r);
  }
  EXPECT_EQ(fresh.ctx().state.instret, warm.ctx().state.instret);
  // The pre-warmed cache starts hot: tier-2 units run without re-promotion.
  EXPECT_GT(fresh.ctx().stats.tier2_executions, 0u);
  EXPECT_EQ(fresh.ctx().stats.tier2_promotions, 0u);
}

TEST(Tier2Test, CorruptOrMismatchedBlobRejectedCleanly) {
  TestMachine warm = MakeTier2Machine();
  warm.Load(kComputeLoop);
  warm.RunToHalt(100'000'000);
  std::vector<uint8_t> blob = warm.engine().SerializeTranslations();
  ASSERT_GT(blob.size(), 32u);

  {
    // Bit flip in the middle: the trailer CRC must reject the whole blob.
    std::vector<uint8_t> bad = blob;
    bad[bad.size() / 2] ^= 0x40;
    TestMachine m = MakeTier2Machine();
    m.Load(kComputeLoop);
    m.engine().InstallTranslations(m.ctx(), bad);
    EXPECT_EQ(m.ctx().stats.persist_hits, 0u);
    EXPECT_GT(m.ctx().stats.persist_misses, 0u);
    m.RunToHalt(100'000'000);  // falls back to cold translation
    EXPECT_GT(m.ctx().stats.blocks_translated, 0u);
    EXPECT_EQ(m.Reg(isa::kS1), warm.Reg(isa::kS1));
  }
  {
    // Version bump with a re-sealed CRC: rejected as a format mismatch.
    std::vector<uint8_t> bad = blob;
    bad[4] ^= 0xFF;  // version word
    uint32_t crc = Crc32(bad.data(), bad.size() - 4);
    std::memcpy(bad.data() + bad.size() - 4, &crc, 4);
    TestMachine m = MakeTier2Machine();
    m.Load(kComputeLoop);
    m.engine().InstallTranslations(m.ctx(), bad);
    EXPECT_EQ(m.ctx().stats.persist_hits, 0u);
    EXPECT_GT(m.ctx().stats.persist_misses, 0u);
  }
  {
    // Truncation mid-stream.
    std::vector<uint8_t> bad(blob.begin(), blob.begin() + blob.size() / 2);
    TestMachine m = MakeTier2Machine();
    m.Load(kComputeLoop);
    m.engine().InstallTranslations(m.ctx(), bad);
    EXPECT_EQ(m.ctx().stats.persist_hits, 0u);
    EXPECT_GT(m.ctx().stats.persist_misses, 0u);
  }
}

TEST(Tier2Test, StaleBlobAgainstDifferentImageRevalidatesAway) {
  // Persist from one program, install into a machine running another: the
  // code-CRC check must reject every block (the translation would be stale),
  // and the run proceeds correctly via cold translation.
  TestMachine warm = MakeTier2Machine();
  warm.Load(kComputeLoop);
  warm.RunToHalt(100'000'000);
  std::vector<uint8_t> blob = warm.engine().SerializeTranslations();

  constexpr char kOther[] = R"(
_start:
    li a0, 0
    li t1, 100
loop:
    addi a0, a0, 3
    blt a0, t1, loop
    halt
)";
  TestMachine m = MakeTier2Machine();
  m.Load(kOther);
  m.engine().InstallTranslations(m.ctx(), blob);
  EXPECT_GT(m.ctx().stats.persist_misses, 0u);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.Reg(isa::kA0), 102u);
  EXPECT_GT(m.ctx().stats.blocks_translated, 0u);
}

TEST(Tier2Test, TamperedUnitCannotRunCodeNotInMemory) {
  // The blob's trailer CRC catches accidents, not edits: anyone can re-seal
  // it. Add 1 to each byte of a warmed blob in turn, re-seal, install and
  // run. An edit may make the restored cache colder or change its heat, but
  // the guest must only ever run the code its memory holds, so every run
  // computes exactly what the warm run did.
  TestMachine warm = MakeTier2Machine();
  warm.Load(kComputeLoop);
  warm.RunToHalt(100'000'000);
  ASSERT_GE(warm.ctx().stats.tier2_promotions, 1u);
  std::vector<uint8_t> blob = warm.engine().SerializeTranslations();
  ASSERT_GT(blob.size(), 4u);

  for (size_t i = 0; i + 4 < blob.size(); ++i) {
    std::vector<uint8_t> bad = blob;
    ++bad[i];
    uint32_t crc = Crc32(bad.data(), bad.size() - 4);
    std::memcpy(bad.data() + bad.size() - 4, &crc, 4);
    TestMachine m = MakeTier2Machine();
    m.Load(kComputeLoop);
    m.engine().InstallTranslations(m.ctx(), bad);
    m.RunToHalt(100'000'000);
    EXPECT_EQ(m.Reg(isa::kA0), warm.Reg(isa::kA0)) << "edited byte " << i;
    EXPECT_EQ(m.Reg(isa::kS1), warm.Reg(isa::kS1)) << "edited byte " << i;
    EXPECT_EQ(m.ctx().state.instret, warm.ctx().state.instret) << "edited byte " << i;
  }
}

// A hot loop whose tier-2 trace splices several blocks over two code pages:
// a block that ends at the 64-instruction cap and falls through into the
// next, a call into a function on another page, and the loop-closing branch.
std::string MultiBlockLoop() {
  std::string src = "_start:\n    li a0, 0\n    li t1, 3000\n    li s1, 7\nloop:\n";
  for (int i = 0; i < 70; ++i) {
    src += "    addi s1, s1, " + std::to_string(i % 7 + 1) + "\n";
  }
  src += R"(
    addi a0, a0, 1
    jal ra, far
    xor s1, s1, a0
    blt a0, t1, loop
    halt
.org 0x3000
far:
    slli t0, s1, 3
    add s1, s1, t0
    ret
)";
  return src;
}

TEST(Tier2Test, PersistRoundTripIsAFixedPoint) {
  // Installing a blob and serializing again must give the same bytes: the
  // restored cache holds exactly what the blob names, heat and pass counts
  // included. The restored units are the ones the warm engine compiled, so
  // the fresh run needs no cold translate and no promotion.
  for (const std::string& prog : {std::string(kComputeLoop), MultiBlockLoop()}) {
    TestMachine warm = MakeTier2Machine();
    warm.Load(prog);
    warm.RunToHalt(100'000'000);
    ASSERT_GE(warm.ctx().stats.tier2_promotions, 1u);
    std::vector<uint8_t> blob = warm.engine().SerializeTranslations();

    TestMachine fresh = MakeTier2Machine();
    fresh.Load(prog);
    fresh.engine().InstallTranslations(fresh.ctx(), blob);
    EXPECT_EQ(fresh.ctx().stats.persist_misses, 0u);
    EXPECT_EQ(fresh.engine().SerializeTranslations(), blob);
    fresh.RunToHalt(100'000'000);
    EXPECT_EQ(fresh.ctx().stats.blocks_translated, 0u);
    EXPECT_EQ(fresh.ctx().stats.tier2_promotions, 0u);
    EXPECT_GT(fresh.ctx().stats.tier2_executions, 0u);
    EXPECT_EQ(fresh.Reg(isa::kS1), warm.Reg(isa::kS1));
    EXPECT_EQ(fresh.ctx().state.instret, warm.ctx().state.instret);
  }
}

TEST(Tier2Test, Tier1OnlyOptionDisablesPromotion) {
  cpu::DbtOptions o;
  o.enable_tier2 = false;
  TestMachine m(1u << 20, PagingMode::kNested, EngineKind::kDbt,
                VirtMode::kHardwareAssist, o);
  m.Load(kComputeLoop);
  m.RunToHalt(100'000'000);
  EXPECT_EQ(m.ctx().stats.tier2_promotions, 0u);
  EXPECT_EQ(m.ctx().stats.tier2_executions, 0u);
  EXPECT_GT(m.ctx().stats.trace_executions, 0u);  // tier-1 still traces
}

TEST_P(MachineTest, MemoryFastPathCountersAdvance) {
  // A store/load loop over one page: after the first touches install the
  // fast-translation entry, nearly every access should hit it.
  TestMachine m = MakeMachine();
  m.Load(R"(
_start:
    li t0, 0x9000
    li s0, 1000
loop:
    sw s0, 0(t0)
    lw a0, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA0), 1u);
  EXPECT_GT(m.ctx().stats.mem_fastpath_hits, 1000u);
  EXPECT_GT(m.ctx().stats.mem_fastpath_hits, m.ctx().stats.mem_fastpath_misses);
}

TEST_P(MachineTest, FastPathStateAuditsCleanUnderPaging) {
  // With paging on and the per-vCPU fast-translation array hot, the MMU
  // coherence auditor must still pass: the fast array is derived state that
  // is invisible to (and must never outlive) the TLB it shadows.
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    li t0, 0x9000
    li s0, 500
loop:
    sw s0, 0(t0)
    lw a0, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    halt
  )");
  m.RunToHalt();
  EXPECT_GT(m.ctx().stats.mem_fastpath_hits, 0u);
  verify::AuditReport report;
  verify::AuditMmuCoherence(m.virt(), /*paging=*/true, /*ptbr=*/0x80, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_P(MachineTest, FastPathDoesNotLeakExecFromLoadWarmedEntry) {
  // Map va 0x400000 -> pa 0x10000 readable+writable but NOT executable, warm
  // the fast-translation array with loads, then jump there: the fetch must
  // still take kInstrPageFault. A load-warmed entry proves R, not X — serving
  // it to a fetch would be an NX bypass.
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    li t0, PT_ROOT + 4
    li t1, 0x82001        ; L1 -> PT page 0x82
    sw t1, 0(t0)
    li t0, 0x82000
    li t1, 0x10067        ; leaf: V|R|W|A|D, no X
    sw t1, 0(t0)
    sfence
    la t0, handler
    csrw tvec, t0
    li t1, 0x400000
    lw a0, 0(t1)          ; fills the fast entry (R proven)
    lw a0, 0(t1)          ; second load hits the fast path
    jalr ra, t1, 0        ; fetch from the NX page must fault
    halt                  ; not reached
handler:
    csrr a2, cause
    csrr a3, tval
    halt
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kInstrPageFault));
  EXPECT_EQ(m.Reg(isa::kA3), 0x400000u);
}

TEST_P(MachineTest, FastPathDoesNotLeakReadFromFetchWarmedEntry) {
  // The converse: map va 0x400000 -> pa 0x10000 execute-only, call through it
  // so fetches warm the fast-translation array, then load from it: the load
  // must still take kLoadPageFault (a fetch-warmed entry proves X, not R).
  TestMachine m = MakeMachine(8u << 20);
  m.Load(std::string(kPagingBoot) + R"(
    li t0, PT_ROOT + 4
    li t1, 0x82001        ; L1 -> PT page 0x82
    sw t1, 0(t0)
    li t0, 0x82000
    li t1, 0x10069        ; leaf: V|X|A|D, no R/W
    sw t1, 0(t0)
    sfence
    la t0, handler
    csrw tvec, t0
    li t1, 0x400000
    jalr ra, t1, 0        ; execute from the X-only page (fills the entry)
    jalr ra, t1, 0        ; second call fetches via the fast path
    lw a0, 0(t1)          ; load from the X-only page must fault
    halt                  ; not reached
handler:
    csrr a2, cause
    csrr a3, tval
    halt
.org 0x10000
xonly:
    ret
  )");
  m.RunToHalt();
  EXPECT_EQ(m.Reg(isa::kA2), static_cast<uint32_t>(isa::TrapCause::kLoadPageFault));
  EXPECT_EQ(m.Reg(isa::kA3), 0x400000u);
}

TEST(DbtTest, MatchesInterpreterState) {
  // Differential test: the same program must leave identical architectural
  // state under both engines.
  const char* program = R"(
_start:
    li sp, 0x40000
    li a0, 17
    li a1, 31
    mul a2, a0, a1
    div a3, a2, a0
    li t0, 0x9000
    sw a2, 0(t0)
    lw t1, 0(t0)
    add a2, a2, t1
    la t2, sub
    jalr ra, t2, 0
    halt
sub:
    slt t3, a0, a1
    sll s0, a0, t3
    ret
  )";
  TestMachine mi(1u << 20, PagingMode::kNested, EngineKind::kInterpreter,
                 VirtMode::kHardwareAssist);
  TestMachine md(1u << 20, PagingMode::kNested, EngineKind::kDbt, VirtMode::kHardwareAssist);
  mi.Load(program);
  md.Load(program);
  mi.RunToHalt();
  md.RunToHalt();
  EXPECT_EQ(mi.ctx().state.regs, md.ctx().state.regs);
  EXPECT_EQ(mi.ctx().state.pc, md.ctx().state.pc);
  EXPECT_EQ(mi.ctx().state.instret, md.ctx().state.instret);
}

TEST(TlbTest, HotLoopHitsTlb) {
  TestMachine m(8u << 20, PagingMode::kNested, EngineKind::kInterpreter,
                VirtMode::kHardwareAssist);
  m.Load(std::string(kPagingBoot) + R"(
    li s1, 5000
    li s2, 0x9000
loop:
    lw t1, 0(s2)
    addi s1, s1, -1
    bnez s1, loop
    halt
  )");
  m.RunToHalt(1'000'000'000);
  EXPECT_GT(m.virt().tlb().stats().HitRate(), 0.99);
}

TEST(CpuStateTest, SerializeRoundTrip) {
  cpu::CpuState s;
  s.regs[5] = 0xDEAD;
  s.pc = 0x1234;
  s.status = 0x15;
  s.cause = 7;
  s.epc = 0x999;
  s.ptbr = 0x80;
  s.timecmp = 123456789ull;
  s.cycle = 42;
  s.instret = 41;
  s.ipend = 3;
  s.waiting = true;

  ByteWriter w;
  s.Serialize(w);
  ByteReader r(w.buffer());
  auto restored = cpu::CpuState::Deserialize(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, s);
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace hyperion
