// Shared execution machinery for the interpreter and DBT engines.
//
// ExecCore implements the semantics of every HV32 instruction plus the
// virtualization glue: address translation with PT-write interception and
// copy-on-write breaking, MMIO dispatch, trap and interrupt delivery, timer
// emulation, and trap-and-emulate cost accounting. Engines differ only in
// how they fetch and decode (per-instruction vs. cached basic blocks).
//
// Header-only so both engines inline the hot paths.

#ifndef SRC_CPU_EXEC_CORE_H_
#define SRC_CPU_EXEC_CORE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>

#include "src/cpu/context.h"
#include "src/isa/hv32.h"
#include "src/util/phase.h"

namespace hyperion::cpu {

class ExecCore {
 public:
  ExecCore(VcpuContext& ctx, ExecutionEngine* engine)
      : ctx_(ctx), engine_(engine), guest_insn_cost_(ctx.costs->guest_insn) {
    // The phase every side effect of this run charges to: the slice's
    // ExecutePhase when driven by the host run loop, or a runtime-checked
    // serial token when the engine is driven directly (tests, tools).
    phase_ = ctx.phase;
    if (phase_ == nullptr) {
      fallback_phase_.emplace();
      phase_ = &fallback_phase_->get();
    }
    // Every engine's run opens here. A halted vCPU exits at once, and so
    // does a parked (WFI) one unless a pending interrupt unparks it; the
    // engine's loop then never starts.
    CpuState& s = ctx.state;
    if (s.halted) {
      Exit(ExitReason::kHalt);
    } else if (s.waiting) {
      CheckTimer();
      if (s.ipend == 0) {
        Charge(1);  // the parked vCPU consumes (almost) nothing
        Exit(ExitReason::kWfi);
      } else {
        s.waiting = false;
      }
    }
  }

  uint64_t cycles() const { return cycles_; }
  uint64_t instructions() const { return instret_; }
  bool exited() const { return exited_; }

  void Charge(uint64_t c) { cycles_ += c; }

  // Retires `n` guest instructions at the base per-instruction cost in one
  // step. The tier-2 executor batches retirement accounting across runs of
  // micro-ops instead of paying Charge + increment per instruction; the
  // totals are indistinguishable from n individual Execute() retirements.
  void RetireBulk(uint64_t n) {
    cycles_ += n * guest_insn_cost_;
    instret_ += n;
  }

  // Charged when the guest touches privileged state under trap-and-emulate.
  // Public because the tier-2 executor emulates scratch-CSR accesses inline
  // and must preserve the interception cost model.
  void ChargePrivileged() {
    if (ctx_.virt_mode == VirtMode::kTrapAndEmulate) {
      Charge(ctx_.costs->vm_exit + ctx_.costs->emulate_insn);
      ++ctx_.stats.priv_emulations;
    }
  }

  SimTime Now() const { return ctx_.slice_start + cycles_; }

  // Finalizes the run: folds slice counters into persistent state and stats.
  RunResult Finish() {
    ctx_.state.cycle += cycles_;
    ctx_.state.instret += instret_;
    ctx_.stats.cycles += cycles_;
    ctx_.stats.instructions += instret_;
    result_.cycles = cycles_;
    result_.instructions = instret_;
    return result_;
  }

  void Exit(ExitReason reason) {
    result_.reason = reason;
    exited_ = true;
  }

  void ExitError(Status error) {
    result_.reason = ExitReason::kError;
    result_.error = std::move(error);
    exited_ = true;
  }

  void ExitMissingPage(uint32_t gpn) {
    result_.reason = ExitReason::kMissingPage;
    result_.missing_gpn = gpn;
    exited_ = true;
  }

  // --- Interrupts and timer --------------------------------------------------

  // Latches the timer interrupt when due. state.timecmp holds an absolute
  // simulated time; 0 disables the timer.
  void CheckTimer() {
    if (ctx_.state.timecmp != 0 && Now() >= ctx_.state.timecmp) {
      ctx_.state.RaisePending(isa::Interrupt::kTimer);
    }
  }

  // Delivers the highest-priority pending interrupt if enabled. Returns true
  // when a trap was vectored.
  bool DeliverInterruptIfPending() {
    if (!ctx_.state.HasDeliverableInterrupt()) {
      return false;
    }
    uint32_t line = static_cast<uint32_t>(std::countr_zero(ctx_.state.ipend));
    auto cause = static_cast<isa::TrapCause>(static_cast<uint32_t>(isa::TrapCause::kInterruptFlag) |
                                             line);
    ++ctx_.stats.interrupts_delivered;
    if (line == static_cast<uint32_t>(isa::Interrupt::kSoftware)) {
      ++ctx_.stats.ipis_received;
    }
    Charge(ctx_.costs->interrupt_inject);
    Vector(cause, 0);
    return true;
  }

  // --- Memory ----------------------------------------------------------------

  // Inline memory fast path: consults the per-vCPU direct-mapped
  // fast-translation array before paying the virtual Translate call. Entries
  // are validated against the TLB flush generation, so every coherence event
  // (sfence, ptbr switch, paging toggle, COW/KSM/balloon/migration page
  // changes, shadow-PT invalidations) disables the whole array at once.
  // Returns nullptr on any mismatch — including access rights the mapping
  // does not grant (entries carry the leaf R/W/X bits, so a load-warmed
  // entry never serves a fetch from a non-executable page and vice versa)
  // and privilege (user accesses require the leaf U bit).
  FastTranslations::Entry* FastLookup(uint32_t va, mmu::Access access) {
    FastTranslations::Entry& e = ctx_.fast_tlb.Slot(isa::PageNumber(va));
    bool right_ok = false;
    switch (access) {
      case mmu::Access::kFetch:
        right_ok = e.exec_ok;
        break;
      case mmu::Access::kLoad:
        right_ok = e.read_ok;
        break;
      case mmu::Access::kStore:
        right_ok = e.writable;
        break;
    }
    if (e.vpn != isa::PageNumber(va) || e.tlb_gen != ctx_.virt->tlb().generation() ||
        !right_ok || (!e.user_ok && ctx_.state.priv() == isa::PrivMode::kUser)) {
      ++ctx_.stats.mem_fastpath_misses;
      return nullptr;
    }
    ++ctx_.stats.mem_fastpath_hits;
    ctx_.virt->tlb().CreditFastHit();
    Charge(ctx_.costs->tlb_hit);
    return &e;
  }

  // Caches a successful plain-RAM translation for subsequent fast lookups.
  // The entry grants exactly the rights the translation layer proved from
  // the mapping (leaf R/W/X/U bits), so a load-warmed entry serves fetches
  // only when the page really is executable.
  void FastFill(uint32_t va, const mmu::TranslateOutcome& out) {
    if (out.event != mmu::MemEvent::kNone || out.is_mmio) {
      return;
    }
    FastTranslations::Entry& e = ctx_.fast_tlb.Slot(isa::PageNumber(va));
    e.vpn = isa::PageNumber(va);
    e.gpn = isa::PageNumber(out.gpa);
    e.tlb_gen = ctx_.virt->tlb().generation();
    e.data = ctx_.memory->pool().FrameData(out.frame);
    e.writable = out.writable;
    e.read_ok = out.readable;
    e.exec_ok = out.executable;
    e.user_ok = out.user;
  }

  // Fetches the instruction word at `va`. Returns false when the current
  // instruction cannot complete (trap vectored or exit latched).
  bool Fetch(uint32_t va, uint32_t* word) {
    if (va & 3u) {
      Trap(isa::TrapCause::kInstrMisaligned, va);
      return false;
    }
    if (const FastTranslations::Entry* fe = FastLookup(va, mmu::Access::kFetch)) {
      std::memcpy(word, fe->data + isa::VaPageOffset(va), 4);
      return true;
    }
    mmu::TranslateOutcome out = Translate(va, mmu::Access::kFetch);
    if (out.event != mmu::MemEvent::kNone) {
      return HandleMemEvent(out, va, mmu::Access::kFetch, 0, 0, nullptr);
    }
    if (out.is_mmio) {
      Trap(isa::TrapCause::kInstrPageFault, va);
      return false;
    }
    FastFill(va, out);
    const uint8_t* page = ctx_.memory->pool().FrameData(out.frame);
    std::memcpy(word, page + isa::VaPageOffset(out.gpa), 4);
    return true;
  }

  // Loads `size` bytes (1/2/4) from `va` into *out (zero-extended).
  bool Load(uint32_t va, uint32_t size, uint32_t* out) {
    if (va & (size - 1)) {
      Trap(isa::TrapCause::kLoadMisaligned, va);
      return false;
    }
    if (const FastTranslations::Entry* fe = FastLookup(va, mmu::Access::kLoad)) {
      uint32_t v = 0;
      std::memcpy(&v, fe->data + isa::VaPageOffset(va), size);
      *out = v;
      return true;
    }
    mmu::TranslateOutcome t = Translate(va, mmu::Access::kLoad);
    if (t.event != mmu::MemEvent::kNone) {
      return HandleMemEvent(t, va, mmu::Access::kLoad, 0, size, out);
    }
    if (t.is_mmio) {
      return MmioLoad(t.gpa, va, size, out);
    }
    FastFill(va, t);
    const uint8_t* page = ctx_.memory->pool().FrameData(t.frame);
    uint32_t v = 0;
    std::memcpy(&v, page + isa::VaPageOffset(t.gpa), size);
    *out = v;
    return true;
  }

  // Stores the low `size` bytes of `value` at `va`.
  bool Store(uint32_t va, uint32_t size, uint32_t value) {
    if (va & (size - 1)) {
      Trap(isa::TrapCause::kStoreMisaligned, va);
      return false;
    }
    if (FastTranslations::Entry* fe = FastLookup(va, mmu::Access::kStore)) {
      // The fast path keeps every side channel of a slow store.
      std::memcpy(fe->data + isa::VaPageOffset(va), &value, size);
      AfterStore(fe->gpn);
      return true;
    }
    // COW breaking may require one retry after the private copy is made.
    for (int attempt = 0; attempt < 3; ++attempt) {
      mmu::TranslateOutcome t = Translate(va, mmu::Access::kStore);
      if (t.event != mmu::MemEvent::kNone) {
        bool retry = false;
        if (!HandleStoreEvent(t, va, size, value, &retry)) {
          return false;
        }
        if (retry) {
          continue;
        }
        return true;  // PT write fully emulated
      }
      if (t.is_mmio) {
        return MmioStore(t.gpa, va, size, value);
      }
      FastFill(va, t);
      uint32_t gpn = isa::PageNumber(t.gpa);
      uint8_t* page = ctx_.memory->pool().FrameData(t.frame);
      std::memcpy(page + isa::VaPageOffset(t.gpa), &value, size);
      AfterStore(gpn);
      return true;
    }
    ExitError(InternalError("store did not settle after COW retries"));
    return false;
  }

  // --- Traps -------------------------------------------------------------------

  // Raises a guest exception at the current pc.
  void Trap(isa::TrapCause cause, uint32_t tval) {
    ++ctx_.stats.guest_traps;
    Charge(TrapDeliveryCost());
    Vector(cause, tval);
  }

  // --- Instruction execution -----------------------------------------------------

  // Executes one decoded instruction. The caller has already fetched it at
  // ctx.state.pc. Returns false when the run loop must stop (exit latched);
  // traps return true (execution continues at the handler).
  bool Execute(const isa::Instruction& in) {
    using isa::AluOp;
    using isa::Opcode;
    CpuState& s = ctx_.state;
    Charge(guest_insn_cost_);
    ++instret_;

    switch (in.opcode) {
      case Opcode::kOp:
        s.WriteReg(in.rd, Alu(static_cast<AluOp>(in.funct), s.ReadReg(in.rs1), s.ReadReg(in.rs2)));
        s.pc += 4;
        return true;
      case Opcode::kOpImm:
        s.WriteReg(in.rd, Alu(static_cast<AluOp>(in.funct), s.ReadReg(in.rs1),
                              static_cast<uint32_t>(in.imm)));
        s.pc += 4;
        return true;
      case Opcode::kLui:
        s.WriteReg(in.rd, static_cast<uint32_t>(in.imm));
        s.pc += 4;
        return true;
      case Opcode::kAuipc:
        s.WriteReg(in.rd, s.pc + static_cast<uint32_t>(in.imm));
        s.pc += 4;
        return true;
      case Opcode::kJal: {
        uint32_t link = s.pc + 4;
        s.pc += static_cast<uint32_t>(in.imm);
        s.WriteReg(in.rd, link);
        return true;
      }
      case Opcode::kJalr: {
        uint32_t link = s.pc + 4;
        s.pc = (s.ReadReg(in.rs1) + static_cast<uint32_t>(in.imm)) & ~3u;
        s.WriteReg(in.rd, link);
        return true;
      }
      case Opcode::kBranch: {
        bool taken = EvalBranch(static_cast<isa::BranchCond>(in.funct), s.ReadReg(in.rs1),
                                s.ReadReg(in.rs2));
        s.pc += taken ? static_cast<uint32_t>(in.imm) : 4;
        return true;
      }
      case Opcode::kLw:
        return DoLoad(in, 4, false);
      case Opcode::kLh:
        return DoLoad(in, 2, true);
      case Opcode::kLhu:
        return DoLoad(in, 2, false);
      case Opcode::kLb:
        return DoLoad(in, 1, true);
      case Opcode::kLbu:
        return DoLoad(in, 1, false);
      case Opcode::kSw:
        return DoStore(in, 4);
      case Opcode::kSh:
        return DoStore(in, 2);
      case Opcode::kSb:
        return DoStore(in, 1);
      case Opcode::kCsrrw:
      case Opcode::kCsrrs:
      case Opcode::kCsrrc:
        return ExecCsr(in);
      case Opcode::kEcall:
        Trap(s.priv() == isa::PrivMode::kUser ? isa::TrapCause::kEcallFromUser
                                              : isa::TrapCause::kEcallFromSupervisor,
             0);
        return true;
      case Opcode::kEbreak:
        Trap(isa::TrapCause::kBreakpoint, s.pc);
        return true;
      case Opcode::kSret:
        return ExecSret();
      case Opcode::kWfi:
        return ExecWfi();
      case Opcode::kHcall:
        return ExecHcall();
      case Opcode::kSfence:
        return ExecSfence(in);
      case Opcode::kHalt:
        return ExecHalt();
      case Opcode::kAmoSwap:
        return ExecAmo(in, /*is_add=*/false);
      case Opcode::kAmoAdd:
        return ExecAmo(in, /*is_add=*/true);
      default:
        Trap(isa::TrapCause::kIllegalInstruction, 0);
        return true;
    }
  }

 private:
  // The side channels of every guest store to RAM page `gpn`: the dirty log
  // (charging the write-protect fault of a page's first write since a
  // harvest) and SMC invalidation for the DBT engine.
  void AfterStore(uint32_t gpn) {
    if (ctx_.memory->MarkDirty(gpn)) {
      Charge(ctx_.costs->dirty_log_first_write);
      ++ctx_.stats.dirty_first_writes;
    }
    engine_->InvalidateCodePage(gpn);
  }

  uint64_t TrapDeliveryCost() const {
    // Under trap-and-emulate the VMM intercepts the trap and re-vectors it
    // into the guest's virtual trap state; with hardware assist delivery is
    // architectural.
    if (ctx_.virt_mode == VirtMode::kTrapAndEmulate) {
      ++ctx_.stats.priv_emulations;
      return ctx_.costs->vm_exit + ctx_.costs->emulate_insn;
    }
    return 40;  // native exception latency
  }

  void Vector(isa::TrapCause cause, uint32_t tval) {
    CpuState& s = ctx_.state;
    if (s.tvec == 0) {
      ExitError(InternalError("guest trap with no handler installed: cause=" +
                              std::to_string(static_cast<uint32_t>(cause)) +
                              " pc=" + std::to_string(s.pc) + " tval=" + std::to_string(tval)));
      return;
    }
    using isa::StatusBits;
    s.cause = static_cast<uint32_t>(cause);
    s.epc = s.pc;
    s.tval = tval;
    uint32_t st = s.status;
    // Stack IE into PIE and privilege into PPRV; enter supervisor, IE off.
    st = (st & ~StatusBits::kPie) | ((st & StatusBits::kIe) ? StatusBits::kPie : 0);
    st = (st & ~StatusBits::kPprv) | ((st & StatusBits::kPrv) ? StatusBits::kPprv : 0);
    st &= ~StatusBits::kIe;
    st |= StatusBits::kPrv;
    s.status = st;
    s.pc = s.tvec;
    // The trap stack is one deep, so any trap that is not itself a software
    // interrupt ends the IPI-handler window for shootdown accounting.
    s.in_ipi_handler = cause == isa::TrapCause::kSoftwareInterrupt;
  }

  mmu::TranslateOutcome Translate(uint32_t va, mmu::Access access) {
    CpuState& s = ctx_.state;
    mmu::TranslateOutcome out =
        ctx_.virt->Translate(va, access, s.priv(), s.paging_enabled(), s.ptbr);
    Charge(out.cost);
    return out;
  }

  // Handles translation events for fetch/load. Always returns false (the
  // instruction cannot complete this round).
  bool HandleMemEvent(const mmu::TranslateOutcome& out, uint32_t va, mmu::Access access,
                      uint32_t value, uint32_t size, uint32_t* load_out) {
    (void)value;
    (void)size;
    (void)load_out;
    switch (out.event) {
      case mmu::MemEvent::kGuestFault:
        Trap(out.fault_cause, va);
        return false;
      case mmu::MemEvent::kMissingPage:
        ExitMissingPage(isa::PageNumber(out.gpa));
        return false;
      case mmu::MemEvent::kPtWriteTrap:
      case mmu::MemEvent::kCowBreak:
        // Only stores can raise these; loads/fetches reaching here indicate a
        // virtualizer bug.
        ExitError(InternalError("store-only memory event on access type " +
                                std::to_string(static_cast<int>(access))));
        return false;
      case mmu::MemEvent::kNone:
        break;
    }
    return false;
  }

  // Handles translation events for stores. Returns false if the run loop must
  // stop or a trap was taken; *retry is set when the store must re-translate.
  bool HandleStoreEvent(const mmu::TranslateOutcome& out, uint32_t va, uint32_t size,
                        uint32_t value, bool* retry) {
    switch (out.event) {
      case mmu::MemEvent::kGuestFault:
        Trap(out.fault_cause, va);
        return false;
      case mmu::MemEvent::kMissingPage:
        ExitMissingPage(isa::PageNumber(out.gpa));
        return false;
      case mmu::MemEvent::kPtWriteTrap: {
        // The guest wrote one of its own page-table pages: emulate the store
        // and surgically invalidate the shadow entries derived from it.
        Charge(ctx_.costs->vm_exit + ctx_.costs->emulate_insn);
        ++ctx_.stats.pt_write_exits;
        uint8_t bytes[4];
        std::memcpy(bytes, &value, 4);
        Status st = ctx_.memory->Write(out.gpa, bytes, size);
        if (!st.ok()) {
          ExitError(std::move(st));
          return false;
        }
        ctx_.virt->OnPtWriteEmulated(out.gpa, size);
        engine_->InvalidateCodePage(isa::PageNumber(out.gpa));
        ctx_.state.pc += 4;  // emulation completes the store instruction
        *retry = false;
        return true;
      }
      case mmu::MemEvent::kCowBreak: {
        Charge(ctx_.costs->vm_exit + ctx_.costs->cow_break);
        ++ctx_.stats.cow_breaks;
        uint32_t gpn = isa::PageNumber(out.gpa);
        Status st = ctx_.memory->BreakSharing(*phase_, gpn);
        if (!st.ok()) {
          ExitError(std::move(st));
          return false;
        }
        ctx_.virt->InvalidateGpn(gpn);
        *retry = true;
        return true;
      }
      case mmu::MemEvent::kNone:
        break;
    }
    return true;
  }

  bool MmioLoad(uint32_t gpa, uint32_t va, uint32_t size, uint32_t* out) {
    Charge(ctx_.costs->vm_exit + ctx_.costs->mmio_access);
    ++ctx_.stats.mmio_exits;
    if (ctx_.mmio == nullptr) {
      Trap(isa::TrapCause::kLoadPageFault, va);
      return false;
    }
    auto v = ctx_.mmio->MmioRead(gpa, size);
    if (!v.ok()) {
      Trap(isa::TrapCause::kLoadPageFault, va);
      return false;
    }
    *out = *v;
    return true;
  }

  bool MmioStore(uint32_t gpa, uint32_t va, uint32_t size, uint32_t value) {
    Charge(ctx_.costs->vm_exit + ctx_.costs->mmio_access);
    ++ctx_.stats.mmio_exits;
    if (ctx_.mmio == nullptr) {
      Trap(isa::TrapCause::kStorePageFault, va);
      return false;
    }
    if (!ctx_.mmio->MmioWrite(*phase_, gpa, size, value).ok()) {
      Trap(isa::TrapCause::kStorePageFault, va);
      return false;
    }
    return true;
  }

  bool DoLoad(const isa::Instruction& in, uint32_t size, bool sign_extend) {
    CpuState& s = ctx_.state;
    uint32_t va = s.ReadReg(in.rs1) + static_cast<uint32_t>(in.imm);
    uint32_t v;
    if (!Load(va, size, &v)) {
      return !exited_;
    }
    if (sign_extend) {
      uint32_t bits = size * 8;
      v = static_cast<uint32_t>(static_cast<int32_t>(v << (32 - bits)) >> (32 - bits));
    }
    s.WriteReg(in.rd, v);
    s.pc += 4;
    return true;
  }

  bool DoStore(const isa::Instruction& in, uint32_t size) {
    CpuState& s = ctx_.state;
    uint32_t va = s.ReadReg(in.rs1) + static_cast<uint32_t>(in.imm);
    uint32_t pc_before = s.pc;
    if (!Store(va, size, s.ReadReg(in.rd))) {
      return !exited_;
    }
    // A PT-write emulation advances pc itself; plain stores advance here.
    if (s.pc == pc_before) {
      s.pc += 4;
    }
    return true;
  }

  bool ExecCsr(const isa::Instruction& in) {
    using isa::Csr;
    using isa::Opcode;
    using isa::StatusBits;
    CpuState& s = ctx_.state;
    if (s.priv() != isa::PrivMode::kSupervisor) {
      Trap(isa::TrapCause::kPrivilegeViolation, 0);
      return true;
    }
    ChargePrivileged();

    auto csr = static_cast<Csr>(in.imm);
    uint32_t old = ReadCsr(csr);
    uint32_t rs1 = s.ReadReg(in.rs1);
    bool write = in.opcode == Opcode::kCsrrw || in.rs1 != 0;
    uint32_t next = old;
    switch (in.opcode) {
      case Opcode::kCsrrw:
        next = rs1;
        break;
      case Opcode::kCsrrs:
        next = old | rs1;
        break;
      case Opcode::kCsrrc:
        next = old & ~rs1;
        break;
      default:
        break;
    }
    if (write) {
      WriteCsr(csr, next, old);
    }
    s.WriteReg(in.rd, old);
    s.pc += 4;
    return true;
  }

  uint32_t ReadCsr(isa::Csr csr) {
    const CpuState& s = ctx_.state;
    switch (csr) {
      case isa::Csr::kStatus:
        return s.status;
      case isa::Csr::kCause:
        return s.cause;
      case isa::Csr::kEpc:
        return s.epc;
      case isa::Csr::kTvec:
        return s.tvec;
      case isa::Csr::kTval:
        return s.tval;
      case isa::Csr::kScratch:
        return s.scratch;
      case isa::Csr::kPtbr:
        return s.ptbr;
      case isa::Csr::kTime:
        return static_cast<uint32_t>(Now());
      case isa::Csr::kTimecmp: {
        // Reads back the remaining delta (see WriteCsr).
        SimTime now = Now();
        if (s.timecmp == 0 || s.timecmp <= now) {
          return 0;
        }
        uint64_t delta = s.timecmp - now;
        return delta > std::numeric_limits<uint32_t>::max()
                   ? std::numeric_limits<uint32_t>::max()
                   : static_cast<uint32_t>(delta);
      }
      case isa::Csr::kCycle:
        return static_cast<uint32_t>(s.cycle + cycles_);
      case isa::Csr::kInstret:
        return static_cast<uint32_t>(s.instret + instret_);
      case isa::Csr::kHartid:
        return s.hartid;
      case isa::Csr::kIpend:
        return s.ipend;
    }
    return 0;
  }

  void WriteCsr(isa::Csr csr, uint32_t value, uint32_t old) {
    using isa::StatusBits;
    CpuState& s = ctx_.state;
    switch (csr) {
      case isa::Csr::kStatus: {
        uint32_t changed = old ^ value;
        s.status = value;
        if (changed & StatusBits::kPg) {
          // The code bytes are unchanged; only the va→pa mapping moved.
          ctx_.virt->OnPagingToggle();
          engine_->InvalidateMappings();
        }
        break;
      }
      case isa::Csr::kCause:
        s.cause = value;
        break;
      case isa::Csr::kEpc:
        s.epc = value;
        break;
      case isa::Csr::kTvec:
        s.tvec = value;
        break;
      case isa::Csr::kTval:
        s.tval = value;
        break;
      case isa::Csr::kScratch:
        s.scratch = value;
        break;
      case isa::Csr::kPtbr:
        s.ptbr = value;
        Charge(ctx_.virt->OnPtbrWrite(value));
        engine_->OnAddressSpaceSwitch();
        break;
      case isa::Csr::kTimecmp:
        // TIMECMP is written as a *delta* in cycles from now (0 disables),
        // which sidesteps 64-bit time in 32-bit CSRs. It reads back as the
        // remaining delta.
        s.timecmp = value == 0 ? 0 : Now() + value;
        s.ClearPending(isa::Interrupt::kTimer);
        break;
      case isa::Csr::kTime:
      case isa::Csr::kCycle:
      case isa::Csr::kInstret:
      case isa::Csr::kHartid:
      case isa::Csr::kIpend:
        break;  // read-only: writes are ignored
    }
  }

  bool ExecSret() {
    using isa::StatusBits;
    CpuState& s = ctx_.state;
    if (s.priv() != isa::PrivMode::kSupervisor) {
      Trap(isa::TrapCause::kPrivilegeViolation, 0);
      return true;
    }
    ChargePrivileged();
    uint32_t st = s.status;
    st = (st & ~StatusBits::kIe) | ((st & StatusBits::kPie) ? StatusBits::kIe : 0);
    st |= StatusBits::kPie;
    st = (st & ~StatusBits::kPrv) | ((st & StatusBits::kPprv) ? StatusBits::kPrv : 0);
    st &= ~StatusBits::kPprv;
    s.status = st;
    s.pc = s.epc;
    s.in_ipi_handler = false;
    return true;
  }

  bool ExecWfi() {
    CpuState& s = ctx_.state;
    if (s.priv() != isa::PrivMode::kSupervisor) {
      Trap(isa::TrapCause::kPrivilegeViolation, 0);
      return true;
    }
    ChargePrivileged();
    s.pc += 4;
    if (s.ipend != 0) {
      return true;  // wake immediately
    }
    s.waiting = true;
    ++ctx_.stats.wfi_exits;
    Exit(ExitReason::kWfi);
    return false;
  }

  bool ExecHcall() {
    CpuState& s = ctx_.state;
    if (s.priv() != isa::PrivMode::kSupervisor) {
      Trap(isa::TrapCause::kPrivilegeViolation, 0);
      return true;
    }
    Charge(ctx_.costs->vm_exit + ctx_.costs->hypercall);
    ++ctx_.stats.hypercalls;
    s.pc += 4;  // the VMM resumes after the hypercall
    Exit(ExitReason::kHypercall);
    return false;
  }

  bool ExecSfence(const isa::Instruction& in) {
    CpuState& s = ctx_.state;
    if (s.priv() != isa::PrivMode::kSupervisor) {
      Trap(isa::TrapCause::kPrivilegeViolation, 0);
      return true;
    }
    ChargePrivileged();
    ctx_.virt->OnSfence(s.ReadReg(in.rs1));
    if (s.paging_enabled()) {
      engine_->InvalidateMappings();
    }
    if (s.in_ipi_handler) {
      ++ctx_.stats.shootdowns;  // the remote half of a TLB shootdown
    }
    s.pc += 4;
    return true;
  }

  bool ExecHalt() {
    CpuState& s = ctx_.state;
    if (s.priv() != isa::PrivMode::kSupervisor) {
      Trap(isa::TrapCause::kPrivilegeViolation, 0);
      return true;
    }
    ChargePrivileged();
    s.halted = true;
    Exit(ExitReason::kHalt);
    return false;
  }

  // Word-sized atomic read-modify-write: rd = mem[rs1]; mem[rs1] = (is_add ?
  // old + rs2 : rs2). Atomicity is architectural rather than emulated:
  // sibling vCPU slices of one VM always execute serially on one lane, so an
  // instruction-granular RMW can never interleave with another vCPU's access.
  // Requires store permission on the page; MMIO and write-protected
  // page-table pages take a store fault (no atomics on either).
  bool ExecAmo(const isa::Instruction& in, bool is_add) {
    CpuState& s = ctx_.state;
    uint32_t va = s.ReadReg(in.rs1);
    if (va & 3u) {
      Trap(isa::TrapCause::kStoreMisaligned, va);
      return true;
    }
    // COW breaking may require one retry after the private copy is made.
    for (int attempt = 0; attempt < 3; ++attempt) {
      mmu::TranslateOutcome t = Translate(va, mmu::Access::kStore);
      switch (t.event) {
        case mmu::MemEvent::kGuestFault:
          Trap(t.fault_cause, va);
          return true;
        case mmu::MemEvent::kMissingPage:
          ExitMissingPage(isa::PageNumber(t.gpa));
          return false;
        case mmu::MemEvent::kPtWriteTrap:
          Trap(isa::TrapCause::kStorePageFault, va);
          return true;
        case mmu::MemEvent::kCowBreak: {
          Charge(ctx_.costs->vm_exit + ctx_.costs->cow_break);
          ++ctx_.stats.cow_breaks;
          uint32_t gpn = isa::PageNumber(t.gpa);
          Status st = ctx_.memory->BreakSharing(*phase_, gpn);
          if (!st.ok()) {
            ExitError(std::move(st));
            return false;
          }
          ctx_.virt->InvalidateGpn(gpn);
          continue;
        }
        case mmu::MemEvent::kNone:
          break;
      }
      if (t.is_mmio) {
        Trap(isa::TrapCause::kStorePageFault, va);
        return true;
      }
      uint32_t gpn = isa::PageNumber(t.gpa);
      uint8_t* page = ctx_.memory->pool().FrameData(t.frame);
      uint32_t old = 0;
      std::memcpy(&old, page + isa::VaPageOffset(t.gpa), 4);
      uint32_t next = is_add ? old + s.ReadReg(in.rs2) : s.ReadReg(in.rs2);
      std::memcpy(page + isa::VaPageOffset(t.gpa), &next, 4);
      AfterStore(gpn);
      FastFill(va, t);
      s.WriteReg(in.rd, old);
      s.pc += 4;
      return true;
    }
    ExitError(InternalError("amo did not settle after COW retries"));
    return false;
  }

 public:
  // Shared with the tier-2 compiler/executor (constant folding evaluates
  // through the same tables the interpreter uses, so folds cannot diverge).
  static uint32_t Alu(isa::AluOp op, uint32_t a, uint32_t b) {
    using isa::AluOp;
    switch (op) {
      case AluOp::kAdd:
        return a + b;
      case AluOp::kSub:
        return a - b;
      case AluOp::kAnd:
        return a & b;
      case AluOp::kOr:
        return a | b;
      case AluOp::kXor:
        return a ^ b;
      case AluOp::kSll:
        return a << (b & 31);
      case AluOp::kSrl:
        return a >> (b & 31);
      case AluOp::kSra:
        return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
      case AluOp::kSlt:
        return static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
      case AluOp::kSltu:
        return a < b ? 1 : 0;
      case AluOp::kMul:
        return a * b;
      case AluOp::kMulhu:
        return static_cast<uint32_t>((static_cast<uint64_t>(a) * b) >> 32);
      case AluOp::kDiv: {
        auto sa = static_cast<int32_t>(a);
        auto sb = static_cast<int32_t>(b);
        if (sb == 0) {
          return UINT32_MAX;  // -1
        }
        if (sa == INT32_MIN && sb == -1) {
          return static_cast<uint32_t>(INT32_MIN);
        }
        return static_cast<uint32_t>(sa / sb);
      }
      case AluOp::kDivu:
        return b == 0 ? UINT32_MAX : a / b;
      case AluOp::kRem: {
        auto sa = static_cast<int32_t>(a);
        auto sb = static_cast<int32_t>(b);
        if (sb == 0) {
          return a;
        }
        if (sa == INT32_MIN && sb == -1) {
          return 0;
        }
        return static_cast<uint32_t>(sa % sb);
      }
      case AluOp::kRemu:
        return b == 0 ? a : a % b;
    }
    return 0;
  }

  static bool EvalBranch(isa::BranchCond cond, uint32_t a, uint32_t b) {
    using isa::BranchCond;
    switch (cond) {
      case BranchCond::kEq:
        return a == b;
      case BranchCond::kNe:
        return a != b;
      case BranchCond::kLt:
        return static_cast<int32_t>(a) < static_cast<int32_t>(b);
      case BranchCond::kGe:
        return static_cast<int32_t>(a) >= static_cast<int32_t>(b);
      case BranchCond::kLtu:
        return a < b;
      case BranchCond::kGeu:
        return a >= b;
    }
    return false;
  }

 private:
  VcpuContext& ctx_;
  ExecutionEngine* engine_;
  // See the constructor; `phase_` is never null after construction.
  std::optional<ScopedSerialPhase> fallback_phase_;
  const Phase* phase_ = nullptr;
  const uint64_t guest_insn_cost_;  // hoisted: charged on every instruction
  RunResult result_;
  uint64_t cycles_ = 0;
  uint64_t instret_ = 0;
  bool exited_ = false;
};

}  // namespace hyperion::cpu

#endif  // SRC_CPU_EXEC_CORE_H_
