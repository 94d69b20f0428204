#include "src/core/vm.h"

#include "src/core/host.h"
#include "src/util/logging.h"

namespace hyperion::core {

using isa::Hypercall;

Vm::Vm(Host* host, VmConfig config) : host_(host), config_(std::move(config)) {}

Vm::~Vm() {
  // Teardown only happens between rounds; the runtime-checked token is the
  // evidence (ScopedSerialPhase asserts we are not on a worker lane).
  ScopedSerialPhase serial;
  if (config_.mac != 0 && config_.net_model != IoModel::kNone) {
    (void)host_->vswitch().Detach(serial, config_.mac);
  }
  // Drop every pending clock event that captured `this` (armed timers,
  // in-flight block completions) — they would otherwise fire into freed
  // memory after DestroyVm.
  host_->clock().CancelOwner(serial, clock_owner_);
}

Status Vm::Init(const SerialPhase& ph) {
  if (config_.num_vcpus == 0 || config_.num_vcpus > 16) {
    return InvalidArgumentError("vcpu count must be in [1, 16]");
  }
  clock_owner_ = host_->clock().NewOwner();
  clock_ = ClockRef(&host_->clock(), clock_owner_);
  HYP_ASSIGN_OR_RETURN(memory_, mem::GuestMemory::Create(&host_->pool(), config_.ram_bytes));
  virt_ = mmu::MakeVirtualizer(config_.paging_mode, memory_.get(), host_->costs());
  virt_->ConfigureVcpus(config_.num_vcpus);
  memory_->SetInvalidateHook([this](uint32_t gpn) { InvalidateGpn(gpn); });

  // Platform devices.
  HYP_RETURN_IF_ERROR(bus_.Map(devices::kPicBase, devices::kDeviceWindow, &pic_));
  uart_ = std::make_unique<devices::Uart>(devices::IrqLine(&pic_, devices::kUartIrq));
  HYP_RETURN_IF_ERROR(bus_.Map(devices::kUartBase, devices::kDeviceWindow, uart_.get()));

  // Disk.
  if (config_.disk_model != IoModel::kNone) {
    if (config_.disk == nullptr) {
      return InvalidArgumentError("disk model set but no disk attached");
    }
    if (config_.disk_model == IoModel::kEmulated) {
      emu_blk_ = std::make_unique<devices::EmulatedBlockDevice>(
          config_.disk.get(), devices::IrqLine(&pic_, devices::kBlkIrq), clock_,
          host_->costs());
      HYP_RETURN_IF_ERROR(bus_.Map(devices::kBlkBase, devices::kDeviceWindow, emu_blk_.get()));
    } else {
      vblk_ = std::make_unique<virtio::VirtioBlk>(
          memory_.get(), devices::IrqLine(&pic_, devices::kVirtioIrqBase + 0),
          config_.disk.get(), clock_, host_->costs());
      HYP_RETURN_IF_ERROR(
          bus_.Map(devices::kVirtioBase + 0 * devices::kVirtioStride, devices::kVirtioStride,
                   vblk_.get()));
    }
  }

  // NIC.
  if (config_.net_model != IoModel::kNone) {
    if (config_.mac == 0) {
      return InvalidArgumentError("net model set but mac is zero");
    }
    if (config_.net_model == IoModel::kEmulated) {
      emu_net_ = std::make_unique<devices::EmulatedNetDevice>(
          &host_->vswitch(), config_.mac, devices::IrqLine(&pic_, devices::kNetIrq));
      HYP_RETURN_IF_ERROR(bus_.Map(devices::kNetBase, devices::kDeviceWindow, emu_net_.get()));
      HYP_RETURN_IF_ERROR(host_->vswitch().Attach(ph, config_.mac, emu_net_.get()));
    } else {
      vnet_ = std::make_unique<virtio::VirtioNet>(
          memory_.get(), devices::IrqLine(&pic_, devices::kVirtioIrqBase + 1),
          &host_->vswitch(), config_.mac, clock_, config_.net_opts);
      HYP_RETURN_IF_ERROR(
          bus_.Map(devices::kVirtioBase + 1 * devices::kVirtioStride, devices::kVirtioStride,
                   vnet_.get()));
      HYP_RETURN_IF_ERROR(host_->vswitch().Attach(ph, config_.mac, vnet_.get()));
    }
  }

  // Paravirtual console (always available).
  vcon_ = std::make_unique<virtio::VirtioConsole>(
      memory_.get(), devices::IrqLine(&pic_, devices::kVirtioIrqBase + 2));
  HYP_RETURN_IF_ERROR(bus_.Map(devices::kVirtioBase + 2 * devices::kVirtioStride,
                               devices::kVirtioStride, vcon_.get()));

  // vCPUs.
  for (uint32_t i = 0; i < config_.num_vcpus; ++i) {
    auto unit = std::make_unique<VcpuUnit>();
    unit->ctx.memory = memory_.get();
    unit->ctx.virt = virt_.get();
    unit->ctx.mmio = &bus_;
    unit->ctx.costs = &host_->costs();
    unit->ctx.virt_mode = config_.virt_mode;
    unit->ctx.state.hartid = i;
    // Secondary vCPUs park until the boot vCPU starts them (kStartVcpu).
    unit->ctx.state.waiting = i != 0;
    unit->engine = cpu::MakeEngine(config_.engine, config_.dbt);
    vcpus_.push_back(std::move(unit));
  }

  // External interrupts route to vCPU 0 (single-IOAPIC model). The sink
  // fires in whatever phase asserted the line (MMIO write from a slice,
  // device completion from a serial callback) and passes that phase on.
  pic_.SetSink([this](const Phase& sink_ph, bool level) {
    cpu::CpuState& s = vcpus_[0]->ctx.state;
    if (level) {
      s.RaisePending(isa::Interrupt::kExternal);
      host_->WakeVcpu(sink_ph, this, 0);
    } else {
      s.ClearPending(isa::Interrupt::kExternal);
    }
  });

  // IPI doorbells drive the per-target software-interrupt line. The sink
  // fires only on level edges (the PIC coalesces re-raises), in the phase of
  // the access that moved the doorbell: a sibling's MMIO write from its
  // slice, or a snapshot restore re-raising pending IPIs from a serial
  // phase. Sends are attributed to the vCPU whose slice is executing.
  pic_.SetIpiSink([this](const Phase& sink_ph, uint32_t vcpu, bool level) {
    if (vcpu >= num_vcpus()) {
      return;  // doorbell bits beyond the vCPU count are inert
    }
    cpu::CpuState& s = vcpus_[vcpu]->ctx.state;
    if (level) {
      s.RaisePending(isa::Interrupt::kSoftware);
      if (running_vcpu_ != kNoVcpu) {
        ++vcpus_[running_vcpu_]->ctx.stats.ipis_sent;
      }
      host_->WakeVcpu(sink_ph, this, vcpu);
    } else {
      s.ClearPending(isa::Interrupt::kSoftware);
    }
  });
  return OkStatus();
}

Status Vm::LoadImage(const assembler::Image& image) {
  HYP_RETURN_IF_ERROR(memory_->Write(image.base, image.bytes.data(), image.bytes.size()));
  vcpus_[0]->ctx.state.pc = image.entry();
  for (auto& u : vcpus_) {
    u->engine->FlushCodeCache();
  }
  virt_->FlushAll();
  return OkStatus();
}

SliceResult Vm::RunVcpuSlice(const ExecutePhase& ph, uint32_t vcpu_idx, uint64_t budget) {
  // Publish the slice's phase to the paths that cannot take it as a
  // parameter: the engine reaches it through VcpuContext, and transparent
  // COW breaks inside GuestMemory::Write charge their decref to it.
  vcpus_[vcpu_idx]->ctx.phase = &ph;
  memory_->SetEffectPhase(&ph);
  // Select this vCPU's private TLB (and shadow active root); the engine's
  // fast-translation array validates against its generation automatically.
  virt_->SetActiveVcpu(vcpu_idx);
  running_vcpu_ = vcpu_idx;
  SliceResult res = RunVcpuSliceInner(ph, vcpu_idx, budget);
  running_vcpu_ = kNoVcpu;
  memory_->SetEffectPhase(nullptr);
  vcpus_[vcpu_idx]->ctx.phase = nullptr;
  // Slice boundaries are trap boundaries: every VMM data structure must be
  // coherent here, whatever the guest just did.
  if (verify::AuditEnabled() && state_ == VmState::kRunning) {
    verify::AuditReport report = AuditInvariants();
    if (!report.ok()) {
      Crash(ph, InternalError("invariant audit failed for " + name() + ":\n" +
                              report.ToString()));
      res.end = SliceEnd::kHalted;
    }
  }
  return res;
}

verify::AuditReport Vm::AuditInvariants() const {
  verify::AuditReport report;
  // Every sibling's TLB must be coherent at a trap boundary, not just the
  // vCPU that happened to run: a shootdown bug shows up precisely as a stale
  // entry in somebody *else's* TLB.
  for (uint32_t i = 0; i < num_vcpus(); ++i) {
    const cpu::CpuState& s = vcpus_[i]->ctx.state;
    verify::AuditMmuCoherence(*virt_, s.paging_enabled(), s.ptbr, &report, i);
  }
  if (vblk_ != nullptr) {
    verify::AuditVirtioDevice(*vblk_, *memory_, name() + "/vblk", &report);
  }
  if (vnet_ != nullptr) {
    verify::AuditVirtioDevice(*vnet_, *memory_, name() + "/vnet", &report);
  }
  if (vcon_ != nullptr) {
    verify::AuditVirtioDevice(*vcon_, *memory_, name() + "/vcon", &report);
  }
  return report;
}

SliceResult Vm::RunVcpuSliceInner(const ExecutePhase& ph, uint32_t vcpu_idx,
                                  uint64_t budget) {
  SliceResult res;
  SimTime now = ph.vnow();
  if (state_ != VmState::kRunning) {
    res.end = SliceEnd::kHalted;
    return res;
  }
  VcpuUnit& u = *vcpus_[vcpu_idx];
  uint64_t used = 0;
  while (used < budget) {
    u.ctx.slice_start = now + used;
    cpu::RunResult r = u.engine->Run(u.ctx, budget - used);
    used += r.cycles;
    res.cycles = used;
    switch (r.reason) {
      case cpu::ExitReason::kBudget:
        res.end = SliceEnd::kBudget;
        return res;
      case cpu::ExitReason::kHalt:
        if (AllVcpusHalted() && state_ == VmState::kRunning) {
          state_ = VmState::kShutdown;
        }
        res.end = SliceEnd::kHalted;
        return res;
      case cpu::ExitReason::kWfi: {
        // Arrange a timer wake if one is due in the future.
        uint64_t timecmp = u.ctx.state.timecmp;
        SimTime at = now + used;
        if (timecmp != 0 && timecmp > at) {
          Vm* vm = this;
          uint32_t idx = vcpu_idx;
          clock_.ScheduleAt(ph, timecmp, [vm, idx](const SerialPhase& sp) {
            if (vm->state_ == VmState::kRunning && vm->vcpus_[idx]->ctx.state.waiting) {
              vm->host_->WakeVcpu(sp, vm, idx);
            }
          });
        }
        res.end = SliceEnd::kIdle;
        return res;
      }
      case cpu::ExitReason::kHypercall: {
        SliceEnd end = SliceEnd::kBudget;
        if (!HandleHypercall(ph, vcpu_idx, now + used, &end)) {
          res.end = end;
          return res;
        }
        continue;
      }
      case cpu::ExitReason::kMissingPage: {
        if (missing_page_handler_ && missing_page_handler_(ph, vcpu_idx, r.missing_gpn)) {
          res.end = SliceEnd::kStalled;
          return res;
        }
        Crash(ph, InternalError("access to missing page " + std::to_string(r.missing_gpn) +
                                " with no post-copy handler"));
        res.end = SliceEnd::kHalted;
        return res;
      }
      case cpu::ExitReason::kError:
        Crash(ph, r.error);
        res.end = SliceEnd::kHalted;
        return res;
    }
  }
  res.end = SliceEnd::kBudget;
  return res;
}

bool Vm::HandleHypercall(const ExecutePhase& ph, uint32_t vcpu_idx, SimTime now,
                         SliceEnd* end) {
  cpu::CpuState& s = vcpus_[vcpu_idx]->ctx.state;
  auto num = static_cast<Hypercall>(s.ReadReg(isa::kA0));
  uint32_t a1 = s.ReadReg(isa::kA1);
  uint32_t a2 = s.ReadReg(isa::kA2);
  uint32_t ret = 0;

  switch (num) {
    case Hypercall::kConsolePutChar:
      console_.push_back(static_cast<char>(a1 & 0xFF));
      break;
    case Hypercall::kConsoleWrite: {
      // ABI: a1 = guest-physical buffer, a2 = length.
      std::string buf(a2, '\0');
      if (memory_->Read(a1, buf.data(), a2).ok()) {
        console_ += buf;
      } else {
        ret = UINT32_MAX;
      }
      break;
    }
    case Hypercall::kYield:
      s.WriteReg(isa::kA0, 0);
      *end = SliceEnd::kYielded;
      return false;
    case Hypercall::kGetTimeUs:
      ret = static_cast<uint32_t>(now / kSimTicksPerUs);
      break;
    case Hypercall::kShutdown:
      for (auto& u : vcpus_) {
        u->ctx.state.halted = true;
      }
      state_ = VmState::kShutdown;
      *end = SliceEnd::kHalted;
      return false;
    case Hypercall::kBalloonInflate: {
      Status st = memory_->ReleasePage(ph, a1);
      if (st.ok()) {
        ++ballooned_pages_;
      } else {
        ret = 1;
      }
      break;
    }
    case Hypercall::kBalloonDeflate: {
      Status st = memory_->PopulatePage(a1);
      if (st.ok()) {
        if (ballooned_pages_ > 0) {
          --ballooned_pages_;
        }
      } else {
        ret = 1;
      }
      break;
    }
    case Hypercall::kVirtioKick: {
      virtio::VirtioDevice* dev = nullptr;
      switch (a1) {
        case 0:
          dev = vblk_.get();
          break;
        case 1:
          dev = vnet_.get();
          break;
        case 2:
          dev = vcon_.get();
          break;
        default:
          break;
      }
      if (dev == nullptr || !dev->Kick(ph, static_cast<uint16_t>(a2)).ok()) {
        ret = 1;
      }
      break;
    }
    case Hypercall::kLogValue:
      logged_.push_back(a1);
      break;
    case Hypercall::kBalloonGetTarget:
      ret = balloon_target_pages_;
      break;
    case Hypercall::kStartVcpu: {
      uint32_t a3 = s.ReadReg(isa::kA3);
      if (a1 == 0 || a1 >= num_vcpus()) {
        ret = 1;
        break;
      }
      cpu::CpuState& target = vcpus_[a1]->ctx.state;
      if (!target.waiting || target.halted) {
        ret = 2;  // already started
        break;
      }
      target.pc = a2;
      target.WriteReg(isa::kA0, a3);
      host_->WakeVcpu(ph, this, a1);
      break;
    }
    case Hypercall::kVcpuCount:
      ret = num_vcpus();
      break;
    default:
      ret = UINT32_MAX;  // unknown hypercall
      break;
  }
  s.WriteReg(isa::kA0, ret);
  return true;
}

void Vm::Pause(const Phase& ph) {
  if (state_ == VmState::kRunning) {
    state_ = VmState::kPaused;
    for (uint32_t i = 0; i < num_vcpus(); ++i) {
      host_->BlockVcpu(ph, this, i);
    }
  }
}

void Vm::Resume(const Phase& ph) {
  if (state_ == VmState::kPaused) {
    state_ = VmState::kRunning;
    for (uint32_t i = 0; i < num_vcpus(); ++i) {
      if (!vcpus_[i]->ctx.state.halted && !vcpus_[i]->ctx.state.waiting) {
        host_->WakeVcpu(ph, this, i);
      }
    }
  }
}

bool Vm::AllVcpusHalted() const {
  for (const auto& u : vcpus_) {
    if (!u->ctx.state.halted) {
      return false;
    }
  }
  return true;
}

cpu::VcpuStats Vm::TotalStats() const {
  cpu::VcpuStats total;
  for (const auto& u : vcpus_) {
    const cpu::VcpuStats& s = u->ctx.stats;
    total.instructions += s.instructions;
    total.cycles += s.cycles;
    total.mmio_exits += s.mmio_exits;
    total.hypercalls += s.hypercalls;
    total.pt_write_exits += s.pt_write_exits;
    total.cow_breaks += s.cow_breaks;
    total.wfi_exits += s.wfi_exits;
    total.priv_emulations += s.priv_emulations;
    total.guest_traps += s.guest_traps;
    total.interrupts_delivered += s.interrupts_delivered;
    total.dirty_first_writes += s.dirty_first_writes;
    total.blocks_translated += s.blocks_translated;
    total.block_executions += s.block_executions;
    total.chain_hits += s.chain_hits;
    total.traces_formed += s.traces_formed;
    total.trace_executions += s.trace_executions;
    total.mem_fastpath_hits += s.mem_fastpath_hits;
    total.mem_fastpath_misses += s.mem_fastpath_misses;
    total.evictions_surgical += s.evictions_surgical;
    total.evictions_full += s.evictions_full;
    total.ipis_sent += s.ipis_sent;
    total.ipis_received += s.ipis_received;
    total.shootdowns += s.shootdowns;
    total.tier2_promotions += s.tier2_promotions;
    total.tier2_executions += s.tier2_executions;
    total.deopts += s.deopts;
    total.guards_elided += s.guards_elided;
    total.csr_writes_elided += s.csr_writes_elided;
    total.tier2_ops_folded += s.tier2_ops_folded;
    total.tier2_ops_dead += s.tier2_ops_dead;
    total.persist_hits += s.persist_hits;
    total.persist_misses += s.persist_misses;
  }
  return total;
}

void Vm::Crash(const Phase& ph, const Status& reason) {
  HYP_LOG(kError) << "vm '" << config_.name << "' crashed: " << reason.ToString();
  state_ = VmState::kCrashed;
  crash_reason_ = reason;
  for (uint32_t i = 0; i < num_vcpus(); ++i) {
    host_->BlockVcpu(ph, this, i);
  }
}

void Vm::InvalidateGpn(uint32_t gpn) {
  virt_->InvalidateGpn(gpn);
  for (auto& u : vcpus_) {
    u->engine->InvalidateCodePage(gpn);
  }
}

}  // namespace hyperion::core
