// The virtual machine: guest memory, vCPUs, devices, and the hypercall ABI.
//
// A Vm is created on (and owned by) a Host, which supplies the frame pool,
// simulated clock, virtual switch and scheduler. The Vm owns everything
// guest-visible: its GuestMemory, memory virtualizer, per-vCPU execution
// engines, MMIO bus and devices.

#ifndef SRC_CORE_VM_H_
#define SRC_CORE_VM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/asm/assembler.h"
#include "src/cpu/context.h"
#include "src/cpu/dbt.h"
#include "src/devices/emulated_blk.h"
#include "src/devices/emulated_net.h"
#include "src/devices/mmio.h"
#include "src/devices/pic.h"
#include "src/devices/uart.h"
#include "src/mem/guest_memory.h"
#include "src/mmu/virtualizer.h"
#include "src/sched/scheduler.h"
#include "src/util/phase.h"
#include "src/storage/block_store.h"
#include "src/verify/audit.h"
#include "src/virtio/virtio_blk.h"
#include "src/virtio/virtio_console.h"
#include "src/virtio/virtio_net.h"

namespace hyperion::core {

// How disk and network attach to the guest.
enum class IoModel : uint8_t {
  kNone = 0,       // no device
  kEmulated = 1,   // register-level PIO emulation (trap per register access)
  kParavirt = 2,   // virtio rings (DMA + batched kicks)
};

struct VmConfig {
  std::string name = "vm";
  uint32_t ram_bytes = 4u << 20;
  uint32_t num_vcpus = 1;
  mmu::PagingMode paging_mode = mmu::PagingMode::kNested;
  cpu::EngineKind engine = cpu::EngineKind::kInterpreter;
  cpu::DbtOptions dbt;  // tier-2 threshold / cache size (DBT engines only)
  cpu::VirtMode virt_mode = cpu::VirtMode::kHardwareAssist;
  sched::EntityConfig sched;

  IoModel disk_model = IoModel::kNone;
  std::shared_ptr<storage::BlockStore> disk;

  IoModel net_model = IoModel::kNone;
  net::MacAddr mac = 0;  // must be nonzero when net_model != kNone
  virtio::VirtioNetOptions net_opts;
};

enum class VmState : uint8_t {
  kRunning = 0,
  kPaused,
  kShutdown,  // guest powered itself off (halt/shutdown hypercall)
  kCrashed,   // unrecoverable guest or VMM error
};

// Why a vCPU slice ended, from the host scheduler's perspective.
enum class SliceEnd : uint8_t {
  kBudget = 0,   // consumed its timeslice
  kIdle,         // parked in WFI
  kHalted,       // vCPU (or whole VM) done
  kYielded,      // guest yielded the remainder of its slice
  kStalled,      // blocked on the VMM (e.g. post-copy page fetch)
};

struct SliceResult {
  SliceEnd end = SliceEnd::kBudget;
  uint64_t cycles = 0;
};

class Host;

class Vm {
 public:
  // Invoked on a missing-page access (post-copy demand paging). Runs inside
  // the faulting vCPU's slice, so it receives the slice's ExecutePhase —
  // everything it does (demand-fetch scheduling, wakes) must stage. Returns
  // true when the fault is being handled asynchronously: the vCPU stalls and
  // must be woken once the page arrives. Returning false crashes the VM.
  using MissingPageHandler =
      std::function<bool(const ExecutePhase& ph, uint32_t vcpu, uint32_t gpn)>;

  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  const VmConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  VmState state() const { return state_; }
  uint32_t num_vcpus() const { return static_cast<uint32_t>(vcpus_.size()); }

  // Loads an assembled image into guest RAM and points vCPU 0 at its entry.
  Status LoadImage(const assembler::Image& image);

  // Runs one vCPU for at most `budget` cycles from the slice's start time
  // (ph.vnow()), handling hypercalls inline. Only the host run loop can mint
  // the ExecutePhase this demands; the token (and the effect-phase pointers
  // derived from it) threads through every side effect the slice performs.
  SliceResult RunVcpuSlice(const ExecutePhase& ph, uint32_t vcpu, uint64_t budget);

  // Lifecycle. Dual-regime: Pause/Resume run serially (migration, tests)
  // but Crash also fires from inside a slice (engine fault), so all three
  // take the caller's phase and route their scheduler effects through it.
  void Pause(const Phase& ph);
  void Resume(const Phase& ph);
  bool AllVcpusHalted() const;

  // --- Introspection / host-side controls -----------------------------------

  mem::GuestMemory& memory() { return *memory_; }
  const mem::GuestMemory& memory() const { return *memory_; }
  mmu::MemoryVirtualizer& virt() { return *virt_; }
  cpu::VcpuContext& vcpu(uint32_t i) { return vcpus_[i]->ctx; }
  const cpu::VcpuContext& vcpu(uint32_t i) const { return vcpus_[i]->ctx; }
  cpu::ExecutionEngine& engine(uint32_t i) { return *vcpus_[i]->engine; }
  devices::MmioBus& bus() { return bus_; }
  devices::Uart* uart() { return uart_.get(); }
  devices::InterruptController& pic() { return pic_; }
  devices::EmulatedBlockDevice* emulated_blk() { return emu_blk_.get(); }
  virtio::VirtioBlk* virtio_blk() { return vblk_.get(); }
  virtio::VirtioNet* virtio_net() { return vnet_.get(); }
  virtio::VirtioConsole* virtio_console() { return vcon_.get(); }
  devices::EmulatedNetDevice* emulated_net() { return emu_net_.get(); }

  // Console text accumulated through the console hypercalls.
  const std::string& console() const { return console_; }
  // Values recorded by the kLogValue hypercall (test/bench instrumentation).
  const std::vector<uint32_t>& logged_values() const { return logged_; }

  // Balloon target communicated to the guest driver (pages).
  void SetBalloonTarget(uint32_t pages) { balloon_target_pages_ = pages; }
  uint32_t balloon_target() const { return balloon_target_pages_; }
  uint32_t ballooned_pages() const { return ballooned_pages_; }

  void SetMissingPageHandler(MissingPageHandler handler) {
    missing_page_handler_ = std::move(handler);
  }

  // Snapshot restore support: replaces the host-side VM state (console
  // buffer, logged values, balloon bookkeeping).
  void RestoreHostSideState(std::string console, std::vector<uint32_t> logged,
                            uint32_t balloon_target) {
    console_ = std::move(console);
    logged_ = std::move(logged);
    balloon_target_pages_ = balloon_target;
    ballooned_pages_ = 0;
    for (uint32_t gpn = 0; gpn < memory_->num_pages(); ++gpn) {
      if (!memory_->IsPresent(gpn)) {
        ++ballooned_pages_;
      }
    }
  }

  // Aggregated stats over all vCPUs.
  cpu::VcpuStats TotalStats() const;

  // Runs the invariant auditors (src/verify) over this VM: MMU coherence for
  // *every* vCPU's TLB, each checked under that vCPU's own STATUS/PTBR CSRs,
  // plus every virtio queue. Called automatically at slice boundaries when
  // HYPERION_AUDIT is on (a violation crashes the VM); tests may call it
  // directly at any trap boundary.
  verify::AuditReport AuditInvariants() const;

  // Marks the VM crashed (also used by the host on fatal conditions).
  void Crash(const Phase& ph, const Status& reason);
  const Status& crash_reason() const { return crash_reason_; }

  // Invalidates cached translations for a guest page on every vCPU engine
  // and the virtualizer (the memory's invalidate hook, post-copy overwrites).
  void InvalidateGpn(uint32_t gpn);

 private:
  friend class Host;
  Vm(Host* host, VmConfig config);
  Status Init(const SerialPhase& ph);

  struct VcpuUnit {
    cpu::VcpuContext ctx;
    std::unique_ptr<cpu::ExecutionEngine> engine;
  };

  // Handles one hypercall; returns false when the slice must end (yield,
  // shutdown, stall) with `end` set accordingly.
  bool HandleHypercall(const ExecutePhase& ph, uint32_t vcpu, SimTime now, SliceEnd* end);

  // RunVcpuSlice body; the public wrapper appends the audit hook.
  SliceResult RunVcpuSliceInner(const ExecutePhase& ph, uint32_t vcpu, uint64_t budget);

  Host* host_;
  VmConfig config_;
  // Owner tag for every clock event this VM (or its devices) schedules;
  // ~Vm cancels them so in-flight timers/completions never dangle.
  uint64_t clock_owner_ = 0;
  ClockRef clock_;
  VmState state_ = VmState::kRunning;
  Status crash_reason_;

  std::unique_ptr<mem::GuestMemory> memory_;
  std::unique_ptr<mmu::MemoryVirtualizer> virt_;
  std::vector<std::unique_ptr<VcpuUnit>> vcpus_;

  devices::MmioBus bus_;
  devices::InterruptController pic_;
  std::unique_ptr<devices::Uart> uart_;
  std::unique_ptr<devices::EmulatedBlockDevice> emu_blk_;
  std::unique_ptr<devices::EmulatedNetDevice> emu_net_;
  std::unique_ptr<virtio::VirtioBlk> vblk_;
  std::unique_ptr<virtio::VirtioNet> vnet_;
  std::unique_ptr<virtio::VirtioConsole> vcon_;

  // vCPU whose slice is currently executing, or kNoVcpu between slices.
  // Same-VM slices always run serially on one lane, so a plain field is
  // race-free; it attributes IPI doorbell raises to their sender.
  static constexpr uint32_t kNoVcpu = UINT32_MAX;
  uint32_t running_vcpu_ = kNoVcpu;

  std::string console_;
  std::vector<uint32_t> logged_;
  uint32_t balloon_target_pages_ = 0;
  uint32_t ballooned_pages_ = 0;
  MissingPageHandler missing_page_handler_;
};

}  // namespace hyperion::core

#endif  // SRC_CORE_VM_H_
