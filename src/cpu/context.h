// Execution context shared by the interpreter and DBT engines.

#ifndef SRC_CPU_CONTEXT_H_
#define SRC_CPU_CONTEXT_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/cpu/state.h"
#include "src/mem/guest_memory.h"
#include "src/mmu/virtualizer.h"
#include "src/util/cost_model.h"
#include "src/util/phase.h"
#include "src/util/sim_clock.h"

namespace hyperion::cpu {

// CPU-virtualization flavor.
//
//  * kTrapAndEmulate — the guest kernel is deprivileged: every privileged
//    instruction (CSR access, sret, wfi, sfence, halt) and every trap
//    redirection is intercepted and emulated by the VMM, paying an exit.
//  * kHardwareAssist — VT-x-style: privileged guest state is context-switched
//    by hardware, so those instructions run at native cost; only MMIO,
//    hypercalls and host-level faults exit.
enum class VirtMode : uint8_t { kTrapAndEmulate = 0, kHardwareAssist = 1 };

// Why Run() returned.
enum class ExitReason : uint8_t {
  kBudget = 0,    // cycle budget exhausted (timeslice over)
  kHalt,          // guest executed HALT
  kWfi,           // guest parked in WFI with no deliverable interrupt
  kHypercall,     // guest invoked the VMM (number in a0); pc already advanced
  kMissingPage,   // access to an absent page (post-copy demand fetch)
  kError,         // internal error; see `error`
};

struct RunResult {
  ExitReason reason = ExitReason::kBudget;
  uint64_t cycles = 0;        // simulated cycles consumed by this Run call
  uint64_t instructions = 0;  // instructions retired by this Run call
  uint32_t missing_gpn = 0;   // kMissingPage
  Status error;               // kError
};

// Devices attach through this interface (implemented by devices::MmioBus).
// Addresses are guest-physical within the MMIO window; size is 1, 2 or 4.
// Writes carry the caller's phase token: device side effects (doorbells,
// interrupt-line updates, completion scheduling) must stage or act directly
// according to the regime the access happens in (DESIGN.md §9).
class MmioHandler {
 public:
  virtual ~MmioHandler() = default;
  virtual Result<uint32_t> MmioRead(uint32_t gpa, uint32_t size) = 0;
  virtual Status MmioWrite(const Phase& ph, uint32_t gpa, uint32_t size, uint32_t value) = 0;
};

struct VcpuStats {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t mmio_exits = 0;
  uint64_t hypercalls = 0;
  uint64_t pt_write_exits = 0;
  uint64_t cow_breaks = 0;
  uint64_t wfi_exits = 0;
  uint64_t priv_emulations = 0;  // trap-and-emulate interceptions
  uint64_t guest_traps = 0;      // exceptions delivered into the guest
  uint64_t interrupts_delivered = 0;
  uint64_t dirty_first_writes = 0;
  uint64_t blocks_translated = 0;  // DBT only
  uint64_t block_executions = 0;   // DBT only
  uint64_t chain_hits = 0;         // DBT: dispatches resolved via a block link
  uint64_t traces_formed = 0;      // DBT: superblocks stitched from hot loops
  uint64_t trace_executions = 0;   // DBT: full passes through a superblock
  uint64_t mem_fastpath_hits = 0;    // inline memory fast-path hits
  uint64_t mem_fastpath_misses = 0;  // fell through to Virtualizer::Translate
  uint64_t evictions_surgical = 0;   // DBT: single blocks evicted at capacity
  uint64_t evictions_full = 0;       // DBT: whole-cache flushes
  uint64_t ipis_sent = 0;       // IPI doorbell edges this vCPU raised
  uint64_t ipis_received = 0;   // software interrupts delivered to this vCPU
  uint64_t shootdowns = 0;      // sfence executed inside an IPI handler
  uint64_t tier2_promotions = 0;   // DBT: superblocks compiled to tier-2 units
  uint64_t tier2_executions = 0;   // DBT: full passes through a tier-2 unit
  uint64_t deopts = 0;             // DBT: tier-2 bailouts back to tier-1
  uint64_t guards_elided = 0;      // DBT: per-chunk pc guards removed by tier-2
  uint64_t csr_writes_elided = 0;  // DBT: dead scratch-CSR writes removed
  uint64_t tier2_ops_folded = 0;   // DBT: instructions constant-folded
  uint64_t tier2_ops_dead = 0;     // DBT: instructions removed as dead
  uint64_t persist_hits = 0;    // translations re-derived from a snapshot
  uint64_t persist_misses = 0;  // persisted translations rejected on restore

  uint64_t TotalExits() const {
    return mmio_exits + hypercalls + pt_write_exits + cow_breaks + priv_emulations;
  }

  // Field-for-field equality: the staged-execution determinism oracle
  // compares whole per-vCPU stat blocks across worker counts.
  bool operator==(const VcpuStats&) const = default;
};

// L0 translation cache: a tiny direct-mapped va-page → host-frame array
// consulted by ExecCore before the virtual Virtualizer::Translate call.
// Entries are validated against the software TLB's flush generation, so any
// coherence event (sfence, ptbr switch, paging toggle, COW break, KSM/balloon
// or migration page change, shadow-PT invalidation) — all of which funnel
// through a Tlb::Flush* — disables every cached entry at once. Each entry
// carries the leaf R/W/X/U rights of its mapping and serves only access
// kinds those rights cover, so a load-warmed entry never feeds a fetch from
// a non-executable page. The array is a host-side accelerator
// only: hits charge the same simulated cost as a TLB hit, and it can never
// outlive the TLB state it mirrors, which keeps it invisible to the
// ProbeGuest-based coherence audits.
struct FastTranslations {
  static constexpr uint32_t kEntries = 256;  // power of two
  struct Entry {
    uint32_t vpn = 0xFFFFFFFFu;  // no real vpn matches (20-bit page numbers)
    uint32_t gpn = 0;
    uint64_t tlb_gen = 0;  // Tlb generations start at 1, so 0 never matches
    uint8_t* data = nullptr;  // host frame base
    bool writable = false;  // leaf W (store fast path allowed)
    bool read_ok = false;   // leaf R (load fast path allowed)
    bool exec_ok = false;   // leaf X (fetch fast path allowed)
    bool user_ok = false;   // leaf U (user-mode accesses allowed)
  };
  std::array<Entry, kEntries> entries;

  Entry& Slot(uint32_t vpn) { return entries[vpn & (kEntries - 1)]; }
};

// Everything an execution engine needs to run one vCPU.
struct VcpuContext {
  CpuState state;
  mem::GuestMemory* memory = nullptr;
  mmu::MemoryVirtualizer* virt = nullptr;
  MmioHandler* mmio = nullptr;  // may be null: all MMIO faults the guest
  const CostModel* costs = &CostModel::Default();
  VirtMode virt_mode = VirtMode::kHardwareAssist;
  // Phase the current Run call executes under (set by Vm::RunVcpuSlice to
  // the slice's ExecutePhase). Engines fall back to a runtime-checked
  // serial token when null (direct engine use in tests).
  const Phase* phase = nullptr;
  VcpuStats stats;
  FastTranslations fast_tlb;

  // Simulated time at the start of the current Run call; the engine computes
  // guest time as slice_start + cycles-consumed-so-far.
  SimTime slice_start = 0;
};

// An execution engine runs guest instructions until `max_cycles` simulated
// cycles are consumed or an exit condition arises.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;
  virtual std::string_view name() const = 0;
  virtual RunResult Run(VcpuContext& ctx, uint64_t max_cycles) = 0;
  // Discards cached translations derived from guest page `gpn` (DBT).
  virtual void InvalidateCodePage(uint32_t gpn) { (void)gpn; }
  // Discards all cached translations. Used for content changes (image load,
  // snapshot restore): cached code bytes may be stale.
  virtual void FlushCodeCache() {}
  // The guest's va→pa mapping may have changed (SFENCE, paging toggle). Code
  // bytes themselves are unchanged, so engines may invalidate lazily
  // (generation tag + revalidation) as long as stale translations never run.
  virtual void InvalidateMappings() { FlushCodeCache(); }
  // The guest switched address spaces (PTBR write). Translations keyed by the
  // old root stay valid; only cross-block assumptions (chains) must be cut.
  virtual void OnAddressSpaceSwitch() {}
  // Persistent translation cache (DBT). SerializeTranslations records which
  // code the engine has translated as a self-describing versioned blob
  // (empty when the engine has nothing to persist). InstallTranslations
  // replaces the engine's caches by re-deriving each named translation from
  // the guest memory and mappings in `ctx`, dropping any that no longer
  // derive the same. The blob names code but holds none, so whatever it
  // says, the guest runs only code its memory holds.
  virtual std::vector<uint8_t> SerializeTranslations() const { return {}; }
  virtual void InstallTranslations(VcpuContext& ctx,
                                   std::span<const uint8_t> blob) {
    (void)ctx;
    (void)blob;
  }
};

}  // namespace hyperion::cpu

#endif  // SRC_CPU_CONTEXT_H_
