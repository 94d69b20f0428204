// Memory virtualization strategies.
//
// A MemoryVirtualizer turns guest virtual addresses into host frames. Two
// production strategies are provided, reproducing the classic trade-off:
//
//  * ShadowPaging — the VMM maintains shadow translations built by software
//    walks. Guest page-table pages are write-protected, so PT updates trap
//    (expensive PT churn) but steady-state misses cost a short walk.
//  * NestedPaging — hardware-style two-dimensional walks. PT updates are
//    free, but every TLB miss pays the (g+1)·(n+1)−1 step 2-D walk.
//
// BarePassthrough serves guests running with paging disabled.
//
// The virtualizer also folds in host-side page states: write-protected pages
// (shadow PT interception), COW-shared pages (KSM), and absent pages
// (balloon, post-copy migration). These surface as MemEvents that the VMM
// run loop handles.

#ifndef SRC_MMU_VIRTUALIZER_H_
#define SRC_MMU_VIRTUALIZER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/hv32.h"
#include "src/mem/guest_memory.h"
#include "src/mmu/tlb.h"
#include "src/mmu/walker.h"
#include "src/util/cost_model.h"

namespace hyperion::mmu {

enum class MemEvent : uint8_t {
  kNone = 0,       // translation succeeded
  kGuestFault,     // inject a page fault into the guest
  kPtWriteTrap,    // store hit a write-protected guest PT page (shadow)
  kCowBreak,       // store hit a KSM-shared page
  kMissingPage,    // access hit an absent page (balloon / post-copy)
};

struct TranslateOutcome {
  MemEvent event = MemEvent::kNone;

  // kNone:
  uint32_t gpa = 0;
  mem::HostFrame frame = mem::kInvalidFrame;  // kInvalidFrame when is_mmio
  bool is_mmio = false;
  bool writable = false;    // whether this outcome came via a write-enabled path
  bool readable = false;    // leaf R permission of the mapping
  bool executable = false;  // leaf X permission of the mapping
  bool user = false;        // leaf U permission of the mapping

  // kGuestFault:
  isa::TrapCause fault_cause = isa::TrapCause::kLoadPageFault;

  // All events: cycles to charge for this translation.
  uint64_t cost = 0;
};

struct MmuStats {
  uint64_t translations = 0;
  uint64_t tlb_fill = 0;
  uint64_t walks = 0;
  uint64_t walk_steps = 0;      // charged PT memory references (2-D inflated)
  uint64_t hidden_faults = 0;   // shadow misses that modeled a VM exit
  uint64_t shadow_syncs = 0;    // shadow entries constructed
  uint64_t root_builds = 0;
  uint64_t root_switches = 0;
  uint64_t pt_write_traps = 0;
  uint64_t guest_faults = 0;
};

class MemoryVirtualizer {
 public:
  // Entries in each per-vCPU TLB.
  static constexpr size_t kTlbEntries = 256;

  explicit MemoryVirtualizer(mem::GuestMemory* memory,
                             const CostModel& costs = CostModel::Default())
      : memory_(memory), costs_(costs) {
    tlbs_.emplace_back(kTlbEntries);
    tlb_ = &tlbs_.front();
  }
  virtual ~MemoryVirtualizer() = default;

  MemoryVirtualizer(const MemoryVirtualizer&) = delete;
  MemoryVirtualizer& operator=(const MemoryVirtualizer&) = delete;

  virtual std::string_view name() const = 0;

  // Translates `va` for `access` under the given paging state.
  virtual TranslateOutcome Translate(uint32_t va, Access access, isa::PrivMode priv, bool paging,
                                     uint32_t ptbr) = 0;

  // Guest executed sfence: vpn-targeted when va != 0, otherwise full flush.
  virtual void OnSfence(uint32_t va);

  // Guest wrote the PTBR CSR (address-space switch).
  virtual uint64_t OnPtbrWrite(uint32_t new_ptbr) = 0;

  // Guest toggled paging in STATUS.
  virtual void OnPagingToggle();

  // The VMM emulated a trapped store of `size` bytes at guest-physical `gpa`
  // (shadow paging PT interception).
  virtual void OnPtWriteEmulated(uint32_t gpa, uint32_t size);

  // Backing of guest page `gpn` changed under the guest (KSM merge/unmerge,
  // balloon, migration page arrival): drop every cached translation to it.
  virtual void InvalidateGpn(uint32_t gpn);

  virtual void FlushAll() {
    for (Tlb& t : tlbs_) {
      t.FlushAll();
    }
  }

  // --- SMP -------------------------------------------------------------------
  //
  // Each vCPU owns a private software TLB (and fast-translation array keyed
  // to its generation), mirroring per-core hardware TLBs. Guest-local
  // maintenance (sfence, paging toggle, ptbr write) touches only the active
  // vCPU's TLB — cross-vCPU coherence is the *guest's* job, via the IPI
  // shootdown protocol. VMM-side page events (COW, KSM, balloon, migration,
  // shadow PT invalidation) flush every vCPU's TLB: the VMM must never rely
  // on guest shootdowns for its own consistency.

  // Sizes the per-vCPU TLB array. Called once at VM init, before any
  // translation; existing cached state is discarded.
  virtual void ConfigureVcpus(uint32_t num_vcpus);

  // Selects which vCPU's TLB subsequent Translate/OnSfence/... calls use.
  // Called at slice entry (and by audits); cheap pointer swap.
  virtual void SetActiveVcpu(uint32_t vcpu);

  uint32_t active_vcpu() const { return active_vcpu_; }
  uint32_t num_tlbs() const { return static_cast<uint32_t>(tlbs_.size()); }

  // Invariant audit (debug; see src/verify/audit.h): appends a human-readable
  // line to `violations` for every cached translation that disagrees with the
  // authoritative guest/host state under the current paging mode. The base
  // implementation checks host-side TLB invariants that hold for every
  // strategy: no entry maps an absent page or a stale frame, writable entries
  // never cover KSM-shared or write-protected pages, and with paging off all
  // entries are identity. Strategies with more internal state (shadow roots)
  // extend it. Must not mutate any state. `vcpu` selects which vCPU's TLB
  // (and, under shadow paging, active root) is checked; `paging`/`ptbr` must
  // come from that same vCPU's CSRs.
  virtual void AuditInvariants(bool paging, uint32_t ptbr,
                               std::vector<std::string>* violations,
                               uint32_t vcpu = 0) const;

  mem::GuestMemory& memory() { return *memory_; }
  Tlb& tlb() { return *tlb_; }
  Tlb& tlb(uint32_t vcpu) { return tlbs_[vcpu]; }
  const Tlb& tlb(uint32_t vcpu) const { return tlbs_[vcpu]; }
  const MmuStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = MmuStats{};
    for (Tlb& t : tlbs_) {
      t.ResetStats();
    }
  }

 protected:
  // Final host-side checks once the guest-physical address is known. Applies
  // MMIO detection, presence, COW and write-protection rules.
  TranslateOutcome ResolveGpa(uint32_t gpa, Access access, bool pte_writable, uint64_t cost);

  // Identity translation used while the guest runs with paging disabled.
  TranslateOutcome TranslateBare(uint32_t va, Access access);

  mem::GuestMemory* memory_;
  const CostModel& costs_;
  // Per-vCPU TLBs (deque: growth must not move the active pointer). `tlb_`
  // always points at the active vCPU's TLB.
  std::deque<Tlb> tlbs_;
  Tlb* tlb_;
  uint32_t active_vcpu_ = 0;
  MmuStats stats_;
};

// Paging-off operation: gva == gpa. Also used as the fallback path by the
// other strategies when the guest has not yet enabled paging.
class BarePassthrough final : public MemoryVirtualizer {
 public:
  using MemoryVirtualizer::MemoryVirtualizer;

  std::string_view name() const override { return "bare"; }
  TranslateOutcome Translate(uint32_t va, Access access, isa::PrivMode priv, bool paging,
                             uint32_t ptbr) override;
  uint64_t OnPtbrWrite(uint32_t new_ptbr) override;
};

// Factory helpers.
std::unique_ptr<MemoryVirtualizer> MakeShadowPaging(mem::GuestMemory* memory,
                                                    const CostModel& costs = CostModel::Default());
// `asid_tlb` enables address-space tags in the TLB, so PTBR switches keep
// other spaces' translations warm (the ASID/PCID ablation of experiment F1c).
std::unique_ptr<MemoryVirtualizer> MakeNestedPaging(mem::GuestMemory* memory,
                                                    const CostModel& costs = CostModel::Default(),
                                                    bool asid_tlb = false);
std::unique_ptr<MemoryVirtualizer> MakeBarePassthrough(
    mem::GuestMemory* memory, const CostModel& costs = CostModel::Default());

enum class PagingMode : uint8_t { kShadow = 0, kNested = 1, kNestedAsid = 2 };

std::unique_ptr<MemoryVirtualizer> MakeVirtualizer(PagingMode mode, mem::GuestMemory* memory,
                                                   const CostModel& costs = CostModel::Default());

}  // namespace hyperion::mmu

#endif  // SRC_MMU_VIRTUALIZER_H_
