// Nested (two-dimensional) paging.
//
// Models hardware-assisted memory virtualization (EPT/NPT): the guest edits
// its page tables freely and no VM exits are taken for PT maintenance, but a
// TLB miss pays the two-dimensional walk — every guest-PT reference needs a
// nested translation of its own, giving (g+1)·(n+1)−1 memory references for
// g guest levels and n nested levels (8 for 2×2, vs. 2 native).

#include <memory>

#include "src/mmu/virtualizer.h"

namespace hyperion::mmu {

namespace {

class NestedPaging final : public MemoryVirtualizer {
 public:
  NestedPaging(mem::GuestMemory* memory, const CostModel& costs, bool asid_tlb)
      : MemoryVirtualizer(memory, costs), asid_tlb_(asid_tlb) {}

  std::string_view name() const override { return asid_tlb_ ? "nested+asid" : "nested"; }

  TranslateOutcome Translate(uint32_t va, Access access, isa::PrivMode priv, bool paging,
                             uint32_t ptbr) override {
    if (!paging) {
      return TranslateBare(va, access);
    }
    ++stats_.translations;
    uint32_t vpn = isa::PageNumber(va);
    uint32_t asid = asid_tlb_ ? ptbr : 0;

    const TlbEntry* e = tlb_->Lookup(vpn, asid);
    if (e != nullptr && RightsAllow(access, e->readable, e->writable, e->executable) &&
        (priv != isa::PrivMode::kUser || e->user)) {
      TranslateOutcome out;
      out.gpa = (e->gpn << isa::kPageBits) | isa::VaPageOffset(va);
      out.frame = e->frame;
      out.writable = e->writable;
      out.readable = e->readable;
      out.executable = e->executable;
      out.user = e->user;
      out.cost = costs_.tlb_hit;
      return out;
    }

    // Two-dimensional walk: each of the `steps` guest-PT references costs a
    // nested walk (2 refs) plus itself, and the final GPA needs one more
    // nested walk. steps=2 -> 8 references, steps=1 (superpage) -> 5.
    ++stats_.walks;
    WalkResult wr = WalkGuest(*memory_, ptbr, va, access, priv);
    uint64_t refs = static_cast<uint64_t>(wr.steps) * 3 + 2;
    stats_.walk_steps += refs;
    uint64_t cost = refs * costs_.pt_walk_step;
    if (!wr.ok) {
      TranslateOutcome out;
      out.event = MemEvent::kGuestFault;
      out.fault_cause = wr.fault;
      out.cost = cost;
      ++stats_.guest_faults;
      return out;
    }

    TranslateOutcome out = ResolveGpa(wr.gpa, access, wr.writable, cost + costs_.tlb_fill);
    out.readable = wr.readable;
    out.executable = wr.executable;
    out.user = wr.user;
    if (out.event != MemEvent::kNone || out.is_mmio) {
      return out;
    }

    TlbEntry fill;
    fill.vpn = vpn;
    fill.asid = asid;
    fill.gpn = isa::PageNumber(out.gpa);
    fill.frame = out.frame;
    fill.writable = out.writable;
    fill.readable = wr.readable;
    fill.executable = wr.executable;
    fill.user = wr.user;
    fill.superpage = wr.superpage;
    tlb_->Insert(fill);
    ++stats_.tlb_fill;
    return out;
  }

  uint64_t OnPtbrWrite(uint32_t new_ptbr) override {
    (void)new_ptbr;
    // Address-space switch: with ASID tagging, other spaces' entries survive
    // the switch; untagged TLBs flush wholesale. No VMM involvement either way.
    if (!asid_tlb_) {
      tlb_->FlushAll();
    } else {
      // No entries are dropped, but derived caches (the per-vCPU
      // fast-translation array) are untagged and must not survive the switch.
      tlb_->BumpGeneration();
    }
    ++stats_.root_switches;
    return 0;
  }

 private:
  bool asid_tlb_;
};

}  // namespace

std::unique_ptr<MemoryVirtualizer> MakeNestedPaging(mem::GuestMemory* memory,
                                                    const CostModel& costs, bool asid_tlb) {
  return std::make_unique<NestedPaging>(memory, costs, asid_tlb);
}

}  // namespace hyperion::mmu
