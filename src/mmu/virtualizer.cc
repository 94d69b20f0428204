#include "src/mmu/virtualizer.h"

#include <sstream>

namespace hyperion::mmu {

void MemoryVirtualizer::OnSfence(uint32_t va) {
  // sfence is local to the executing vCPU, as on real hardware; flushing the
  // siblings is the guest's job (IPI shootdown).
  if (va == 0) {
    tlb_->FlushAll();
  } else {
    tlb_->FlushPage(isa::PageNumber(va));
  }
}

void MemoryVirtualizer::OnPagingToggle() { tlb_->FlushAll(); }

void MemoryVirtualizer::OnPtWriteEmulated(uint32_t gpa, uint32_t size) {
  (void)gpa;
  (void)size;
}

void MemoryVirtualizer::InvalidateGpn(uint32_t gpn) {
  // VMM-side page change: every vCPU's cached translations are stale.
  for (Tlb& t : tlbs_) {
    t.FlushGpn(gpn);
  }
}

void MemoryVirtualizer::ConfigureVcpus(uint32_t num_vcpus) {
  while (tlbs_.size() < num_vcpus) {
    tlbs_.emplace_back(kTlbEntries);
  }
  while (tlbs_.size() > num_vcpus && tlbs_.size() > 1) {
    tlbs_.pop_back();
  }
  active_vcpu_ = 0;
  tlb_ = &tlbs_.front();
  FlushAll();
}

void MemoryVirtualizer::SetActiveVcpu(uint32_t vcpu) {
  if (vcpu < tlbs_.size()) {
    active_vcpu_ = vcpu;
    tlb_ = &tlbs_[vcpu];
  }
}

TranslateOutcome MemoryVirtualizer::ResolveGpa(uint32_t gpa, Access access, bool pte_writable,
                                               uint64_t cost) {
  TranslateOutcome out;
  out.cost = cost;
  out.gpa = gpa;
  if (isa::IsMmio(gpa)) {
    out.is_mmio = true;
    return out;
  }
  uint32_t gpn = isa::PageNumber(gpa);
  if (gpn >= memory_->num_pages()) {
    // Access beyond RAM: surfaced to the guest as a page fault.
    out.event = MemEvent::kGuestFault;
    out.fault_cause = FaultCauseFor(access);
    ++stats_.guest_faults;
    return out;
  }
  if (!memory_->IsPresent(gpn)) {
    out.event = MemEvent::kMissingPage;
    return out;
  }
  bool wp = memory_->IsWriteProtected(gpn);
  bool shared = memory_->IsShared(gpn);
  if (access == Access::kStore) {
    if (wp) {
      out.event = MemEvent::kPtWriteTrap;
      ++stats_.pt_write_traps;
      return out;
    }
    if (shared) {
      out.event = MemEvent::kCowBreak;
      return out;
    }
  }
  out.frame = memory_->FrameForPage(gpn);
  out.writable = pte_writable && !wp && !shared;
  return out;
}

TranslateOutcome MemoryVirtualizer::TranslateBare(uint32_t va, Access access) {
  ++stats_.translations;
  if (!isa::IsMmio(va)) {
    uint32_t vpn = isa::PageNumber(va);
    const TlbEntry* e = tlb_->Lookup(vpn);
    if (e != nullptr && RightsAllow(access, e->readable, e->writable, e->executable)) {
      TranslateOutcome out;
      out.gpa = va;
      out.frame = e->frame;
      out.writable = e->writable;
      out.readable = e->readable;
      out.executable = e->executable;
      out.user = e->user;
      out.cost = costs_.tlb_hit;
      return out;
    }
  }
  TranslateOutcome out = ResolveGpa(va, access, /*pte_writable=*/true, costs_.tlb_fill);
  // With no page tables every access kind is permitted.
  out.readable = true;
  out.executable = true;
  out.user = true;
  if (out.event == MemEvent::kNone && !out.is_mmio) {
    TlbEntry e;
    e.vpn = isa::PageNumber(va);
    e.gpn = isa::PageNumber(out.gpa);
    e.frame = out.frame;
    e.writable = out.writable;
    e.readable = true;
    e.executable = true;
    e.user = true;
    tlb_->Insert(e);
    ++stats_.tlb_fill;
  }
  return out;
}

// ---------------------------------------------------------------------------
// BarePassthrough
// ---------------------------------------------------------------------------

TranslateOutcome BarePassthrough::Translate(uint32_t va, Access access, isa::PrivMode priv,
                                            bool paging, uint32_t ptbr) {
  (void)priv;
  (void)paging;  // with no page tables there is nothing paging could change
  (void)ptbr;
  return TranslateBare(va, access);
}

uint64_t BarePassthrough::OnPtbrWrite(uint32_t new_ptbr) {
  (void)new_ptbr;
  return 0;
}

std::unique_ptr<MemoryVirtualizer> MakeBarePassthrough(mem::GuestMemory* memory,
                                                       const CostModel& costs) {
  return std::make_unique<BarePassthrough>(memory, costs);
}

std::unique_ptr<MemoryVirtualizer> MakeVirtualizer(PagingMode mode, mem::GuestMemory* memory,
                                                   const CostModel& costs) {
  switch (mode) {
    case PagingMode::kShadow:
      return MakeShadowPaging(memory, costs);
    case PagingMode::kNested:
      return MakeNestedPaging(memory, costs);
    case PagingMode::kNestedAsid:
      return MakeNestedPaging(memory, costs, /*asid_tlb=*/true);
  }
  return nullptr;
}

void MemoryVirtualizer::AuditInvariants(bool paging, uint32_t ptbr,
                                        std::vector<std::string>* violations,
                                        uint32_t vcpu) const {
  (void)ptbr;
  if (vcpu >= tlbs_.size()) {
    violations->push_back(std::string(name()) + " audit: vcpu index out of range");
    return;
  }
  tlbs_[vcpu].ForEachValid([&](const TlbEntry& e) {
    std::ostringstream where;
    where << name() << " TLB[vcpu" << vcpu << "] vpn=0x" << std::hex << e.vpn
          << " asid=" << std::dec << e.asid << ": ";
    if (!paging && e.gpn != e.vpn) {
      violations->push_back(where.str() + "non-identity entry while paging is off");
      return;
    }
    mem::HostFrame backing = memory_->FrameForPage(e.gpn);
    if (backing == mem::kInvalidFrame) {
      violations->push_back(where.str() + "maps absent guest page");
      return;
    }
    if (e.frame != backing) {
      std::ostringstream os;
      os << where.str() << "caches frame " << e.frame
         << " but the guest page is backed by frame " << backing;
      violations->push_back(os.str());
    }
    if (e.writable && memory_->IsShared(e.gpn)) {
      violations->push_back(where.str() + "writable entry covers a KSM-shared page");
    }
    if (e.writable && memory_->IsWriteProtected(e.gpn)) {
      violations->push_back(where.str() + "writable entry covers a write-protected page");
    }
  });
}

}  // namespace hyperion::mmu
