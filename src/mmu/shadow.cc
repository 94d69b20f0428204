// Shadow page tables.
//
// The VMM maintains, per guest root (PTBR value), a software map from guest
// VPN to host translation. Misses model the "hidden page fault" VM exit of
// classic shadow paging: the VMM walks the guest tables, constructs a shadow
// entry, and write-protects the guest PT pages it consulted so that later
// guest PTE stores trap (OnPtWriteEmulated) and invalidate exactly the
// entries derived from the touched PT page.

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "src/mmu/virtualizer.h"

namespace hyperion::mmu {

namespace {

class ShadowPaging final : public MemoryVirtualizer {
 public:
  using MemoryVirtualizer::MemoryVirtualizer;

  ~ShadowPaging() override {
    // Drop every write-protection this virtualizer installed.
    for (auto& root : roots_) {
      for (auto& [pt_gpn, vpns] : root->derived) {
        (void)vpns;
        memory_->SetWriteProtected(pt_gpn, false);
      }
    }
  }

  std::string_view name() const override { return "shadow"; }

  TranslateOutcome Translate(uint32_t va, Access access, isa::PrivMode priv, bool paging,
                             uint32_t ptbr) override {
    if (!paging) {
      return TranslateBare(va, access);
    }
    ++stats_.translations;
    uint32_t vpn = isa::PageNumber(va);

    // 1. TLB fast path.
    const TlbEntry* e = tlb_->Lookup(vpn);
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

    Root& root = ActiveRoot(ptbr);

    // 2. Shadow-structure hit (no exit modeled: hardware walks the shadow
    //    table and finds the entry).
    auto it = root.map.find(vpn);
    if (it != root.map.end()) {
      const ShadowEntry& se = it->second;
      bool perm_ok = RightsAllow(access, se.readable, se.writable, se.executable) &&
                     (priv != isa::PrivMode::kUser || se.user);
      if (perm_ok) {
        return FillFromShadow(va, se, costs_.pt_walk_step * 2 + costs_.tlb_fill);
      }
      // Permission mismatch (e.g. first store to a clean page): resync below.
      root.map.erase(it);
    }

    // 3. Hidden page fault: VM exit, software walk, shadow sync.
    uint64_t cost = costs_.vm_exit;
    ++stats_.hidden_faults;
    ++stats_.walks;
    WalkResult wr = WalkGuest(*memory_, ptbr, va, access, priv);
    stats_.walk_steps += static_cast<uint64_t>(wr.steps);
    cost += static_cast<uint64_t>(wr.steps) * costs_.pt_walk_step;
    if (!wr.ok) {
      TranslateOutcome out;
      out.event = MemEvent::kGuestFault;
      out.fault_cause = wr.fault;
      out.cost = cost;
      ++stats_.guest_faults;
      return out;
    }

    cost += costs_.shadow_sync_entry;
    TranslateOutcome out = ResolveGpa(wr.gpa, access, wr.writable, cost);
    out.readable = wr.readable;
    out.executable = wr.executable;
    out.user = wr.user;
    if (out.event != MemEvent::kNone) {
      return out;  // PT-write trap, COW break, missing page, or bus fault
    }
    if (out.is_mmio) {
      return out;  // device addresses are never cached in the shadow
    }

    // Construct the shadow entry and write-protect the PT pages it came from.
    ShadowEntry se;
    se.gpn = isa::PageNumber(wr.gpa);
    se.writable = out.writable;
    se.readable = wr.readable;
    se.executable = wr.executable;
    se.user = wr.user;
    root.map[vpn] = se;
    ++stats_.shadow_syncs;

    RegisterPtPage(root, isa::PageNumber(wr.l1_pte_gpa), vpn);
    if (!wr.superpage) {
      uint32_t leaf_gpn = isa::PageNumber(wr.leaf_pte_gpa);
      if (leaf_gpn != isa::PageNumber(wr.l1_pte_gpa)) {
        RegisterPtPage(root, leaf_gpn, vpn);
      }
    }

    InsertTlb(vpn, se);
    return out;
  }

  uint64_t OnPtbrWrite(uint32_t new_ptbr) override {
    tlb_->FlushAll();
    for (auto& root : roots_) {
      if (root->ptbr == new_ptbr) {
        root->last_used = ++tick_;
        SetActiveRoot(root.get());
        ++stats_.root_switches;
        return costs_.shadow_root_switch;
      }
    }
    SetActiveRoot(&CreateRoot(new_ptbr));
    return costs_.shadow_root_build;
  }

  void OnPtWriteEmulated(uint32_t gpa, uint32_t size) override {
    // Invalidate every shadow entry derived from the touched PT page(s).
    uint32_t first = isa::PageNumber(gpa);
    uint32_t last = isa::PageNumber(gpa + (size ? size - 1 : 0));
    for (uint32_t pt_gpn = first; pt_gpn <= last; ++pt_gpn) {
      for (auto& root : roots_) {
        auto it = root->derived.find(pt_gpn);
        if (it == root->derived.end()) {
          continue;
        }
        for (uint32_t vpn : it->second) {
          root->map.erase(vpn);
          // The shadow map is shared by every vCPU, so the dropped entry must
          // leave every vCPU's TLB — WP interception, not guest shootdowns,
          // keeps shadow state coherent.
          FlushPageAllVcpus(vpn);
        }
        root->derived.erase(it);
      }
      if (!AnyRootDerives(pt_gpn)) {
        memory_->SetWriteProtected(pt_gpn, false);
      }
    }
  }

  void InvalidateGpn(uint32_t gpn) override {
    for (Tlb& t : tlbs_) {
      t.FlushGpn(gpn);
    }
    for (auto& root : roots_) {
      for (auto it = root->map.begin(); it != root->map.end();) {
        if (it->second.gpn == gpn) {
          FlushPageAllVcpus(it->first);
          it = root->map.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void FlushAll() override {
    // Flush every vCPU's TLB but keep shadow roots: they stay coherent
    // through write-protection.
    MemoryVirtualizer::FlushAll();
  }

  void ConfigureVcpus(uint32_t num_vcpus) override {
    MemoryVirtualizer::ConfigureVcpus(num_vcpus);
    active_per_vcpu_.assign(num_vcpus, nullptr);
    active_ = nullptr;
  }

  void SetActiveVcpu(uint32_t vcpu) override {
    MemoryVirtualizer::SetActiveVcpu(vcpu);
    if (vcpu < active_per_vcpu_.size()) {
      active_ = active_per_vcpu_[vcpu];
    }
  }

  // Shadow-specific invariants on top of the generic TLB checks: every shadow
  // entry must agree with a fresh (side-effect-free) walk of the guest tables
  // it was derived from, every PT page any root derived from must still be
  // write-protected (and vice versa: shadow paging is the only owner of the
  // WP bitmap), and with paging on the TLB must be a subset of the active
  // root's shadow map.
  void AuditInvariants(bool paging, uint32_t ptbr,
                       std::vector<std::string>* violations,
                       uint32_t vcpu = 0) const override {
    MemoryVirtualizer::AuditInvariants(paging, ptbr, violations, vcpu);

    for (const auto& root : roots_) {
      for (const auto& [vpn, se] : root->map) {
        std::ostringstream where;
        where << "shadow root=0x" << std::hex << root->ptbr << " vpn=0x" << vpn << ": ";
        ProbeResult pr = ProbeGuest(*memory_, root->ptbr, vpn << isa::kPageBits);
        if (!pr.valid) {
          violations->push_back(where.str() +
                                "guest page table no longer maps this page");
          continue;
        }
        if (isa::PageNumber(pr.gpa) != se.gpn) {
          std::ostringstream os;
          os << where.str() << "shadow gpn=0x" << std::hex << se.gpn
             << " but the guest table now maps gpn=0x" << isa::PageNumber(pr.gpa);
          violations->push_back(os.str());
          continue;
        }
        if (se.writable &&
            ((pr.leaf_pte & isa::Pte::kWrite) == 0 ||
             (pr.leaf_pte & isa::Pte::kDirty) == 0)) {
          violations->push_back(where.str() +
                                "writable shadow entry without W+D in the guest PTE");
        }
        if (se.readable && (pr.leaf_pte & isa::Pte::kRead) == 0) {
          violations->push_back(where.str() +
                                "readable shadow entry without R in the guest PTE");
        }
        if (se.executable && (pr.leaf_pte & isa::Pte::kExec) == 0) {
          violations->push_back(where.str() +
                                "executable shadow entry without X in the guest PTE");
        }
        if (se.user != ((pr.leaf_pte & isa::Pte::kUser) != 0)) {
          violations->push_back(where.str() +
                                "user bit disagrees with the guest PTE");
        }
      }
      for (const auto& [pt_gpn, vpns] : root->derived) {
        (void)vpns;
        if (!memory_->IsWriteProtected(pt_gpn)) {
          std::ostringstream os;
          os << "shadow root=0x" << std::hex << root->ptbr << ": derived PT page gpn=0x"
             << pt_gpn << " is not write-protected";
          violations->push_back(os.str());
        }
      }
    }

    for (uint32_t gpn = 0; gpn < memory_->num_pages(); ++gpn) {
      if (memory_->IsWriteProtected(gpn) && !AnyRootDerives(gpn)) {
        std::ostringstream os;
        os << "shadow: gpn=0x" << std::hex << gpn
           << " is write-protected but no root derives from it";
        violations->push_back(os.str());
      }
    }

    const Root* audited_active =
        vcpu < active_per_vcpu_.size() ? active_per_vcpu_[vcpu] : nullptr;
    if (paging && audited_active != nullptr) {
      tlb(vcpu).ForEachValid([&](const TlbEntry& e) {
        auto it = audited_active->map.find(e.vpn);
        std::ostringstream where;
        where << "shadow TLB[vcpu" << vcpu << "] vpn=0x" << std::hex << e.vpn << ": ";
        if (it == audited_active->map.end()) {
          violations->push_back(where.str() + "no shadow entry in the active root");
          return;
        }
        if (it->second.gpn != e.gpn || it->second.writable != e.writable ||
            it->second.readable != e.readable || it->second.executable != e.executable ||
            it->second.user != e.user) {
          violations->push_back(where.str() +
                                "permissions or target disagree with the shadow entry");
        }
      });
    }
  }

 private:
  struct ShadowEntry {
    uint32_t gpn = 0;
    bool readable = false;
    bool writable = false;
    bool executable = false;
    bool user = false;
  };

  struct Root {
    uint32_t ptbr = 0;
    uint64_t last_used = 0;
    std::unordered_map<uint32_t, ShadowEntry> map;                // vpn -> entry
    std::unordered_map<uint32_t, std::vector<uint32_t>> derived;  // PT gpn -> vpns
  };

  static constexpr size_t kMaxRoots = 8;

  Root& ActiveRoot(uint32_t ptbr) {
    if (active_ != nullptr && active_->ptbr == ptbr) {
      return *active_;
    }
    // Defensive path: the CPU normally reports PTBR writes via OnPtbrWrite.
    OnPtbrWrite(ptbr);
    return *active_;
  }

  Root& CreateRoot(uint32_t ptbr) {
    ++stats_.root_builds;
    if (roots_.size() >= kMaxRoots) {
      EvictLruRoot();
    }
    auto root = std::make_unique<Root>();
    root->ptbr = ptbr;
    root->last_used = ++tick_;
    roots_.push_back(std::move(root));
    return *roots_.back();
  }

  // Marks `root` active for the currently selected vCPU.
  void SetActiveRoot(Root* root) {
    active_ = root;
    if (active_vcpu_ < active_per_vcpu_.size()) {
      active_per_vcpu_[active_vcpu_] = root;
    }
  }

  bool IsActiveForAnyVcpu(const Root* root) const {
    if (root == active_) {
      return true;
    }
    for (const Root* r : active_per_vcpu_) {
      if (r == root) {
        return true;
      }
    }
    return false;
  }

  // Flushes one vpn from every vCPU's TLB (VMM-side shadow invalidation).
  void FlushPageAllVcpus(uint32_t vpn) {
    for (Tlb& t : tlbs_) {
      t.FlushPage(vpn);
    }
  }

  void EvictLruRoot() {
    size_t victim = SIZE_MAX;
    for (size_t i = 0; i < roots_.size(); ++i) {
      // A root that is any sibling vCPU's active address space must survive.
      if (IsActiveForAnyVcpu(roots_[i].get())) {
        continue;
      }
      if (victim == SIZE_MAX || roots_[i]->last_used < roots_[victim]->last_used) {
        victim = i;
      }
    }
    if (victim == SIZE_MAX) {
      return;
    }
    // Remove this root's WP registrations if nobody else derives from them.
    std::vector<uint32_t> pt_pages;
    pt_pages.reserve(roots_[victim]->derived.size());
    for (auto& [pt_gpn, vpns] : roots_[victim]->derived) {
      (void)vpns;
      pt_pages.push_back(pt_gpn);
    }
    roots_.erase(roots_.begin() + static_cast<ptrdiff_t>(victim));
    for (uint32_t pt_gpn : pt_pages) {
      if (!AnyRootDerives(pt_gpn)) {
        memory_->SetWriteProtected(pt_gpn, false);
      }
    }
  }

  bool AnyRootDerives(uint32_t pt_gpn) const {
    for (const auto& root : roots_) {
      if (root->derived.count(pt_gpn)) {
        return true;
      }
    }
    return false;
  }

  void RegisterPtPage(Root& root, uint32_t pt_gpn, uint32_t vpn) {
    if (!memory_->IsWriteProtected(pt_gpn)) {
      memory_->SetWriteProtected(pt_gpn, true);
      // Any cached translation that could still write this page — on any
      // vCPU — must go.
      for (Tlb& t : tlbs_) {
        t.FlushGpn(pt_gpn);
      }
      for (auto& r : roots_) {
        for (auto it = r->map.begin(); it != r->map.end();) {
          if (it->second.gpn == pt_gpn && it->second.writable) {
            FlushPageAllVcpus(it->first);
            it = r->map.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    root.derived[pt_gpn].push_back(vpn);
  }

  TranslateOutcome FillFromShadow(uint32_t va, const ShadowEntry& se, uint64_t cost) {
    TranslateOutcome out;
    out.gpa = (se.gpn << isa::kPageBits) | isa::VaPageOffset(va);
    out.frame = memory_->FrameForPage(se.gpn);
    assert(out.frame != mem::kInvalidFrame && "shadow entry to an absent page");
    out.writable = se.writable;
    out.readable = se.readable;
    out.executable = se.executable;
    out.user = se.user;
    out.cost = cost;
    InsertTlb(isa::PageNumber(va), se);
    return out;
  }

  void InsertTlb(uint32_t vpn, const ShadowEntry& se) {
    TlbEntry e;
    e.vpn = vpn;
    e.gpn = se.gpn;
    e.frame = memory_->FrameForPage(se.gpn);
    e.writable = se.writable;
    e.readable = se.readable;
    e.executable = se.executable;
    e.user = se.user;
    tlb_->Insert(e);
    ++stats_.tlb_fill;
  }

  std::vector<std::unique_ptr<Root>> roots_;
  // The selected vCPU's active root (mirrors active_per_vcpu_[active_vcpu_]).
  Root* active_ = nullptr;
  // Per-vCPU active address space; sized by ConfigureVcpus (default: one).
  std::vector<Root*> active_per_vcpu_{nullptr};
  uint64_t tick_ = 0;
};

}  // namespace

std::unique_ptr<MemoryVirtualizer> MakeShadowPaging(mem::GuestMemory* memory,
                                                    const CostModel& costs) {
  return std::make_unique<ShadowPaging>(memory, costs);
}

}  // namespace hyperion::mmu
