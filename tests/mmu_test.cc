// MMU tests: guest page walker, TLB behavior, shadow and nested
// virtualizers driven directly (no CPU engine in the loop).

#include <gtest/gtest.h>

#include <memory>

#include "src/mem/frame_pool.h"
#include "tests/test_phase.h"
#include "src/mem/guest_memory.h"
#include "src/mmu/tlb.h"
#include "src/mmu/virtualizer.h"
#include "src/mmu/walker.h"
#include "src/util/rng.h"

namespace hyperion::mmu {
namespace {

using isa::kPageSize;
using isa::Pte;

constexpr uint32_t kRamBytes = 2u << 20;  // 2 MiB
constexpr uint32_t kRoot = 0x80;          // root PT at page 0x80
constexpr uint32_t kL2 = 0x81;            // L2 table page

class MmuFixture : public ::testing::Test {
 protected:
  MmuFixture() : pool_(2048) {
    auto m = mem::GuestMemory::Create(&pool_, kRamBytes);
    EXPECT_TRUE(m.ok());
    memory_ = std::move(m).value();
  }

  void WritePte(uint32_t table_page, uint32_t index, uint32_t pte) {
    ASSERT_TRUE(memory_->WriteU32((table_page << 12) + index * 4, pte).ok());
  }

  // Standard layout: L1[0] -> L2 table; L2[i] entries added by tests.
  void SetupL2() { WritePte(kRoot, 0, Pte::Make(kL2, Pte::kValid)); }

  mem::FramePool pool_;
  std::unique_ptr<mem::GuestMemory> memory_;
};

// ---------------------------------------------------------------------------
// Walker
// ---------------------------------------------------------------------------

class WalkerTest : public MmuFixture {};

TEST_F(WalkerTest, TranslatesTwoLevelMapping) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite));
  WalkResult r = WalkGuest(*memory_, kRoot, 0x5123, Access::kLoad, isa::PrivMode::kSupervisor);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.gpa, (0x42u << 12) | 0x123u);
  EXPECT_EQ(r.steps, 2);
  EXPECT_FALSE(r.superpage);
}

TEST_F(WalkerTest, TranslatesSuperpage) {
  // L1[1]: 4 MiB leaf at ppn 0 (identity for the second 4 MiB... ppn must be
  // superpage aligned; use ppn 0).
  WritePte(kRoot, 1, Pte::Make(0, Pte::kValid | Pte::kRead | Pte::kWrite | Pte::kExec));
  uint32_t va = (1u << 22) | 0x1234;
  WalkResult r = WalkGuest(*memory_, kRoot, va, Access::kLoad, isa::PrivMode::kSupervisor);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.superpage);
  EXPECT_EQ(r.gpa, va & ((1u << 22) - 1));
  EXPECT_EQ(r.steps, 1);
}

TEST_F(WalkerTest, MisalignedSuperpageFaults) {
  WritePte(kRoot, 0, Pte::Make(3, Pte::kValid | Pte::kRead));  // ppn 3 not aligned
  WalkResult r = WalkGuest(*memory_, kRoot, 0x100, Access::kLoad, isa::PrivMode::kSupervisor);
  EXPECT_FALSE(r.ok);
}

TEST_F(WalkerTest, InvalidEntriesFault) {
  WalkResult r = WalkGuest(*memory_, kRoot, 0x5000, Access::kLoad, isa::PrivMode::kSupervisor);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kLoadPageFault);

  SetupL2();  // valid L1, invalid L2
  r = WalkGuest(*memory_, kRoot, 0x5000, Access::kStore, isa::PrivMode::kSupervisor);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kStorePageFault);
}

TEST_F(WalkerTest, PermissionChecks) {
  SetupL2();
  WritePte(kL2, 1, Pte::Make(0x40, Pte::kValid | Pte::kRead));               // RO kernel
  WritePte(kL2, 2, Pte::Make(0x41, Pte::kValid | Pte::kRead | Pte::kUser));  // RO user
  WritePte(kL2, 3, Pte::Make(0x42, Pte::kValid | Pte::kExec));               // X only

  // Store to read-only faults.
  EXPECT_FALSE(WalkGuest(*memory_, kRoot, 0x1000, Access::kStore, isa::PrivMode::kSupervisor).ok);
  // User cannot read a kernel page.
  EXPECT_FALSE(WalkGuest(*memory_, kRoot, 0x1000, Access::kLoad, isa::PrivMode::kUser).ok);
  // User can read a user page; supervisor can too.
  EXPECT_TRUE(WalkGuest(*memory_, kRoot, 0x2000, Access::kLoad, isa::PrivMode::kUser).ok);
  EXPECT_TRUE(WalkGuest(*memory_, kRoot, 0x2000, Access::kLoad, isa::PrivMode::kSupervisor).ok);
  // Fetch needs X; load from X-only faults.
  EXPECT_TRUE(WalkGuest(*memory_, kRoot, 0x3000, Access::kFetch, isa::PrivMode::kSupervisor).ok);
  EXPECT_FALSE(WalkGuest(*memory_, kRoot, 0x3000, Access::kLoad, isa::PrivMode::kSupervisor).ok);
}

TEST_F(WalkerTest, SetsAccessedAndDirtyBits) {
  SetupL2();
  WritePte(kL2, 7, Pte::Make(0x50, Pte::kValid | Pte::kRead | Pte::kWrite));
  uint32_t pte_gpa = (kL2 << 12) + 7 * 4;

  WalkResult r = WalkGuest(*memory_, kRoot, 0x7000, Access::kLoad, isa::PrivMode::kSupervisor);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.writable);  // D not yet set: stores must still take the slow path
  uint32_t pte = *memory_->ReadU32(pte_gpa);
  EXPECT_TRUE(pte & Pte::kAccessed);
  EXPECT_FALSE(pte & Pte::kDirty);

  r = WalkGuest(*memory_, kRoot, 0x7000, Access::kStore, isa::PrivMode::kSupervisor);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.writable);
  pte = *memory_->ReadU32(pte_gpa);
  EXPECT_TRUE(pte & Pte::kDirty);
  EXPECT_EQ(r.leaf_pte_gpa, pte_gpa);
}

TEST_F(WalkerTest, PtOutsideRamFaults) {
  WalkResult r = WalkGuest(*memory_, 0xFFFFF, 0x1000, Access::kLoad, isa::PrivMode::kSupervisor);
  EXPECT_FALSE(r.ok);
}

// ---------------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------------

TEST(TlbTest, InsertLookup) {
  Tlb tlb(64);
  TlbEntry e;
  e.vpn = 0x123;
  e.gpn = 0x45;
  e.frame = 7;
  e.writable = true;
  tlb.Insert(e);
  const TlbEntry* hit = tlb.Lookup(0x123);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->frame, 7u);
  EXPECT_EQ(tlb.Lookup(0x124), nullptr);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(TlbTest, LruEvictionWithinSet) {
  Tlb tlb(16);  // 4 sets x 4 ways
  // Five entries mapping to the same set (vpn % 4 == 0).
  for (uint32_t i = 0; i < 5; ++i) {
    TlbEntry e;
    e.vpn = i * 4;
    e.frame = i;
    tlb.Insert(e);
  }
  EXPECT_EQ(tlb.Lookup(0), nullptr);  // oldest evicted
  for (uint32_t i = 1; i < 5; ++i) {
    EXPECT_NE(tlb.Lookup(i * 4), nullptr) << i;
  }
}

TEST(TlbTest, FlushVariants) {
  Tlb tlb(64);
  for (uint32_t i = 0; i < 8; ++i) {
    TlbEntry e;
    e.vpn = i;
    e.gpn = 100 + (i % 2);
    tlb.Insert(e);
  }
  tlb.FlushPage(3);
  EXPECT_EQ(tlb.Lookup(3), nullptr);
  EXPECT_NE(tlb.Lookup(4), nullptr);

  tlb.FlushGpn(100);  // drops all even-gpn entries
  EXPECT_EQ(tlb.Lookup(0), nullptr);
  EXPECT_NE(tlb.Lookup(1), nullptr);

  tlb.FlushAll();
  EXPECT_EQ(tlb.Lookup(1), nullptr);
}

TEST(TlbTest, ReinsertSameVpnUpdates) {
  Tlb tlb(16);
  TlbEntry e;
  e.vpn = 9;
  e.writable = false;
  tlb.Insert(e);
  e.writable = true;
  tlb.Insert(e);
  const TlbEntry* hit = tlb.Lookup(9);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->writable);
}

// ---------------------------------------------------------------------------
// Virtualizers
// ---------------------------------------------------------------------------

struct VirtParam {
  PagingMode mode;
};

class VirtualizerTest : public MmuFixture,
                        public ::testing::WithParamInterface<PagingMode> {
 protected:
  std::unique_ptr<MemoryVirtualizer> Make() {
    return MakeVirtualizer(GetParam(), memory_.get());
  }
};

INSTANTIATE_TEST_SUITE_P(Modes, VirtualizerTest,
                         ::testing::Values(PagingMode::kShadow, PagingMode::kNested),
                         [](const ::testing::TestParamInfo<PagingMode>& param_info) {
                           return param_info.param == PagingMode::kShadow ? "Shadow" : "Nested";
                         });

TEST_P(VirtualizerTest, BareModeIdentity) {
  auto v = Make();
  auto out = v->Translate(0x3123, Access::kLoad, isa::PrivMode::kSupervisor, false, 0);
  EXPECT_EQ(out.event, MemEvent::kNone);
  EXPECT_EQ(out.gpa, 0x3123u);
  EXPECT_EQ(out.frame, memory_->FrameForPage(3));
}

TEST_P(VirtualizerTest, BareModeMmio) {
  auto v = Make();
  auto out = v->Translate(0xF0000010, Access::kStore, isa::PrivMode::kSupervisor, false, 0);
  EXPECT_TRUE(out.is_mmio);
}

TEST_P(VirtualizerTest, BareModeOutOfRangeFaults) {
  auto v = Make();
  auto out = v->Translate(kRamBytes + 0x1000, Access::kLoad, isa::PrivMode::kSupervisor, false, 0);
  EXPECT_EQ(out.event, MemEvent::kGuestFault);
}

TEST_P(VirtualizerTest, PagedTranslationAndTlbReuse) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite));
  auto v = Make();
  v->OnPtbrWrite(kRoot);

  auto out1 = v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  ASSERT_EQ(out1.event, MemEvent::kNone);
  EXPECT_EQ(out1.gpa, 0x42u << 12);
  EXPECT_GT(out1.cost, 0u);

  auto out2 = v->Translate(0x5004, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  ASSERT_EQ(out2.event, MemEvent::kNone);
  EXPECT_EQ(out2.gpa, (0x42u << 12) + 4);
  EXPECT_LT(out2.cost, out1.cost);  // TLB hit is cheaper than the walk
  EXPECT_GT(v->tlb().stats().hits, 0u);
}

TEST_P(VirtualizerTest, GuestFaultPropagates) {
  auto v = Make();
  v->OnPtbrWrite(kRoot);
  auto out = v->Translate(0x9000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  EXPECT_EQ(out.event, MemEvent::kGuestFault);
  EXPECT_EQ(out.fault_cause, isa::TrapCause::kLoadPageFault);
}

TEST_P(VirtualizerTest, SharedPageStoreYieldsCowBreak) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite | Pte::kDirty |
                                       Pte::kAccessed));
  memory_->SetShared(0x42, true);
  auto v = Make();
  v->OnPtbrWrite(kRoot);

  auto load = v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  EXPECT_EQ(load.event, MemEvent::kNone);  // reads pass through sharing
  auto store = v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, kRoot);
  EXPECT_EQ(store.event, MemEvent::kCowBreak);
  EXPECT_EQ(isa::PageNumber(store.gpa), 0x42u);
}

TEST_P(VirtualizerTest, MissingPageSurfaces) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite));
  ASSERT_TRUE(memory_->ReleasePage(TestPhase(), 0x42).ok());
  auto v = Make();
  v->OnPtbrWrite(kRoot);
  auto out = v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  EXPECT_EQ(out.event, MemEvent::kMissingPage);
}

TEST_P(VirtualizerTest, InvalidateGpnDropsCachedTranslations) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite | Pte::kDirty |
                                       Pte::kAccessed));
  auto v = Make();
  v->OnPtbrWrite(kRoot);
  auto out = v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, kRoot);
  ASSERT_EQ(out.event, MemEvent::kNone);
  ASSERT_TRUE(out.writable);

  // Simulate KSM: share the page, invalidate; the next store must see it.
  memory_->SetShared(0x42, true);
  v->InvalidateGpn(0x42);
  auto store = v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, kRoot);
  EXPECT_EQ(store.event, MemEvent::kCowBreak);
}

// Property: for random guest page tables and random accesses, shadow and
// nested virtualizers must produce identical outcomes (gpa, fault-or-not),
// differing only in cost and exit profile.
TEST_F(MmuFixture, PropertyShadowNestedEquivalence) {
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    // Rebuild random tables each trial.
    auto fresh = mem::GuestMemory::Create(&pool_, kRamBytes);
    ASSERT_TRUE(fresh.ok());
    memory_ = std::move(fresh).value();

    WritePte(kRoot, 0, Pte::Make(kL2, Pte::kValid));
    for (uint32_t i = 0; i < 64; ++i) {
      if (rng.NextBool(0.6)) {
        uint32_t flags = Pte::kValid;
        if (rng.NextBool(0.9)) flags |= Pte::kRead;
        if (rng.NextBool(0.6)) flags |= Pte::kWrite;
        if (rng.NextBool(0.5)) flags |= Pte::kExec;
        if (rng.NextBool(0.5)) flags |= Pte::kUser;
        WritePte(kL2, i, Pte::Make(0x100 + i, flags));
      }
    }

    auto shadow = MakeShadowPaging(memory_.get());
    auto nested = MakeNestedPaging(memory_.get());
    shadow->OnPtbrWrite(kRoot);
    nested->OnPtbrWrite(kRoot);

    for (int access = 0; access < 200; ++access) {
      uint32_t va = static_cast<uint32_t>(rng.NextBelow(64)) * kPageSize +
                    static_cast<uint32_t>(rng.NextBelow(kPageSize)) % (kPageSize - 4);
      auto acc = static_cast<Access>(rng.NextBelow(3));
      auto priv = rng.NextBool(0.5) ? isa::PrivMode::kSupervisor : isa::PrivMode::kUser;

      auto so = shadow->Translate(va, acc, priv, true, kRoot);
      auto no = nested->Translate(va, acc, priv, true, kRoot);

      // A/D bit write-back ordering can differ, but the outcome class and
      // translation must agree.
      EXPECT_EQ(so.event == MemEvent::kGuestFault, no.event == MemEvent::kGuestFault)
          << "va=0x" << std::hex << va << " acc=" << static_cast<int>(acc);
      if (so.event == MemEvent::kNone && no.event == MemEvent::kNone) {
        EXPECT_EQ(so.gpa, no.gpa) << "va=0x" << std::hex << va;
        EXPECT_EQ(so.frame, no.frame);
      }
    }
  }
}

TEST_F(MmuFixture, ShadowPtWriteTrapInvalidatesDerivedEntries) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite));
  auto v = MakeShadowPaging(memory_.get());
  v->OnPtbrWrite(kRoot);

  // Populate the shadow through a translation: L2's page becomes WP.
  auto out = v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  ASSERT_EQ(out.event, MemEvent::kNone);
  EXPECT_TRUE(memory_->IsWriteProtected(kL2));

  // A guest store to the L2 page must trap.
  uint32_t pte_va = (kL2 << 12) + 5 * 4;  // identity-style access via bare? No:
  // in paged mode the guest would access its PT through some mapping; here we
  // drive the virtualizer directly with a store whose translation target IS
  // the PT page, using bare mode (paging off) to keep the test focused.
  auto store = v->Translate(pte_va, Access::kStore, isa::PrivMode::kSupervisor, false, kRoot);
  EXPECT_EQ(store.event, MemEvent::kPtWriteTrap);

  // Emulate the VMM: change the PTE and notify.
  ASSERT_TRUE(memory_->WriteU32(pte_va, Pte::Make(0x55, Pte::kValid | Pte::kRead)).ok());
  v->OnPtWriteEmulated(pte_va, 4);

  // The translation now reflects the new mapping.
  auto out2 = v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  ASSERT_EQ(out2.event, MemEvent::kNone);
  EXPECT_EQ(isa::PageNumber(out2.gpa), 0x55u);
}

TEST_F(MmuFixture, ShadowRootSwitchIsCheapForCachedRoots) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead));
  // Second address space at page 0x90.
  WritePte(0x90, 0, Pte::Make(kL2, Pte::kValid));

  auto v = MakeShadowPaging(memory_.get());
  uint64_t build1 = v->OnPtbrWrite(kRoot);
  uint64_t build2 = v->OnPtbrWrite(0x90);
  uint64_t sw = v->OnPtbrWrite(kRoot);  // back to a cached root
  EXPECT_LT(sw, build1);
  EXPECT_EQ(build1, build2);
  EXPECT_EQ(v->stats().root_builds, 2u);
  EXPECT_EQ(v->stats().root_switches, 1u);
}

TEST_F(MmuFixture, NestedWalkCostsMoreStepsThanShadowWalk) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead));
  auto shadow = MakeShadowPaging(memory_.get());
  auto nested = MakeNestedPaging(memory_.get());
  shadow->OnPtbrWrite(kRoot);
  nested->OnPtbrWrite(kRoot);
  (void)shadow->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  (void)nested->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  // 2-D walk touches 8 PT entries where the software walk touches 2.
  EXPECT_EQ(shadow->stats().walk_steps, 2u);
  EXPECT_EQ(nested->stats().walk_steps, 8u);
  // But shadow paid a modeled VM exit for the hidden fault.
  EXPECT_EQ(shadow->stats().hidden_faults, 1u);
  EXPECT_EQ(nested->stats().hidden_faults, 0u);
}

TEST(TlbAsidTest, MismatchedAsidMisses) {
  Tlb tlb(64);
  TlbEntry e;
  e.vpn = 5;
  e.asid = 1;
  e.frame = 9;
  tlb.Insert(e);
  EXPECT_EQ(tlb.Lookup(5, 2), nullptr);
  EXPECT_NE(tlb.Lookup(5, 1), nullptr);
  EXPECT_EQ(tlb.Lookup(5, 0), nullptr);
}

TEST(TlbAsidTest, SameVpnDifferentAsidsCoexist) {
  Tlb tlb(64);
  TlbEntry a;
  a.vpn = 7;
  a.asid = 1;
  a.frame = 10;
  TlbEntry b;
  b.vpn = 7;
  b.asid = 2;
  b.frame = 20;
  tlb.Insert(a);
  tlb.Insert(b);
  EXPECT_EQ(tlb.Lookup(7, 1)->frame, 10u);
  EXPECT_EQ(tlb.Lookup(7, 2)->frame, 20u);
}

TEST(TlbAsidTest, FlushAsidIsSelective) {
  Tlb tlb(64);
  TlbEntry a;
  a.vpn = 1;
  a.asid = 1;
  TlbEntry b;
  b.vpn = 2;
  b.asid = 2;
  tlb.Insert(a);
  tlb.Insert(b);
  tlb.FlushAsid(1);
  EXPECT_EQ(tlb.Lookup(1, 1), nullptr);
  EXPECT_NE(tlb.Lookup(2, 2), nullptr);
}

TEST_F(MmuFixture, NestedAsidSurvivesPtbrSwitch) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kAccessed));
  // Second address space at page 0x90 with the same L2.
  WritePte(0x90, 0, Pte::Make(kL2, Pte::kValid));

  auto plain = MakeNestedPaging(memory_.get());
  auto asid = MakeNestedPaging(memory_.get(), CostModel::Default(), /*asid_tlb=*/true);
  for (auto* v : {plain.get(), asid.get()}) {
    v->OnPtbrWrite(kRoot);
    (void)v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
    v->OnPtbrWrite(0x90);
    (void)v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, 0x90);
    v->OnPtbrWrite(kRoot);
    (void)v->Translate(0x5000, Access::kLoad, isa::PrivMode::kSupervisor, true, kRoot);
  }
  // Untagged: 3 walks (every switch flushes). Tagged: 2 walks, 3rd is a hit.
  EXPECT_EQ(plain->stats().walks, 3u);
  EXPECT_EQ(asid->stats().walks, 2u);
  EXPECT_GT(asid->tlb().stats().hits, 0u);
}

TEST_F(MmuFixture, NestedAsidInvalidateGpnCrossesSpaces) {
  SetupL2();
  WritePte(kL2, 5, Pte::Make(0x42, Pte::kValid | Pte::kRead | Pte::kWrite | Pte::kDirty |
                                       Pte::kAccessed));
  WritePte(0x90, 0, Pte::Make(kL2, Pte::kValid));
  auto v = MakeNestedPaging(memory_.get(), CostModel::Default(), /*asid_tlb=*/true);
  v->OnPtbrWrite(kRoot);
  (void)v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, kRoot);
  v->OnPtbrWrite(0x90);
  (void)v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, 0x90);

  // Sharing the target page must drop the cached writable entries of BOTH
  // address spaces.
  memory_->SetShared(0x42, true);
  v->InvalidateGpn(0x42);
  auto s1 = v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, 0x90);
  EXPECT_EQ(s1.event, MemEvent::kCowBreak);
  v->OnPtbrWrite(kRoot);
  auto s2 = v->Translate(0x5000, Access::kStore, isa::PrivMode::kSupervisor, true, kRoot);
  EXPECT_EQ(s2.event, MemEvent::kCowBreak);
}

}  // namespace
}  // namespace hyperion::mmu
