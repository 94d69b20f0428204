// Tests for host frame pool and guest memory: allocation, refcounting,
// byte access, dirty logging, ballooning primitives, COW.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/mem/frame_pool.h"
#include "tests/test_phase.h"
#include "src/mem/guest_memory.h"
#include "src/util/rng.h"

namespace hyperion::mem {
namespace {

using isa::kPageSize;

TEST(FramePoolTest, AllocateAndFree) {
  FramePool pool(4);
  EXPECT_EQ(pool.free_frames(), 4u);
  auto a = pool.Allocate();
  auto b = pool.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pool.used_frames(), 2u);
  pool.DecRef(TestPhase(), *a);
  EXPECT_EQ(pool.used_frames(), 1u);
}

TEST(FramePoolTest, ExhaustionIsReported) {
  FramePool pool(2);
  ASSERT_TRUE(pool.Allocate().ok());
  ASSERT_TRUE(pool.Allocate().ok());
  auto r = pool.Allocate();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FramePoolTest, FramesAreZeroedOnAllocate) {
  FramePool pool(2);
  auto a = pool.Allocate();
  ASSERT_TRUE(a.ok());
  pool.FrameData(*a)[0] = 0xFF;
  pool.FrameData(*a)[kPageSize - 1] = 0xFF;
  pool.DecRef(TestPhase(), *a);
  // The freed frame comes back first (recycle stack) and must be clean.
  auto b = pool.Allocate();
  auto c = pool.Allocate();
  for (HostFrame f : {*b, *c}) {
    EXPECT_EQ(pool.FrameData(f)[0], 0);
    EXPECT_EQ(pool.FrameData(f)[kPageSize - 1], 0);
  }
}

TEST(FramePoolTest, FreedFrameIsReusedBeforeNeverUsedOnes) {
  FramePool pool(8);
  HostFrame a = *pool.Allocate();
  HostFrame b = *pool.Allocate();
  HostFrame c = *pool.Allocate();
  pool.DecRef(TestPhase(), a);
  pool.DecRef(TestPhase(), c);
  // Last freed, first reused; then the older one; only then a fresh frame.
  EXPECT_EQ(*pool.Allocate(), c);
  EXPECT_EQ(*pool.Allocate(), a);
  HostFrame fresh = *pool.Allocate();
  EXPECT_NE(fresh, a);
  EXPECT_NE(fresh, b);
  EXPECT_NE(fresh, c);
}

TEST(FramePoolTest, NeverUsedFramesReadZero) {
  // AllocateNetBuf does not clear, so what it hands out is the backing as
  // first touched.
  FramePool pool(8);
  for (size_t i = 0; i < pool.total_frames(); ++i) {
    auto f = pool.AllocateNetBuf();
    ASSERT_TRUE(f.ok());
    const uint8_t* data = pool.FrameData(*f);
    for (size_t j = 0; j < kPageSize; ++j) {
      ASSERT_EQ(data[j], 0) << "frame " << *f << " byte " << j;
    }
  }
}

TEST(FramePoolTest, RecycledNetBufFrameIsZeroedForGuestUse) {
  FramePool pool(4);
  auto n = pool.AllocateNetBuf();
  ASSERT_TRUE(n.ok());
  std::memset(pool.FrameData(*n), 0xCC, kPageSize);  // payload bytes
  pool.DecRef(TestPhase(), *n);
  EXPECT_EQ(pool.netbuf_frames(), 0u);
  auto f = pool.Allocate();
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(*f, *n);  // the stale frame is the one handed back
  const uint8_t* data = pool.FrameData(*f);
  for (size_t j = 0; j < kPageSize; ++j) {
    ASSERT_EQ(data[j], 0) << "byte " << j;
  }
}

TEST(FramePoolTest, ExhaustionAfterMixedReuseIsExact) {
  FramePool pool(16);
  std::vector<HostFrame> live;
  auto check_counts = [&] {
    EXPECT_EQ(pool.used_frames(), live.size());
    EXPECT_EQ(pool.free_frames(), pool.total_frames() - live.size());
  };
  for (int i = 0; i < 10; ++i) {
    live.push_back(*pool.Allocate());
  }
  check_counts();
  for (size_t i : {7u, 2u, 5u, 0u}) {  // free from the middle, out of order
    pool.DecRef(TestPhase(), live[i]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  }
  check_counts();
  for (int i = 0; i < 3; ++i) {
    live.push_back(*pool.Allocate());
  }
  pool.DecRef(TestPhase(), live[1]);
  live.erase(live.begin() + 1);
  check_counts();
  // Drain: exactly free_frames() more allocations succeed, then none.
  size_t more = pool.free_frames();
  for (size_t i = 0; i < more; ++i) {
    auto f = pool.Allocate();
    ASSERT_TRUE(f.ok()) << i;
    live.push_back(*f);
  }
  EXPECT_EQ(live.size(), pool.total_frames());
  EXPECT_EQ(pool.free_frames(), 0u);
  auto r = pool.Allocate();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  std::sort(live.begin(), live.end());
  EXPECT_EQ(std::adjacent_find(live.begin(), live.end()), live.end());
  // One release makes exactly one allocation possible again.
  pool.DecRef(TestPhase(), live.back());
  EXPECT_TRUE(pool.Allocate().ok());
  EXPECT_FALSE(pool.Allocate().ok());
}

TEST(FramePoolTest, ConcurrentAllocateAndReleaseKeepFramesDistinct) {
  constexpr int kThreads = 4;
  constexpr int kHeld = 8;
  constexpr int kIters = 2000;
  FramePool pool(kThreads * kHeld * 2);
  const SerialPhase& ph = TestPhase();
  // owner[f] is the thread holding frame f, or -1: a frame handed to two
  // live holders at once fails the exchange.
  std::vector<std::atomic<int>> owner(pool.total_frames());
  for (auto& o : owner) {
    o.store(-1);
  }
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<HostFrame> held;
      for (int i = 0; i < kIters; ++i) {
        if (held.size() < kHeld && (i % 3 != 2 || held.empty())) {
          auto f = pool.Allocate();
          if (!f.ok()) {
            ++violations;
            continue;
          }
          int expected = -1;
          if (!owner[*f].compare_exchange_strong(expected, t) ||
              pool.FrameData(*f)[0] != 0) {
            ++violations;
          }
          pool.FrameData(*f)[0] = static_cast<uint8_t>(t + 1);
          held.push_back(*f);
        } else {
          HostFrame f = held.back();
          held.pop_back();
          if (pool.FrameData(f)[0] != t + 1) {
            ++violations;
          }
          owner[f].store(-1);
          pool.DecRefImmediate(ph, f);
        }
      }
      for (HostFrame f : held) {
        owner[f].store(-1);
        pool.DecRefImmediate(ph, f);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(pool.used_frames(), 0u);
  EXPECT_EQ(pool.free_frames(), pool.total_frames());
  // Every frame is still handed out exactly once before exhaustion.
  for (size_t i = 0; i < pool.total_frames(); ++i) {
    ASSERT_TRUE(pool.Allocate().ok());
  }
  EXPECT_FALSE(pool.Allocate().ok());
}

TEST(FramePoolTest, RefCountingKeepsFrameAlive) {
  FramePool pool(2);
  auto f = pool.Allocate();
  ASSERT_TRUE(f.ok());
  pool.AddRef(TestPhase(), *f);
  EXPECT_EQ(pool.RefCount(*f), 2u);
  pool.DecRef(TestPhase(), *f);
  EXPECT_EQ(pool.used_frames(), 1u);  // still alive
  pool.DecRef(TestPhase(), *f);
  EXPECT_EQ(pool.used_frames(), 0u);
}

TEST(GuestMemoryTest, CreateValidation) {
  FramePool pool(16);
  EXPECT_FALSE(GuestMemory::Create(&pool, 0).ok());
  EXPECT_FALSE(GuestMemory::Create(&pool, 100).ok());  // not page aligned
  EXPECT_FALSE(GuestMemory::Create(&pool, 1u << 20).ok());  // pool too small
  auto m = GuestMemory::Create(&pool, 8 * kPageSize);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->num_pages(), 8u);
  EXPECT_EQ(pool.used_frames(), 8u);
}

TEST(GuestMemoryTest, DestructorReturnsFrames) {
  FramePool pool(16);
  {
    auto m = GuestMemory::Create(&pool, 8 * kPageSize);
    ASSERT_TRUE(m.ok());
  }
  EXPECT_EQ(pool.used_frames(), 0u);
}

TEST(GuestMemoryTest, ReadWriteCrossesPages) {
  FramePool pool(16);
  auto m = GuestMemory::Create(&pool, 4 * kPageSize);
  ASSERT_TRUE(m.ok());
  std::vector<uint8_t> data(kPageSize + 100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  uint32_t gpa = kPageSize - 50;  // straddles a boundary
  ASSERT_TRUE((*m)->Write(gpa, data.data(), data.size()).ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE((*m)->Read(gpa, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST(GuestMemoryTest, OutOfRangeRejected) {
  FramePool pool(16);
  auto m = GuestMemory::Create(&pool, 2 * kPageSize);
  ASSERT_TRUE(m.ok());
  uint8_t b = 0;
  EXPECT_EQ((*m)->Read(2 * kPageSize, &b, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*m)->Write(2 * kPageSize - 1, &b, 2).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE((*m)->Write(2 * kPageSize - 1, &b, 1).ok());
}

TEST(GuestMemoryTest, ScalarAccessors) {
  FramePool pool(16);
  auto m = GuestMemory::Create(&pool, 2 * kPageSize);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE((*m)->WriteU32(100, 0xAABBCCDD).ok());
  EXPECT_EQ(*(*m)->ReadU32(100), 0xAABBCCDDu);
  EXPECT_EQ(*(*m)->ReadU16(100), 0xCCDDu);
  EXPECT_EQ(*(*m)->ReadU8(103), 0xAAu);
}

TEST(GuestMemoryTest, DirtyLogging) {
  FramePool pool(16);
  auto mm = GuestMemory::Create(&pool, 8 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;

  // No consumer yet: writes are not recorded and charge nothing, and there
  // is no chain to harvest.
  ASSERT_TRUE(m.WriteU32(0, 1).ok());
  EXPECT_FALSE(m.MarkDirty(3));
  EXPECT_EQ(m.HarvestDirty().status().code(), StatusCode::kFailedPrecondition);

  m.EnableDirtyLog();
  EXPECT_TRUE(m.MarkDirty(3));   // first write: true
  EXPECT_FALSE(m.MarkDirty(3));  // second: false
  ASSERT_TRUE(m.WriteU32(5 * kPageSize, 7).ok());

  Result<Bitmap> harvest = m.HarvestDirty();
  ASSERT_TRUE(harvest.ok());
  EXPECT_EQ(harvest->SetBits(), (std::vector<size_t>{3, 5}));
  EXPECT_EQ(m.HarvestDirty()->Count(), 0u);
  EXPECT_TRUE(m.MarkDirty(3));  // dirties again after harvest

  // Restarting the chain drops its set.
  m.EnableDirtyLog();
  EXPECT_EQ(m.HarvestDirty()->Count(), 0u);

  // A balloon release and populate are changes the chain must carry.
  ASSERT_TRUE(m.ReleasePage(TestPhase(), 6).ok());
  EXPECT_EQ(m.HarvestDirty()->SetBits(), (std::vector<size_t>{6}));
  ASSERT_TRUE(m.PopulatePage(6).ok());
  EXPECT_EQ(m.HarvestDirty()->SetBits(), (std::vector<size_t>{6}));

  // Two more consumers next to the chain: each harvest takes only its own
  // set, and a write charges again after a harvest by any of them.
  DirtyCursor a(m);
  auto b = std::make_unique<DirtyCursor>(m);
  EXPECT_TRUE(a.Harvest().SetBits().empty());  // cursors start empty
  EXPECT_TRUE(m.MarkDirty(1));
  EXPECT_FALSE(m.MarkDirty(1));
  EXPECT_EQ(a.Harvest().SetBits(), (std::vector<size_t>{1}));
  EXPECT_TRUE(m.MarkDirty(1));                                 // a harvested
  EXPECT_EQ(b->Harvest().SetBits(), (std::vector<size_t>{1}));  // intact
  EXPECT_TRUE(m.MarkDirty(1));                                 // b harvested
  EXPECT_EQ(m.HarvestDirty()->SetBits(), (std::vector<size_t>{1}));
  EXPECT_TRUE(m.MarkDirty(1));  // the chain harvested
  // A destroyed cursor stops receiving marks: b's set is empty after this
  // harvest, so a write would charge if b were still registered.
  EXPECT_EQ(b->Harvest().SetBits(), (std::vector<size_t>{1}));
  b.reset();
  EXPECT_FALSE(m.MarkDirty(1));
  EXPECT_EQ(a.Harvest().SetBits(), (std::vector<size_t>{1}));
  EXPECT_EQ(m.HarvestDirty()->SetBits(), (std::vector<size_t>{1}));
}

TEST(GuestMemoryTest, BalloonReleaseAndPopulate) {
  FramePool pool(16);
  auto mm = GuestMemory::Create(&pool, 8 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;

  size_t used_before = pool.used_frames();
  ASSERT_TRUE(m.ReleasePage(TestPhase(), 2).ok());
  EXPECT_EQ(pool.used_frames(), used_before - 1);
  EXPECT_FALSE(m.IsPresent(2));
  EXPECT_EQ(m.ReleasePage(TestPhase(), 2).code(), StatusCode::kFailedPrecondition);

  uint8_t b;
  EXPECT_FALSE(m.Read(2 * kPageSize, &b, 1).ok());

  ASSERT_TRUE(m.PopulatePage(2).ok());
  EXPECT_TRUE(m.IsPresent(2));
  EXPECT_EQ(*m.ReadU8(2 * kPageSize), 0u);  // fresh page is zeroed
  EXPECT_EQ(m.PopulatePage(2).code(), StatusCode::kFailedPrecondition);
}

TEST(GuestMemoryTest, SharingAndBreakSharing) {
  FramePool pool(32);
  auto a = GuestMemory::Create(&pool, 4 * kPageSize);
  auto b = GuestMemory::Create(&pool, 4 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  GuestMemory& ma = **a;
  GuestMemory& mb = **b;

  // Simulate a KSM merge: both map the same frame.
  ASSERT_TRUE(ma.WriteU32(0, 0x1111).ok());
  HostFrame shared = ma.FrameForPage(0);
  ASSERT_TRUE(mb.RemapPage(TestPhase(), 0, shared).ok());
  ma.SetShared(0, true);
  mb.SetShared(0, true);
  EXPECT_EQ(pool.RefCount(shared), 2u);
  EXPECT_EQ(*mb.ReadU32(0), 0x1111u);

  // Break sharing on b: content copies, frames diverge.
  ASSERT_TRUE(mb.BreakSharing(TestPhase(), 0).ok());
  EXPECT_NE(mb.FrameForPage(0), shared);
  EXPECT_EQ(pool.RefCount(shared), 1u);
  EXPECT_EQ(*mb.ReadU32(0), 0x1111u);
  ASSERT_TRUE(mb.WriteU32(0, 0x2222).ok());
  EXPECT_EQ(*ma.ReadU32(0), 0x1111u);  // a unaffected

  EXPECT_EQ(mb.BreakSharing(TestPhase(), 0).code(), StatusCode::kFailedPrecondition);
}

TEST(GuestMemoryTest, WriteProtectFlags) {
  FramePool pool(16);
  auto mm = GuestMemory::Create(&pool, 4 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;
  EXPECT_FALSE(m.IsWriteProtected(1));
  m.SetWriteProtected(1, true);
  EXPECT_TRUE(m.IsWriteProtected(1));
  EXPECT_EQ(m.WriteProtectedCount(), 1u);
  m.SetWriteProtected(1, false);
  EXPECT_EQ(m.WriteProtectedCount(), 0u);
}

// Property: random interleavings of release/populate/write keep the pool's
// accounting consistent with the guest's presence map.
TEST(GuestMemoryTest, PropertyBalloonAccountingConsistent) {
  FramePool pool(64);
  auto mm = GuestMemory::Create(&pool, 32 * kPageSize);
  ASSERT_TRUE(mm.ok());
  GuestMemory& m = **mm;
  Xoshiro256 rng(777);

  for (int step = 0; step < 500; ++step) {
    uint32_t gpn = static_cast<uint32_t>(rng.NextBelow(32));
    if (m.IsPresent(gpn)) {
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(m.ReleasePage(TestPhase(), gpn).ok());
      } else {
        ASSERT_TRUE(m.WriteU32(gpn * kPageSize, static_cast<uint32_t>(step)).ok());
      }
    } else {
      ASSERT_TRUE(m.PopulatePage(gpn).ok());
    }
    size_t present = 0;
    for (uint32_t i = 0; i < 32; ++i) {
      present += m.IsPresent(i);
    }
    EXPECT_EQ(pool.used_frames(), present);
  }
}

}  // namespace
}  // namespace hyperion::mem
