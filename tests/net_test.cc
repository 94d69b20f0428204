// Network substrate tests: links (bandwidth/latency/serialization) and the
// virtual switch (unicast, broadcast, drops, in-flight detach).

#include <gtest/gtest.h>

#include <cstring>

#include "src/fault/fault.h"
#include "src/mem/frame_pool.h"
#include "src/net/network.h"
#include "tests/test_phase.h"

namespace hyperion::net {
namespace {

class RecordingSink : public FrameSink {
 public:
  void OnFrames(const SerialPhase&, std::span<const Frame> fs) override {
    frames.insert(frames.end(), fs.begin(), fs.end());
  }
  std::vector<Frame> frames;
};

Frame MakeFrame(MacAddr src, MacAddr dst, size_t payload = 100) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.payload.Assign(payload, 0xAB);
  return f;
}

TEST(LinkParamsTest, TransmitTimeScalesWithSize) {
  LinkParams p;
  p.bandwidth_bps = 1'000'000'000;  // 1 Gb/s
  // 1250 bytes = 10^4 bits at 10^9 bps = 10 us = 10000 cycles.
  EXPECT_EQ(p.TransmitTime(1250), 10000u);
  EXPECT_EQ(p.TransmitTime(2500), 2 * p.TransmitTime(1250));
}

TEST(LinkParamsTest, TransmitTimeIsExactForHugeTransfers) {
  // At 8 Gb/s one byte costs exactly one cycle, so TransmitTime must be the
  // identity for every size — including past 2^53, where the old
  // double-based arithmetic rounded the product and drifted.
  LinkParams p;
  p.bandwidth_bps = 8'000'000'000ull;
  EXPECT_EQ(p.TransmitTime(1), 1u);
  EXPECT_EQ(p.TransmitTime((1ull << 53) + 1), (1ull << 53) + 1);
  EXPECT_EQ(p.TransmitTime((1ull << 60) + 12345), (1ull << 60) + 12345);
  // Strict monotonicity survives at the scale where doubles collapse
  // adjacent integers.
  EXPECT_LT(p.TransmitTime(1ull << 53), p.TransmitTime((1ull << 53) + 1));
}

TEST(LinkTest, TransferCompletesAfterLatencyPlusTransmit) {
  SimClock clock;
  LinkParams p;
  p.bandwidth_bps = 1'000'000'000;
  p.latency = 500;
  Link link(&clock, p);

  bool done = false;
  SimTime at = link.Transfer(TestPhase(), 1250, [&] { done = true; });
  EXPECT_EQ(at, 10000u + 500u);
  clock.RunUntil(TestPhase(), at - 1);
  EXPECT_FALSE(done);
  clock.RunUntil(TestPhase(), at);
  EXPECT_TRUE(done);
  EXPECT_EQ(link.bytes_carried(), 1250u);
}

TEST(LinkTest, BackToBackTransfersSerialize) {
  SimClock clock;
  LinkParams p;
  p.bandwidth_bps = 1'000'000'000;
  p.latency = 0;
  Link link(&clock, p);
  SimTime first = link.ScheduleTransferAt(clock.now(), 1250);
  SimTime second = link.ScheduleTransferAt(clock.now(), 1250);
  EXPECT_EQ(first, 10000u);
  EXPECT_EQ(second, 20000u);  // queued behind the first
}

TEST(SwitchTest, UnicastDelivery) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a, b;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 2, &b).ok());

  sw.Send(TestPhase(), MakeFrame(1, 2));
  clock.RunAll(TestPhase());
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(b.frames[0].src, 1u);
  EXPECT_EQ(sw.stats().frames_delivered, 1u);
}

TEST(SwitchTest, BroadcastSkipsSender) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a, b, c;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 2, &b).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 3, &c).ok());

  sw.Send(TestPhase(), MakeFrame(1, kBroadcast));
  clock.RunAll(TestPhase());
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST(SwitchTest, UnknownDestinationDropped) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  sw.Send(TestPhase(), MakeFrame(1, 99));
  clock.RunAll(TestPhase());
  EXPECT_EQ(sw.stats().frames_dropped, 1u);
}

TEST(SwitchTest, OversizedFrameDropped) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  sw.Send(TestPhase(), MakeFrame(2, 1, kMaxFrameBytes + 1));
  clock.RunAll(TestPhase());
  EXPECT_EQ(sw.stats().frames_dropped, 1u);
  EXPECT_TRUE(a.frames.empty());
}

TEST(SwitchTest, DuplicateAttachRejected) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a, b;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  EXPECT_EQ(sw.Attach(TestPhase(), 1, &b).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(sw.Attach(TestPhase(), kBroadcast, &b).ok());
}

TEST(SwitchTest, DetachInFlightDropsSafely) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a, b;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 2, &b).ok());
  sw.Send(TestPhase(), MakeFrame(1, 2));
  ASSERT_TRUE(sw.Detach(TestPhase(), 2).ok());  // before delivery fires
  clock.RunAll(TestPhase());                  // must not crash
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(sw.stats().frames_dropped, 1u);
}

TEST(SwitchTest, DeliveryRespectsLinkTiming) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink slow_sink;
  LinkParams slow;
  slow.bandwidth_bps = 1'000'000;  // 1 Mb/s
  slow.latency = 1000;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &slow_sink, slow).ok());

  sw.Send(TestPhase(), MakeFrame(2, 1, 1000));
  clock.RunUntil(TestPhase(), 1000);
  EXPECT_TRUE(slow_sink.frames.empty());  // still in flight
  clock.RunAll(TestPhase());
  EXPECT_EQ(slow_sink.frames.size(), 1u);
  // ~(1018 bytes * 8) / 1e6 bps ~= 8.1 ms.
  EXPECT_GT(clock.now(), 8 * kSimTicksPerMs);
}

TEST(SwitchTest, ManyFramesKeepOrderPerPort) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  RecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  for (uint32_t i = 0; i < 10; ++i) {
    Frame f = MakeFrame(2, 1, 64);
    f.payload.set_byte(0, static_cast<uint8_t>(i));
    sw.Send(TestPhase(), std::move(f));
  }
  clock.RunAll(TestPhase());
  ASSERT_EQ(a.frames.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.frames[i].payload[0], i);  // FIFO per link
  }
}

// ---------------------------------------------------------------------------
// Burst delivery (TransmitBurst coalescing) and zero-copy payload handoff
// ---------------------------------------------------------------------------

// Records how frames arrived: how many frames each delivery carried.
class BurstRecordingSink : public FrameSink {
 public:
  void OnFrames(const SerialPhase&, std::span<const Frame> fs) override {
    frames.insert(frames.end(), fs.begin(), fs.end());
    burst_sizes.push_back(fs.size());
  }
  std::vector<Frame> frames;
  std::vector<size_t> burst_sizes;
};

TEST(SwitchBurstTest, SameDestinationRunsCoalesce) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  BurstRecordingSink a;
  BurstRecordingSink b;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 2, &b).ok());

  // Runs: [1,1,1] burst, [2] single (exact legacy path), [1,1] burst.
  std::vector<Frame> batch;
  const MacAddr dsts[6] = {1, 1, 1, 2, 1, 1};
  for (uint32_t i = 0; i < 6; ++i) {
    Frame f = MakeFrame(3, dsts[i], 64);
    f.payload.set_byte(0, static_cast<uint8_t>(i));
    batch.push_back(std::move(f));
  }
  SimTime clear = sw.TransmitBurst(TestPhase(), std::move(batch));
  EXPECT_GT(clear, 0u);  // backpressure signal: egress busy-until

  clock.RunAll(TestPhase());
  EXPECT_EQ(sw.stats().frames_sent, 6u);
  EXPECT_EQ(sw.stats().frames_delivered, 6u);
  EXPECT_EQ(sw.stats().bursts_delivered, 2u);
  ASSERT_EQ(a.burst_sizes, (std::vector<size_t>{3, 2}));
  EXPECT_EQ(b.burst_sizes, (std::vector<size_t>{1}));
  // Order within the port is the transmit order.
  ASSERT_EQ(a.frames.size(), 5u);
  const uint8_t want[5] = {0, 1, 2, 4, 5};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.frames[i].payload[0], want[i]);
  }
}

TEST(SwitchBurstTest, RunsChunkAtMaxBurstFrames) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  BurstRecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());

  std::vector<Frame> batch;
  for (size_t i = 0; i < kMaxBurstFrames + 10; ++i) {
    batch.push_back(MakeFrame(2, 1, 64));
  }
  sw.TransmitBurst(TestPhase(), std::move(batch));
  clock.RunAll(TestPhase());

  // One run longer than the cap leaves as two delivery events, so a single
  // commit cannot turn a whole timeslice of traffic into one giant burst.
  EXPECT_EQ(a.burst_sizes, (std::vector<size_t>{kMaxBurstFrames, 10}));
  EXPECT_EQ(sw.stats().frames_delivered, kMaxBurstFrames + 10);
  EXPECT_EQ(sw.stats().bursts_delivered, 2u);
}

TEST(SwitchBurstTest, DeliverySharesPayloadStorage) {
  SimClock clock;
  VirtualSwitch sw(&clock);
  BurstRecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());

  std::vector<Frame> batch;
  for (int i = 0; i < 2; ++i) {
    batch.push_back(MakeFrame(2, 1, 256));
  }
  FrameBuf origin = batch[0].payload;  // handle copy, not a byte copy
  const uint8_t* storage = origin.chunk(0).data();
  sw.TransmitBurst(TestPhase(), std::move(batch));
  clock.RunAll(TestPhase());

  // The frame the sink got is the same storage the sender filled: the only
  // copies on the path are handle refcounts.
  ASSERT_EQ(a.frames.size(), 2u);
  EXPECT_EQ(a.frames[0].payload.chunk(0).data(), storage);
  EXPECT_GE(a.frames[0].payload.use_count(), 2);
}

TEST(SwitchBurstTest, InjectedDropAndDuplicateKeepPoolBalanced) {
  mem::FramePool pool(64);  // outlives the clock: pending events hold handles
  {
    SimClock clock;
    VirtualSwitch sw(&clock);
    BurstRecordingSink a;
    ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());

    fault::FaultPlan plan;
    fault::FaultEvent drop;
    drop.site = "sw";
    drop.kind = fault::FaultKind::kFrameDrop;
    drop.first_op = 1;
    drop.last_op = 1;
    plan.Add(drop);
    fault::FaultEvent dup;
    dup.site = "sw";
    dup.kind = fault::FaultKind::kFrameDuplicate;
    dup.first_op = 3;
    dup.last_op = 3;
    plan.Add(dup);
    fault::FaultInjector inj(plan);
    sw.SetFault(&inj, "sw");

    std::vector<Frame> batch;
    for (uint32_t i = 0; i < 6; ++i) {
      Frame f;
      f.src = 2;
      f.dst = 1;
      f.payload = FrameBuf::Allocate(&pool, 600);
      for (size_t c = 0; c < f.payload.num_chunks(); ++c) {
        std::span<uint8_t> span = f.payload.chunk(c);
        std::memset(span.data(), static_cast<int>(i), span.size());
      }
      batch.push_back(std::move(f));
    }
    EXPECT_GT(pool.netbuf_frames(), 0u);

    sw.TransmitBurst(TestPhase(), std::move(batch));
    clock.RunAll(TestPhase());
    EXPECT_EQ(a.frames.size(), 6u);  // 6 sent - 1 dropped + 1 duplicate
    EXPECT_EQ(sw.stats().frames_injected_dropped, 1u);
    EXPECT_EQ(sw.stats().frames_injected_duplicated, 1u);
  }
  // Every handle (burst copies, duplicates, sink copies) released: the pool
  // audit sees no leaked network frames.
  EXPECT_EQ(pool.netbuf_frames(), 0u);
}

}  // namespace
}  // namespace hyperion::net
