// Fault-injection framework tests: plan construction, injector determinism,
// site/op/time scoping, the faulty storage wrappers, switch-level frame
// faults, and end-to-end error surfacing through the block devices into a
// running guest.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/core/host.h"
#include "src/core/time_domain.h"
#include "src/devices/mmio.h"
#include "src/fault/fault.h"
#include "tests/test_phase.h"
#include "src/fault/faulty_store.h"
#include "src/guest/programs.h"
#include "src/net/network.h"
#include "src/storage/block_store.h"
#include "src/storage/byte_store.h"
#include "src/virtio/virtio_blk.h"

namespace hyperion::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, RandomIsDeterministic) {
  ChaosProfile profile;
  profile.link_site = "link";
  profile.host_site = "host";
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan a = FaultPlan::Random(seed, profile);
    FaultPlan b = FaultPlan::Random(seed, profile);
    ASSERT_EQ(a.events.size(), b.events.size()) << "seed " << seed;
    for (size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].kind, b.events[i].kind);
      EXPECT_EQ(a.events[i].site, b.events[i].site);
      EXPECT_EQ(a.events[i].from, b.events[i].from);
      EXPECT_EQ(a.events[i].until, b.events[i].until);
      EXPECT_EQ(a.events[i].probability, b.events[i].probability);
      EXPECT_EQ(a.events[i].param, b.events[i].param);
    }
    EXPECT_GE(a.events.size(), 1u);
    EXPECT_LE(a.events.size(), profile.max_events);
  }
}

TEST(FaultPlanTest, RandomVariesWithSeed) {
  ChaosProfile profile;
  profile.link_site = "link";
  std::set<SimTime> starts;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan plan = FaultPlan::Random(seed, profile);
    for (const FaultEvent& e : plan.events) {
      starts.insert(e.from);
    }
  }
  // 20 seeds of 1..4 events each: window starts must not all collide.
  EXPECT_GT(starts.size(), 10u);
}

// ---------------------------------------------------------------------------
// FaultInjector: transfers
// ---------------------------------------------------------------------------

TEST(InjectorTest, DropOnceLosesExactlyThatOp) {
  FaultPlan plan;
  plan.AddDropOnce("link", 2);
  FaultInjector inj(plan);
  for (uint64_t op = 0; op < 5; ++op) {
    TransferFault f = inj.OnTransfer("link", 1000 * op, 100);
    EXPECT_EQ(f.lost, op == 2) << "op " << op;
  }
  EXPECT_EQ(inj.stats().transfers_lost, 1u);
  EXPECT_EQ(inj.OpCount("link", OpClass::kTransfer), 5u);
}

TEST(InjectorTest, ProbabilisticLossReplaysIdentically) {
  FaultPlan plan;
  plan.seed = 42;
  plan.AddTransferLoss("link", 0.3);
  auto pattern = [&] {
    FaultInjector inj(plan);
    std::vector<bool> lost;
    for (int i = 0; i < 200; ++i) {
      lost.push_back(inj.OnTransfer("link", i, 10).lost);
    }
    return lost;
  };
  std::vector<bool> a = pattern();
  std::vector<bool> b = pattern();
  EXPECT_EQ(a, b);
  size_t losses = static_cast<size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(losses, 20u);  // ~60 expected
  EXPECT_LT(losses, 140u);

  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector inj2(other);
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) {
    c.push_back(inj2.OnTransfer("link", i, 10).lost);
  }
  EXPECT_NE(a, c);  // different seed, different draw sequence
}

TEST(InjectorTest, LinkDownLosesIntersectingTransfers) {
  FaultPlan plan;
  plan.AddLinkDown("link", 1000, 2000);
  FaultInjector inj(plan);
  // Entirely before the outage.
  EXPECT_FALSE(inj.OnTransfer("link", 0, 900).lost);
  // Ends inside the outage.
  EXPECT_TRUE(inj.OnTransfer("link", 900, 200).lost);
  // Entirely inside.
  EXPECT_TRUE(inj.OnTransfer("link", 1500, 100).lost);
  // Starts inside, ends after.
  EXPECT_TRUE(inj.OnTransfer("link", 1900, 500).lost);
  // Entirely after.
  EXPECT_FALSE(inj.OnTransfer("link", 2000, 100).lost);
  EXPECT_TRUE(inj.LinkDown("link", 1500));
  EXPECT_FALSE(inj.LinkDown("link", 2500));
}

TEST(InjectorTest, LatencySpikeExtendsTransfers) {
  FaultPlan plan;
  plan.AddLatencySpike("link", 777, 1.0);
  FaultInjector inj(plan);
  TransferFault f = inj.OnTransfer("link", 0, 100);
  EXPECT_FALSE(f.lost);
  EXPECT_EQ(f.extra_latency, 777u);
  EXPECT_EQ(inj.stats().transfers_delayed, 1u);
}

TEST(InjectorTest, SitesAreIsolated) {
  FaultPlan plan;
  plan.AddDropOnce("a", 0);
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.OnTransfer("b", 0, 10).lost);  // b's op 0: no event for b
  EXPECT_TRUE(inj.OnTransfer("a", 0, 10).lost);   // a's op 0 still fresh
  // Op counters are per site.
  EXPECT_EQ(inj.OpCount("a", OpClass::kTransfer), 1u);
  EXPECT_EQ(inj.OpCount("b", OpClass::kTransfer), 1u);
}

TEST(InjectorTest, EmptySiteMatchesEverySite) {
  FaultPlan plan;
  plan.AddTransferLoss("", 1.0);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.OnTransfer("x", 0, 10).lost);
  EXPECT_TRUE(inj.OnTransfer("y", 0, 10).lost);
}

// ---------------------------------------------------------------------------
// FaultInjector: storage and host
// ---------------------------------------------------------------------------

TEST(InjectorTest, ReadWriteErrorOpWindows) {
  FaultPlan plan;
  plan.AddReadError("disk", 1, 2);   // ops 1 and 2
  plan.AddWriteError("disk", 0, 1);  // op 0
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.OnBlockRead("disk", 0).ok());
  EXPECT_EQ(inj.OnBlockRead("disk", 0).code(), StatusCode::kUnavailable);
  EXPECT_EQ(inj.OnBlockRead("disk", 0).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(inj.OnBlockRead("disk", 0).ok());
  EXPECT_EQ(inj.OnBlockWrite("disk", 0).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(inj.OnBlockWrite("disk", 0).ok());
  EXPECT_EQ(inj.stats().read_errors, 2u);
  EXPECT_EQ(inj.stats().write_errors, 1u);
}

TEST(InjectorTest, TornWriteCutsAtSectorBoundary) {
  // A 2000-byte write at offset 100 spans [100, 2100): interior sector
  // boundaries 512, 1024, 1536, 2048 -> prefixes 412, 924, 1436, 1948,
  // plus 0.
  std::set<uint64_t> seen;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.AddTornWrite("store", 0);
    FaultInjector inj(plan);
    auto torn = inj.OnByteWrite("store", 0, 100, 2000);
    ASSERT_TRUE(torn.has_value());
    seen.insert(*torn);
  }
  std::set<uint64_t> expected = {0, 412, 924, 1436, 1948};
  for (uint64_t cut : seen) {
    EXPECT_TRUE(expected.count(cut)) << "unexpected cut " << cut;
  }
  EXPECT_GT(seen.size(), 1u);  // across seeds, more than one cut point shows up
}

TEST(InjectorTest, TornWriteWithinOneSectorPersistsNothing) {
  FaultPlan plan;
  plan.AddTornWrite("store", 0);
  FaultInjector inj(plan);
  // A 16-byte aligned write never straddles a sector: the only tear outcome
  // is "nothing landed" — the basis of the HVD publish atomicity argument.
  auto torn = inj.OnByteWrite("store", 0, 512, 16);
  ASSERT_TRUE(torn.has_value());
  EXPECT_EQ(*torn, 0u);
}

TEST(InjectorTest, HostPauseWindowAndOneShotCrash) {
  FaultPlan plan;
  plan.AddHostPause("host", 100, 200);
  plan.AddHostCrash("host", 500);
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.PauseUntil("host", 50).has_value());
  ASSERT_TRUE(inj.PauseUntil("host", 150).has_value());
  EXPECT_EQ(*inj.PauseUntil("host", 150), 200u);
  EXPECT_FALSE(inj.PauseUntil("host", 200).has_value());
  EXPECT_FALSE(inj.TakeCrash("host", 499));
  EXPECT_TRUE(inj.TakeCrash("host", 500));
  EXPECT_FALSE(inj.TakeCrash("host", 501));  // consumed
  EXPECT_EQ(inj.stats().host_crashes, 1u);
}

// ---------------------------------------------------------------------------
// Faulty storage wrappers
// ---------------------------------------------------------------------------

TEST(FaultyStoreTest, BlockStoreSurfacesTransientErrors) {
  FaultPlan plan;
  plan.AddReadError("disk", 0);
  plan.AddWriteError("disk", 1);
  FaultInjector inj(plan);
  FaultyBlockStore store(std::make_shared<storage::MemBlockStore>(16), &inj, "disk");

  std::vector<uint8_t> buf(storage::kSectorSize, 0xAA);
  EXPECT_EQ(store.ReadSectors(0, 1, buf.data()).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store.ReadSectors(0, 1, buf.data()).ok());  // transient: op 1 fine
  // The successful read pulled zeros from the fresh medium; refill the
  // pattern before writing it so the final verification is meaningful.
  std::fill(buf.begin(), buf.end(), 0xAA);
  EXPECT_TRUE(store.WriteSectors(0, 1, buf.data()).ok());
  EXPECT_EQ(store.WriteSectors(0, 1, buf.data()).code(), StatusCode::kUnavailable);
  // The failed write left the medium untouched and later ops see the store.
  EXPECT_TRUE(store.ReadSectors(0, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 0xAA);
}

TEST(FaultyStoreTest, ByteStoreTornWriteKillsDevice) {
  FaultPlan plan;
  plan.seed = 7;
  plan.AddTornWrite("img", 1);
  FaultInjector inj(plan);
  auto inner = std::make_unique<storage::MemByteStore>();
  storage::MemByteStore* raw = inner.get();
  FaultyByteStore store(std::move(inner), &inj, "img");

  std::vector<uint8_t> a(1024, 0x11), b(1024, 0x22);
  ASSERT_TRUE(store.WriteAt(0, a.data(), a.size()).ok());  // op 0: clean
  Status torn = store.WriteAt(0, b.data(), b.size());      // op 1: tears
  EXPECT_EQ(torn.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store.dead());
  // Everything after the power loss fails.
  EXPECT_FALSE(store.WriteAt(0, a.data(), 4).ok());
  EXPECT_FALSE(store.Sync().ok());
  uint8_t byte;
  EXPECT_FALSE(store.ReadAt(0, &byte, 1).ok());
  // The medium holds a sector-aligned prefix of b over a: each sector is
  // entirely old or entirely new.
  const std::vector<uint8_t>& data = raw->data();
  ASSERT_EQ(data.size(), 1024u);
  for (size_t sector = 0; sector < 2; ++sector) {
    uint8_t first = data[sector * 512];
    EXPECT_TRUE(first == 0x11 || first == 0x22);
    for (size_t i = 0; i < 512; ++i) {
      EXPECT_EQ(data[sector * 512 + i], first) << "mixed sector " << sector;
    }
  }
}

// ---------------------------------------------------------------------------
// Switch-level frame faults
// ---------------------------------------------------------------------------

class RecordingSink : public net::FrameSink {
 public:
  void OnFrames(const SerialPhase&, std::span<const net::Frame> fs) override {
    frames.insert(frames.end(), fs.begin(), fs.end());
  }
  std::vector<net::Frame> frames;
};

net::Frame MakeFrame(net::MacAddr src, net::MacAddr dst, size_t payload = 64) {
  net::Frame f;
  f.src = src;
  f.dst = dst;
  f.payload.Assign(payload, 0xCD);
  return f;
}

TEST(SwitchFaultTest, InjectedDropIsCounted) {
  SimClock clock;
  net::VirtualSwitch sw(&clock);
  RecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  FaultPlan plan;
  plan.AddTransferLoss("sw", 1.0);  // kFrameDrop fires for frames too
  FaultInjector inj(plan);
  sw.SetFault(&inj, "sw");

  sw.Send(TestPhase(), MakeFrame(2, 1));
  clock.RunAll(TestPhase());
  EXPECT_TRUE(a.frames.empty());
  EXPECT_EQ(sw.stats().frames_injected_dropped, 1u);
  EXPECT_EQ(sw.stats().frames_delivered, 0u);
}

TEST(SwitchFaultTest, InjectedDuplicateDeliversCopies) {
  SimClock clock;
  net::VirtualSwitch sw(&clock);
  RecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  FaultPlan plan;
  FaultEvent dup;
  dup.site = "sw";
  dup.kind = FaultKind::kFrameDuplicate;
  dup.first_op = 0;
  dup.last_op = 0;  // only the first frame
  plan.Add(dup);
  FaultInjector inj(plan);
  sw.SetFault(&inj, "sw");

  sw.Send(TestPhase(), MakeFrame(2, 1));
  sw.Send(TestPhase(), MakeFrame(2, 1));
  clock.RunAll(TestPhase());
  EXPECT_EQ(a.frames.size(), 3u);  // 2 copies of the first + 1 of the second
  EXPECT_EQ(sw.stats().frames_injected_duplicated, 1u);
}

TEST(SwitchFaultTest, LatencySpikeDelaysDelivery) {
  SimClock clock;
  net::VirtualSwitch sw(&clock);
  RecordingSink a;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());

  // Baseline delivery time without faults.
  sw.Send(TestPhase(), MakeFrame(2, 1));
  clock.RunAll(TestPhase());
  SimTime baseline = clock.now();
  ASSERT_EQ(a.frames.size(), 1u);

  FaultPlan plan;
  plan.AddLatencySpike("sw", 5 * kSimTicksPerMs, 1.0);
  FaultInjector inj(plan);
  sw.SetFault(&inj, "sw");
  sw.Send(TestPhase(), MakeFrame(2, 1));
  clock.RunUntil(TestPhase(), baseline + baseline);  // twice the fault-free time: not there
  EXPECT_EQ(a.frames.size(), 1u);
  clock.RunAll(TestPhase());
  EXPECT_EQ(a.frames.size(), 2u);
  EXPECT_GE(clock.now(), 5 * kSimTicksPerMs);
  EXPECT_EQ(sw.stats().frames_injected_delayed, 1u);
}

TEST(SwitchFaultTest, PartitionBlocksBothDirectionsDuringWindow) {
  SimClock clock;
  net::VirtualSwitch sw(&clock);
  RecordingSink a, b, c;
  ASSERT_TRUE(sw.Attach(TestPhase(), 1, &a).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 2, &b).ok());
  ASSERT_TRUE(sw.Attach(TestPhase(), 3, &c).ok());
  FaultPlan plan;
  plan.AddPartition("sw", {1}, {2}, 0, kSimTicksPerMs);
  FaultInjector inj(plan);
  sw.SetFault(&inj, "sw");

  sw.Send(TestPhase(), MakeFrame(1, 2));  // blocked
  sw.Send(TestPhase(), MakeFrame(2, 1));  // blocked
  sw.Send(TestPhase(), MakeFrame(1, 3));  // unaffected side
  clock.RunAll(TestPhase());
  EXPECT_TRUE(a.frames.empty());
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(sw.stats().frames_injected_dropped, 2u);

  // After the window the pair talks again.
  clock.RunUntil(TestPhase(), 2 * kSimTicksPerMs);
  sw.Send(TestPhase(), MakeFrame(1, 2));
  clock.RunAll(TestPhase());
  EXPECT_EQ(b.frames.size(), 1u);
}

// ---------------------------------------------------------------------------
// Block devices surface injected I/O errors to a running guest
// ---------------------------------------------------------------------------

core::Vm* Boot(core::Host& host, core::VmConfig config, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = host.CreateVm(std::move(config));
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

TEST(DeviceFaultTest, VirtioBlkReportsIoErrStatusToGuest) {
  FaultPlan plan;
  plan.AddWriteError("vm:disk", 1);  // the second request fails
  FaultInjector inj(plan);

  core::Host host;
  core::VmConfig cfg{.name = "vblk-err"};
  cfg.disk_model = core::IoModel::kParavirt;
  cfg.disk = std::make_shared<FaultyBlockStore>(
      std::make_shared<storage::MemBlockStore>(256), &inj, "vm:disk",
      &host.clock());
  guest::BlkIoParams p;
  p.iterations = 2;
  p.sectors = 1;
  p.batch = 1;
  p.write = true;
  core::Vm* vm = Boot(host, cfg, guest::VirtioBlkProgram(p));
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));

  // The guest survived the error (completed both kicks and shut down), and
  // the device reported it: one errored request, and the status byte of the
  // final request (batch slot 0 at the ring's status buffer) reads IOERR.
  EXPECT_NE(vm->state(), core::VmState::kCrashed) << vm->crash_reason().ToString();
  EXPECT_EQ(vm->virtio_blk()->blk_stats().errors, 1u);
  EXPECT_EQ(vm->virtio_blk()->blk_stats().requests, 2u);
  auto status = vm->memory().ReadU8(0x21800);  // VirtioBlkProgram status buffer
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(*status, virtio::kBlkStatusIoErr);
  EXPECT_EQ(inj.stats().write_errors, 1u);
}

TEST(DeviceFaultTest, EmulatedBlkSignalsErrorAndGuestContinues) {
  FaultPlan plan;
  plan.AddReadError("vm:disk", 0);  // the first read command fails
  FaultInjector inj(plan);

  core::Host host;
  core::VmConfig cfg{.name = "eblk-err"};
  cfg.disk_model = core::IoModel::kEmulated;
  cfg.disk = std::make_shared<FaultyBlockStore>(
      std::make_shared<storage::MemBlockStore>(256), &inj, "vm:disk",
      &host.clock());
  guest::BlkIoParams p;
  p.iterations = 3;
  p.sectors = 1;
  p.write = false;
  core::Vm* vm = Boot(host, cfg, guest::EmulatedBlkProgram(p));
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));

  // The completion interrupt fired despite the error (the guest's wfi did
  // not hang), the device counted the command, and the VM ran to shutdown.
  EXPECT_NE(vm->state(), core::VmState::kCrashed) << vm->crash_reason().ToString();
  EXPECT_EQ(vm->emulated_blk()->stats().reads, 3u);
  EXPECT_EQ(inj.stats().read_errors, 1u);
}

// ---------------------------------------------------------------------------
// Time-windowed block faults judge a write at its slice's start
// ---------------------------------------------------------------------------

// Guest-physical base of the block-writing probe (outside every platform
// device window).
constexpr uint32_t kProbeBase = 0xF0200000u;

// Spins, stores to the probe, repeats forever.
std::string ProbeStoreLoopProgram(uint32_t spin) {
  return ".org 0x1000\n"
         "_start:\n"
         "    li s0, " + std::to_string(kProbeBase) + "\n"
         "loop:\n"
         "    li s1, " + std::to_string(spin) + "\n"
         "spin:\n"
         "    addi s1, s1, -1\n"
         "    bnez s1, spin\n"
         "    sw s1, 0(s0)\n"
         "    j loop\n";
}

struct ProbeWrite {
  SimTime slice_time;  // the storing slice's start
  SimTime anchor;      // the writer host clock's time: the round anchor
  bool ok;             // the faulty store accepted the write
};

// On every guest store, writes one sector to `store` from inside the slice.
class BlockWriteProbe final : public devices::MmioDevice {
 public:
  BlockWriteProbe(core::Vm* vm, const SimClock* clock, storage::BlockStore* store)
      : vm_(vm), clock_(clock), store_(store) {}

  std::string_view name() const override { return "block-write-probe"; }
  Result<uint32_t> Read(uint32_t, uint32_t) override { return 0u; }
  Status Write(const Phase&, uint32_t, uint32_t, uint32_t) override {
    uint8_t sector[storage::kSectorSize] = {};
    writes.push_back(ProbeWrite{vm_->vcpu(0).slice_start, clock_->now(),
                                store_->WriteSectors(0, 1, sector).ok()});
    return OkStatus();
  }

  std::vector<ProbeWrite> writes;

 private:
  core::Vm* vm_;
  const SimClock* clock_;
  storage::BlockStore* store_;
};

// Two hosts share a domain and the writer's host has the longer timeslice,
// so after the first round the writer's slices start after the round
// anchor. The writer's probe writes to a FaultyBlockStore bound to
// `store_clock`, or to the writer host's clock when that is null.
std::vector<ProbeWrite> LateSliceWrites(const FaultPlan& plan, SimClock* store_clock) {
  FaultInjector inj(plan);
  core::TimeDomain domain(/*worker_threads=*/0);
  core::HostConfig compute_cfg;
  compute_cfg.name = "compute";
  compute_cfg.num_pcpus = 1;
  compute_cfg.timeslice_cycles = 700'000;
  core::HostConfig writer_cfg;
  writer_cfg.name = "writer";
  writer_cfg.num_pcpus = 1;
  writer_cfg.timeslice_cycles = 1'000'000;
  core::Host compute_host(compute_cfg, &domain);
  core::Host writer_host(writer_cfg, &domain);
  Boot(compute_host, core::VmConfig{.name = "compute"}, guest::ComputeProgram(0));
  core::Vm* writer =
      Boot(writer_host, core::VmConfig{.name = "writer"}, ProbeStoreLoopProgram(20'000));
  FaultyBlockStore store(std::make_shared<storage::MemBlockStore>(16), &inj, "disk",
                         store_clock != nullptr ? store_clock : &writer_host.clock());
  BlockWriteProbe probe(writer, &writer_host.clock(), &store);
  EXPECT_TRUE(writer->bus().Map(kProbeBase, devices::kDeviceWindow, &probe).ok());
  domain.RunFor(20 * kSimTicksPerMs);
  return probe.writes;
}

TEST(FaultyStoreTest, TimeWindowedWriteErrorUsesTheSliceStart) {
  // A fault-free run finds a write whose slice starts after its round's
  // anchor; the window then opens exactly at that slice's start, so reading
  // the anchor instead would let that write through.
  const std::vector<ProbeWrite> dry = LateSliceWrites(FaultPlan{}, nullptr);
  auto late = std::find_if(dry.begin(), dry.end(),
                           [](const ProbeWrite& w) { return w.anchor < w.slice_time; });
  ASSERT_NE(late, dry.end()) << "no write ran in a slice after the round anchor";
  const SimTime from = late->slice_time;

  FaultPlan plan;
  plan.Add(FaultEvent{.site = "disk", .kind = FaultKind::kWriteError, .from = from});
  const std::vector<ProbeWrite> writes = LateSliceWrites(plan, nullptr);
  ASSERT_EQ(writes.size(), dry.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(writes[i].slice_time, dry[i].slice_time) << "write " << i;
    EXPECT_EQ(writes[i].ok, writes[i].slice_time < from) << "write " << i;
  }
}

TEST(FaultyStoreTest, StoreOnAnotherClockReadsThatClock) {
  // The store's clock is not the slice's: it stays at 0, so the [0, 1 ms)
  // window covers every write although the slices run until 20 ms.
  SimClock other;
  FaultPlan plan;
  plan.Add(FaultEvent{.site = "disk", .kind = FaultKind::kWriteError, .until = kSimTicksPerMs});
  const std::vector<ProbeWrite> writes = LateSliceWrites(plan, &other);
  ASSERT_GT(writes.size(), 10u);
  EXPECT_GT(writes.back().slice_time, kSimTicksPerMs);
  for (const ProbeWrite& w : writes) {
    EXPECT_FALSE(w.ok) << "write at slice time " << w.slice_time;
  }
}

}  // namespace
}  // namespace hyperion::fault
