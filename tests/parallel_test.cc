// Staged execution core tests (DESIGN.md §8).
//
// The dispatch→execute→commit pipeline promises that simulation results are
// bit-identical for every worker count: the commit step replays staged side
// effects in dispatch order, so threads only change wall-clock speed, never
// outcomes. These tests hold the pipeline to that promise with a dense
// consolidation scenario (8 VMs mixing compute, timers, dirtying, SMP, disk
// and network I/O) plus a faulty live migration, replayed at worker counts
// {0, 1, 4}, and with a seeded chaos sweep at 4 workers under the runtime
// auditors. They also pin down the DestroyVm lifetime fix: clock events
// owned by a VM (armed timers, in-flight block completions) die with it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "tests/test_phase.h"
#include "src/core/time_domain.h"
#include "src/core/worker_pool.h"
#include "src/devices/mmio.h"
#include "src/fault/fault.h"
#include "src/guest/programs.h"
#include "src/migrate/migrate.h"
#include "src/net/network.h"
#include "src/storage/block_store.h"
#include "src/virtio/virtio_net.h"
#include "src/util/crc32.h"
#include "src/verify/audit.h"

namespace hyperion {
namespace {

using core::Host;
using core::HostConfig;
using core::IoModel;
using core::Vm;
using core::VmConfig;
using core::VmState;

constexpr char kLinkSite[] = "migrate:link";
constexpr char kHostSite[] = "src:host";

Vm* Boot(Host& host, VmConfig config, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = host.CreateVm(std::move(config));
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

// Digest of guest RAM: presence map + contents of every present page.
uint32_t RamDigest(Vm& vm) {
  mem::GuestMemory& mem = vm.memory();
  uint32_t crc = 0;
  for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
    uint8_t present = mem.IsPresent(gpn) ? 1 : 0;
    crc = Crc32(&present, 1, crc);
    if (present) {
      crc = Crc32(mem.PageData(gpn), isa::kPageSize, crc);
    }
  }
  return crc;
}

migrate::MigrateOptions FaultyOptions(fault::FaultInjector* inj) {
  migrate::MigrateOptions options;
  options.fault = inj;
  options.fault_site = kLinkSite;
  options.retry_backoff = kSimTicksPerMs;
  options.retry_backoff_cap = 20 * kSimTicksPerMs;
  options.round_timeout = 50 * kSimTicksPerMs;
  options.postcopy_run_limit = 5 * kSimTicksPerSec;
  return options;
}

// Everything observable a scenario produces. Field-for-field equality is the
// determinism oracle.
struct ScenarioResult {
  Host::HostStats src_stats;
  Host::HostStats dst_stats;
  std::vector<uint32_t> digests;       // per VM, creation order; migrated VM last
  std::vector<std::string> consoles;   // same order
  std::vector<uint64_t> instructions;  // same order
  // Data-plane counters: the coalescing machinery (EVENT_IDX suppression,
  // NAPI polling, burst delivery) must also replay bit-identically.
  net::VirtualSwitch::Stats switch_stats;
  std::vector<virtio::VirtioNet::NetStats> nic_stats;     // per paravirt NIC
  std::vector<virtio::VirtioDevice::Stats> nic_dev_stats;  // same order
  migrate::MigrationReport report;
  bool migrate_ok = false;
  StatusCode code = StatusCode::kOk;
  SimTime src_now = 0;
  SimTime dst_now = 0;

  bool operator==(const ScenarioResult&) const = default;
};

// A dense consolidation scenario: 8 VMs covering every staged subsystem
// (pure compute, timer sleeps via the clock, page dirtying through the frame
// pool, a 2-vCPU SMP lane, emulated and virtio disks, a virtio-net
// ping/echo pair through the switch), run under an injected host-pause/link
// fault plan, with one VM live-migrating away mid-run.
ScenarioResult RunScenario(int workers, uint64_t seed, bool short_run = false) {
  fault::ChaosProfile profile;
  profile.link_site = kLinkSite;
  profile.host_site = kHostSite;
  profile.horizon = 60 * kSimTicksPerMs;
  fault::FaultInjector inj(fault::FaultPlan::Random(seed, profile));

  HostConfig hc;
  hc.worker_threads = workers;
  Host src(hc), dst(hc);
  src.SetFaultInjector(&inj, kHostSite);

  std::vector<Vm*> vms;
  vms.push_back(Boot(src, VmConfig{.name = "compute"}, guest::ComputeProgram(0)));
  vms.push_back(Boot(src, VmConfig{.name = "idle"}, guest::IdleTickProgram(200'000)));
  vms.push_back(Boot(src, VmConfig{.name = "dirty"}, guest::DirtyRateProgram(48, 400)));
  vms.push_back(Boot(src, VmConfig{.name = "fill"},
                     guest::PatternFillProgram(64, 8, static_cast<uint32_t>(seed))));

  VmConfig smp{.name = "smp"};
  smp.num_vcpus = 2;
  vms.push_back(Boot(src, smp, guest::SmpCounterProgram(100'000)));

  auto edisk = std::make_shared<storage::MemBlockStore>(256);
  VmConfig eblk{.name = "eblk"};
  eblk.disk_model = IoModel::kEmulated;
  eblk.disk = edisk;
  guest::BlkIoParams ep;
  ep.iterations = 1'000'000;  // effectively forever: I/O flows all scenario
  ep.sectors = 2;
  ep.write = true;
  vms.push_back(Boot(src, eblk, guest::EmulatedBlkProgram(ep)));

  auto vdisk = std::make_shared<storage::MemBlockStore>(1024);
  VmConfig vblk{.name = "vblk"};
  vblk.disk_model = IoModel::kParavirt;
  vblk.disk = vdisk;
  guest::BlkIoParams vp;
  vp.iterations = 1'000'000;
  vp.sectors = 4;
  vp.batch = 4;
  vp.write = true;
  vms.push_back(Boot(src, vblk, guest::VirtioBlkProgram(vp)));

  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 128;
  np.iterations = 0;  // ping forever
  VmConfig ping{.name = "ping"};
  ping.net_model = IoModel::kParavirt;
  ping.mac = 1;
  vms.push_back(Boot(src, ping, guest::VirtioNetPingProgram(np)));
  VmConfig echo{.name = "echo"};
  echo.net_model = IoModel::kParavirt;
  echo.mac = 2;
  vms.push_back(Boot(src, echo, guest::VirtioNetEchoProgram(np.payload_bytes)));

  // A bulk stream/sink pair with the full coalescing data plane engaged:
  // EVENT_IDX completions, kick-suppressed NAPI polling, burst delivery.
  guest::NetStreamParams sp;
  sp.peer_mac = 4;
  sp.payload_bytes = 256;
  VmConfig stream{.name = "stream"};
  stream.net_model = IoModel::kParavirt;
  stream.mac = 3;
  vms.push_back(Boot(src, stream, guest::VirtioNetStreamProgram(sp)));
  VmConfig bulk_sink{.name = "sink"};
  bulk_sink.net_model = IoModel::kParavirt;
  bulk_sink.mac = 4;
  vms.push_back(Boot(src, bulk_sink, guest::VirtioNetSinkProgram(sp)));

  SimTime unit = short_run ? 2 * kSimTicksPerMs : 10 * kSimTicksPerMs;
  src.RunFor(3 * unit);

  ScenarioResult out;
  Vm* mover = src.FindVm("idle");
  auto moved = migrate::PreCopyMigrate(src, mover, dst, FaultyOptions(&inj), &out.report);
  out.migrate_ok = moved.ok();
  out.code = moved.status().code();

  src.RunFor(2 * unit);
  dst.RunFor(2 * unit);

  for (Vm* vm : vms) {
    out.digests.push_back(RamDigest(*vm));
    out.consoles.push_back(vm->console());
    out.instructions.push_back(vm->TotalStats().instructions);
  }
  if (moved.ok()) {
    out.digests.push_back(RamDigest(**moved));
    out.consoles.push_back((*moved)->console());
    out.instructions.push_back((*moved)->TotalStats().instructions);
  }
  out.switch_stats = src.vswitch().stats();
  for (Vm* vm : vms) {
    if (vm->virtio_net() != nullptr) {
      out.nic_stats.push_back(vm->virtio_net()->net_stats());
      out.nic_dev_stats.push_back(vm->virtio_net()->stats());
    }
  }
  out.src_stats = src.stats();
  out.dst_stats = dst.stats();
  out.src_now = src.clock().now();
  out.dst_now = dst.clock().now();
  return out;
}

// The tentpole guarantee: worker count changes wall-clock speed only. The
// whole observable state — RAM digests, consoles, instruction counts,
// HostStats, the MigrationReport, final clocks — must match bit-for-bit
// across {0, 1, 4} workers.
TEST(StagedExecutionTest, ResultsAreIdenticalAcrossWorkerCounts) {
  ScenarioResult serial = RunScenario(/*workers=*/0, /*seed=*/42);
  ScenarioResult one = RunScenario(/*workers=*/1, /*seed=*/42);
  ScenarioResult four = RunScenario(/*workers=*/4, /*seed=*/42);
  // The equality below must not hold vacuously: the stream/sink pair has to
  // actually exercise kick suppression and burst delivery in this scenario.
  uint64_t suppressed = 0;
  uint64_t burst_frames = 0;
  for (const auto& s : serial.nic_stats) {
    suppressed += s.kicks_suppressed;
    burst_frames += s.burst_frames;
  }
  EXPECT_GT(suppressed, 0u) << "NAPI polling never engaged";
  EXPECT_GT(burst_frames, 0u) << "no coalesced burst deliveries";
  EXPECT_GT(serial.switch_stats.bursts_delivered, 0u);
  EXPECT_TRUE(serial == one) << "1-worker run diverged from serial";
  EXPECT_TRUE(serial == four) << "4-worker run diverged from serial";
  // And the scenario itself replays deterministically at a fixed count.
  ScenarioResult again = RunScenario(/*workers=*/4, /*seed=*/42);
  EXPECT_TRUE(four == again) << "4-worker run is not replay-deterministic";
}

// Ten chaos seeds at 4 workers, with the runtime auditors armed the whole
// time: staging must never let a worker observe (or commit) an incoherent
// MMU, virtio ring, or frame refcount, and every seed must replay the serial
// outcome exactly.
TEST(StagedExecutionTest, ChaosSweepAtFourWorkersMatchesSerialUnderAudit) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    verify::SetAuditEnabled(true);
    ScenarioResult serial = RunScenario(/*workers=*/0, seed, /*short_run=*/true);
    ScenarioResult four = RunScenario(/*workers=*/4, seed, /*short_run=*/true);
    verify::SetAuditEnabled(false);
    EXPECT_TRUE(serial == four) << "divergence at seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// SMP bit-identity
// ---------------------------------------------------------------------------

// Everything a 4-vCPU MCS-lock/shootdown run can observably produce,
// including the whole per-vCPU stat blocks (ipis_sent, ipis_received,
// shootdowns among them).
struct SmpResult {
  uint32_t digest = 0;
  std::string console;
  std::vector<cpu::VcpuStats> stats;
  VmState state = VmState::kRunning;
  uint32_t progress = 0;
  SimTime now = 0;

  bool operator==(const SmpResult&) const = default;
};

SmpResult RunSmpMcsScenario(int workers) {
  HostConfig hc;
  hc.worker_threads = workers;
  hc.num_pcpus = 4;
  Host host(hc);
  guest::SmpLockParams p;
  std::string prog = guest::SmpMcsLockProgram(p);
  VmConfig cfg{.name = "mcs"};
  cfg.ram_bytes = 8u << 20;
  cfg.num_vcpus = p.num_vcpus;
  cfg.paging_mode = mmu::PagingMode::kNested;
  Vm* vm = Boot(host, cfg, prog);
  // A second VM so multi-worker runs genuinely execute concurrent lanes.
  Vm* other = Boot(host, VmConfig{.name = "compute"}, guest::ComputeProgram(0));
  // The MCS gauntlet completes in ~20 simulated ms; 50 ms is deterministic
  // headroom without simulating the compute VM for long after.
  host.RunFor(50 * kSimTicksPerMs);

  SmpResult out;
  out.digest = RamDigest(*vm);
  out.console = vm->console();
  for (uint32_t i = 0; i < vm->num_vcpus(); ++i) {
    out.stats.push_back(vm->vcpu(i).stats);
  }
  out.state = vm->state();
  auto image = guest::Build(prog);
  EXPECT_TRUE(image.ok());
  auto addr = guest::ProgressAddress(*image);
  EXPECT_TRUE(addr.ok());
  out.progress = vm->memory().ReadU32(*addr).value_or(0);
  out.now = host.clock().now();
  EXPECT_GT(other->TotalStats().instructions, 0u);
  return out;
}

// An SMP guest whose vCPUs genuinely interact — MCS lock handoffs, IPI
// doorbells, cross-vCPU TLB shootdowns — must replay bit-identically at any
// worker count: same RAM digest, same console, same per-vCPU stat blocks.
TEST(StagedExecutionTest, SmpMcsLockIsIdenticalAcrossWorkerCounts) {
  SmpResult serial = RunSmpMcsScenario(/*workers=*/0);
  // Non-vacuity: the run finished, held the lock, and actually shot down.
  guest::SmpLockParams p;
  EXPECT_EQ(serial.state, VmState::kShutdown);
  EXPECT_EQ(serial.progress, p.num_vcpus * p.lock_iters);
  EXPECT_GT(serial.stats[0].ipis_sent, 0u);
  for (uint32_t i = 1; i < p.num_vcpus; ++i) {
    EXPECT_GT(serial.stats[i].ipis_received, 0u) << "vcpu " << i;
    EXPECT_GT(serial.stats[i].shootdowns, 0u) << "vcpu " << i;
  }
  SmpResult one = RunSmpMcsScenario(/*workers=*/1);
  SmpResult four = RunSmpMcsScenario(/*workers=*/4);
  EXPECT_TRUE(serial == one) << "1-worker SMP run diverged from serial";
  EXPECT_TRUE(serial == four) << "4-worker SMP run diverged from serial";
}

// ---------------------------------------------------------------------------
// Slice time and the serial-token check
// ---------------------------------------------------------------------------

// Guest-physical base of the test-only probe devices below (outside every
// platform device window).
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

// On every guest store, schedules an event `kDelay` after "now" through a
// ClockRef, from inside the slice, and records when it should fire: the
// storing vCPU's slice start plus the delay. The slice start is the
// guest-time base the vCPU runs against, which no clock read feeds.
class SliceTimeProbe final : public devices::MmioDevice {
 public:
  static constexpr SimTime kDelay = 5 * kSimTicksPerMs;

  SliceTimeProbe(Vm* vm, ClockRef clock) : vm_(vm), clock_(clock) {}

  std::string_view name() const override { return "slice-time-probe"; }
  Result<uint32_t> Read(uint32_t, uint32_t) override { return 0u; }
  Status Write(const Phase& ph, uint32_t, uint32_t, uint32_t) override {
    expected.push_back(vm_->vcpu(0).slice_start + kDelay);
    clock_.ScheduleAfter(ph, kDelay, [this] { fired.push_back(clock_.clock()->now()); });
    return OkStatus();
  }

  std::vector<SimTime> expected;
  std::vector<SimTime> fired;

 private:
  Vm* vm_;
  ClockRef clock_;
};

// Slice code must read time from its own slice, not from the round: two
// hosts share a domain, and the writer's host has the longer timeslice, so
// after the first round the writer's pCPU frees up later than the compute
// host's and its slices start after the round anchor. A device event
// scheduled from inside such a slice through ClockRef::ScheduleAfter must
// fire at that slice's start plus the delay; reading the clock's time
// instead fires it early by the slice's offset from the anchor. (Worker
// counts cannot catch this: the wrong time is the same at every count.)
TEST(StagedExecutionTest, DeviceEventFiresAtItsSliceStartPlusDelay) {
  core::TimeDomain domain(/*worker_threads=*/0);
  HostConfig compute_cfg;
  compute_cfg.name = "compute";
  compute_cfg.num_pcpus = 1;
  compute_cfg.timeslice_cycles = 700'000;
  HostConfig writer_cfg;
  writer_cfg.name = "writer";
  writer_cfg.num_pcpus = 1;
  writer_cfg.timeslice_cycles = 1'000'000;
  Host compute_host(compute_cfg, &domain);
  Host writer_host(writer_cfg, &domain);
  Boot(compute_host, VmConfig{.name = "compute"}, guest::ComputeProgram(0));
  Vm* writer = Boot(writer_host, VmConfig{.name = "writer"}, ProbeStoreLoopProgram(20'000));
  SliceTimeProbe probe(writer, ClockRef(&writer_host.clock(), 0));
  ASSERT_TRUE(writer->bus().Map(kProbeBase, devices::kDeviceWindow, &probe).ok());

  domain.RunFor(20 * kSimTicksPerMs);

  ASSERT_GT(probe.fired.size(), 10u);
  ASSERT_LE(probe.fired.size(), probe.expected.size());
  probe.expected.resize(probe.fired.size());  // the rest are still pending
  EXPECT_EQ(probe.fired, probe.expected);
}

// Mints a serial token from its write handler, i.e. from inside a slice.
class SerialTokenMinter final : public devices::MmioDevice {
 public:
  std::string_view name() const override { return "serial-token-minter"; }
  Result<uint32_t> Read(uint32_t, uint32_t) override { return 0u; }
  Status Write(const Phase&, uint32_t, uint32_t, uint32_t) override {
    ScopedSerialPhase serial;
    return OkStatus();
  }
};

// ScopedSerialPhase's inside-a-slice check is the one dynamic check behind
// the static token discipline; it must hold in release builds too, so a
// guest store that reaches a handler minting a serial token aborts.
TEST(PhaseDisciplineDeathTest, SerialTokenMintedInsideSliceAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        HostConfig hc;
        hc.worker_threads = 0;
        Host host(hc);
        Vm* vm = Boot(host, VmConfig{.name = "minter"}, ProbeStoreLoopProgram(100));
        SerialTokenMinter minter;
        if (vm->bus().Map(kProbeBase, devices::kDeviceWindow, &minter).ok()) {
          host.RunFor(kSimTicksPerMs);
        }
      },
      "ScopedSerialPhase minted inside an execute phase");
}

// ---------------------------------------------------------------------------
// DestroyVm lifetime
// ---------------------------------------------------------------------------

// Destroying a VM with an armed wfi timer and an in-flight block completion
// must cancel both events. Before owner-tagged events, the queued closures
// captured the freed Vm/device and fired into dead memory (caught by ASan).
TEST(DestroyVmTest, CancelsArmedTimerAndInflightBlockIo) {
  Host host;

  // A guest sleeping in wfi with a timer armed well in the future.
  Vm* sleeper = Boot(host, VmConfig{.name = "sleeper"}, guest::IdleTickProgram(5'000'000));
  host.RunFor(2 * kSimTicksPerMs);

  // A VM with a block command mid-flight: start it through the register
  // interface so the completion event is deterministically pending.
  auto disk = std::make_shared<storage::MemBlockStore>(64);
  VmConfig cfg{.name = "io"};
  cfg.disk_model = IoModel::kEmulated;
  cfg.disk = disk;
  Vm* io = Boot(host, cfg, guest::ComputeProgram(0));
  ASSERT_TRUE(io->emulated_blk()->Write(TestPhase(), 0x00, 4, 0).ok());  // LBA
  ASSERT_TRUE(io->emulated_blk()->Write(TestPhase(), 0x04, 4, 8).ok());  // COUNT
  ASSERT_TRUE(io->emulated_blk()->Write(TestPhase(), 0x08, 4, 2).ok());  // CMD: write
  ASSERT_TRUE(host.clock().HasPending());

  ASSERT_TRUE(host.DestroyVm(sleeper).ok());
  ASSERT_TRUE(host.DestroyVm(io).ok());

  // Drain every remaining event, then keep simulating. Without CancelOwner
  // these dereference the destroyed VMs.
  host.clock().RunAll(TestPhase());
  host.RunFor(20 * kSimTicksPerMs);
  EXPECT_TRUE(host.vms().empty());
}

// The virtio completion path stages through the same owner tag.
TEST(DestroyVmTest, CancelsInflightVirtioBlkCompletion) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(1024);
  VmConfig cfg{.name = "vio"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 1'000'000;  // keep I/O flowing until destroyed
  p.sectors = 4;
  p.batch = 2;
  p.write = true;
  Vm* vm = Boot(host, cfg, guest::VirtioBlkProgram(p));
  host.RunFor(2 * kSimTicksPerMs);
  ASSERT_EQ(vm->state(), VmState::kRunning) << vm->crash_reason().ToString();
  ASSERT_TRUE(host.DestroyVm(vm).ok());
  host.clock().RunAll(TestPhase());
  host.RunFor(10 * kSimTicksPerMs);
  EXPECT_TRUE(host.vms().empty());
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Cluster acceptance scenario (DESIGN.md §13): a 4-host fleet of 64 VMs under
// churn — arrivals and departures, one rolling-maintenance drain, one
// injected host crash with checkpoint respawn, DRS rebalancing, and a
// cross-host ping/echo pair through the fabric. The whole observable cluster
// history must be bit-identical across worker counts: member hosts share one
// TimeDomain, so the same staged-commit argument covers the fleet.
// ---------------------------------------------------------------------------

struct ClusterScenarioResult {
  // "name@host state digest insns", sorted by name — one line per surviving
  // guest, including respawned crash victims.
  std::vector<std::string> guests;
  std::vector<Host::HostStats> host_stats;
  std::vector<net::VirtualSwitch::Stats> switch_stats;
  cluster::Fabric::Stats fabric_stats;
  cluster::ClusterStats cluster_stats;
  std::vector<cluster::MigrationRecord> migrations;
  SimTime now = 0;

  bool operator==(const ClusterScenarioResult&) const = default;
};

ClusterScenarioResult RunClusterScenario(int workers) {
  cluster::ClusterConfig cc;
  cc.worker_threads = workers;
  cc.cpu_overcommit = 32.0;
  cc.ram_overcommit = 4.0;
  cc.drs.interval = 4 * kSimTicksPerMs;
  cc.drs.hot_busy = 0.45;
  cc.drs.cool_until = 0.40;
  cc.drs.min_gain = 0.05;
  cluster::Cluster cl(cc);
  std::vector<Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(cl.AddHost(HostConfig{.num_pcpus = 2}));
  }

  fault::FaultPlan plan;
  plan.AddHostCrash("fleet:h1", 14 * kSimTicksPerMs);
  fault::FaultInjector inj(plan);
  hosts[1]->SetFaultInjector(&inj, "fleet:h1");

  std::string idle = guest::IdleTickProgram(500'000);
  std::string compute = guest::ComputeProgram(0);
  auto boot = [&](VmConfig config, const std::string& source, Host* pin = nullptr) {
    auto image = guest::Build(source);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    auto vm = cl.CreateVm(std::move(config), pin);
    EXPECT_TRUE(vm.ok()) << vm.status().ToString();
    EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  };

  // 62 bulk VMs (every 16th is a cycle burner, the rest tick idly) plus a
  // pinned cross-host ping/echo pair: 64 guests.
  for (int i = 0; i < 62; ++i) {
    char name[8];
    std::snprintf(name, sizeof(name), "vm%02d", i);
    boot(VmConfig{.name = name}, i % 16 == 0 ? compute : idle);
  }
  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 128;
  np.iterations = 0;
  VmConfig ping{.name = "ping"};
  ping.net_model = IoModel::kParavirt;
  ping.mac = 1;
  boot(ping, guest::VirtioNetPingProgram(np), hosts[0]);
  VmConfig echo{.name = "echo"};
  echo.net_model = IoModel::kParavirt;
  echo.mac = 2;
  boot(echo, guest::VirtioNetEchoProgram(np.payload_bytes), hosts[2]);

  cl.RunFor(6 * kSimTicksPerMs);

  // Churn: nine departures, nine arrivals.
  for (int i = 0; i < 62; i += 7) {
    char name[8];
    std::snprintf(name, sizeof(name), "vm%02d", i);
    EXPECT_TRUE(cl.DestroyVm(name).ok());
  }
  for (int i = 0; i < 9; ++i) {
    boot(VmConfig{.name = "new" + std::to_string(i)}, idle);
  }
  cl.RunFor(6 * kSimTicksPerMs);

  // Fresh respawn templates for everyone, then maintenance begins on h3 and
  // the crash on h1 fires mid-flight (t=14ms).
  cl.CheckpointAll();
  EXPECT_TRUE(cl.DrainHost(hosts[3]).ok());
  cl.RunFor(13 * kSimTicksPerMs);

  ClusterScenarioResult out;
  std::vector<std::string> names;
  for (int i = 0; i < 62; ++i) {
    if (i % 7 == 0) {
      continue;  // departed
    }
    char name[8];
    std::snprintf(name, sizeof(name), "vm%02d", i);
    names.push_back(name);
  }
  for (int i = 0; i < 9; ++i) {
    names.push_back("new" + std::to_string(i));
  }
  names.push_back("ping");
  names.push_back("echo");
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    Vm* vm = cl.FindVm(name);
    EXPECT_NE(vm, nullptr) << "guest lost: " << name;
    if (vm == nullptr) {
      continue;
    }
    out.guests.push_back(name + "@" + cl.HostOf(name)->name() + " " +
                         std::to_string(static_cast<int>(vm->state())) + " " +
                         std::to_string(RamDigest(*vm)) + " " +
                         std::to_string(vm->TotalStats().instructions));
  }
  for (Host* h : hosts) {
    out.host_stats.push_back(h->stats());
    out.switch_stats.push_back(h->vswitch().stats());
  }
  out.fabric_stats = cl.fabric().stats();
  out.cluster_stats = cl.stats();
  out.migrations = cl.migrations();
  out.now = cl.clock().now();
  return out;
}

TEST(ClusterStagedTest, FleetUnderChurnIsIdenticalAcrossWorkerCounts) {
  ClusterScenarioResult serial = RunClusterScenario(/*workers=*/0);

  // Non-vacuity: the scenario must actually have exercised every moving
  // part — evacuation, drain, the fabric, and DRS accounting.
  EXPECT_EQ(serial.guests.size(), 64u);
  EXPECT_EQ(serial.cluster_stats.evacuations_lost, 0u);
  EXPECT_GT(serial.cluster_stats.evacuations_respawned, 0u);
  EXPECT_GT(serial.cluster_stats.drain_migrations, 0u);
  EXPECT_GT(serial.fabric_stats.frames_forwarded, 0u);
  EXPECT_EQ(serial.fabric_stats.frames_no_route, 0u);
  // Every DRS move reconciles against its MigrationReport: a claimed success
  // shipped pages and kept blackout bounded; totals match the stats.
  uint64_t ok_moves = 0;
  for (const cluster::MigrationRecord& rec : serial.migrations) {
    if (rec.ok) {
      ++ok_moves;
      EXPECT_GT(rec.report.pages_sent, 0u) << rec.vm;
      EXPECT_GT(rec.report.total_time, 0u) << rec.vm;
      EXPECT_LT(rec.report.downtime, 10 * kSimTicksPerMs) << rec.vm;
    }
  }
  EXPECT_EQ(ok_moves, serial.cluster_stats.drain_migrations +
                          serial.cluster_stats.rebalance_migrations);

  ClusterScenarioResult one = RunClusterScenario(/*workers=*/1);
  ClusterScenarioResult four = RunClusterScenario(/*workers=*/4);
  EXPECT_TRUE(serial == one) << "1-worker fleet diverged from serial";
  EXPECT_TRUE(serial == four) << "4-worker fleet diverged from serial";
}

TEST(WorkerPoolTest, RunsEveryLaneExactlyOnceAcrossBatches) {
  core::WorkerPool pool(3);
  for (int batch = 0; batch < 50; ++batch) {
    size_t count = 1 + static_cast<size_t>(batch % 7);
    std::vector<std::atomic<int>> hits(count);
    pool.Run(count, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " lane " << i;
    }
  }
}

TEST(WorkerPoolTest, ZeroThreadPoolRunsInline) {
  core::WorkerPool pool(0);
  std::vector<int> order;
  pool.Run(4, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace hyperion
