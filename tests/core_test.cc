// Integration tests: Host + Vm + scheduler + devices + guest programs,
// exercised end-to-end the way the examples and benchmarks use them.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "src/balloon/balloon.h"
#include "src/fault/fault.h"
#include "tests/test_phase.h"
#include "src/core/host.h"
#include "src/guest/programs.h"
#include "src/ksm/ksm.h"
#include "src/migrate/migrate.h"
#include "src/snapshot/snapshot.h"
#include "src/util/crc32.h"
#include "src/util/histogram.h"

namespace hyperion {
namespace {

using core::Host;
using core::HostConfig;
using core::IoModel;
using core::Vm;
using core::VmConfig;
using core::VmState;

// Loads `source` into a fresh VM on `host`.
Vm* BootVm(Host& host, VmConfig config, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = host.CreateVm(std::move(config));
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

uint32_t ReadProgress(Vm* vm, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok());
  auto addr = guest::ProgressAddress(*image);
  EXPECT_TRUE(addr.ok());
  auto v = vm->memory().ReadU32(*addr);
  EXPECT_TRUE(v.ok());
  return v.value_or(0);
}

TEST(HostVmTest, HelloWorldPrintsAndShutsDown) {
  Host host;
  std::string prog = guest::HelloProgram("hello from the guest\n");
  Vm* vm = BootVm(host, VmConfig{.name = "hello"}, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ(vm->console(), "hello from the guest\n");
}

TEST(HostVmTest, ComputeRunsToCompletion) {
  Host host;
  std::string prog = guest::ComputeProgram(500);
  Vm* vm = BootVm(host, VmConfig{.name = "compute"}, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ(ReadProgress(vm, prog), 500u);
}

TEST(HostVmTest, CrashWithoutTrapHandlerIsReported) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "crash"}, ".org 0x1000\n.word 0xFC000000\n");
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kCrashed);
  EXPECT_FALSE(vm->crash_reason().ok());
}

TEST(HostVmTest, UartMmioPath) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "uart"}, R"(
.org 0x1000
_start:
    li t0, 0xF0000000
    li t1, 'H'
    sw t1, 0(t0)
    li t1, 'i'
    sw t1, 0(t0)
    li t1, '\n'
    sw t1, 0(t0)
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ(vm->uart()->output(), "Hi\n");
  EXPECT_GE(vm->TotalStats().mmio_exits, 3u);
}

TEST(HostVmTest, IdleTickVmTicksOnSchedule) {
  Host host;
  std::string prog = guest::IdleTickProgram(static_cast<uint32_t>(kSimTicksPerMs));
  Vm* vm = BootVm(host, VmConfig{.name = "ticker"}, prog);
  host.RunFor(100 * kSimTicksPerMs);
  uint32_t ticks = ReadProgress(vm, prog);
  EXPECT_GE(ticks, 90u);
  EXPECT_LE(ticks, 110u);
  // The ticker must be nearly idle: far fewer executed cycles than wall time.
  EXPECT_LT(vm->TotalStats().cycles, 20 * kSimTicksPerMs);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

TEST(SchedulingTest, EqualWeightsShareFairly) {
  HostConfig hc;
  hc.num_pcpus = 1;
  Host host(hc);
  std::string prog = guest::ComputeProgram(0);
  std::vector<Vm*> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(BootVm(host, VmConfig{.name = "vm" + std::to_string(i)}, prog));
  }
  host.RunFor(400 * kSimTicksPerMs);
  std::vector<double> shares;
  for (Vm* vm : vms) {
    shares.push_back(static_cast<double>(ReadProgress(vm, prog)));
    EXPECT_GT(shares.back(), 0);
  }
  EXPECT_GT(JainFairness(shares), 0.95);
}

TEST(SchedulingTest, CreditWeightsAreProportional) {
  HostConfig hc;
  hc.num_pcpus = 1;
  Host host(hc);
  std::string prog = guest::ComputeProgram(0);
  VmConfig heavy{.name = "heavy"};
  heavy.sched.weight = 768;
  VmConfig light{.name = "light"};
  light.sched.weight = 256;
  Vm* vh = BootVm(host, heavy, prog);
  Vm* vl = BootVm(host, light, prog);
  host.RunFor(600 * kSimTicksPerMs);
  double ratio = static_cast<double>(ReadProgress(vh, prog)) /
                 static_cast<double>(std::max(1u, ReadProgress(vl, prog)));
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(SchedulingTest, CapLimitsConsumption) {
  HostConfig hc;
  hc.num_pcpus = 2;
  Host host(hc);
  std::string prog = guest::ComputeProgram(0);
  VmConfig capped{.name = "capped"};
  capped.sched.cap_percent = 25;
  Vm* vc = BootVm(host, capped, prog);
  Vm* vf = BootVm(host, VmConfig{.name = "free"}, prog);
  host.RunFor(600 * kSimTicksPerMs);
  // The capped VM should get roughly a quarter of one pCPU.
  uint64_t capped_cycles = host.scheduler().stats().at(1).cpu_cycles;
  uint64_t free_cycles = host.scheduler().stats().at(2).cpu_cycles;
  (void)vc;
  (void)vf;
  EXPECT_LT(capped_cycles, free_cycles / 2);
  EXPECT_GT(capped_cycles, 0u);
}

TEST(SchedulingTest, RoundRobinIgnoresWeights) {
  HostConfig hc;
  hc.num_pcpus = 1;
  hc.sched_policy = sched::SchedPolicy::kRoundRobin;
  Host host(hc);
  std::string prog = guest::ComputeProgram(0);
  VmConfig heavy{.name = "heavy"};
  heavy.sched.weight = 1024;
  Vm* vh = BootVm(host, heavy, prog);
  Vm* vl = BootVm(host, VmConfig{.name = "light"}, prog);
  host.RunFor(400 * kSimTicksPerMs);
  double ratio = static_cast<double>(ReadProgress(vh, prog)) /
                 static_cast<double>(std::max(1u, ReadProgress(vl, prog)));
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

// ---------------------------------------------------------------------------
// Block I/O
// ---------------------------------------------------------------------------

TEST(BlockIoTest, EmulatedPioWritesReachTheDisk) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(256);
  VmConfig cfg{.name = "pio"};
  cfg.disk_model = IoModel::kEmulated;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 10;
  p.sectors = 2;
  p.write = true;
  std::string prog = guest::EmulatedBlkProgram(p);
  Vm* vm = BootVm(host, cfg, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  ASSERT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
  EXPECT_EQ(ReadProgress(vm, prog), 10u);
  EXPECT_EQ(vm->emulated_blk()->stats().writes, 10u);
  EXPECT_EQ(vm->emulated_blk()->stats().sectors, 20u);
  // First command wrote words starting with its iteration counter at LBA 0.
  uint8_t sector[512] = {};
  ASSERT_TRUE(disk->ReadSectors(0, 1, sector).ok());
  uint32_t w0;
  std::memcpy(&w0, sector, 4);
  EXPECT_EQ(w0, 0u);  // iteration 0 pattern
}

TEST(BlockIoTest, EmulatedPioReadsComplete) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(256);
  VmConfig cfg{.name = "pior"};
  cfg.disk_model = IoModel::kEmulated;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 5;
  p.sectors = 1;
  p.write = false;
  std::string prog = guest::EmulatedBlkProgram(p);
  Vm* vm = BootVm(host, cfg, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  ASSERT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
  EXPECT_EQ(vm->emulated_blk()->stats().reads, 5u);
}

TEST(BlockIoTest, VirtioBlkWritesReachTheDisk) {
  Host host;
  auto disk = std::make_shared<storage::MemBlockStore>(1024);
  VmConfig cfg{.name = "vblk"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 8;
  p.sectors = 2;
  p.batch = 4;
  p.write = true;
  std::string prog = guest::VirtioBlkProgram(p);
  Vm* vm = BootVm(host, cfg, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  ASSERT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
  EXPECT_EQ(ReadProgress(vm, prog), 8u);
  EXPECT_EQ(vm->virtio_blk()->blk_stats().requests, 8u * 4);
  EXPECT_EQ(vm->virtio_blk()->blk_stats().errors, 0u);
  // Request 1's header points at sector 2; its payload begins with the
  // deterministic 0xB10C… pattern offset by one request's words.
  uint8_t sector[512] = {};
  ASSERT_TRUE(disk->ReadSectors(2, 1, sector).ok());
  uint32_t w0;
  std::memcpy(&w0, sector, 4);
  EXPECT_EQ(w0, 0xB10C0000u + 2 * 512 / 4);
}

TEST(BlockIoTest, VirtioBeatsEmulatedOnExitsPerSector) {
  auto run = [](bool paravirt) {
    Host host;
    auto disk = std::make_shared<storage::MemBlockStore>(1024);
    VmConfig cfg{.name = "io"};
    cfg.disk_model = paravirt ? IoModel::kParavirt : IoModel::kEmulated;
    cfg.disk = disk;
    guest::BlkIoParams p;
    p.iterations = 10;
    p.sectors = 4;
    p.batch = 4;
    p.write = true;
    std::string prog = paravirt ? guest::VirtioBlkProgram(p) : guest::EmulatedBlkProgram(p);
    Vm* vm = BootVm(host, cfg, prog);
    EXPECT_TRUE(host.RunUntilVmStops(vm, 30 * kSimTicksPerSec));
    EXPECT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
    auto stats = vm->TotalStats();
    uint64_t sectors = paravirt ? vm->virtio_blk()->blk_stats().sectors
                                : vm->emulated_blk()->stats().sectors;
    return static_cast<double>(stats.mmio_exits + stats.hypercalls) /
           static_cast<double>(sectors);
  };
  double emulated = run(false);
  double paravirt = run(true);
  EXPECT_GT(emulated, 10 * paravirt);  // order-of-magnitude gap
}

// ---------------------------------------------------------------------------
// Networking
// ---------------------------------------------------------------------------

TEST(NetworkTest, EmulatedPingPong) {
  Host host;
  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 128;
  np.iterations = 15;

  VmConfig ping_cfg{.name = "ping"};
  ping_cfg.net_model = IoModel::kEmulated;
  ping_cfg.mac = 1;
  VmConfig echo_cfg{.name = "echo"};
  echo_cfg.net_model = IoModel::kEmulated;
  echo_cfg.mac = 2;

  std::string ping_prog = guest::EmulatedNetPingProgram(np);
  Vm* ping = BootVm(host, ping_cfg, ping_prog);
  Vm* echo = BootVm(host, echo_cfg, guest::EmulatedNetEchoProgram());
  ASSERT_TRUE(host.RunUntilVmStops(ping, 30 * kSimTicksPerSec));
  ASSERT_EQ(ping->state(), VmState::kShutdown) << ping->crash_reason().ToString();
  EXPECT_EQ(ReadProgress(ping, ping_prog), 15u);
  EXPECT_GE(echo->emulated_net()->stats().tx_frames, 15u);
}

TEST(NetworkTest, VirtioPingPong) {
  Host host;
  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 256;
  np.iterations = 12;

  VmConfig ping_cfg{.name = "ping"};
  ping_cfg.net_model = IoModel::kParavirt;
  ping_cfg.mac = 1;
  VmConfig echo_cfg{.name = "echo"};
  echo_cfg.net_model = IoModel::kParavirt;
  echo_cfg.mac = 2;

  std::string ping_prog = guest::VirtioNetPingProgram(np);
  Vm* ping = BootVm(host, ping_cfg, ping_prog);
  Vm* echo = BootVm(host, echo_cfg, guest::VirtioNetEchoProgram(np.payload_bytes));
  ASSERT_TRUE(host.RunUntilVmStops(ping, 30 * kSimTicksPerSec));
  ASSERT_EQ(ping->state(), VmState::kShutdown) << ping->crash_reason().ToString();
  EXPECT_EQ(ReadProgress(ping, ping_prog), 12u);
  EXPECT_GE(echo->virtio_net()->net_stats().tx_frames, 12u);
  EXPECT_EQ(ping->virtio_net()->net_stats().rx_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Snapshots and provisioning
// ---------------------------------------------------------------------------

TEST(SnapshotTest, SaveRestoreResumesExactly) {
  Host host;
  constexpr uint32_t kIters = 120000;
  std::string prog = guest::ComputeProgram(kIters);
  Vm* vm = BootVm(host, VmConfig{.name = "orig"}, prog);
  host.RunFor(5 * kSimTicksPerMs);  // run partway
  ASSERT_EQ(vm->state(), VmState::kRunning);
  vm->Pause(TestPhase());
  uint32_t progress_at_save = ReadProgress(vm, prog);
  ASSERT_GT(progress_at_save, 0u);
  ASSERT_LT(progress_at_save, kIters);

  snapshot::SnapshotInfo info;
  auto bytes = snapshot::SaveVm(*vm, {}, &info);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(info.pages_data, 0u);
  EXPECT_GT(info.pages_zero, 0u);  // most RAM is untouched

  // Restore into a fresh VM and let both finish: identical outcomes.
  auto restored = snapshot::CloneVm(host, VmConfig{.name = "restored"}, *bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(ReadProgress(*restored, prog), progress_at_save);

  vm->Resume(TestPhase());
  ASSERT_TRUE(host.RunUntilVmStops(vm, 20 * kSimTicksPerSec));
  ASSERT_TRUE(host.RunUntilVmStops(*restored, 20 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ((*restored)->state(), VmState::kShutdown);
  EXPECT_EQ(ReadProgress(vm, prog), kIters);
  EXPECT_EQ(ReadProgress(*restored, prog), kIters);
}

TEST(SnapshotTest, CorruptionDetected) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "c"}, guest::ComputeProgram(10));
  vm->Pause(TestPhase());
  auto bytes = snapshot::SaveVm(*vm);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0xFF;
  Vm* target = BootVm(host, VmConfig{.name = "t"}, guest::ComputeProgram(10));
  target->Pause(TestPhase());
  EXPECT_EQ(snapshot::LoadVm(*target, *bytes).code(), StatusCode::kDataLoss);
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

// A full restore skips pages that already read zero; every other page,
// including one that is zero in the image but holds stale bytes in the
// target, must come out exactly as the source had it.
TEST(SnapshotTest, FullRestoreOverScribbledRamMatchesSource) {
  Host host;
  std::string prog = guest::ComputeProgram(120000);
  Vm* src = BootVm(host, VmConfig{.name = "src"}, prog);
  host.RunFor(2 * kSimTicksPerMs);
  src->Pause(TestPhase());
  snapshot::SnapshotInfo info;
  auto bytes = snapshot::SaveVm(*src, {}, &info);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_GT(info.pages_zero, 0u);

  Vm* target = BootVm(host, VmConfig{.name = "target"}, guest::ComputeProgram(10));
  target->Pause(TestPhase());
  mem::GuestMemory& tm = target->memory();
  std::vector<uint8_t> junk(isa::kPageSize, 0xA5);
  uint32_t scribbled = 0;
  for (uint32_t gpn = 0; gpn < tm.num_pages(); ++gpn) {
    if (tm.IsPresent(gpn)) {
      ASSERT_TRUE(tm.Write(gpn * isa::kPageSize, junk.data(), junk.size()).ok());
      ++scribbled;
    }
  }
  ASSERT_GT(scribbled, info.pages_data);  // zero-in-image pages were hit too

  ASSERT_TRUE(snapshot::LoadVm(*target, *bytes).ok());
  EXPECT_EQ(RamDigest(*target), RamDigest(*src));
}

TEST(SnapshotTest, GeometryMismatchRejected) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "a"}, guest::ComputeProgram(10));
  vm->Pause(TestPhase());
  auto bytes = snapshot::SaveVm(*vm);
  ASSERT_TRUE(bytes.ok());
  VmConfig other{.name = "b"};
  other.ram_bytes = 8u << 20;  // different RAM size
  Vm* target = BootVm(host, other, guest::ComputeProgram(10));
  target->Pause(TestPhase());
  EXPECT_EQ(snapshot::LoadVm(*target, *bytes).code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, IncrementalCapturesOnlyDirtyPages) {
  Host host;
  // Big cold footprint (128 filled pages), tiny hot set (2 pages dirtied in
  // the loop): incremental snapshots should be a fraction of full ones.
  std::string prog = R"(
.org 0x1000
    j _start
.align 8
progress:
    .word 0
_start:
    li t0, 0x100000
    li t1, 0x180000          ; fill 128 pages
coldfill:
    sw t0, 0(t0)
    addi t0, t0, 64
    bltu t0, t1, coldfill
hot:
    li t0, 0x100000
    lw t2, 0(t0)
    addi t2, t2, 1
    sw t2, 0(t0)
    li t0, 0x101000
    sw t2, 0(t0)
    la t3, progress
    lw t2, 0(t3)
    addi t2, t2, 1
    sw t2, 0(t3)
    j hot
)";
  Vm* vm = BootVm(host, VmConfig{.name = "inc"}, prog);
  host.RunFor(10 * kSimTicksPerMs);
  vm->Pause(TestPhase());

  auto full = snapshot::SaveVm(*vm);
  ASSERT_TRUE(full.ok());

  vm->memory().EnableDirtyLog();
  vm->Resume(TestPhase());
  host.RunFor(10 * kSimTicksPerMs);
  vm->Pause(TestPhase());

  snapshot::SnapshotInfo inc_info;
  snapshot::SaveOptions inc_opts;
  inc_opts.incremental = true;
  auto inc = snapshot::SaveVm(*vm, inc_opts, &inc_info);
  ASSERT_TRUE(inc.ok());
  EXPECT_LT(inc->size(), full->size() / 4);
  EXPECT_GT(inc_info.pages_total, 0u);

  // Applying full + incremental yields the current state.
  uint32_t want = ReadProgress(vm, prog);
  auto restored = snapshot::CloneVm(host, VmConfig{.name = "inc2"}, *full);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(snapshot::LoadVm(**restored, *inc).ok());
  EXPECT_EQ(ReadProgress(*restored, prog), want);
}

TEST(SnapshotTest, TemplateCloningProvisionsManyVms) {
  Host host;
  std::string prog = guest::ComputeProgram(300);
  Vm* golden = BootVm(host, VmConfig{.name = "golden"}, prog);
  golden->Pause(TestPhase());  // template captured pre-boot
  auto tmpl = snapshot::SaveVm(*golden);
  ASSERT_TRUE(tmpl.ok());

  std::vector<Vm*> clones;
  for (int i = 0; i < 5; ++i) {
    auto clone = snapshot::CloneVm(host, VmConfig{.name = "clone" + std::to_string(i)}, *tmpl);
    ASSERT_TRUE(clone.ok()) << clone.status().ToString();
    clones.push_back(*clone);
  }
  for (Vm* c : clones) {
    ASSERT_TRUE(host.RunUntilVmStops(c, 30 * kSimTicksPerSec));
    EXPECT_EQ(c->state(), VmState::kShutdown);
    EXPECT_EQ(ReadProgress(c, prog), 300u);
  }
}

// ---------------------------------------------------------------------------
// Persistent translations: a snapshot of a warmed DBT VM carries its
// validated translation units (snapshot v2, kFeatTranslations), so a
// restored clone starts hot instead of re-translating (DESIGN.md §12).
// ---------------------------------------------------------------------------

VmConfig WarmDbtConfig(const std::string& name) {
  VmConfig cfg{.name = name};
  cfg.engine = cpu::EngineKind::kDbt;
  cfg.dbt.tier2_threshold = 4;  // promote almost immediately
  return cfg;
}

// Boots a DBT VM on `prog`, runs it partway (hot + tiered up), and pauses it.
Vm* WarmPausedVm(Host& host, const std::string& name, const std::string& prog) {
  Vm* vm = BootVm(host, WarmDbtConfig(name), prog);
  host.RunFor(5 * kSimTicksPerMs);
  EXPECT_EQ(vm->state(), VmState::kRunning);
  vm->Pause(TestPhase());
  EXPECT_GT(vm->vcpu(0).stats.blocks_translated, 0u);
  EXPECT_GT(vm->vcpu(0).stats.tier2_promotions, 0u);
  return vm;
}

TEST(SnapshotTest, WarmTranslationsPrimeRestoredClone) {
  Host host;
  constexpr uint32_t kIters = 600000;
  std::string prog = guest::ComputeProgram(kIters);
  Vm* vm = WarmPausedVm(host, "warm", prog);
  uint32_t progress_at_save = ReadProgress(vm, prog);
  ASSERT_GT(progress_at_save, 0u);
  ASSERT_LT(progress_at_save, kIters);

  auto bytes = snapshot::SaveVm(*vm);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  // The clone installs the persisted units during restore: every unit
  // revalidates against the restored RAM, none is rejected.
  auto restored = snapshot::CloneVm(host, WarmDbtConfig("warm2"), *bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_GT((*restored)->vcpu(0).stats.persist_hits, 0u);
  EXPECT_EQ((*restored)->vcpu(0).stats.persist_misses, 0u);

  // First pass after restore: the clone's hot loop runs entirely on
  // pre-warmed translations -- zero cold translates, straight into tier-2.
  host.RunFor(5 * kSimTicksPerMs);
  (*restored)->Pause(TestPhase());
  EXPECT_GT(ReadProgress(*restored, prog), progress_at_save);
  EXPECT_EQ((*restored)->vcpu(0).stats.blocks_translated, 0u);
  EXPECT_GT((*restored)->vcpu(0).stats.tier2_executions, 0u);
  (*restored)->Resume(TestPhase());

  // Both finish with digest-identical architectural outcomes.
  vm->Resume(TestPhase());
  ASSERT_TRUE(host.RunUntilVmStops(vm, 30 * kSimTicksPerSec));
  ASSERT_TRUE(host.RunUntilVmStops(*restored, 30 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ((*restored)->state(), VmState::kShutdown);
  EXPECT_EQ(ReadProgress(vm, prog), kIters);
  EXPECT_EQ(ReadProgress(*restored, prog), kIters);
  EXPECT_EQ((*restored)->vcpu(0).state.regs, vm->vcpu(0).state.regs);
  EXPECT_EQ((*restored)->vcpu(0).state.instret, vm->vcpu(0).state.instret);
}

TEST(SnapshotTest, TotalStatsSumsTierTwoAndPersistCounters) {
  // Vm::TotalStats() sums every VcpuStats counter, the tier-2 and
  // persisted-translation ones included: a warmed two-vCPU DBT guest is
  // cloned (persist hits), and the clone runs on (tier-2 passes).
  Host host;
  VmConfig cfg = WarmDbtConfig("smp");
  cfg.num_vcpus = 2;
  Vm* vm = BootVm(host, cfg, guest::SmpCounterProgram(2'000'000));
  host.RunFor(5 * kSimTicksPerMs);
  vm->Pause(TestPhase());
  auto bytes = snapshot::SaveVm(*vm);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  cfg.name = "smp2";
  auto clone = snapshot::CloneVm(host, cfg, *bytes);
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  host.RunFor(5 * kSimTicksPerMs);

  for (Vm* v : {vm, *clone}) {
    cpu::VcpuStats sum;
    for (uint32_t i = 0; i < v->num_vcpus(); ++i) {
      const cpu::VcpuStats& s = v->vcpu(i).stats;
      sum.tier2_promotions += s.tier2_promotions;
      sum.tier2_executions += s.tier2_executions;
      sum.deopts += s.deopts;
      sum.guards_elided += s.guards_elided;
      sum.csr_writes_elided += s.csr_writes_elided;
      sum.tier2_ops_folded += s.tier2_ops_folded;
      sum.tier2_ops_dead += s.tier2_ops_dead;
      sum.persist_hits += s.persist_hits;
      sum.persist_misses += s.persist_misses;
    }
    cpu::VcpuStats total = v->TotalStats();
    EXPECT_EQ(total.tier2_promotions, sum.tier2_promotions);
    EXPECT_EQ(total.tier2_executions, sum.tier2_executions);
    EXPECT_EQ(total.deopts, sum.deopts);
    EXPECT_EQ(total.guards_elided, sum.guards_elided);
    EXPECT_EQ(total.csr_writes_elided, sum.csr_writes_elided);
    EXPECT_EQ(total.tier2_ops_folded, sum.tier2_ops_folded);
    EXPECT_EQ(total.tier2_ops_dead, sum.tier2_ops_dead);
    EXPECT_EQ(total.persist_hits, sum.persist_hits);
    EXPECT_EQ(total.persist_misses, sum.persist_misses);
  }
  // Non-vacuity: the counters the sum used to drop are live here.
  EXPECT_GT(vm->TotalStats().tier2_promotions, 0u);
  EXPECT_GT(vm->TotalStats().tier2_executions, 0u);
  EXPECT_GT((*clone)->TotalStats().persist_hits, 0u);
}

TEST(SnapshotTest, LegacyV1ImageStillRestores) {
  // Backward compatibility: a v1-format snapshot (no feature-bits word, no
  // translation sections) must still restore on the current code -- the
  // clone just starts cold. The writer only emits the current version, so
  // the v1 image is derived from a translation-free save: version word set
  // to 1, the (zero) feature word after it dropped, the trailer CRC
  // re-sealed.
  Host host;
  constexpr uint32_t kIters = 600000;
  std::string prog = guest::ComputeProgram(kIters);
  Vm* vm = WarmPausedVm(host, "v1src", prog);

  snapshot::SaveOptions opts;
  opts.translations = false;
  auto bytes = snapshot::SaveVm(*vm, opts);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  // Layout: u32 magic, u32 version, u32 features, ...; all little-endian.
  ASSERT_GT(bytes->size(), 16u);
  ASSERT_EQ((*bytes)[4], 2u);
  ASSERT_EQ((*bytes)[8] | (*bytes)[9] | (*bytes)[10] | (*bytes)[11], 0);
  (*bytes)[4] = 1;
  bytes->erase(bytes->begin() + 8, bytes->begin() + 12);
  uint32_t crc = Crc32(bytes->data(), bytes->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }

  auto restored = snapshot::CloneVm(host, WarmDbtConfig("v1dst"), *bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->vcpu(0).stats.persist_hits, 0u);
  EXPECT_EQ((*restored)->vcpu(0).stats.persist_misses, 0u);

  ASSERT_TRUE(host.RunUntilVmStops(*restored, 30 * kSimTicksPerSec));
  EXPECT_EQ((*restored)->state(), VmState::kShutdown);
  EXPECT_EQ(ReadProgress(*restored, prog), kIters);
  EXPECT_GT((*restored)->vcpu(0).stats.blocks_translated, 0u);  // cold start
}

// Chaos: a torn write inside the persisted translation section. The outer
// snapshot still parses (its trailer CRC is re-sealed, the way a torn-then-
// rewritten file would checksum clean at the container level), so the
// corruption is only detectable by the translation blob's own CRC: the
// engine must reject the blob, count a persist miss, and degrade to cold
// translation with identical architectural results.
TEST(SnapshotTornWriteTest, TornTranslationBlobDegradesToColdTranslate) {
  Host host;
  constexpr uint32_t kIters = 600000;
  std::string prog = guest::ComputeProgram(kIters);
  Vm* vm = WarmPausedVm(host, "torn", prog);

  auto bytes = snapshot::SaveVm(*vm);
  ASSERT_TRUE(bytes.ok());

  // Locate the inner 'HCT2' translation header (the section sits near the
  // tail, after RAM and devices) and tear a byte inside the first unit.
  const uint8_t sig[4] = {'H', 'C', 'T', '2'};
  size_t pos = bytes->size();
  for (size_t i = bytes->size() - sizeof(sig); i-- > 0;) {
    if (std::memcmp(bytes->data() + i, sig, sizeof(sig)) == 0) {
      pos = i;
      break;
    }
  }
  ASSERT_LT(pos, bytes->size()) << "no translation section in the snapshot";
  ASSERT_LT(pos + 16, bytes->size() - 4);
  (*bytes)[pos + 16] ^= 0xA5;
  // Re-seal the outer CRC so only the inner blob checksum can catch it.
  uint32_t crc = Crc32(bytes->data(), bytes->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*bytes)[bytes->size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }

  auto restored = snapshot::CloneVm(host, WarmDbtConfig("torn2"), *bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->vcpu(0).stats.persist_hits, 0u);
  EXPECT_GT((*restored)->vcpu(0).stats.persist_misses, 0u);

  ASSERT_TRUE(host.RunUntilVmStops(*restored, 30 * kSimTicksPerSec));
  EXPECT_EQ((*restored)->state(), VmState::kShutdown);
  EXPECT_EQ(ReadProgress(*restored, prog), kIters);
  EXPECT_GT((*restored)->vcpu(0).stats.blocks_translated, 0u);  // cold fallback
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

TEST(MigrationTest, PreCopyMovesARunningVm) {
  Host src, dst;
  std::string prog = guest::DirtyRateProgram(32, 2000);
  Vm* vm = BootVm(src, VmConfig{.name = "mig"}, prog);
  src.RunFor(20 * kSimTicksPerMs);
  uint32_t progress_before = ReadProgress(vm, prog);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(vm->state(), VmState::kPaused);
  EXPECT_EQ((*moved)->state(), VmState::kRunning);
  EXPECT_GE(report.rounds, 1u);
  EXPECT_GT(report.downtime, 0u);
  EXPECT_GT(report.total_time, report.downtime);
  EXPECT_GT(report.pages_sent, vm->memory().num_pages() / 2);

  // The destination VM continues making progress from where it was.
  dst.RunFor(20 * kSimTicksPerMs);
  EXPECT_GE(ReadProgress(*moved, prog), progress_before);
}

TEST(MigrationTest, PreCopyDirtyRateDrivesRounds) {
  auto run = [](uint32_t compute_per_write) {
    Host src, dst;
    std::string prog = guest::DirtyRateProgram(64, compute_per_write);
    Vm* vm = BootVm(src, VmConfig{.name = "m"}, prog);
    src.RunFor(10 * kSimTicksPerMs);
    migrate::MigrationReport report;
    auto moved = migrate::PreCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
    EXPECT_TRUE(moved.ok());
    return report;
  };
  migrate::MigrationReport fast_dirtier = run(100);     // dirties aggressively
  migrate::MigrationReport slow_dirtier = run(100000);  // mostly computes
  EXPECT_GE(fast_dirtier.pages_sent, slow_dirtier.pages_sent);
  EXPECT_GE(fast_dirtier.downtime, slow_dirtier.downtime);
}

TEST(MigrationTest, PostCopyHasTinyDowntime) {
  Host src, dst;
  std::string prog = guest::DirtyRateProgram(32, 2000);
  Vm* vm = BootVm(src, VmConfig{.name = "pc"}, prog);
  src.RunFor(20 * kSimTicksPerMs);

  migrate::MigrationReport pre_report;
  {
    // Measure pre-copy on an identical sibling for comparison.
    Host src2, dst2;
    Vm* vm2 = BootVm(src2, VmConfig{.name = "pc2"}, prog);
    src2.RunFor(20 * kSimTicksPerMs);
    auto moved2 = migrate::PreCopyMigrate(src2, vm2, dst2, migrate::MigrateOptions{}, &pre_report);
    ASSERT_TRUE(moved2.ok());
  }

  migrate::MigrationReport report;
  auto moved = migrate::PostCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ((*moved)->state(), VmState::kRunning) << (*moved)->crash_reason().ToString();
  EXPECT_LT(report.downtime, pre_report.downtime);
  EXPECT_GT(report.demand_fetches + report.pages_sent, 0u);

  // All pages resident; destination runs standalone afterwards.
  uint32_t p1 = ReadProgress(*moved, prog);
  dst.RunFor(20 * kSimTicksPerMs);
  EXPECT_GT(ReadProgress(*moved, prog), p1);
}

// ---------------------------------------------------------------------------
// VM fork (copy-on-write cloning)
// ---------------------------------------------------------------------------

TEST(ForkTest, ChildContinuesFromForkPoint) {
  Host host;
  constexpr uint32_t kIters = 100000;
  std::string prog = guest::ComputeProgram(kIters);
  Vm* parent = BootVm(host, VmConfig{.name = "parent"}, prog);
  host.RunFor(5 * kSimTicksPerMs);
  parent->Pause(TestPhase());
  uint32_t at_fork = ReadProgress(parent, prog);
  ASSERT_GT(at_fork, 0u);
  ASSERT_LT(at_fork, kIters);

  size_t frames_before = host.pool().used_frames();
  auto child = snapshot::ForkVm(host, VmConfig{.name = "child"}, *parent);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  // COW fork: almost no new frames consumed (metadata only).
  EXPECT_LT(host.pool().used_frames(), frames_before + 8);
  EXPECT_EQ(ReadProgress(*child, prog), at_fork);

  // Both finish with identical results.
  parent->Resume(TestPhase());
  ASSERT_TRUE(host.RunUntilVmStops(parent, 30 * kSimTicksPerSec));
  ASSERT_TRUE(host.RunUntilVmStops(*child, 30 * kSimTicksPerSec));
  EXPECT_EQ(parent->state(), VmState::kShutdown);
  EXPECT_EQ((*child)->state(), VmState::kShutdown) << (*child)->crash_reason().ToString();
  EXPECT_EQ(ReadProgress(parent, prog), kIters);
  EXPECT_EQ(ReadProgress(*child, prog), kIters);
}

TEST(ForkTest, LinkedClonesInheritWarmTranslations) {
  // A fork of a warmed DBT parent boots with the parent's translation units
  // already installed: the child's first pass runs hot with zero cold
  // translates (the pre-warmed linked-clone path of DESIGN.md §12).
  Host host;
  constexpr uint32_t kIters = 600000;
  std::string prog = guest::ComputeProgram(kIters);
  Vm* parent = WarmPausedVm(host, "warmparent", prog);
  uint32_t at_fork = ReadProgress(parent, prog);
  ASSERT_LT(at_fork, kIters);

  auto child = snapshot::ForkVm(host, WarmDbtConfig("warmchild"), *parent);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_GT((*child)->vcpu(0).stats.persist_hits, 0u);
  EXPECT_EQ((*child)->vcpu(0).stats.persist_misses, 0u);

  host.RunFor(5 * kSimTicksPerMs);
  (*child)->Pause(TestPhase());
  EXPECT_GT(ReadProgress(*child, prog), at_fork);
  EXPECT_EQ((*child)->vcpu(0).stats.blocks_translated, 0u);
  EXPECT_GT((*child)->vcpu(0).stats.tier2_executions, 0u);
  (*child)->Resume(TestPhase());

  parent->Resume(TestPhase());
  ASSERT_TRUE(host.RunUntilVmStops(parent, 30 * kSimTicksPerSec));
  ASSERT_TRUE(host.RunUntilVmStops(*child, 30 * kSimTicksPerSec));
  EXPECT_EQ(ReadProgress(parent, prog), kIters);
  EXPECT_EQ(ReadProgress(*child, prog), kIters);
  EXPECT_EQ((*child)->vcpu(0).state.regs, parent->vcpu(0).state.regs);
}

TEST(ForkTest, WritesDivergePrivately) {
  Host host;
  std::string prog = guest::ComputeProgram(0);
  Vm* parent = BootVm(host, VmConfig{.name = "parent"}, prog);
  host.RunFor(2 * kSimTicksPerMs);
  parent->Pause(TestPhase());
  auto child = snapshot::ForkVm(host, VmConfig{.name = "child"}, *parent);
  ASSERT_TRUE(child.ok());

  // Host-side writes to each side stay private.
  ASSERT_TRUE(parent->memory().WriteU32(0x9000, 0x1111).ok());
  ASSERT_TRUE((*child)->memory().WriteU32(0x9000, 0x2222).ok());
  EXPECT_EQ(*parent->memory().ReadU32(0x9000), 0x1111u);
  EXPECT_EQ(*(*child)->memory().ReadU32(0x9000), 0x2222u);

  // Guest-side divergence: run both; their progress counters move
  // independently on privatized pages.
  parent->Resume(TestPhase());
  host.RunFor(5 * kSimTicksPerMs);
  uint32_t pp = ReadProgress(parent, prog);
  uint32_t cp = ReadProgress(*child, prog);
  EXPECT_GT(pp, 0u);
  EXPECT_GT(cp, 0u);
  EXPECT_GT((*child)->TotalStats().cow_breaks + parent->TotalStats().cow_breaks, 0u);
}

TEST(ForkTest, GeometryMismatchRejected) {
  Host host;
  Vm* parent = BootVm(host, VmConfig{.name = "parent"}, guest::ComputeProgram(10));
  parent->Pause(TestPhase());
  VmConfig bad{.name = "child"};
  bad.ram_bytes = 8u << 20;
  EXPECT_EQ(snapshot::ForkVm(host, bad, *parent).status().code(),
            StatusCode::kInvalidArgument);
  // Running parent rejected too.
  parent->Resume(TestPhase());
  EXPECT_EQ(snapshot::ForkVm(host, VmConfig{.name = "child"}, *parent).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ForkTest, ManyForksShareUntilTouched) {
  Host host;
  std::string prog = guest::ComputeProgram(0);
  Vm* parent = BootVm(host, VmConfig{.name = "parent"}, prog);
  host.RunFor(2 * kSimTicksPerMs);
  parent->Pause(TestPhase());

  size_t before = host.pool().used_frames();
  std::vector<Vm*> children;
  for (int i = 0; i < 6; ++i) {
    auto child = snapshot::ForkVm(host, VmConfig{.name = "c" + std::to_string(i)}, *parent);
    ASSERT_TRUE(child.ok()) << child.status().ToString();
    children.push_back(*child);
  }
  // Six 4 MiB children for (almost) free.
  EXPECT_LT(host.pool().used_frames(), before + 16);

  // Running them privatizes only what they write.
  host.RunFor(10 * kSimTicksPerMs);
  size_t after_run = host.pool().used_frames();
  EXPECT_GT(after_run, before);                       // some pages privatized
  EXPECT_LT(after_run, before + 6 * 64);              // far from full copies
  for (Vm* c : children) {
    EXPECT_GT(ReadProgress(c, prog), 0u);
  }
}

// ---------------------------------------------------------------------------
// Dirty log: consumers beside a snapshot chain must not disturb it
// ---------------------------------------------------------------------------

// Pauses `vm`, saves it in full, starts its incremental-snapshot chain and
// resumes it. Returns the full image.
std::vector<uint8_t> StartChain(Vm& vm) {
  vm.Pause(TestPhase());
  auto full = snapshot::SaveVm(vm);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  vm.memory().EnableDirtyLog();
  vm.Resume(TestPhase());
  return full.ok() ? *full : std::vector<uint8_t>{};
}

// Pauses `vm`, saves the chain's increment, and expects the full image plus
// that increment to restore `vm`'s RAM exactly (presence and contents).
void ExpectChainRestores(Host& host, Vm& vm, const std::vector<uint8_t>& full) {
  vm.Pause(TestPhase());
  snapshot::SaveOptions inc_opts;
  inc_opts.incremental = true;
  auto inc = snapshot::SaveVm(vm, inc_opts);
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  auto restored = snapshot::CloneVm(host, VmConfig{.name = "restored"}, full);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(snapshot::LoadVm(**restored, *inc).ok());
  EXPECT_EQ(RamDigest(**restored), RamDigest(vm));
}

TEST(DirtyLogTest, IncrementalSaveNeedsAStartedChain) {
  Host host;
  Vm* vm = BootVm(host, VmConfig{.name = "nochain"}, guest::ComputeProgram(10));
  vm->Pause(TestPhase());
  snapshot::SaveOptions inc_opts;
  inc_opts.incremental = true;
  EXPECT_EQ(snapshot::SaveVm(*vm, inc_opts).status().code(), StatusCode::kFailedPrecondition);
  vm->memory().EnableDirtyLog();
  EXPECT_TRUE(snapshot::SaveVm(*vm, inc_opts).ok());
}

TEST(DirtyLogTest, ForkLeavesTheParentChainIntact) {
  Host host;
  Vm* parent = BootVm(host, VmConfig{.name = "parent"}, guest::DirtyRateProgram(32, 2000));
  host.RunFor(5 * kSimTicksPerMs);
  std::vector<uint8_t> full = StartChain(*parent);
  host.RunFor(5 * kSimTicksPerMs);

  parent->Pause(TestPhase());
  auto child = snapshot::ForkVm(host, VmConfig{.name = "child"}, *parent);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  parent->Resume(TestPhase());
  host.RunFor(5 * kSimTicksPerMs);

  ExpectChainRestores(host, *parent, full);
}

TEST(DirtyLogTest, AbortedPreCopyLeavesTheSourceChainIntact) {
  fault::FaultPlan plan;
  plan.AddTransferLoss("migrate:link", 1.0);  // nothing ever gets through
  fault::FaultInjector inj(plan);
  Host src, dst;
  Vm* vm = BootVm(src, VmConfig{.name = "src"}, guest::DirtyRateProgram(32, 2000));
  src.RunFor(5 * kSimTicksPerMs);
  std::vector<uint8_t> full = StartChain(*vm);
  src.RunFor(5 * kSimTicksPerMs);

  migrate::MigrateOptions options;
  options.fault = &inj;
  options.retry_backoff = kSimTicksPerMs;
  options.retry_backoff_cap = 4 * kSimTicksPerMs;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, options, nullptr);
  ASSERT_EQ(moved.status().code(), StatusCode::kAborted);
  ASSERT_EQ(vm->state(), VmState::kRunning);
  src.RunFor(5 * kSimTicksPerMs);

  ExpectChainRestores(src, *vm, full);
}

TEST(DirtyLogTest, BalloonChangesRideTheChain) {
  Host host;
  // Balloon pool: pages 512..1023 of a 4 MiB guest.
  Vm* vm = BootVm(host, VmConfig{.name = "bal"}, guest::BalloonDriverProgram(512, 512, 100000));
  vm->SetBalloonTarget(128);
  host.RunFor(100 * kSimTicksPerMs);
  ASSERT_EQ(vm->ballooned_pages(), 128u);
  std::vector<uint8_t> full = StartChain(*vm);

  // Deflate repopulates pages the full image holds absent; the inflate
  // after it releases pages the full image holds present.
  vm->SetBalloonTarget(32);
  host.RunFor(200 * kSimTicksPerMs);
  ASSERT_EQ(vm->ballooned_pages(), 32u);
  vm->SetBalloonTarget(64);
  host.RunFor(100 * kSimTicksPerMs);
  ASSERT_EQ(vm->ballooned_pages(), 64u);

  ExpectChainRestores(host, *vm, full);
}

// ---------------------------------------------------------------------------
// SMP guests
// ---------------------------------------------------------------------------

TEST(SmpTest, SecondaryVcpusStartAndCount) {
  core::HostConfig hc;
  hc.num_pcpus = 4;
  Host host(hc);
  std::string prog = guest::SmpCounterProgram(5000);
  VmConfig cfg{.name = "smp"};
  cfg.num_vcpus = 4;
  Vm* vm = BootVm(host, cfg, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  ASSERT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
  // 3 workers x 5000 increments.
  EXPECT_EQ(ReadProgress(vm, prog), 15000u);
}

TEST(SmpTest, WorkersRunInParallelOnMultiplePcpus) {
  auto run = [](uint32_t pcpus) {
    core::HostConfig hc;
    hc.num_pcpus = pcpus;
    Host host(hc);
    std::string prog = guest::SmpCounterProgram(200000);
    VmConfig cfg{.name = "smp"};
    cfg.num_vcpus = 4;
    Vm* vm = BootVm(host, cfg, prog);
    // Fine-grained steps so the completion time is measured precisely.
    while (vm->state() == VmState::kRunning &&
           host.clock().now() < 60 * kSimTicksPerSec) {
      host.RunFor(kSimTicksPerMs / 10);
    }
    EXPECT_EQ(vm->state(), VmState::kShutdown);
    return host.clock().now();
  };
  SimTime serial = run(1);
  SimTime parallel = run(4);
  // Three parallel workers must finish substantially faster than serialized.
  EXPECT_LT(parallel * 4, serial * 3);
}

TEST(SmpTest, StartVcpuValidation) {
  Host host;
  VmConfig cfg{.name = "smp"};
  cfg.num_vcpus = 2;
  // Bad index (0 = self, 5 = out of range) then double-start.
  Vm* vm = BootVm(host, cfg, R"(
.org 0x1000
_start:
    li a0, 10
    li a1, 0          ; cannot "start" the boot vCPU
    la a2, park
    hcall
    mv s0, a0
    li a0, 10
    li a1, 5          ; out of range
    la a2, park
    hcall
    mv s1, a0
    li a0, 10
    li a1, 1          ; valid
    la a2, park
    hcall
    mv s2, a0
    li a0, 10
    li a1, 1          ; double start
    la a2, park
    hcall
    mv s3, a0
    li a0, 4
    hcall
    halt
park:
    halt
)");
  ASSERT_TRUE(host.RunUntilVmStops(vm, kSimTicksPerSec));
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS0), 1u);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS1), 1u);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS2), 0u);
  EXPECT_EQ(vm->vcpu(0).state.ReadReg(isa::kS3), 2u);
}

// The SMP coherence gauntlet: MCS lock (amoswap), sense-reversing barriers
// (amoadd), and guest-initiated TLB shootdowns over the PIC IPI doorbell.
// Nested paging is load-bearing: guest PTE writes do not trap there, so a
// sibling's stale translation survives unless the shootdown IPI + sfence
// protocol actually works. progress != 4*iters means either a lost update
// under the lock or a stale TLB read after the remap rounds.
TEST(SmpTest, McsLockWithTlbShootdowns) {
  for (auto engine : {cpu::EngineKind::kInterpreter, cpu::EngineKind::kDbt}) {
    core::HostConfig hc;
    hc.num_pcpus = 4;
    Host host(hc);
    guest::SmpLockParams p;
    std::string prog = guest::SmpMcsLockProgram(p);
    VmConfig cfg{.name = "mcs"};
    cfg.ram_bytes = 8u << 20;
    cfg.num_vcpus = p.num_vcpus;
    cfg.paging_mode = mmu::PagingMode::kNested;
    cfg.engine = engine;
    Vm* vm = BootVm(host, cfg, prog);
    ASSERT_TRUE(host.RunUntilVmStops(vm, 60 * kSimTicksPerSec));
    ASSERT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
    EXPECT_EQ(ReadProgress(vm, prog), p.num_vcpus * p.lock_iters);
    // Non-vacuity: the IPI and shootdown machinery actually fired.
    cpu::VcpuStats total = vm->TotalStats();
    uint64_t expected_ipis = uint64_t{p.shootdown_rounds} * (p.num_vcpus - 1);
    EXPECT_EQ(vm->vcpu(0).stats.ipis_sent, expected_ipis);
    EXPECT_EQ(total.ipis_received, expected_ipis);
    EXPECT_EQ(total.shootdowns, expected_ipis);
    for (uint32_t i = 1; i < p.num_vcpus; ++i) {
      EXPECT_EQ(vm->vcpu(i).stats.shootdowns, p.shootdown_rounds) << "vcpu " << i;
    }
  }
}

// vCPU > 0 must be a first-class citizen on the hypercall and MMIO paths:
// console output, value logging, time reads and UART stores issued from a
// secondary must behave exactly as from the boot vCPU.
TEST(SmpTest, SecondaryVcpuHypercallsAndMmioMatchBoot) {
  auto run = [](bool from_secondary) {
    Host host;
    VmConfig cfg{.name = "io"};
    cfg.num_vcpus = 2;
    std::ostringstream prog;
    prog << R"(.org 0x1000
    j _start
.align 4096
progress:
    .word 0
.align 4096
_start:
)";
    if (from_secondary) {
      prog << R"(
    li a0, 10
    li a1, 1
    la a2, body
    hcall
park:
    wfi
    j park
)";
    } else {
      prog << "    j body\n";
    }
    prog << R"(
body:
    li a0, 0              ; putchar 'X'
    li t0, 'X'
    mv a1, t0
    hcall
    li a0, 8              ; log a value
    li a1, 0xC0FFEE
    hcall
    li a0, 3              ; gettime must not fault
    hcall
    li t0, 0xF0000000     ; UART MMIO store
    li t1, 'Y'
    sw t1, 0(t0)
    la t3, progress
    li t2, 1
    sw t2, 0(t3)
    li a0, 4              ; shutdown
    hcall
    halt
)";
    struct Out {
      std::string console;
      std::string uart;
      std::vector<uint32_t> logged;
    };
    Vm* vm = BootVm(host, cfg, prog.str());
    EXPECT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
    EXPECT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
    return Out{vm->console(), vm->uart() ? vm->uart()->output() : "", vm->logged_values()};
  };
  auto boot = run(false);
  auto secondary = run(true);
  EXPECT_EQ(boot.console, secondary.console);
  EXPECT_EQ(boot.uart, secondary.uart);
  EXPECT_EQ(boot.logged, secondary.logged);
  EXPECT_EQ(secondary.console, "X");
  EXPECT_EQ(secondary.logged, std::vector<uint32_t>{0xC0FFEE});
}

TEST(SmpTest, UnstartedSecondariesStayParked) {
  Host host;
  VmConfig cfg{.name = "smp"};
  cfg.num_vcpus = 3;
  std::string prog = guest::ComputeProgram(100);  // vcpu0 only
  Vm* vm = BootVm(host, cfg, prog);
  ASSERT_TRUE(host.RunUntilVmStops(vm, 10 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown);
  EXPECT_EQ(ReadProgress(vm, prog), 100u);
  // The parked vCPUs never executed anything meaningful.
  EXPECT_LT(vm->vcpu(1).stats.instructions, 5u);
  EXPECT_LT(vm->vcpu(2).stats.instructions, 5u);
}

// ---------------------------------------------------------------------------
// Ballooning
// ---------------------------------------------------------------------------

TEST(BalloonTest, GuestDriverFollowsTarget) {
  Host host;
  // Balloon pool: pages 512..1023 of a 4 MiB guest (2 MiB reclaimable).
  std::string prog = guest::BalloonDriverProgram(512, 512, 100000);
  Vm* vm = BootVm(host, VmConfig{.name = "bal"}, prog);
  size_t used_before = host.pool().used_frames();

  vm->SetBalloonTarget(128);
  host.RunFor(100 * kSimTicksPerMs);
  EXPECT_EQ(vm->ballooned_pages(), 128u);
  EXPECT_EQ(host.pool().used_frames(), used_before - 128);

  vm->SetBalloonTarget(32);
  host.RunFor(200 * kSimTicksPerMs);
  EXPECT_EQ(vm->ballooned_pages(), 32u);
  EXPECT_EQ(host.pool().used_frames(), used_before - 32);
}

TEST(BalloonTest, ControllerDistributesProportionally) {
  Host host;
  std::string prog = guest::BalloonDriverProgram(512, 512, 100000);
  Vm* a = BootVm(host, VmConfig{.name = "a"}, prog);
  Vm* b = BootVm(host, VmConfig{.name = "b"}, prog);

  balloon::BalloonController controller(&host);
  auto plan = controller.ReclaimPages(200);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->size(), 2u);
  host.RunFor(300 * kSimTicksPerMs);
  EXPECT_EQ(controller.TotalBallooned(), 200u);
  // Equal VMs: equal split (within rounding).
  EXPECT_NEAR(static_cast<double>(a->ballooned_pages()),
              static_cast<double>(b->ballooned_pages()), 2.0);

  controller.ReleaseAll();
  host.RunFor(400 * kSimTicksPerMs);
  EXPECT_EQ(controller.TotalBallooned(), 0u);
}

TEST(BalloonTest, OverdraftRejected) {
  Host host;
  std::string prog = guest::BalloonDriverProgram(512, 512, 100000);
  (void)BootVm(host, VmConfig{.name = "only"}, prog);
  balloon::BalloonController controller(&host);
  // A 4 MiB VM has 1024 pages; floor keeps 256, so max reclaim < 1024.
  auto plan = controller.ReclaimPages(2000);
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// KSM
// ---------------------------------------------------------------------------

TEST(KsmTest, MergesIdenticalPagesAcrossVms) {
  Host host;
  // Two VMs fill 64 pages each; the first 48 are identical across VMs.
  std::string prog_a = guest::PatternFillProgram(64, 48, 1);
  std::string prog_b = guest::PatternFillProgram(64, 48, 2);
  Vm* a = BootVm(host, VmConfig{.name = "a"}, prog_a);
  Vm* b = BootVm(host, VmConfig{.name = "b"}, prog_b);
  host.RunFor(200 * kSimTicksPerMs);
  ASSERT_EQ(ReadProgress(a, prog_a), 1u);
  ASSERT_EQ(ReadProgress(b, prog_b), 1u);

  ksm::KsmDaemon daemon(&host.pool());
  daemon.AddClient(&a->memory());
  daemon.AddClient(&b->memory());
  size_t used_before = host.pool().used_frames();
  uint64_t merged = daemon.ScanOnce();
  size_t used_after = host.pool().used_frames();

  // At least the 48 identical workload pages merge (plus zero pages).
  EXPECT_GE(merged, 48u);
  EXPECT_GE(used_before - used_after, 48u);
  EXPECT_GE(daemon.stats().BytesSaved(), 48u * isa::kPageSize);
}

TEST(KsmTest, CowBreakPreservesIsolation) {
  Host host;
  std::string prog = guest::PatternFillProgram(16, 16, 1);
  Vm* a = BootVm(host, VmConfig{.name = "a"}, prog);
  Vm* b = BootVm(host, VmConfig{.name = "b"}, prog);
  host.RunFor(200 * kSimTicksPerMs);

  ksm::KsmDaemon daemon(&host.pool());
  daemon.AddClient(&a->memory());
  daemon.AddClient(&b->memory());
  ASSERT_GT(daemon.ScanOnce(), 0u);

  // Host-side write to a shared page in A must not leak into B.
  uint32_t gpa = 0x100000;  // first pattern page
  uint32_t gpn = isa::PageNumber(gpa);
  ASSERT_TRUE(a->memory().IsShared(gpn));
  ASSERT_TRUE(a->memory().WriteU32(gpa, 0xDEADBEEF).ok());
  EXPECT_EQ(*a->memory().ReadU32(gpa), 0xDEADBEEFu);
  EXPECT_NE(*b->memory().ReadU32(gpa), 0xDEADBEEFu);
  EXPECT_FALSE(a->memory().IsShared(gpn));
}

TEST(KsmTest, RescanIsStable) {
  Host host;
  std::string prog = guest::PatternFillProgram(32, 32, 1);
  Vm* a = BootVm(host, VmConfig{.name = "a"}, prog);
  Vm* b = BootVm(host, VmConfig{.name = "b"}, prog);
  host.RunFor(200 * kSimTicksPerMs);

  ksm::KsmDaemon daemon(&host.pool());
  daemon.AddClient(&a->memory());
  daemon.AddClient(&b->memory());
  uint64_t first = daemon.ScanOnce();
  EXPECT_GT(first, 0u);
  size_t used_after_first = host.pool().used_frames();
  uint64_t second = daemon.ScanOnce();
  EXPECT_EQ(second, 0u);  // nothing new to merge
  EXPECT_EQ(host.pool().used_frames(), used_after_first);
}

// The host frames a KSM pass over `vms` would hash: one per distinct frame
// backing a present, unprotected page.
size_t DistinctScannedFrames(const std::vector<Vm*>& vms) {
  std::set<mem::HostFrame> frames;
  for (Vm* vm : vms) {
    for (uint32_t gpn = 0; gpn < vm->memory().num_pages(); ++gpn) {
      if (vm->memory().IsPresent(gpn) && !vm->memory().IsWriteProtected(gpn)) {
        frames.insert(vm->memory().FrameForPage(gpn));
      }
    }
  }
  return frames.size();
}

// Every page of every VM, absent pages marked: a KSM pass must not change it.
std::vector<std::vector<uint8_t>> RamContents(const std::vector<Vm*>& vms) {
  std::vector<std::vector<uint8_t>> ram;
  for (Vm* vm : vms) {
    std::vector<uint8_t>& bytes = ram.emplace_back();
    for (uint32_t gpn = 0; gpn < vm->memory().num_pages(); ++gpn) {
      const uint8_t* data = vm->memory().PageData(gpn);
      bytes.push_back(data != nullptr);
      if (data != nullptr) {
        bytes.insert(bytes.end(), data, data + isa::kPageSize);
      }
    }
  }
  return ram;
}

// The pinned merge counts and frame totals below are those the daemon
// produced before passes hashed each frame once; the per-pass frame memo
// must not move any of them.
constexpr uint64_t kRescanFirstMerged = 2013, kRescanFirstFreed = 2013;
constexpr size_t kRescanUsedFrames = 35;
constexpr uint64_t kForkMerged = 1978, kForkFreed = 989;
constexpr size_t kForkUsedFrames = 35;
constexpr uint64_t kCowFirstMerged = 2029, kCowFirstFreed = 2029;
constexpr size_t kCowUsedAfterBreak = 21;

TEST(KsmTest, RescanOfMergedGuestsHashesEachFrameOnce) {
  Host host;
  std::string prog = guest::PatternFillProgram(32, 32, 1);
  Vm* a = BootVm(host, VmConfig{.name = "a"}, prog);
  Vm* b = BootVm(host, VmConfig{.name = "b"}, prog);
  host.RunFor(200 * kSimTicksPerMs);
  const std::vector<Vm*> vms = {a, b};

  ksm::KsmDaemon daemon(&host.pool());
  daemon.AddClient(&a->memory());
  daemon.AddClient(&b->memory());
  const auto ram = RamContents(vms);
  size_t frames = DistinctScannedFrames(vms);
  EXPECT_EQ(daemon.ScanOnce(), kRescanFirstMerged);
  EXPECT_EQ(daemon.stats().pages_hashed, frames);
  EXPECT_EQ(daemon.stats().frames_freed, kRescanFirstFreed);
  EXPECT_EQ(host.pool().used_frames(), kRescanUsedFrames);
  EXPECT_EQ(RamContents(vms), ram);

  // The rescan hashes one page per merged frame, far fewer than it scans.
  frames = DistinctScannedFrames(vms);
  const ksm::KsmStats first = daemon.stats();
  EXPECT_EQ(daemon.ScanOnce(), 0u);
  uint64_t scanned = daemon.stats().pages_scanned - first.pages_scanned;
  uint64_t hashed = daemon.stats().pages_hashed - first.pages_hashed;
  EXPECT_EQ(hashed, frames);
  EXPECT_LT(hashed * 4, scanned);
  EXPECT_EQ(daemon.stats().pages_merged, first.pages_merged);
  EXPECT_EQ(daemon.stats().frames_freed, first.frames_freed);
  EXPECT_EQ(host.pool().used_frames(), kRescanUsedFrames);
  EXPECT_EQ(RamContents(vms), ram);
}

TEST(KsmTest, ForkChildCostsOneHashPerFrame) {
  Host host;
  std::string prog = guest::PatternFillProgram(32, 16, 3);
  Vm* parent = BootVm(host, VmConfig{.name = "parent"}, prog);
  host.RunFor(200 * kSimTicksPerMs);
  parent->Pause(TestPhase());
  auto child = snapshot::ForkVm(host, VmConfig{.name = "child"}, *parent);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  const std::vector<Vm*> vms = {parent, *child};

  ksm::KsmDaemon daemon(&host.pool());
  daemon.AddClient(&parent->memory());
  daemon.AddClient(&(*child)->memory());
  const auto ram = RamContents(vms);
  size_t frames = DistinctScannedFrames(vms);
  EXPECT_EQ(DistinctScannedFrames({parent}), frames);  // the child adds none
  EXPECT_EQ(daemon.ScanOnce(), kForkMerged);
  EXPECT_EQ(daemon.stats().pages_hashed, frames);
  EXPECT_EQ(daemon.stats().pages_scanned, 2 * frames);
  EXPECT_EQ(daemon.stats().frames_freed, kForkFreed);
  EXPECT_EQ(host.pool().used_frames(), kForkUsedFrames);
  EXPECT_EQ(RamContents(vms), ram);
}

TEST(KsmTest, CowBreakBetweenPassesRehashesTheBrokenPage) {
  Host host;
  std::string prog = guest::PatternFillProgram(16, 16, 1);
  Vm* a = BootVm(host, VmConfig{.name = "a"}, prog);
  Vm* b = BootVm(host, VmConfig{.name = "b"}, prog);
  host.RunFor(200 * kSimTicksPerMs);
  const std::vector<Vm*> vms = {a, b};

  ksm::KsmDaemon daemon(&host.pool());
  daemon.AddClient(&a->memory());
  daemon.AddClient(&b->memory());
  EXPECT_EQ(daemon.ScanOnce(), kCowFirstMerged);
  EXPECT_EQ(daemon.stats().frames_freed, kCowFirstFreed);

  // Break two of A's shared pattern pages: one gets new bytes, the other is
  // rewritten with the bytes it already held.
  const uint32_t changed = 0x100000, same = 0x101000;
  ASSERT_TRUE(a->memory().IsShared(isa::PageNumber(changed)));
  ASSERT_TRUE(a->memory().IsShared(isa::PageNumber(same)));
  ASSERT_TRUE(a->memory().WriteU32(changed, 0xDEADBEEF).ok());
  ASSERT_TRUE(a->memory().WriteU32(same, *a->memory().ReadU32(same)).ok());
  ASSERT_FALSE(a->memory().IsShared(isa::PageNumber(changed)));
  ASSERT_FALSE(a->memory().IsShared(isa::PageNumber(same)));
  EXPECT_EQ(host.pool().used_frames(), kCowUsedAfterBreak);

  // Both broken pages sit on private frames, so the next pass hashes them;
  // only the one whose bytes still match merges again.
  const auto ram = RamContents(vms);
  size_t frames = DistinctScannedFrames(vms);
  const ksm::KsmStats first = daemon.stats();
  EXPECT_EQ(daemon.ScanOnce(), 1u);
  EXPECT_EQ(daemon.stats().pages_hashed - first.pages_hashed, frames);
  EXPECT_EQ(daemon.stats().frames_freed - first.frames_freed, 1u);
  EXPECT_FALSE(a->memory().IsShared(isa::PageNumber(changed)));
  EXPECT_TRUE(a->memory().IsShared(isa::PageNumber(same)));
  EXPECT_EQ(a->memory().FrameForPage(isa::PageNumber(same)),
            b->memory().FrameForPage(isa::PageNumber(same)));
  EXPECT_EQ(host.pool().used_frames(), kCowUsedAfterBreak - 1);
  EXPECT_EQ(RamContents(vms), ram);
}

}  // namespace
}  // namespace hyperion
