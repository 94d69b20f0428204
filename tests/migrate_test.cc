// Migration and snapshot robustness tests beyond the core happy paths:
// zero-page elision, migration under device I/O, state preservation, exact
// retry accounting under a fixed loss plan, and corruption fuzzing of the
// snapshot decoder.

#include <gtest/gtest.h>

#include "src/core/host.h"
#include "src/fault/fault.h"
#include "tests/test_phase.h"
#include "src/guest/programs.h"
#include "src/migrate/migrate.h"
#include "src/snapshot/snapshot.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace hyperion {
namespace {

using core::Host;
using core::HostConfig;
using core::IoModel;
using core::Vm;
using core::VmConfig;
using core::VmState;

Vm* Boot(Host& host, VmConfig config, const std::string& source) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = host.CreateVm(std::move(config));
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

TEST(MigrateZeroPageTest, ElisionShrinksWireBytes) {
  auto run = [](bool skip_zero) {
    Host src, dst;
    // A small working set in a mostly-zero 4 MiB VM.
    std::string prog = guest::DirtyRateProgram(16, 5000);
    Vm* vm = Boot(src, VmConfig{.name = "z"}, prog);
    src.RunFor(10 * kSimTicksPerMs);
    migrate::MigrateOptions options;
    options.skip_zero_pages = skip_zero;
    migrate::MigrationReport report;
    auto moved = migrate::PreCopyMigrate(src, vm, dst, options, &report);
    EXPECT_TRUE(moved.ok());
    EXPECT_EQ((*moved)->state(), VmState::kRunning);
    return report;
  };
  migrate::MigrationReport with = run(true);
  migrate::MigrationReport without = run(false);
  // ~1000 of 1024 pages are zero: the elided transfer is many times smaller.
  EXPECT_LT(with.bytes_sent * 5, without.bytes_sent);
  // Both moved the same page population.
  EXPECT_EQ(with.pages_sent, without.pages_sent);
  // And the smaller transfer finishes sooner.
  EXPECT_LT(with.total_time, without.total_time);
}

TEST(MigrateIoTest, PreCopyMigratesAVmDoingDiskIo) {
  Host src, dst;
  auto disk = std::make_shared<storage::MemBlockStore>(4096);  // shared storage
  VmConfig cfg{.name = "io-mig"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 1000000;  // effectively endless within the test window
  p.sectors = 2;
  p.batch = 2;
  p.write = true;
  std::string prog = guest::VirtioBlkProgram(p);
  Vm* vm = Boot(src, cfg, prog);
  src.RunFor(20 * kSimTicksPerMs);
  ASSERT_EQ(vm->state(), VmState::kRunning);
  uint64_t sectors_before = vm->virtio_blk()->blk_stats().sectors;
  ASSERT_GT(sectors_before, 0u);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();

  // The destination VM keeps issuing I/O against the shared disk.
  dst.RunFor(50 * kSimTicksPerMs);
  EXPECT_NE((*moved)->state(), VmState::kCrashed)
      << (*moved)->crash_reason().ToString();
  EXPECT_GT((*moved)->virtio_blk()->blk_stats().sectors, 0u);
}

TEST(MigrateIoTest, PostCopyMigratesAVmDoingDiskIo) {
  Host src, dst;
  auto disk = std::make_shared<storage::MemBlockStore>(4096);
  VmConfig cfg{.name = "io-pc"};
  cfg.disk_model = IoModel::kParavirt;
  cfg.disk = disk;
  guest::BlkIoParams p;
  p.iterations = 1000000;
  p.sectors = 2;
  p.batch = 2;
  p.write = true;
  std::string prog = guest::VirtioBlkProgram(p);
  Vm* vm = Boot(src, cfg, prog);
  src.RunFor(20 * kSimTicksPerMs);

  migrate::MigrationReport report;
  auto moved = migrate::PostCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  dst.RunFor(50 * kSimTicksPerMs);
  EXPECT_NE((*moved)->state(), VmState::kCrashed)
      << (*moved)->crash_reason().ToString();
  EXPECT_GT((*moved)->virtio_blk()->blk_stats().sectors, 0u);
}

TEST(MigrateStateTest, ConsoleAndLogsSurviveMigration) {
  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "st"}, R"(
.org 0x1000
_start:
    li a0, 1
    la a1, msg
    li a2, 6
    hcall
    li a0, 8
    li a1, 12345
    hcall
loop:
    j loop
msg:
    .ascii "moved\n"
)");
  src.RunFor(5 * kSimTicksPerMs);
  ASSERT_EQ(vm->console(), "moved\n");

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ((*moved)->console(), "moved\n");
  ASSERT_EQ((*moved)->logged_values().size(), 1u);
  EXPECT_EQ((*moved)->logged_values()[0], 12345u);
}

TEST(MigrateStateTest, BalloonedPagesStayAbsentAcrossPreCopy) {
  Host src, dst;
  std::string prog = guest::BalloonDriverProgram(512, 512, 50000);
  Vm* vm = Boot(src, VmConfig{.name = "bal-mig"}, prog);
  vm->SetBalloonTarget(64);
  src.RunFor(100 * kSimTicksPerMs);
  ASSERT_EQ(vm->ballooned_pages(), 64u);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ((*moved)->ballooned_pages(), 64u);
  // Ballooned pages were not shipped.
  uint32_t present = 0;
  for (uint32_t gpn = 0; gpn < (*moved)->memory().num_pages(); ++gpn) {
    present += (*moved)->memory().IsPresent(gpn) ? 1 : 0;
  }
  EXPECT_EQ(present, (*moved)->memory().num_pages() - 64);
}

// ---------------------------------------------------------------------------
// SMP migration and snapshotting: a 4-vCPU guest is moved / checkpointed in
// the middle of its TLB-shootdown gauntlet. The restored machine must carry
// the whole IPI protocol state — doorbell levels, per-vCPU ipend bits,
// in-handler flags, ack words — or some vCPU ends up spinning on an ack that
// will never arrive and the guest never reaches its shutdown hypercall.
// ---------------------------------------------------------------------------

// Digest of guest RAM: presence map + contents of every present page.
uint32_t SmpRamDigest(Vm& vm) {
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

guest::SmpLockParams SmpGauntletParams() {
  guest::SmpLockParams p;
  p.num_vcpus = 4;
  p.lock_iters = 100;
  p.shootdown_rounds = 40;  // long phase C so the migration lands inside it
  return p;
}

VmConfig SmpVmConfig(const char* name) {
  VmConfig cfg;
  cfg.name = name;
  cfg.ram_bytes = 8u << 20;
  cfg.num_vcpus = 4;
  cfg.paging_mode = mmu::PagingMode::kNested;
  return cfg;
}

HostConfig SmpHostConfig() {
  HostConfig hc;
  hc.num_pcpus = 4;
  return hc;
}

TEST(MigrateSmpTest, PreCopyMovesAFourVcpuVmMidShootdown) {
  Host src(SmpHostConfig()), dst(SmpHostConfig());
  guest::SmpLockParams params = SmpGauntletParams();
  std::string prog = guest::SmpMcsLockProgram(params);
  Vm* vm = Boot(src, SmpVmConfig("smp-mig"), prog);
  src.RunFor(4 * kSimTicksPerMs);
  ASSERT_EQ(vm->state(), VmState::kRunning);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, migrate::MigrateOptions{}, &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  // Fidelity at the switchover point: the paused source and the not-yet-run
  // destination hold identical RAM.
  EXPECT_EQ(vm->state(), VmState::kPaused);
  EXPECT_EQ(SmpRamDigest(*vm), SmpRamDigest(**moved));

  // The destination finishes the gauntlet: every post-restore shootdown
  // round completes, so no vCPU is left spinning on a dead ack.
  ASSERT_TRUE(dst.RunUntilVmStops(*moved, 5 * kSimTicksPerSec));
  EXPECT_EQ((*moved)->state(), VmState::kShutdown)
      << (*moved)->crash_reason().ToString();
  auto image = guest::Build(prog);
  auto v = (*moved)->memory().ReadU32(*guest::ProgressAddress(*image));
  EXPECT_EQ(v.value_or(0), params.num_vcpus * params.lock_iters);

  // Shootdown events split across the two hosts but none is lost or
  // double-counted: the totals add up exactly, and both sides saw some.
  const uint64_t expected = params.shootdown_rounds * (params.num_vcpus - 1);
  cpu::VcpuStats src_total = vm->TotalStats();
  cpu::VcpuStats dst_total = (*moved)->TotalStats();
  EXPECT_EQ(src_total.shootdowns + dst_total.shootdowns, expected);
  EXPECT_EQ(src_total.ipis_received + dst_total.ipis_received, expected);
  EXPECT_EQ(src_total.ipis_sent + dst_total.ipis_sent, expected);
  EXPECT_GT(src_total.ipis_sent, 0u);
  EXPECT_GT(dst_total.shootdowns, 0u);
}

TEST(MigrateSmpTest, SnapshotClonesAFourVcpuVmMidShootdown) {
  Host host(SmpHostConfig());
  guest::SmpLockParams params = SmpGauntletParams();
  std::string prog = guest::SmpMcsLockProgram(params);
  auto image = guest::Build(prog);
  uint32_t progress_addr = *guest::ProgressAddress(*image);
  Vm* vm = Boot(host, SmpVmConfig("smp-snap"), prog);
  host.RunFor(10 * kSimTicksPerMs);
  ASSERT_EQ(vm->state(), VmState::kRunning);
  vm->Pause(TestPhase());

  // The checkpoint really is mid-protocol: some shootdown rounds remain.
  uint32_t rounds_at_save = vm->memory().ReadU32(progress_addr + 16).value_or(0);
  EXPECT_GT(rounds_at_save, 0u);
  EXPECT_LT(rounds_at_save, params.shootdown_rounds);

  auto bytes = snapshot::SaveVm(*vm);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto clone = snapshot::CloneVm(host, SmpVmConfig("smp-clone"), *bytes);
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();

  // Original and clone resume from identical state and execution is
  // deterministic, so both finish the gauntlet with identical RAM.
  vm->Resume(TestPhase());
  ASSERT_TRUE(host.RunUntilVmStops(vm, 5 * kSimTicksPerSec));
  ASSERT_TRUE(host.RunUntilVmStops(*clone, 5 * kSimTicksPerSec));
  EXPECT_EQ(vm->state(), VmState::kShutdown) << vm->crash_reason().ToString();
  EXPECT_EQ((*clone)->state(), VmState::kShutdown)
      << (*clone)->crash_reason().ToString();
  const uint32_t want = params.num_vcpus * params.lock_iters;
  EXPECT_EQ(vm->memory().ReadU32(progress_addr).value_or(0), want);
  EXPECT_EQ((*clone)->memory().ReadU32(progress_addr).value_or(0), want);
  EXPECT_EQ(SmpRamDigest(*vm), SmpRamDigest(**clone));
}

// --- Exact retry accounting ------------------------------------------------
//
// One fixed loss plan (a named site, a fixed seed and a fixed loss
// probability) pins every MigrationReport field of one run per flavor. The
// chaos sweeps only compare a run with its own replay, so a change that
// shifted what a retry, a resend or a demand fetch costs would pass them;
// these exact values would not.

constexpr char kLossySite[] = "migrate:lossy";

fault::FaultPlan LossyPlan() {
  fault::FaultPlan plan;
  plan.seed = 42;
  plan.AddTransferLoss(kLossySite, 0.25);
  return plan;
}

migrate::MigrateOptions LossyOptions(fault::FaultInjector* inj) {
  migrate::MigrateOptions options;
  options.fault = inj;
  options.fault_site = kLossySite;
  options.retry_backoff = kSimTicksPerMs;
  options.retry_backoff_cap = 20 * kSimTicksPerMs;
  return options;
}

void ExpectReport(const migrate::MigrationReport& got, const migrate::MigrationReport& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.pages_sent, want.pages_sent);
  EXPECT_EQ(got.bytes_sent, want.bytes_sent);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.downtime, want.downtime);
  EXPECT_EQ(got.demand_fetches, want.demand_fetches);
  EXPECT_EQ(got.demand_stall_total, want.demand_stall_total);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.timeouts, want.timeouts);
  EXPECT_EQ(got.pages_resent, want.pages_resent);
  EXPECT_EQ(got, want);  // catches a field added to the report but not above
}

TEST(MigrateRetryTest, PreCopyReportUnderFixedLossIsExact) {
  fault::FaultInjector inj(LossyPlan());
  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "lossy-pre"}, guest::DirtyRateProgram(64, 2000));
  src.RunFor(10 * kSimTicksPerMs);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, LossyOptions(&inj), &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  // The guest re-dirties its working set faster than the lossy rounds drain
  // it, so pre-copy runs to its round cap before stopping to copy.
  ExpectReport(report, {.rounds = 30,
                        .pages_sent = 3748,
                        .bytes_sent = 9'893'408,
                        .total_time = 92'547'264,
                        .downtime = 2'268'896,
                        .retries = 9,
                        .pages_resent = 774});
}

// The guest keeps rewriting its working set at the destination, so pages
// fault over on demand while the background pusher drains the rest. Under
// this plan six demand fetches and six background batches are lost and
// retried.
TEST(MigrateRetryTest, PostCopyReportUnderFixedLossIsExact) {
  fault::FaultInjector inj(LossyPlan());
  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "lossy-post"}, guest::DirtyRateProgram(64, 2000));
  src.RunFor(10 * kSimTicksPerMs);

  migrate::MigrationReport report;
  auto moved = migrate::PostCopyMigrate(src, vm, dst, LossyOptions(&inj), &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ExpectReport(report, {.pages_sent = 1213,
                        .bytes_sent = 4'982'504,
                        .total_time = 49'084'816,
                        .downtime = 84'816,
                        .demand_fetches = 10,
                        .demand_stall_total = 26'145'936,
                        .retries = 12,
                        .pages_resent = 189});
}

// Property: random corruption of a valid snapshot must never crash the
// decoder; it either detects the damage (DataLoss via CRC) or, for the
// 4-byte CRC trailer itself being the corrupted region, still fails cleanly.
TEST(SnapshotFuzzTest, RandomCorruptionIsAlwaysRejectedCleanly) {
  Host host;
  Vm* vm = Boot(host, VmConfig{.name = "fz"}, guest::ComputeProgram(500));
  host.RunFor(2 * kSimTicksPerMs);
  vm->Pause(TestPhase());
  auto snap = snapshot::SaveVm(*vm);
  ASSERT_TRUE(snap.ok());

  Xoshiro256 rng(0xBADF00D);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupt = *snap;
    int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.NextBelow(corrupt.size())] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
    Vm* target = Boot(host, VmConfig{.name = "t" + std::to_string(trial)},
                      guest::ComputeProgram(1));
    target->Pause(TestPhase());
    Status st = snapshot::LoadVm(*target, corrupt);
    EXPECT_FALSE(st.ok()) << "corruption accepted at trial " << trial;
    ASSERT_TRUE(host.DestroyVm(target).ok());
  }
}

// Property: truncating a snapshot anywhere must also fail cleanly.
TEST(SnapshotFuzzTest, TruncationIsAlwaysRejected) {
  Host host;
  Vm* vm = Boot(host, VmConfig{.name = "tr"}, guest::ComputeProgram(100));
  vm->Pause(TestPhase());
  auto snap = snapshot::SaveVm(*vm);
  ASSERT_TRUE(snap.ok());

  Xoshiro256 rng(777);
  for (int trial = 0; trial < 50; ++trial) {
    size_t keep = rng.NextBelow(snap->size());
    std::vector<uint8_t> cut(snap->begin(), snap->begin() + static_cast<ptrdiff_t>(keep));
    Vm* target = Boot(host, VmConfig{.name = "u" + std::to_string(trial)},
                      guest::ComputeProgram(1));
    target->Pause(TestPhase());
    EXPECT_FALSE(snapshot::LoadVm(*target, cut).ok()) << "kept " << keep;
    ASSERT_TRUE(host.DestroyVm(target).ok());
  }
}

}  // namespace
}  // namespace hyperion
