// Seeded chaos harness for migration under fault injection (DESIGN.md §7).
//
// Each seed derives a random FaultPlan (loss, outages, latency spikes, host
// stalls) and runs a live migration under it — twice. The oracles:
//
//  * Determinism: the same seed yields bit-identical MigrationReports; faults
//    are reproducible inputs, not flaky noise.
//  * Fidelity: a migration that claims success shipped every present page
//    byte-for-byte (RAM digests match at the switchover point).
//  * Atomicity: a migration that fails leaves the source VM running and
//    consistent (runtime auditors pass) and leaves nothing on the
//    destination — never a half-VM.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "src/fault/fault.h"
#include "src/guest/programs.h"
#include "src/migrate/migrate.h"
#include "src/util/crc32.h"
#include "src/verify/audit.h"

namespace hyperion {
namespace {

using core::Host;
using core::HostConfig;
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

// Fault-tolerance knobs scaled down so even retry-heavy seeds finish fast.
migrate::MigrateOptions ChaosOptions(fault::FaultInjector* inj) {
  migrate::MigrateOptions options;
  options.fault = inj;
  options.fault_site = kLinkSite;
  options.retry_backoff = kSimTicksPerMs;
  options.retry_backoff_cap = 20 * kSimTicksPerMs;
  options.round_timeout = 50 * kSimTicksPerMs;
  options.postcopy_run_limit = 5 * kSimTicksPerSec;
  return options;
}

struct ChaosOutcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  migrate::MigrationReport report;
  uint32_t src_digest = 0;
  uint32_t dst_digest = 0;

  bool operator==(const ChaosOutcome& other) const {
    return ok == other.ok && code == other.code && report == other.report &&
           src_digest == other.src_digest && dst_digest == other.dst_digest;
  }
};

// One full chaos scenario: boot, run, migrate under the seed's random plan,
// then apply the fidelity/atomicity oracles. The guest idles via wfi between
// timer ticks (pre-copy) or parks after filling memory (post-copy), keeping
// long injected outages cheap to simulate.
ChaosOutcome RunChaos(uint64_t seed, bool post_copy) {
  fault::ChaosProfile profile;
  profile.link_site = kLinkSite;
  profile.host_site = kHostSite;
  profile.horizon = 100 * kSimTicksPerMs;
  fault::FaultInjector inj(fault::FaultPlan::Random(seed, profile));

  Host src, dst;
  src.SetFaultInjector(&inj, kHostSite);
  std::string prog = post_copy
                         ? guest::PatternFillProgram(96, 16, static_cast<uint32_t>(seed))
                         : guest::IdleTickProgram(200'000);
  Vm* vm = Boot(src, VmConfig{.name = "chaos"}, prog);
  src.RunFor(10 * kSimTicksPerMs);
  EXPECT_EQ(vm->state(), VmState::kRunning) << "seed " << seed;

  migrate::MigrateOptions options = ChaosOptions(&inj);
  ChaosOutcome out;
  out.src_digest = RamDigest(*vm);  // pre-migration digest (determinism input)
  auto moved = post_copy ? migrate::PostCopyMigrate(src, vm, dst, options, &out.report)
                         : migrate::PreCopyMigrate(src, vm, dst, options, &out.report);
  out.ok = moved.ok();
  out.code = moved.status().code();

  if (moved.ok()) {
    // Fidelity: the source is paused at the switchover point; the
    // destination has executed nothing (pre-copy) or only parked (post-copy
    // guests write nothing after their fill completes). Every present page
    // must match.
    EXPECT_EQ(vm->state(), VmState::kPaused) << "seed " << seed;
    EXPECT_EQ((*moved)->state(), VmState::kRunning) << "seed " << seed;
    out.src_digest = RamDigest(*vm);
    out.dst_digest = RamDigest(**moved);
    EXPECT_EQ(out.src_digest, out.dst_digest)
        << "guest memory diverged, seed " << seed;
  } else {
    // Atomicity: clean abort. The source keeps running, the destination is
    // empty, and the runtime auditors stay green while the source continues.
    EXPECT_EQ(out.code, StatusCode::kAborted)
        << "seed " << seed << ": " << moved.status().ToString();
    EXPECT_EQ(vm->state(), VmState::kRunning) << "seed " << seed;
    EXPECT_TRUE(dst.vms().empty()) << "half-VM left behind, seed " << seed;
    verify::SetAuditEnabled(true);
    src.RunFor(5 * kSimTicksPerMs);
    verify::SetAuditEnabled(false);
    EXPECT_EQ(vm->state(), VmState::kRunning)
        << "auditor violation after aborted migration, seed " << seed << ": "
        << vm->crash_reason().ToString();
    verify::AuditReport frames = src.AuditFrameAccounting();
    EXPECT_TRUE(frames.ok()) << "seed " << seed << ":\n" << frames.ToString();
    out.dst_digest = RamDigest(*vm);  // post-abort digest, still deterministic
  }
  return out;
}

TEST(ChaosTest, PreCopySweepIsDeterministicAndSafe) {
  int aborted = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosOutcome first = RunChaos(seed, /*post_copy=*/false);
    ChaosOutcome second = RunChaos(seed, /*post_copy=*/false);
    EXPECT_TRUE(first == second) << "non-deterministic replay, seed " << seed;
    aborted += first.ok ? 0 : 1;
  }
  // The sweep must exercise both outcomes; if every plan aborts (or none
  // does), the generator stopped covering the interesting region.
  EXPECT_LT(aborted, 25);
}

TEST(ChaosTest, PostCopySweepIsDeterministicAndSafe) {
  for (uint64_t seed = 100; seed < 125; ++seed) {
    ChaosOutcome first = RunChaos(seed, /*post_copy=*/true);
    ChaosOutcome second = RunChaos(seed, /*post_copy=*/true);
    EXPECT_TRUE(first == second) << "non-deterministic replay, seed " << seed;
  }
}

// Acceptance scenario: exactly one transient loss on the wire. The migration
// must succeed after a single retry with zero guest-memory divergence.
TEST(ChaosTest, PreCopySurvivesOneTransientLinkFailure) {
  fault::FaultPlan plan;
  plan.AddDropOnce(kLinkSite, 0);  // the very first chunk vanishes
  fault::FaultInjector inj(plan);

  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "one-loss"}, guest::IdleTickProgram(200'000));
  src.RunFor(10 * kSimTicksPerMs);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, ChaosOptions(&inj), &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(report.retries, 1u);
  EXPECT_GT(report.pages_resent, 0u);
  EXPECT_EQ(RamDigest(*vm), RamDigest(**moved));

  // The fault-free control run moves the same pages with no retries and
  // strictly less wire traffic.
  Host src2, dst2;
  Vm* vm2 = Boot(src2, VmConfig{.name = "one-loss"}, guest::IdleTickProgram(200'000));
  src2.RunFor(10 * kSimTicksPerMs);
  migrate::MigrationReport control;
  ASSERT_TRUE(migrate::PreCopyMigrate(src2, vm2, dst2, ChaosOptions(nullptr), &control).ok());
  EXPECT_EQ(control.retries, 0u);
  EXPECT_LT(control.bytes_sent, report.bytes_sent);
}

// A permanent loss must exhaust the retry budget and roll back atomically.
TEST(ChaosTest, PreCopyAbortsCleanlyUnderTotalLoss) {
  fault::FaultPlan plan;
  plan.AddTransferLoss(kLinkSite, 1.0);  // nothing ever gets through
  fault::FaultInjector inj(plan);

  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "dead-link"}, guest::IdleTickProgram(200'000));
  src.RunFor(10 * kSimTicksPerMs);

  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, ChaosOptions(&inj), &report);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kAborted);
  EXPECT_EQ(vm->state(), VmState::kRunning);
  EXPECT_TRUE(dst.vms().empty());
  // The report records the robustness cost of the doomed attempt.
  EXPECT_EQ(report.retries, migrate::kMaxChunkRetries - 1);
  EXPECT_GT(report.pages_resent, 0u);
  // The source is unharmed: it keeps making progress afterwards.
  verify::SetAuditEnabled(true);
  src.RunFor(10 * kSimTicksPerMs);
  verify::SetAuditEnabled(false);
  EXPECT_EQ(vm->state(), VmState::kRunning) << vm->crash_reason().ToString();
}

// Post-copy demand-fetch failure: the link dies right after switchover, so
// the destination can never reach residency. The run limit must fail the
// migration cleanly — destination destroyed, source resumed.
TEST(ChaosTest, PostCopyLinkDownHitsRunLimitAndRollsBack) {
  fault::FaultPlan plan;
  // Op 0 on the migrate link is the machine-state chunk (source side); every
  // transfer after it — background pushes and demand fetches — is lost.
  fault::FaultEvent e;
  e.site = kLinkSite;
  e.kind = fault::FaultKind::kFrameDrop;
  e.first_op = 1;
  plan.Add(e);
  fault::FaultInjector inj(plan);

  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "pc-dead"},
                guest::PatternFillProgram(96, 16, 7));
  src.RunFor(10 * kSimTicksPerMs);

  migrate::MigrateOptions options = ChaosOptions(&inj);
  options.postcopy_run_limit = 300 * kSimTicksPerMs;
  migrate::MigrationReport report;
  auto moved = migrate::PostCopyMigrate(src, vm, dst, options, &report);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kAborted);
  EXPECT_EQ(report.timeouts, 1u);
  EXPECT_GT(report.retries, 0u);  // the fetches kept trying until the limit
  EXPECT_EQ(vm->state(), VmState::kRunning);
  EXPECT_TRUE(dst.vms().empty());
  // The rolled-back source still audits clean.
  verify::SetAuditEnabled(true);
  src.RunFor(5 * kSimTicksPerMs);
  verify::SetAuditEnabled(false);
  EXPECT_EQ(vm->state(), VmState::kRunning) << vm->crash_reason().ToString();
}

// Round timeouts keep rounds bounded and carry the remainder forward; the
// migration still converges and the report counts the expiries.
TEST(ChaosTest, RoundTimeoutCarriesRemainderForward) {
  Host src, dst;
  Vm* vm = Boot(src, VmConfig{.name = "slow"}, guest::IdleTickProgram(200'000));
  src.RunFor(10 * kSimTicksPerMs);

  migrate::MigrateOptions options;  // fault-free, 1 Gb/s default link
  options.chunk_pages = 16;
  options.skip_zero_pages = false;         // full 4 KiB per page: slow rounds
  options.round_timeout = kSimTicksPerMs;  // ~30 pages of wire time per round
  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, options, &report);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_GT(report.timeouts, 0u);
  EXPECT_GT(report.rounds, 1u);
  EXPECT_EQ(RamDigest(*vm), RamDigest(**moved));
}

// ---------------------------------------------------------------------------
// SMP chaos: the same seeded fault plans, but the workload is a 4-vCPU guest
// running its IPI/TLB-shootdown gauntlet while the migration fights the link.
// On top of the single-vCPU oracles this adds a liveness oracle: whichever VM
// survives the scenario — the destination on success, the rolled-back source
// on abort — must still finish the gauntlet and reach its shutdown hypercall
// with every shootdown accounted for. A migration that drops a doorbell or an
// ack word leaves a vCPU spinning forever and fails the run-limit instead.
// ---------------------------------------------------------------------------

struct SmpChaosOutcome {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  migrate::MigrationReport report;
  uint32_t progress = 0;
  uint32_t end_digest = 0;
  uint64_t shootdowns = 0;
  uint64_t ipis_sent = 0;

  bool operator==(const SmpChaosOutcome& other) const {
    return ok == other.ok && code == other.code && report == other.report &&
           progress == other.progress && end_digest == other.end_digest &&
           shootdowns == other.shootdowns && ipis_sent == other.ipis_sent;
  }
};

SmpChaosOutcome RunSmpChaos(uint64_t seed) {
  fault::ChaosProfile profile;
  profile.link_site = kLinkSite;
  profile.host_site = kHostSite;
  profile.horizon = 100 * kSimTicksPerMs;
  fault::FaultInjector inj(fault::FaultPlan::Random(seed, profile));

  HostConfig hc;
  hc.num_pcpus = 4;
  Host src(hc), dst(hc);
  src.SetFaultInjector(&inj, kHostSite);

  guest::SmpLockParams params;
  params.num_vcpus = 4;
  params.lock_iters = 64;
  params.shootdown_rounds = 20;
  std::string prog = guest::SmpMcsLockProgram(params);
  auto image = guest::Build(prog);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  uint32_t progress_addr = *guest::ProgressAddress(*image);

  VmConfig cfg;
  cfg.name = "smp-chaos";
  cfg.ram_bytes = 8u << 20;
  cfg.num_vcpus = 4;
  cfg.paging_mode = mmu::PagingMode::kNested;
  Vm* vm = Boot(src, cfg, prog);
  src.RunFor(4 * kSimTicksPerMs);  // migration lands inside the gauntlet
  EXPECT_EQ(vm->state(), VmState::kRunning) << "seed " << seed;

  migrate::MigrateOptions options = ChaosOptions(&inj);
  SmpChaosOutcome out;
  migrate::MigrationReport report;
  auto moved = migrate::PreCopyMigrate(src, vm, dst, options, &report);
  out.ok = moved.ok();
  out.code = moved.status().code();
  out.report = report;

  const uint32_t want_progress = params.num_vcpus * params.lock_iters;
  const uint64_t expected_events =
      static_cast<uint64_t>(params.shootdown_rounds) * (params.num_vcpus - 1);
  if (moved.ok()) {
    // Fidelity at switchover, then liveness on the destination: the restored
    // machine must carry the whole IPI protocol state across the wire.
    EXPECT_EQ(vm->state(), VmState::kPaused) << "seed " << seed;
    EXPECT_EQ(RamDigest(*vm), RamDigest(**moved)) << "seed " << seed;
    EXPECT_TRUE(dst.RunUntilVmStops(*moved, 10 * kSimTicksPerSec))
        << "seed " << seed << ": destination never stopped";
    EXPECT_EQ((*moved)->state(), VmState::kShutdown)
        << "seed " << seed << ": " << (*moved)->crash_reason().ToString();
    out.progress = (*moved)->memory().ReadU32(progress_addr).value_or(0);
    cpu::VcpuStats total = vm->TotalStats();
    cpu::VcpuStats dst_total = (*moved)->TotalStats();
    out.shootdowns = total.shootdowns + dst_total.shootdowns;
    out.ipis_sent = total.ipis_sent + dst_total.ipis_sent;
    out.end_digest = RamDigest(**moved);
  } else {
    // Atomicity + liveness on the rolled-back source: the abort may not leave
    // a vCPU stuck on an ack from a half-delivered shootdown.
    EXPECT_EQ(out.code, StatusCode::kAborted)
        << "seed " << seed << ": " << moved.status().ToString();
    EXPECT_EQ(vm->state(), VmState::kRunning) << "seed " << seed;
    EXPECT_TRUE(dst.vms().empty()) << "half-VM left behind, seed " << seed;
    verify::SetAuditEnabled(true);
    src.RunFor(2 * kSimTicksPerMs);
    verify::SetAuditEnabled(false);
    EXPECT_TRUE(src.RunUntilVmStops(vm, 10 * kSimTicksPerSec))
        << "seed " << seed << ": source never stopped after rollback";
    EXPECT_EQ(vm->state(), VmState::kShutdown)
        << "seed " << seed << ": " << vm->crash_reason().ToString();
    verify::AuditReport frames = src.AuditFrameAccounting();
    EXPECT_TRUE(frames.ok()) << "seed " << seed << ":\n" << frames.ToString();
    out.progress = vm->memory().ReadU32(progress_addr).value_or(0);
    cpu::VcpuStats total = vm->TotalStats();
    out.shootdowns = total.shootdowns;
    out.ipis_sent = total.ipis_sent;
    out.end_digest = RamDigest(*vm);
  }
  // Either way the gauntlet finished: all vCPUs graded, every shootdown
  // delivered exactly once across however many hosts the VM lived on.
  EXPECT_EQ(out.progress, want_progress) << "seed " << seed;
  EXPECT_EQ(out.shootdowns, expected_events) << "seed " << seed;
  EXPECT_EQ(out.ipis_sent, expected_events) << "seed " << seed;
  return out;
}

TEST(ChaosSmpTest, PreCopySweepOnFourVcpuGuestIsDeterministicAndLive) {
  for (uint64_t seed : {uint64_t{9101}, uint64_t{9102}}) {
    SmpChaosOutcome first = RunSmpChaos(seed);
    SmpChaosOutcome second = RunSmpChaos(seed);
    EXPECT_TRUE(first == second) << "non-deterministic replay, seed " << seed;
  }
}

// --- Cluster under chaos ---------------------------------------------------
//
// A two-host cluster with cross-host traffic runs under a seeded random
// fault plan aimed at the fabric wire and at host h0 (pause windows from the
// random plan, plus a scripted crash mid-flight). Checkpoints are taken
// before the crash so every casualty has a respawn template. Oracles:
//
//  * Determinism: the same seed replays to a bit-identical fleet — same
//    guests on the same hosts with the same RAM digests and stats, same
//    fabric counters — faults included.
//  * Conservation: no guest is lost; every crash victim respawns elsewhere.

struct ClusterChaosOutcome {
  std::vector<std::string> guests;  // "name@host state digest insns", sorted
  cluster::Fabric::Stats fabric;
  cluster::ClusterStats stats;
  bool h0_failed = false;
  SimTime end = 0;

  bool operator==(const ClusterChaosOutcome&) const = default;
};

ClusterChaosOutcome RunClusterChaos(uint64_t seed) {
  constexpr char kWireSite[] = "fabric:wire";
  constexpr char kCrashSite[] = "h0:host";

  cluster::ClusterConfig cc;
  cc.worker_threads = 0;
  cc.cpu_overcommit = 8.0;
  cc.drs.interval = 4 * kSimTicksPerMs;
  cluster::Cluster cl(cc);
  Host* h0 = cl.AddHost(HostConfig{.name = "h0", .num_pcpus = 2});
  Host* h1 = cl.AddHost(HostConfig{.name = "h1", .num_pcpus = 2});

  fault::ChaosProfile profile;
  profile.link_site = kWireSite;
  profile.host_site = kCrashSite;
  profile.horizon = 20 * kSimTicksPerMs;
  fault::FaultPlan plan = fault::FaultPlan::Random(seed, profile);
  plan.AddHostCrash(kCrashSite, 12 * kSimTicksPerMs);
  fault::FaultInjector inj(plan);
  cl.fabric().SetFaultInjector(&inj, kWireSite);
  h0->SetFaultInjector(&inj, kCrashSite);

  auto boot = [&](VmConfig config, const std::string& source, Host* pin) {
    auto image = guest::Build(source);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    auto vm = cl.CreateVm(std::move(config), pin);
    EXPECT_TRUE(vm.ok()) << vm.status().ToString();
    EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  };
  std::vector<std::string> names;
  boot(VmConfig{.name = "burn"}, guest::ComputeProgram(0), nullptr);
  names.push_back("burn");
  std::string idle = guest::IdleTickProgram(500'000);
  for (int i = 0; i < 5; ++i) {
    std::string name = "idle" + std::to_string(i);
    boot(VmConfig{.name = name}, idle, nullptr);
    names.push_back(name);
  }
  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 64;
  np.iterations = 0;
  VmConfig ping{.name = "ping"};
  ping.net_model = core::IoModel::kParavirt;
  ping.mac = 1;
  boot(ping, guest::VirtioNetPingProgram(np), h0);  // pinned on the doomed host
  names.push_back("ping");
  VmConfig echo{.name = "echo"};
  echo.net_model = core::IoModel::kParavirt;
  echo.mac = 2;
  boot(echo, guest::VirtioNetEchoProgram(np.payload_bytes), h1);
  names.push_back("echo");
  std::sort(names.begin(), names.end());

  cl.RunFor(8 * kSimTicksPerMs);
  cl.CheckpointAll();  // respawn templates, taken before the crash at t=12ms
  cl.RunFor(16 * kSimTicksPerMs);

  ClusterChaosOutcome out;
  for (const std::string& name : names) {
    Vm* vm = cl.FindVm(name);
    EXPECT_NE(vm, nullptr) << "seed " << seed << ": guest lost: " << name;
    if (vm == nullptr) {
      continue;
    }
    out.guests.push_back(name + "@" + cl.HostOf(name)->name() + " " +
                         std::to_string(static_cast<int>(vm->state())) + " " +
                         std::to_string(RamDigest(*vm)) + " " +
                         std::to_string(vm->TotalStats().instructions));
  }
  out.fabric = cl.fabric().stats();
  out.stats = cl.stats();
  out.h0_failed = h0->failed();
  out.end = cl.clock().now();
  return out;
}

TEST(ClusterChaosTest, FabricFaultSweepIsDeterministicAndConservesGuests) {
  for (uint64_t seed : {uint64_t{11}, uint64_t{12}, uint64_t{13}}) {
    ClusterChaosOutcome first = RunClusterChaos(seed);
    EXPECT_TRUE(first.h0_failed) << "seed " << seed;
    EXPECT_EQ(first.guests.size(), 8u) << "seed " << seed;
    EXPECT_EQ(first.stats.evacuations_lost, 0u) << "seed " << seed;
    EXPECT_GT(first.stats.evacuations_respawned, 0u) << "seed " << seed;
    ClusterChaosOutcome second = RunClusterChaos(seed);
    EXPECT_TRUE(first == second) << "non-deterministic replay, seed " << seed;
  }
}

}  // namespace
}  // namespace hyperion
