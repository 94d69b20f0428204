// Cluster layer tests (DESIGN.md §13).
//
// The cluster promises four things on top of the single-host core:
//
//  * Degeneracy: a cluster of one is a standalone host — same code path,
//    bit-identical results.
//  * Fabric: guests on different hosts exchange frames through their
//    switches' uplinks with realistic latency, and routing follows a port
//    across a live migration with no state to invalidate.
//  * Placement: admission enforces overcommit headroom; initial placement
//    and DRS rebalancing act only on barrier-committed load signals.
//  * Resilience: draining empties a host via live migration, and an injected
//    host crash respawns every checkpointed victim elsewhere — also a second
//    crash after the host was repaired.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/host.h"
#include "src/fault/fault.h"
#include "src/guest/programs.h"
#include "src/util/crc32.h"
#include "tests/test_phase.h"

namespace hyperion {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using core::Host;
using core::HostConfig;
using core::IoModel;
using core::Vm;
using core::VmConfig;
using core::VmState;

Vm* Boot(Cluster& cluster, VmConfig config, const std::string& source,
         Host* pin = nullptr) {
  auto image = guest::Build(source);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto vm = cluster.CreateVm(std::move(config), pin);
  EXPECT_TRUE(vm.ok()) << vm.status().ToString();
  EXPECT_TRUE((*vm)->LoadImage(*image).ok());
  return *vm;
}

Vm* BootHost(Host& host, VmConfig config, const std::string& source) {
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

// --- Degeneracy ------------------------------------------------------------

// A cluster of one host must be the standalone host: the domain round loop
// is the only run loop, so the same workload produces bit-identical guest
// state and host accounting either way.
TEST(ClusterTest, ClusterOfOneMatchesStandaloneHost) {
  std::string compute = guest::ComputeProgram(0);
  std::string idle = guest::IdleTickProgram(200'000);

  Host alone((HostConfig{.name = "solo", .worker_threads = 0}));
  Vm* a0 = BootHost(alone, VmConfig{.name = "c"}, compute);
  Vm* a1 = BootHost(alone, VmConfig{.name = "i"}, idle);
  alone.RunFor(20 * kSimTicksPerMs);

  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.drs.interval = 0;  // pure pass-through to the domain
  Cluster one(cc);
  Host* member = one.AddHost(HostConfig{.name = "solo", .worker_threads = 0});
  Vm* b0 = Boot(one, VmConfig{.name = "c"}, compute);
  Vm* b1 = Boot(one, VmConfig{.name = "i"}, idle);
  one.RunFor(20 * kSimTicksPerMs);

  EXPECT_EQ(RamDigest(*a0), RamDigest(*b0));
  EXPECT_EQ(RamDigest(*a1), RamDigest(*b1));
  EXPECT_EQ(a0->TotalStats().instructions, b0->TotalStats().instructions);
  EXPECT_EQ(a1->TotalStats().instructions, b1->TotalStats().instructions);
  EXPECT_EQ(alone.stats(), member->stats());
  EXPECT_EQ(alone.clock().now(), one.clock().now());
}

// --- Fabric ----------------------------------------------------------------

// Ping and echo guests on different hosts: every round trip crosses the
// fabric twice. The uplink/fabric/ingress counters must all see the
// traffic, and the guest must still complete its round trips.
TEST(ClusterTest, CrossHostPingEchoThroughFabric) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.drs.enabled = false;
  Cluster cl(cc);
  Host* h0 = cl.AddHost(HostConfig{.num_pcpus = 2});
  Host* h1 = cl.AddHost(HostConfig{.num_pcpus = 2});

  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 256;
  np.iterations = 12;
  std::string ping_prog = guest::VirtioNetPingProgram(np);

  VmConfig ping_cfg{.name = "ping"};
  ping_cfg.net_model = IoModel::kParavirt;
  ping_cfg.mac = 1;
  VmConfig echo_cfg{.name = "echo"};
  echo_cfg.net_model = IoModel::kParavirt;
  echo_cfg.mac = 2;

  Vm* ping = Boot(cl, ping_cfg, ping_prog, h0);
  Boot(cl, echo_cfg, guest::VirtioNetEchoProgram(np.payload_bytes), h1);

  cl.RunFor(2 * kSimTicksPerSec);
  ASSERT_EQ(ping->state(), VmState::kShutdown) << ping->crash_reason().ToString();
  EXPECT_EQ(ReadProgress(ping, ping_prog), 12u);

  // 12 requests out of h0 plus 12 replies out of h1, at minimum.
  EXPECT_GE(h0->vswitch().stats().frames_uplinked, 12u);
  EXPECT_GE(h1->vswitch().stats().frames_uplinked, 12u);
  EXPECT_GE(h0->vswitch().stats().frames_from_fabric, 12u);
  EXPECT_GE(h1->vswitch().stats().frames_from_fabric, 12u);
  EXPECT_GE(cl.fabric().stats().frames_forwarded, 24u);
  EXPECT_EQ(cl.fabric().stats().frames_no_route, 0u);
}

// Cross-host frames pay the fabric's wire costs: with a high-latency cable
// the same ping workload completes far fewer round trips in a fixed window.
TEST(ClusterTest, FabricLatencyIsCharged) {
  guest::NetParams np;
  np.peer_mac = 2;
  np.payload_bytes = 64;
  np.iterations = 0;  // ping forever; progress counts round trips
  std::string ping_prog = guest::VirtioNetPingProgram(np);

  auto run = [&](SimTime cable_latency) {
    ClusterConfig cc;
    cc.worker_threads = 0;
    cc.drs.enabled = false;
    cc.fabric.latency = cable_latency;
    Cluster cl(cc);
    Host* h0 = cl.AddHost();
    Host* h1 = cl.AddHost();
    VmConfig ping_cfg{.name = "ping"};
    ping_cfg.net_model = IoModel::kParavirt;
    ping_cfg.mac = 1;
    VmConfig echo_cfg{.name = "echo"};
    echo_cfg.net_model = IoModel::kParavirt;
    echo_cfg.mac = 2;
    Vm* ping = Boot(cl, ping_cfg, ping_prog, h0);
    Boot(cl, echo_cfg, guest::VirtioNetEchoProgram(np.payload_bytes), h1);
    cl.RunFor(20 * kSimTicksPerMs);
    return ReadProgress(ping, ping_prog);
  };

  uint32_t fast = run(5 * kSimTicksPerUs);
  // 500us each way caps a round trip at <20 per 20ms window.
  uint32_t slow = run(500 * kSimTicksPerUs);
  EXPECT_GT(fast, slow);
  EXPECT_LE(slow, 20u);
  EXPECT_GT(slow, 0u);
}

// --- Admission & placement -------------------------------------------------

TEST(ClusterTest, AdmissionEnforcesOvercommitCaps) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.cpu_overcommit = 1.0;
  cc.ram_overcommit = 1.0;
  Cluster cl(cc);
  cl.AddHost(HostConfig{.num_pcpus = 2, .ram_bytes = 16u << 20});

  std::string idle = guest::IdleTickProgram(200'000);
  Boot(cl, VmConfig{.name = "a"}, idle);
  Boot(cl, VmConfig{.name = "b"}, idle);
  // Third vCPU would exceed cpu_overcommit * 2 pcpus.
  auto rejected = cl.CreateVm(VmConfig{.name = "c"});
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // A duplicate name is not an admission failure.
  auto dup = cl.CreateVm(VmConfig{.name = "a"});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cl.stats().vms_admitted, 2u);
  EXPECT_EQ(cl.stats().vms_rejected, 1u);

  // RAM cap binds independently of the vCPU cap.
  ClusterConfig rc;
  rc.worker_threads = 0;
  rc.cpu_overcommit = 16.0;
  rc.ram_overcommit = 1.0;
  Cluster ram_bound(rc);
  ram_bound.AddHost(HostConfig{.num_pcpus = 4, .ram_bytes = 8u << 20});
  VmConfig big{.name = "big"};
  big.ram_bytes = 6u << 20;
  Boot(ram_bound, big, idle);
  VmConfig big2{.name = "big2"};
  big2.ram_bytes = 6u << 20;
  auto no_ram = ram_bound.CreateVm(big2);
  EXPECT_EQ(no_ram.status().code(), StatusCode::kResourceExhausted);
}

TEST(ClusterTest, PlacementSpreadsAcrossLeastCommittedHosts) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  Cluster cl(cc);
  Host* h0 = cl.AddHost(HostConfig{.num_pcpus = 2});
  Host* h1 = cl.AddHost(HostConfig{.num_pcpus = 2});

  std::string idle = guest::IdleTickProgram(200'000);
  for (int i = 0; i < 4; ++i) {
    Boot(cl, VmConfig{.name = "vm" + std::to_string(i)}, idle);
  }
  EXPECT_EQ(h0->vms().size(), 2u);
  EXPECT_EQ(h1->vms().size(), 2u);
  // Ties broke toward member order: vm0 landed on h0.
  EXPECT_EQ(cl.HostOf("vm0"), h0);
  EXPECT_EQ(cl.HostOf("vm1"), h1);
}

// --- Drain -----------------------------------------------------------------

TEST(ClusterTest, DrainLiveMigratesEveryVmOff) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  Cluster cl(cc);
  Host* h0 = cl.AddHost();
  Host* h1 = cl.AddHost();

  std::string idle = guest::IdleTickProgram(200'000);
  std::vector<std::string> names = {"a", "b", "c"};
  for (const std::string& name : names) {
    Boot(cl, VmConfig{.name = name}, idle, h0);
  }
  cl.RunFor(5 * kSimTicksPerMs);

  ASSERT_TRUE(cl.DrainHost(h0).ok());
  // A draining host admits nothing new.
  auto refused = cl.CreateVm(VmConfig{.name = "d"}, h0);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  cl.DrsTick();
  EXPECT_TRUE(h0->vms().empty());
  EXPECT_EQ(h1->vms().size(), 3u);
  EXPECT_EQ(cl.stats().drain_migrations, 3u);
  ASSERT_EQ(cl.migrations().size(), 3u);
  for (const cluster::MigrationRecord& rec : cl.migrations()) {
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.reason, "drain");
    EXPECT_EQ(rec.from, h0->name());
    EXPECT_EQ(rec.to, h1->name());
    // Reconciliation: a successful move shipped the VM's pages and stopped
    // the source for a measured downtime window.
    EXPECT_GT(rec.report.pages_sent, 0u);
    EXPECT_GT(rec.report.downtime, 0u);
  }
  for (const std::string& name : names) {
    Vm* vm = cl.FindVm(name);
    ASSERT_NE(vm, nullptr);
    EXPECT_EQ(cl.HostOf(name), h1);
    EXPECT_EQ(vm->state(), VmState::kRunning);
  }
  // The drained host rejoins placement after UndrainHost.
  cl.UndrainHost(h0);
  Boot(cl, VmConfig{.name = "e"}, idle);
  EXPECT_EQ(cl.HostOf("e"), h0);
}

// --- Rebalance -------------------------------------------------------------

TEST(ClusterTest, DrsMovesLoadOffHotHost) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.drs.interval = 5 * kSimTicksPerMs;
  cc.drs.hot_busy = 0.5;
  cc.drs.cool_until = 0.4;
  cc.drs.min_gain = 0.1;
  cc.drs.max_migrations_per_tick = 1;
  Cluster cl(cc);
  Host* h0 = cl.AddHost(HostConfig{.num_pcpus = 2});
  Host* h1 = cl.AddHost(HostConfig{.num_pcpus = 2});

  // Pin all the load on h0; h1 idles at 0%.
  std::string compute = guest::ComputeProgram(0);
  for (int i = 0; i < 4; ++i) {
    Boot(cl, VmConfig{.name = "busy" + std::to_string(i)}, compute, h0);
  }
  cl.RunFor(30 * kSimTicksPerMs);

  EXPECT_GE(cl.stats().rebalance_migrations, 1u);
  EXPECT_FALSE(h1->vms().empty());
  EXPECT_GT(cl.BusyFraction(h0), 0.0);
  for (const cluster::MigrationRecord& rec : cl.migrations()) {
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.reason, "rebalance");
    EXPECT_GT(rec.report.pages_sent, 0u);
  }
  // Per-pCPU accounting backs the signal: the hot host's pCPUs accrued busy
  // cycles, and totals reconcile with the aggregate counter.
  uint64_t busy = 0;
  for (const Host::PcpuStats& pcpu : h0->stats().pcpu) {
    busy += pcpu.busy_cycles;
  }
  EXPECT_GT(busy, 0u);
  EXPECT_EQ(busy, h0->stats().cycles_executed);
}

// --- Crash evacuation ------------------------------------------------------

TEST(ClusterTest, HostCrashRespawnsCheckpointedVmsElsewhere) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.drs.interval = 5 * kSimTicksPerMs;
  Cluster cl(cc);
  Host* h0 = cl.AddHost();
  Host* h1 = cl.AddHost();

  std::string prog = guest::ComputeProgram(0);
  std::vector<std::string> names = {"v0", "v1"};
  for (const std::string& name : names) {
    Boot(cl, VmConfig{.name = name}, prog, h0);
  }

  fault::FaultPlan plan;
  plan.AddHostCrash("h0:host", 12 * kSimTicksPerMs);
  fault::FaultInjector inj(plan);
  h0->SetFaultInjector(&inj, "h0:host");

  cl.RunFor(8 * kSimTicksPerMs);
  EXPECT_EQ(cl.CheckpointAll(), 2u);
  std::vector<uint32_t> at_checkpoint;
  for (const std::string& name : names) {
    at_checkpoint.push_back(ReadProgress(cl.FindVm(name), prog));
  }

  cl.RunFor(20 * kSimTicksPerMs);
  EXPECT_TRUE(h0->failed());
  EXPECT_EQ(cl.stats().evacuations_respawned, 2u);
  EXPECT_EQ(cl.stats().evacuations_lost, 0u);
  for (size_t i = 0; i < names.size(); ++i) {
    Vm* vm = cl.FindVm(names[i]);
    ASSERT_NE(vm, nullptr) << names[i];
    EXPECT_EQ(cl.HostOf(names[i]), h1);
    EXPECT_EQ(vm->state(), VmState::kRunning);
    // Respawn resumed from the checkpoint and kept computing: progress is
    // conserved up to the template, then grows again on the new host.
    EXPECT_GE(ReadProgress(vm, prog), at_checkpoint[i]);
  }
  uint64_t insns_after_respawn = cl.FindVm("v0")->TotalStats().instructions;
  cl.RunFor(5 * kSimTicksPerMs);
  EXPECT_GT(cl.FindVm("v0")->TotalStats().instructions, insns_after_respawn);
}

// A victim with no checkpoint template cannot be respawned: it is counted
// lost, not silently resurrected from nothing.
TEST(ClusterTest, UncheckpointedCrashVictimIsCountedLost) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.drs.interval = 5 * kSimTicksPerMs;
  Cluster cl(cc);
  Host* h0 = cl.AddHost();
  cl.AddHost();

  Boot(cl, VmConfig{.name = "doomed"}, guest::ComputeProgram(0), h0);

  fault::FaultPlan plan;
  plan.AddHostCrash("h0:host", 2 * kSimTicksPerMs);
  fault::FaultInjector inj(plan);
  h0->SetFaultInjector(&inj, "h0:host");

  cl.RunFor(10 * kSimTicksPerMs);
  EXPECT_TRUE(h0->failed());
  EXPECT_EQ(cl.stats().evacuations_lost, 1u);
  EXPECT_EQ(cl.stats().evacuations_respawned, 0u);
  EXPECT_EQ(cl.FindVm("doomed"), nullptr);
  EXPECT_EQ(cl.GuestCount(), 0u);
}

// Repair re-arms evacuation: a host that rejoins the pool after MarkRepaired
// and then crashes again must have its new victims respawned, not skipped as
// a crash the orchestrator already processed.
TEST(ClusterTest, RepairedHostThatCrashesAgainIsEvacuatedAgain) {
  ClusterConfig cc;
  cc.worker_threads = 0;
  cc.drs.interval = 0;      // ticks happen only where the test calls DrsTick
  cc.drs.enabled = false;   // no rebalancing: only evacuation moves guests
  Cluster cl(cc);
  Host* h0 = cl.AddHost();
  Host* h1 = cl.AddHost();

  fault::FaultPlan plan;
  plan.AddHostCrash("h0:host", 2 * kSimTicksPerMs);
  plan.AddHostCrash("h0:host", 20 * kSimTicksPerMs);
  fault::FaultInjector inj(plan);
  h0->SetFaultInjector(&inj, "h0:host");

  std::string prog = guest::ComputeProgram(0);
  Boot(cl, VmConfig{.name = "first"}, prog, h0);
  EXPECT_EQ(cl.CheckpointAll(), 1u);
  cl.RunFor(5 * kSimTicksPerMs);
  ASSERT_TRUE(h0->failed());
  cl.DrsTick();
  EXPECT_EQ(cl.stats().evacuations_respawned, 1u);
  EXPECT_EQ(cl.HostOf("first"), h1);

  h0->MarkRepaired();
  cl.DrsTick();  // the orchestrator sees h0 healthy again
  Boot(cl, VmConfig{.name = "second"}, prog, h0);
  EXPECT_EQ(cl.CheckpointAll(), 2u);
  cl.RunFor(20 * kSimTicksPerMs);  // past the second crash
  ASSERT_TRUE(h0->failed());
  cl.DrsTick();

  EXPECT_EQ(cl.stats().evacuations_respawned, 2u);
  EXPECT_EQ(cl.stats().evacuations_lost, 0u);
  EXPECT_EQ(cl.HostOf("second"), h1);
  Vm* second = cl.FindVm("second");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->state(), VmState::kRunning);
  EXPECT_EQ(cl.GuestCount(), 2u);
}

}  // namespace
}  // namespace hyperion
