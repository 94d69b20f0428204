// Experiment F6 — memory overcommit: KSM page sharing and ballooning.
//
// KSM: racks of VMs with a controlled fraction of identical page content;
// reports frames reclaimed vs. the content-similarity ratio and the
// unshare (COW-break) tax when a guest writes merged pages.
// Balloon: reclaim latency and achieved target as pressure rises.
//
// Expected shape: KSM savings scale ~linearly with the similarity ratio;
// ballooning reclaims exactly the requested pages, bounded by the guests'
// floors.
//
// Every column is simulated and deterministic except F6's ms-per-pass, the
// wall time of the scan pass on the machine running the bench.

#include <chrono>

#include "bench/bench_util.h"
#include "src/balloon/balloon.h"
#include "src/ksm/ksm.h"

using namespace hyperion;
using namespace hyperion::bench;

int main() {
  Section("F6: KSM — savings vs content similarity (4 VMs x 256 filled pages)");
  // Untouched guest RAM is zero pages, which all merge regardless of the
  // similarity knob; the content signal is the *delta* over the 0% baseline.
  Row("%-12s %14s %14s %16s %14s %12s %13s", "similarity", "frames-freed", "zero-page-part",
      "content-merges", "content-MiB", "ms-per-pass", "pages-hashed");
  uint64_t baseline_freed = 0;
  double rescan_ms = 0;
  uint64_t rescan_scanned = 0, rescan_hashed = 0;
  for (uint32_t percent : {0u, 25u, 50u, 75u, 100u}) {
    core::HostConfig hc;
    hc.ram_bytes = 256u << 20;
    core::Host host(hc);
    constexpr uint32_t kPages = 256;
    uint32_t shared_pages = kPages * percent / 100;

    std::vector<core::Vm*> vms;
    std::vector<std::string> progs;
    for (uint32_t i = 0; i < 4; ++i) {
      // Identical prefix across VMs; distinct tail (seed differs per VM).
      std::string prog = guest::PatternFillProgram(kPages, shared_pages, 100 + i);
      core::VmConfig cfg;
      cfg.name = "vm" + std::to_string(i);
      cfg.ram_bytes = 8u << 20;
      vms.push_back(MustBoot(host, cfg, prog));
      progs.push_back(prog);
    }
    host.RunFor(300 * kSimTicksPerMs);  // let every VM finish filling

    ksm::KsmDaemon daemon(&host.pool());
    for (auto* vm : vms) {
      daemon.AddClient(&vm->memory());
    }
    size_t before = host.pool().used_frames();
    auto w0 = std::chrono::steady_clock::now();
    (void)daemon.ScanOnce();
    auto w1 = std::chrono::steady_clock::now();
    size_t after = host.pool().used_frames();
    uint64_t freed = before - after;
    if (percent == 0) {
      baseline_freed = freed;
    }
    uint64_t content = freed > baseline_freed ? freed - baseline_freed : 0;
    Row("%9u %% %14llu %14llu %16llu %11.2f MiB %12.2f %13llu", percent,
        static_cast<unsigned long long>(freed),
        static_cast<unsigned long long>(baseline_freed),
        static_cast<unsigned long long>(content),
        static_cast<double>(content * isa::kPageSize) / (1 << 20),
        std::chrono::duration<double, std::milli>(w1 - w0).count(),
        static_cast<unsigned long long>(daemon.stats().pages_hashed));
    if (percent == 100) {
      // A second pass over the merged rack hashes each shared frame once.
      const ksm::KsmStats first = daemon.stats();
      w0 = std::chrono::steady_clock::now();
      (void)daemon.ScanOnce();
      w1 = std::chrono::steady_clock::now();
      rescan_ms = std::chrono::duration<double, std::milli>(w1 - w0).count();
      rescan_scanned = daemon.stats().pages_scanned - first.pages_scanned;
      rescan_hashed = daemon.stats().pages_hashed - first.pages_hashed;
    }
  }
  Row("expected content-merges at p%%: 3 x 256 x p/100 (3 duplicate copies of the");
  Row("shared prefix collapse onto one frame): 0 / 192 / 384 / 576 / 768");
  Row("rescan of the merged 100%% rack: %.2f ms, %llu pages hashed of %llu scanned", rescan_ms,
      static_cast<unsigned long long>(rescan_hashed),
      static_cast<unsigned long long>(rescan_scanned));

  Section("F6b: COW-break tax — guest writes into merged pages");
  {
    core::HostConfig hc;
    hc.ram_bytes = 128u << 20;
    core::Host host(hc);
    // Two identical VMs; after merging, one rewrites its region.
    std::string fill = guest::PatternFillProgram(128, 128, 5);
    core::VmConfig cfg_a;
    cfg_a.name = "a";
    cfg_a.ram_bytes = 8u << 20;
    core::Vm* a = MustBoot(host, cfg_a, fill);
    core::VmConfig cfg_b;
    cfg_b.name = "b";
    cfg_b.ram_bytes = 8u << 20;
    core::Vm* b = MustBoot(host, cfg_b, fill);
    host.RunFor(300 * kSimTicksPerMs);

    ksm::KsmDaemon daemon(&host.pool());
    daemon.AddClient(&a->memory());
    daemon.AddClient(&b->memory());
    uint64_t merged = daemon.ScanOnce();

    // Host-side writes model the guest's post-merge write burst.
    uint64_t broken = 0;
    size_t used_before = host.pool().used_frames();
    for (uint32_t gpn = 0x100; gpn < 0x100 + 128; ++gpn) {
      if (a->memory().IsShared(gpn)) {
        (void)a->memory().WriteU32(gpn << 12, 0xD1157), ++broken;
      }
    }
    Row("merged %llu pages; rewriting one VM's region broke %llu shares "
        "(frames back in use: %zu)",
        static_cast<unsigned long long>(merged), static_cast<unsigned long long>(broken),
        host.pool().used_frames() - used_before);
  }

  Section("F6c: ballooning — reclaim across a 4-VM rack");
  {
    core::HostConfig hc;
    hc.ram_bytes = 128u << 20;
    core::Host host(hc);
    std::string driver = guest::BalloonDriverProgram(512, 512, 100000);
    for (int i = 0; i < 4; ++i) {
      core::VmConfig cfg;
      cfg.name = "vm" + std::to_string(i);
      MustBoot(host, cfg, driver);
    }
    balloon::BalloonController controller(&host);

    Row("%-16s %12s %12s %14s", "demand(pages)", "achieved", "free-before", "free-after");
    for (uint32_t demand : {100u, 400u, 1200u}) {
      size_t free_before = host.pool().free_frames();
      auto plan = controller.ReclaimPages(demand);
      if (!plan.ok()) {
        Row("%-16u %12s", demand, "rejected (overdraft)");
        continue;
      }
      host.RunFor(400 * kSimTicksPerMs);
      Row("%-16u %12u %12zu %14zu", demand, controller.TotalBallooned(), free_before,
          host.pool().free_frames());
      controller.ReleaseAll();
      host.RunFor(600 * kSimTicksPerMs);
    }
    Row("released: total ballooned now %u", controller.TotalBallooned());
  }
  return 0;
}
