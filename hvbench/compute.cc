// `compute`: one host with 4 pCPUs and no worker threads, running four
// single-vCPU DBT guests — two compute burners, a memory toucher under
// nested paging and a page-table churner under shadow paging. The execution
// engine and the MMU do nearly all the work; there is no snapshot, migrate,
// net or cluster work.

#include <memory>

#include "hvbench/bench.h"

namespace hvbench {

namespace {

constexpr int kSteps = 60;  // closed-loop steps per repetition
constexpr SimTime kStep = kSimTicksPerMs;

struct GuestSpec {
  std::string name;
  std::string source;
  mmu::PagingMode paging;
  uint32_t ram_bytes;
};

}  // namespace

RepResult RunCompute(const Options& options, Tracer& tracer) {
  RepResult rep;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 2);
  guest::MemTouchParams touch;
  // A narrow band: the seed varies the working set, not the amount of work.
  touch.pages = static_cast<uint32_t>(rng.Range(60, 68));
  touch.stride_bytes = 64;
  touch.with_paging = true;
  if (options.perturb) {
    ++touch.pages;
  }
  const std::vector<GuestSpec> specs = {
      {"burn0", guest::ComputeProgram(0), mmu::PagingMode::kNested, 4u << 20},
      {"burn1", guest::ComputeProgram(0), mmu::PagingMode::kNested, 4u << 20},
      {"touch", guest::MemTouchProgram(touch), mmu::PagingMode::kNested, 8u << 20},
      {"ptchurn", guest::PtChurnProgram(1u << 30), mmu::PagingMode::kShadow, 8u << 20},
  };

  // --- Set-up: host, images, VMs. ---
  Stopwatch setup;
  int setup_span = tracer.Open("setup");
  std::unique_ptr<core::Host> host;
  {
    Span span(tracer, "core.AddHost");
    host = std::make_unique<core::Host>(
        core::HostConfig{.name = "compute", .num_pcpus = 4, .worker_threads = 0});
  }
  std::vector<core::Vm*> vms;
  std::vector<uint32_t> progress_addr;
  for (const GuestSpec& spec : specs) {
    Result<assembler::Image> image = BuildImage(tracer, spec.source);
    Result<uint32_t> addr = image.ok() ? guest::ProgressAddress(*image)
                                       : Result<uint32_t>(image.status());
    rep.Check(addr.ok(), "assemble " + spec.name);
    if (!addr.ok()) {
      return rep;
    }
    core::VmConfig config{.name = spec.name, .ram_bytes = spec.ram_bytes};
    config.paging_mode = spec.paging;
    config.engine = cpu::EngineKind::kDbt;
    core::Vm* vm = BootVm(
        tracer, rep, [&](core::VmConfig c) { return host->CreateVm(std::move(c)); },
        std::move(config), *image);
    if (vm == nullptr) {
      return rep;
    }
    vms.push_back(vm);
    progress_addr.push_back(*addr);
  }
  tracer.Close(setup_span);
  rep.setup_s = setup.Seconds();

  // --- Timed region: fixed 1-sim-ms steps. ---
  Region region(tracer, rep, {host.get()}, host->clock());
  int timed_span = tracer.Open("timed");
  for (int i = 0; i < kSteps; ++i) {
    region.Run(kStep, [&](SimTime d) { host->RunFor(d); }, "step");
  }
  tracer.Close(timed_span);

  // --- Output checks and digest. ---
  Span check(tracer, "check");
  Hasher digest;
  for (size_t i = 0; i < vms.size(); ++i) {
    uint32_t progress = ReadProgress(*vms[i], progress_addr[i]);
    rep.Check(progress > 0, vms[i]->name() + " made no progress");
    rep.Check(vms[i]->state() == core::VmState::kRunning, vms[i]->name() + " is not running");
    HashVm(digest, *vms[i]);
    digest.U64(progress);
  }
  digest.U64(host->clock().now());
  rep.digest = digest.value();
  return rep;
}

}  // namespace hvbench
