// Shared helpers for the experiment harnesses in bench/.
//
// Each bench binary regenerates one table/figure of the reconstructed
// evaluation (see DESIGN.md §3): it sweeps parameters, runs deterministic
// simulations, and prints aligned rows.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/host.h"
#include "src/cpu/dbt.h"
#include "src/cpu/exec_core.h"
#include "src/cpu/interpreter.h"
#include "src/guest/programs.h"

namespace hyperion::bench {

// Prints a separator + title for one experiment section.
inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// printf-style row helper (keeps call sites compact).
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

// Boots `source` into a fresh VM; crashes the process on failure (benches
// run known-good programs).
inline core::Vm* MustBoot(core::Host& host, core::VmConfig config, const std::string& source) {
  auto image = guest::Build(source);
  if (!image.ok()) {
    std::fprintf(stderr, "bench guest failed to assemble: %s\n",
                 image.status().ToString().c_str());
    std::abort();
  }
  auto vm = host.CreateVm(std::move(config));
  if (!vm.ok()) {
    std::fprintf(stderr, "CreateVm: %s\n", vm.status().ToString().c_str());
    std::abort();
  }
  if (!(*vm)->LoadImage(*image).ok()) {
    std::abort();
  }
  return *vm;
}

// Reads the guest's progress counter.
inline uint32_t Progress(core::Vm* vm, const std::string& source) {
  auto image = guest::Build(source);
  auto addr = guest::ProgressAddress(*image);
  if (!addr.ok()) {
    return 0;
  }
  return vm->memory().ReadU32(*addr).value_or(0);
}

// ---------------------------------------------------------------------------
// MiniMachine: a single-vCPU CPU/MMU harness without a Host (for paging and
// engine experiments that do not need devices or scheduling).
// ---------------------------------------------------------------------------

class MiniMachine {
 public:
  // `dbt_options` carries the DBT knob set: cache capacity (for
  // capacity-pressure experiments) and tier-2 enable/threshold.
  MiniMachine(uint32_t ram_bytes, mmu::PagingMode paging, cpu::EngineKind engine,
              cpu::VirtMode virt_mode = cpu::VirtMode::kHardwareAssist,
              const cpu::DbtOptions& dbt_options = {})
      : pool_(2 * (ram_bytes / isa::kPageSize) + 64) {
    auto mem = mem::GuestMemory::Create(&pool_, ram_bytes);
    memory_ = std::move(mem).value();
    virt_ = mmu::MakeVirtualizer(paging, memory_.get());
    engine_ = cpu::MakeEngine(engine, dbt_options);
    ctx_.memory = memory_.get();
    ctx_.virt = virt_.get();
    ctx_.virt_mode = virt_mode;
  }

  bool Load(const std::string& source) {
    auto image = assembler::Assemble(source);
    if (!image.ok()) {
      std::fprintf(stderr, "assemble: %s\n", image.status().ToString().c_str());
      return false;
    }
    if (!memory_->Write(image->base, image->bytes.data(), image->bytes.size()).ok()) {
      return false;
    }
    ctx_.state.pc = image->entry();
    entry_ = image->entry();
    return true;
  }

  // Rewinds the vCPU to the image entry with fresh architectural state while
  // keeping memory, TLB and translation-cache contents (hot-phase reruns).
  void ResetGuest() {
    ctx_.state = cpu::CpuState{};
    ctx_.state.pc = entry_;
  }

  cpu::RunResult RunToHalt(uint64_t max_cycles = 100'000'000'000ull) {
    cpu::RunResult last;
    uint64_t used = 0;
    while (used < max_cycles) {
      ctx_.slice_start = used;
      last = engine_->Run(ctx_, max_cycles - used);
      used += last.cycles;
      if (last.reason != cpu::ExitReason::kBudget &&
          last.reason != cpu::ExitReason::kHypercall) {
        break;
      }
    }
    return last;
  }

  cpu::VcpuContext& ctx() { return ctx_; }
  mmu::MemoryVirtualizer& virt() { return *virt_; }
  cpu::ExecutionEngine& engine() { return *engine_; }

 private:
  mem::FramePool pool_;
  std::unique_ptr<mem::GuestMemory> memory_;
  std::unique_ptr<mmu::MemoryVirtualizer> virt_;
  std::unique_ptr<cpu::ExecutionEngine> engine_;
  cpu::VcpuContext ctx_;
  uint32_t entry_ = 0;
};

}  // namespace hyperion::bench

#endif  // BENCH_BENCH_UTIL_H_
