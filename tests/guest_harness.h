// Shared test scaffolding: assemble guest programs, load them into guest
// memory, and run them on a chosen engine/virtualizer combination.

#ifndef TESTS_GUEST_HARNESS_H_
#define TESTS_GUEST_HARNESS_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/asm/assembler.h"
#include "src/cpu/dbt.h"
#include "src/cpu/exec_core.h"
#include "src/cpu/interpreter.h"
#include "src/mem/frame_pool.h"
#include "src/mem/guest_memory.h"
#include "src/mmu/virtualizer.h"

namespace hyperion::testing {

// A self-contained single-vCPU machine for unit tests (no devices, no
// scheduler). Examples and the full VMM live in src/core; this harness
// exercises the CPU/MMU layers in isolation.
class TestMachine {
 public:
  // `dbt_options` passes the DBT knob set: block-cache capacity (tiny
  // caches force the eviction machinery in unit tests), tier-2 threshold.
  explicit TestMachine(uint32_t ram_bytes = 1u << 20,
                       mmu::PagingMode paging = mmu::PagingMode::kNested,
                       cpu::EngineKind engine = cpu::EngineKind::kInterpreter,
                       cpu::VirtMode virt_mode = cpu::VirtMode::kHardwareAssist,
                       const cpu::DbtOptions& dbt_options = {})
      : pool_(2 * (ram_bytes / isa::kPageSize) + 64) {
    auto mem = mem::GuestMemory::Create(&pool_, ram_bytes);
    EXPECT_TRUE(mem.ok()) << mem.status().ToString();
    memory_ = std::move(mem).value();
    virt_ = mmu::MakeVirtualizer(paging, memory_.get());
    engine_ = cpu::MakeEngine(engine, dbt_options);
    ctx_.memory = memory_.get();
    ctx_.virt = virt_.get();
    ctx_.virt_mode = virt_mode;
  }

  // Assembles and loads `source`; sets pc to the image entry point.
  void Load(const std::string& source) {
    auto image = assembler::Assemble(source);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    ASSERT_TRUE(memory_->Write(image->base, image->bytes.data(), image->bytes.size()).ok());
    ctx_.state.pc = image->entry();
    image_ = std::move(image).value();
  }

  // Runs until halt/exit or `max_cycles`; returns the final RunResult.
  cpu::RunResult Run(uint64_t max_cycles = 10'000'000) {
    return engine_->Run(ctx_, max_cycles);
  }

  // Runs and requires a clean HALT.
  cpu::RunResult RunToHalt(uint64_t max_cycles = 10'000'000) {
    cpu::RunResult r = engine_->Run(ctx_, max_cycles);
    EXPECT_EQ(r.reason, cpu::ExitReason::kHalt)
        << "exit=" << static_cast<int>(r.reason) << " pc=0x" << std::hex << ctx_.state.pc
        << " error=" << r.error.ToString();
    return r;
  }

  uint32_t Reg(uint8_t r) const { return ctx_.state.ReadReg(r); }
  uint32_t Word(uint32_t gpa) const {
    auto v = memory_->ReadU32(gpa);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.value_or(0);
  }
  uint32_t Symbol(const std::string& name) const {
    auto a = image_.SymbolAddress(name);
    EXPECT_TRUE(a.ok()) << a.status().ToString();
    return a.value_or(0);
  }

  cpu::VcpuContext& ctx() { return ctx_; }
  mem::GuestMemory& memory() { return *memory_; }
  mem::FramePool& pool() { return pool_; }
  mmu::MemoryVirtualizer& virt() { return *virt_; }
  cpu::ExecutionEngine& engine() { return *engine_; }

 private:
  mem::FramePool pool_;
  std::unique_ptr<mem::GuestMemory> memory_;
  std::unique_ptr<mmu::MemoryVirtualizer> virt_;
  std::unique_ptr<cpu::ExecutionEngine> engine_;
  cpu::VcpuContext ctx_;
  assembler::Image image_;
};

struct MachineParam {
  mmu::PagingMode paging;
  cpu::EngineKind engine;
  cpu::VirtMode virt_mode;
};

inline std::string MachineParamName(
    const ::testing::TestParamInfo<MachineParam>& info) {
  std::string name;
  name += info.param.paging == mmu::PagingMode::kShadow ? "Shadow" : "Nested";
  name += info.param.engine == cpu::EngineKind::kInterpreter ? "Interp" : "Dbt";
  name += info.param.virt_mode == cpu::VirtMode::kTrapAndEmulate ? "TE" : "HW";
  return name;
}

inline std::vector<MachineParam> AllMachineParams() {
  std::vector<MachineParam> params;
  for (auto paging : {mmu::PagingMode::kShadow, mmu::PagingMode::kNested}) {
    for (auto engine : {cpu::EngineKind::kInterpreter, cpu::EngineKind::kDbt}) {
      for (auto mode : {cpu::VirtMode::kHardwareAssist, cpu::VirtMode::kTrapAndEmulate}) {
        params.push_back({paging, engine, mode});
      }
    }
  }
  return params;
}

}  // namespace hyperion::testing

#endif  // TESTS_GUEST_HARNESS_H_
