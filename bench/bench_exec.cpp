// Experiments F2 + F10 — CPU execution engines: interpreter vs. dynamic
// binary translation, measured in host-side guest-MIPS with google-benchmark.
//
// Expected shape: once blocks are hot, the DBT engine retires guest
// instructions several times faster than the per-instruction decoder; the
// translation-cache stats show one translation amortized over thousands of
// executions. The cold variants include boot + translation of every block;
// the hot variants rerun the same image on a warmed machine (translation
// cache, superblocks and fast-translation array already populated). The SMC
// churn variant mixes a hot kernel with per-sweep self-modifying code and a
// helper working set larger than the translation cache, punishing full-flush
// eviction policies.
//
// The F10 tier breakdown (DESIGN.md §12): BM_DbtTier1* runs with the tier-2
// optimizer disabled, BM_Dbt*/BM_DbtHot run the full two-tier pipeline
// (tier-2 promotes at the default threshold), and BM_DbtRestorePrewarmed
// boots a fresh machine from a serialized translation cache — the
// linked-clone path, where the first pass must already run translated.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

using namespace hyperion;
using namespace hyperion::bench;

namespace {

void ReportEngineCounters(benchmark::State& state, const cpu::VcpuStats& stats,
                          uint64_t instructions, cpu::EngineKind kind) {
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
  if (kind != cpu::EngineKind::kDbt) {
    return;
  }
  uint64_t executions = stats.block_executions + stats.trace_executions;
  if (stats.blocks_translated > 0) {
    state.counters["execs_per_translation"] =
        static_cast<double>(executions) / static_cast<double>(stats.blocks_translated);
  }
  state.counters["chain_hits"] = static_cast<double>(stats.chain_hits);
  state.counters["traces_formed"] = static_cast<double>(stats.traces_formed);
  state.counters["trace_execs"] = static_cast<double>(stats.trace_executions);
  state.counters["evict_surgical"] = static_cast<double>(stats.evictions_surgical);
  state.counters["evict_full"] = static_cast<double>(stats.evictions_full);
  state.counters["fastpath_hits"] = static_cast<double>(stats.mem_fastpath_hits);
  state.counters["t2_promotions"] = static_cast<double>(stats.tier2_promotions);
  state.counters["t2_execs"] = static_cast<double>(stats.tier2_executions);
  state.counters["t2_deopts"] = static_cast<double>(stats.deopts);
  state.counters["guards_elided"] = static_cast<double>(stats.guards_elided);
  state.counters["persist_hits"] = static_cast<double>(stats.persist_hits);
}

// Cold phase: every benchmark iteration boots a fresh machine, so the cost
// includes translating every block once.
void RunEngine(benchmark::State& state, cpu::EngineKind kind,
               cpu::DbtOptions dbt = {}) {
  const uint32_t iters = static_cast<uint32_t>(state.range(0));
  std::string prog = guest::ComputeProgram(iters);

  uint64_t instructions = 0;
  cpu::VcpuStats stats;
  for (auto _ : state) {
    MiniMachine m(1u << 20, mmu::PagingMode::kNested, kind,
                  cpu::VirtMode::kHardwareAssist, dbt);
    if (!m.Load(prog)) {
      state.SkipWithError("load failed");
      return;
    }
    auto r = m.RunToHalt();
    if (r.reason != cpu::ExitReason::kHalt) {
      state.SkipWithError("guest did not halt");
      return;
    }
    instructions += m.ctx().stats.instructions;
    stats = m.ctx().stats;
  }
  ReportEngineCounters(state, stats, instructions, kind);
}

void BM_Interpreter(benchmark::State& state) {
  RunEngine(state, cpu::EngineKind::kInterpreter);
}

void BM_Dbt(benchmark::State& state) { RunEngine(state, cpu::EngineKind::kDbt); }

cpu::DbtOptions Tier1Only() {
  cpu::DbtOptions o;
  o.enable_tier2 = false;
  return o;
}

void BM_DbtTier1(benchmark::State& state) {
  RunEngine(state, cpu::EngineKind::kDbt, Tier1Only());
}

// Hot phase: one machine, warmed once; each iteration rewinds architectural
// state and reruns the image against the warm translation cache.
void RunEngineHot(benchmark::State& state, cpu::EngineKind kind,
                  cpu::DbtOptions dbt = {}) {
  const uint32_t iters = static_cast<uint32_t>(state.range(0));
  std::string prog = guest::ComputeProgram(iters);

  MiniMachine m(1u << 20, mmu::PagingMode::kNested, kind,
                cpu::VirtMode::kHardwareAssist, dbt);
  if (!m.Load(prog)) {
    state.SkipWithError("load failed");
    return;
  }
  if (m.RunToHalt().reason != cpu::ExitReason::kHalt) {
    state.SkipWithError("warmup did not halt");
    return;
  }
  uint64_t start_instructions = m.ctx().stats.instructions;
  cpu::VcpuStats start_stats = m.ctx().stats;
  for (auto _ : state) {
    m.ResetGuest();
    auto r = m.RunToHalt();
    if (r.reason != cpu::ExitReason::kHalt) {
      state.SkipWithError("guest did not halt");
      return;
    }
  }
  cpu::VcpuStats stats = m.ctx().stats;
  stats.blocks_translated -= start_stats.blocks_translated;
  stats.block_executions -= start_stats.block_executions;
  stats.trace_executions -= start_stats.trace_executions;
  stats.chain_hits -= start_stats.chain_hits;
  stats.traces_formed -= start_stats.traces_formed;
  stats.evictions_surgical -= start_stats.evictions_surgical;
  stats.evictions_full -= start_stats.evictions_full;
  stats.mem_fastpath_hits -= start_stats.mem_fastpath_hits;
  stats.tier2_promotions -= start_stats.tier2_promotions;
  stats.tier2_executions -= start_stats.tier2_executions;
  stats.deopts -= start_stats.deopts;
  stats.guards_elided -= start_stats.guards_elided;
  stats.persist_hits -= start_stats.persist_hits;
  ReportEngineCounters(state, stats, m.ctx().stats.instructions - start_instructions, kind);
}

void BM_InterpreterHot(benchmark::State& state) {
  RunEngineHot(state, cpu::EngineKind::kInterpreter);
}

void BM_DbtHot(benchmark::State& state) { RunEngineHot(state, cpu::EngineKind::kDbt); }

void BM_DbtTier1Hot(benchmark::State& state) {
  RunEngineHot(state, cpu::EngineKind::kDbt, Tier1Only());
}

// Restore-prewarmed: warm one machine, serialize its translation cache, then
// boot fresh machines that install the blob before their first instruction —
// the linked-clone provisioning path. Unlike BM_Dbt (cold), no block is ever
// translated inside the timed loop; unlike BM_DbtHot, every iteration pays
// the install (page probes, block decode, tier-2 recompile) as a clone would.
void BM_DbtRestorePrewarmed(benchmark::State& state) {
  const uint32_t iters = static_cast<uint32_t>(state.range(0));
  std::string prog = guest::ComputeProgram(iters);

  MiniMachine warm(1u << 20, mmu::PagingMode::kNested, cpu::EngineKind::kDbt);
  if (!warm.Load(prog) || warm.RunToHalt().reason != cpu::ExitReason::kHalt) {
    state.SkipWithError("warmup failed");
    return;
  }
  std::vector<uint8_t> blob = warm.engine().SerializeTranslations();
  if (blob.empty()) {
    state.SkipWithError("no translations to persist");
    return;
  }

  uint64_t instructions = 0;
  cpu::VcpuStats stats;
  for (auto _ : state) {
    MiniMachine m(1u << 20, mmu::PagingMode::kNested, cpu::EngineKind::kDbt);
    if (!m.Load(prog)) {
      state.SkipWithError("load failed");
      return;
    }
    m.engine().InstallTranslations(m.ctx(), blob);
    auto r = m.RunToHalt();
    if (r.reason != cpu::ExitReason::kHalt) {
      state.SkipWithError("guest did not halt");
      return;
    }
    if (m.ctx().stats.blocks_translated != 0) {
      state.SkipWithError("restore-prewarmed run translated cold blocks");
      return;
    }
    instructions += m.ctx().stats.instructions;
    stats = m.ctx().stats;
  }
  ReportEngineCounters(state, stats, instructions, cpu::EngineKind::kDbt);
}

// Memory-heavy variant: translations interleave with TLB lookups.
void RunEngineMem(benchmark::State& state, cpu::EngineKind kind) {
  guest::MemTouchParams p;
  p.pages = 64;
  p.stride_bytes = 64;
  p.iterations = static_cast<uint32_t>(state.range(0));
  std::string prog = guest::MemTouchProgram(p);

  uint64_t instructions = 0;
  for (auto _ : state) {
    MiniMachine m(8u << 20, mmu::PagingMode::kNested, kind);
    if (!m.Load(prog)) {
      state.SkipWithError("load failed");
      return;
    }
    m.RunToHalt();
    instructions += m.ctx().stats.instructions;
  }
  state.counters["guest_mips"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
}

void BM_InterpreterMemTouch(benchmark::State& state) {
  RunEngineMem(state, cpu::EngineKind::kInterpreter);
}

void BM_DbtMemTouch(benchmark::State& state) { RunEngineMem(state, cpu::EngineKind::kDbt); }

// Code churn: hot kernel + a rotating 8-wide window over 64 page-aligned
// helpers (one cold block each) + one helper rewritten per sweep, on a
// deliberately small 48-block translation cache. Capacity pressure builds
// across sweeps; a full-flush policy discards the hot kernel along with the
// cold helpers, a surgical policy retranslates only the helpers.
void RunEngineSmc(benchmark::State& state, cpu::EngineKind kind) {
  guest::SmcChurnParams p;
  p.funcs = 64;
  p.kernel_iters = 200;
  p.sweeps = static_cast<uint32_t>(state.range(0));
  std::string prog = guest::SmcChurnProgram(p);

  uint64_t instructions = 0;
  cpu::VcpuStats stats;
  for (auto _ : state) {
    MiniMachine m(1u << 20, mmu::PagingMode::kNested, kind,
                  cpu::VirtMode::kHardwareAssist,
                  cpu::DbtOptions{.max_blocks = 48});
    if (!m.Load(prog)) {
      state.SkipWithError("load failed");
      return;
    }
    auto r = m.RunToHalt();
    if (r.reason != cpu::ExitReason::kHalt) {
      state.SkipWithError("guest did not halt");
      return;
    }
    instructions += m.ctx().stats.instructions;
    stats = m.ctx().stats;
  }
  ReportEngineCounters(state, stats, instructions, kind);
}

void BM_InterpreterSmcChurn(benchmark::State& state) {
  RunEngineSmc(state, cpu::EngineKind::kInterpreter);
}

void BM_DbtSmcChurn(benchmark::State& state) { RunEngineSmc(state, cpu::EngineKind::kDbt); }

}  // namespace

BENCHMARK(BM_Interpreter)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dbt)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DbtTier1)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterpreterHot)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DbtHot)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DbtTier1Hot)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DbtRestorePrewarmed)->Arg(20000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterpreterMemTouch)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DbtMemTouch)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InterpreterSmcChurn)->Arg(200)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DbtSmcChurn)->Arg(200)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
