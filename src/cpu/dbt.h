// Dynamic binary translation engine.
//
// Guest code is translated into cached basic blocks of pre-decoded
// instructions keyed by (pc, ptbr, paging). Hot paths skip per-instruction
// fetch and decode entirely, the classic DBT win. The cache is kept coherent
// with guest stores (self-modifying code), sfence, and paging changes.
//
// Two execution tiers sit on top of the block cache (DESIGN.md §4, §12):
// tier-1 superblock traces stitched from hot loops, and a tier-2 optimizer
// (src/cpu/ir/) that lifts traces whose execution count crosses
// `tier2_threshold` into an optimized micro-op form. The engine can also
// record which code it has translated and re-derive those translations from
// guest memory after a snapshot restore
// (ExecutionEngine::SerializeTranslations / InstallTranslations), so cloned
// VMs boot with a pre-warmed code cache.

#ifndef SRC_CPU_DBT_H_
#define SRC_CPU_DBT_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/cpu/context.h"

namespace hyperion::cpu {

struct DbtOptions {
  size_t max_blocks = 4096;
  bool enable_tier2 = true;
  // Trace passes before a superblock is promoted to tier-2. Low thresholds
  // are for tests (force promotion on the first few passes); the default
  // amortizes compile cost over genuinely hot loops only.
  uint32_t tier2_threshold = 50;
};

enum class EngineKind : uint8_t { kInterpreter = 0, kDbt = 1 };

// `options` applies to kDbt only.
std::unique_ptr<ExecutionEngine> MakeEngine(EngineKind kind, const DbtOptions& options = {});

}  // namespace hyperion::cpu

#endif  // SRC_CPU_DBT_H_
