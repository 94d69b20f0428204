// Dynamic binary translation engine.
//
// Four cooperating fast-path mechanisms sit on top of the basic cached-block
// translator (see DESIGN.md §4):
//
//  * Block chaining — each block carries direct successor links patched on
//    first execution, so steady-state control flow jumps block→block without
//    a hash lookup. Links are validated against `chain_gen_`, a monotonically
//    bumped generation: any block erasure, SFENCE, ptbr switch or interrupt
//    delivery bumps it, which cuts every chain at once. Correctness never
//    depends on eager unlinking — a stale link is simply never followed, and
//    block storage is node-stable except for erasure, which always bumps.
//  * Hot-trace superblocks — a per-block execution counter promotes hot loop
//    heads (threshold-crossing backward-transfer targets, NET style) into
//    straight-line traces splicing up to kMaxTraceBlocks chained blocks. A
//    per-instruction pc guard makes any divergence (trap, off-trace branch)
//    fall back to the constituent blocks; pending SMC invalidations are
//    honored at block seams, exactly where block-by-block dispatch would
//    apply them.
//  * Lazy mapping epochs — SFENCE / paging toggles bump `map_gen_` instead of
//    flushing: a block from a stale epoch is revalidated by re-translating
//    its first and last instruction addresses and comparing code pages, so
//    an sfence that didn't move the hot loop costs two translations, not a
//    whole-cache retranslation storm. FlushCodeCache() (image load, snapshot
//    restore — the code *bytes* changed) remains an eager full flush.
//  * Surgical eviction — at capacity a clock sweep over a victim ring evicts
//    cold or stale-epoch blocks one at a time; hot blocks survive on their
//    reference bit. The full flush only remains as a pathological fallback.
//
// As before, the guest's architectural contract for self-modified code is
// SFENCE-like: stores into code pages invalidate translations at the next
// block (or trace-seam) boundary; a store into the *currently executing*
// block may run a few stale instructions (documented in DESIGN.md).

#include "src/cpu/dbt.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cpu/exec_core.h"
#include "src/cpu/interpreter.h"
#include "src/cpu/ir/tier2.h"
#include "src/cpu/ir/tier2_exec.h"
#include "src/util/byte_stream.h"
#include "src/util/crc32.h"

namespace hyperion::cpu {

namespace {

using isa::Opcode;

// An instruction that may change control flow, privileged state, or the
// validity of cached translations ends its block. Scratch-CSR accesses are
// the exception among CSR ops: they cannot toggle paging, move ptbr, or
// change status/timecmp, so the code that follows them in the same block is
// fetched under the same translation regime — they may sit mid-block (a
// user-mode access still traps precisely there, like a faulting load).
bool EndsBlock(const isa::Instruction& in) {
  switch (in.opcode) {
    case Opcode::kJal:
    case Opcode::kJalr:
    case Opcode::kBranch:
    case Opcode::kEcall:
    case Opcode::kEbreak:
    case Opcode::kSret:
    case Opcode::kWfi:
    case Opcode::kHcall:
    case Opcode::kSfence:
    case Opcode::kHalt:
    case Opcode::kIllegal:
      return true;
    case Opcode::kCsrrw:
    case Opcode::kCsrrs:
    case Opcode::kCsrrc:
      return in.imm != static_cast<int32_t>(isa::Csr::kScratch);
    default:
      return false;
  }
}

class DbtEngine final : public ExecutionEngine {
 public:
  explicit DbtEngine(const DbtOptions& options)
      : options_(options), max_blocks_(options.max_blocks) {}

  std::string_view name() const override { return "dbt"; }

  RunResult Run(VcpuContext& ctx, uint64_t max_cycles) override {
    ExecCore core(ctx, this);
    CpuState& s = ctx.state;

    Block* prev = nullptr;  // last executed block, for chain patching
    uint64_t prev_gen = 0;  // chain_gen_ at the time `prev` was recorded

    while (!core.exited() && core.cycles() < max_cycles) {
      if (have_pending_) {
        ApplyPendingInvalidations(ctx);
      }
      core.CheckTimer();
      if (core.DeliverInterruptIfPending()) {
        // Asynchronous control transfer: cut every chain. Dispatch after the
        // handler repatches links under the new generation.
        ++chain_gen_;
        if (core.exited()) {
          break;
        }
      }
      if (prev != nullptr && prev_gen != chain_gen_) {
        prev = nullptr;  // may dangle after an erasure; never dereference
      }

      // Dispatch: follow a direct chain link when one is valid, otherwise
      // fall back to the keyed lookup (revalidating stale-epoch blocks).
      Block* block = nullptr;
      if (prev != nullptr) {
        block = FollowLink(*prev, s.pc);
      }
      if (block != nullptr) {
        ++ctx.stats.chain_hits;
      } else {
        uint64_t key = Key(s.pc, s.ptbr, s.paging_enabled());
        block = FindValid(key, core, ctx);
        if (block == nullptr) {
          block = TranslateAndInsert(core, ctx, key);
        }
        if (block == nullptr) {
          // First instruction is unfetchable (fault) or an MMIO/absent page:
          // let the faithful single-step path produce the trap or exit.
          AbortRecording();
          SingleStep(core, ctx);
          prev = nullptr;
          continue;
        }
        if (prev != nullptr && prev_gen == chain_gen_) {
          PatchLink(*prev, block->start_va, block);
        }
      }

      // Hot-trace state machine (NET: record the next executing tail once a
      // backward-transfer target crosses the heat threshold).
      if (recording_) {
        if (recording_gen_ != chain_gen_) {
          AbortRecording();  // an invalidation voided the recorded pointers
        } else if (block == trace_head_) {
          FormTrace(core, ctx);  // loop closed
        } else if (block->trace != nullptr || !Traceable(*block) ||
                   trace_blocks_.size() >= kMaxTraceBlocks) {
          AbortRecording();
        } else {
          trace_blocks_.push_back(block);
        }
      }
      if (!recording_ && block->trace == nullptr && prev != nullptr &&
          block->start_va <= prev->start_va && ++block->heat >= kHotThreshold &&
          Traceable(*block)) {
        recording_ = true;
        recording_gen_ = chain_gen_;
        trace_head_ = block;
        trace_blocks_.clear();
        trace_blocks_.push_back(block);
      }

      // Execute: the tier-2 unit when promoted, else the superblock when
      // present and current-epoch, else the block itself.
      if (block->trace != nullptr) {
        Trace& tr = *block->trace;
        if (tr.map_gen != map_gen_) {
          // Lazy epoch invalidation. A tier-2 unit carries its guard set
          // (one probe per code page), so an sfence that didn't move the
          // hot loop revalidates in a few translations instead of
          // retranslating and re-optimizing from scratch.
          if (tr.tier2 != nullptr && RevalidateUnit(core, ctx, *tr.tier2)) {
            tr.map_gen = map_gen_;
            tr.tier2->map_gen = map_gen_;
          } else {
            KillTrace(*block);
          }
        } else if (options_.enable_tier2 && tr.tier2 == nullptr &&
                   !tr.tier2_failed && tr.execs >= options_.tier2_threshold) {
          PromoteToTier2(core, ctx, *block);
        }
      }
      if (block->trace != nullptr) {
        if (block->trace->tier2 != nullptr) {
          RunTier2(core, ctx, *block, max_cycles);
        } else {
          RunTrace(core, ctx, *block, max_cycles);
        }
        prev = nullptr;  // the exit block is not known
        continue;
      }
      ++ctx.stats.block_executions;
      block->hot = true;
      uint32_t expect_pc = block->start_va;
      for (const isa::Instruction& in : block->instrs) {
        if (s.pc != expect_pc) {
          break;  // a trap inside the block redirected control
        }
        if (!core.Execute(in)) {
          break;  // exit latched
        }
        expect_pc += 4;
      }
      // The pointer stays valid: nothing executed above erases blocks (SMC
      // and flushes only queue pending work), and any later erasure bumps
      // chain_gen_, which invalidates `prev` before the next dereference.
      prev = block;
      prev_gen = chain_gen_;
    }
    return core.Finish();
  }

  void InvalidateCodePage(uint32_t gpn) override {
    if (code_pages_.count(gpn)) {
      pending_page_invalidations_.push_back(gpn);
      have_pending_ = true;
    }
  }

  void FlushCodeCache() override {
    // Content change (image load, snapshot restore): cached bytes are stale.
    pending_flush_ = true;
    have_pending_ = true;
  }

  void InvalidateMappings() override {
    // SFENCE / paging toggle: bytes unchanged, va→pa mapping suspect. Blocks
    // revalidate lazily against the new epoch; traces are dropped on their
    // next dispatch; chains are cut.
    ++map_gen_;
    ++chain_gen_;
  }

  void OnAddressSpaceSwitch() override {
    // Blocks are keyed by (va, ptbr, paging) and stay valid per root; only
    // cross-block chains assume a stable address space.
    ++chain_gen_;
  }

  // Emits what to translate, not the translation. Per cached block: its key
  // (va, ptbr, paging), heat and instruction count; for a head holding a
  // tier-2 unit, also the trace's pass count and the start va of each block
  // the trace splices. Install re-derives every instruction and micro-op
  // from the restored guest memory, so a blob cannot make a guest run code
  // its memory does not hold. Tier-1-only traces are not persisted — with
  // heat restored they re-form in one recorded loop pass at zero
  // translation cost. Blocks are sorted by key so identical caches
  // serialize to identical bytes.
  std::vector<uint8_t> SerializeTranslations() const override {
    ByteWriter w;
    w.WriteU32(kPersistMagic);
    w.WriteU32(kPersistVersion);
    std::vector<const Block*> ordered;
    ordered.reserve(blocks_.size());
    for (const auto& [key, b] : blocks_) {
      ordered.push_back(&b);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Block* a, const Block* b) { return a->key < b->key; });
    w.WriteU32(static_cast<uint32_t>(ordered.size()));
    for (const Block* bp : ordered) {
      const Block& b = *bp;
      w.WriteU64(b.key);
      w.WriteU32(b.heat);
      w.WriteU8(static_cast<uint8_t>(b.instrs.size()));
      std::vector<uint32_t> starts;
      if (b.trace != nullptr && b.trace->tier2 != nullptr) {
        starts = BlockStarts(*b.trace);
      }
      w.WriteU8(static_cast<uint8_t>(starts.size()));  // 0: no tier-2 unit
      if (!starts.empty()) {
        w.WriteU64(b.trace->execs);
        for (uint32_t va : starts) {
          w.WriteU32(va);
        }
      }
    }
    uint32_t crc = Crc32(w.buffer().data(), w.size());
    w.WriteU32(crc);
    return w.TakeBuffer();
  }

  // Replaces the caches with the translations a blob names, re-deriving
  // each from the *restored* guest memory under its key's address space: a
  // block installs only if its code still decodes to the recorded length,
  // and a tier-2 head's trace is rebuilt from its blocks' code and
  // recompiled. Anything that fails — trailer CRC, version, a torn record,
  // code that no longer decodes the same — is counted in persist_misses and
  // degrades to cold translation. Install is host-side provisioning work
  // and charges no guest cycles, so a restored VM's timeline is identical
  // to one that never snapshotted.
  void InstallTranslations(VcpuContext& ctx, std::span<const uint8_t> blob) override {
    // The restore path replaced guest memory wholesale: start from empty
    // caches and drop queued invalidation work — it described the old
    // contents, and an empty cache has nothing left to invalidate.
    ResetCaches();
    pending_page_invalidations_.clear();
    pending_flush_ = false;
    have_pending_ = false;
    if (blob.empty()) {
      return;  // v1 snapshot or non-DBT source: plain cold start
    }
    uint32_t trailer = 0;
    if (blob.size() < 16) {
      ++ctx.stats.persist_misses;
      return;
    }
    std::memcpy(&trailer, blob.data() + blob.size() - 4, 4);
    if (Crc32(blob.data(), blob.size() - 4) != trailer) {
      ++ctx.stats.persist_misses;
      return;
    }
    ByteReader r(blob.first(blob.size() - 4));
    auto magic = r.ReadU32();
    auto version = r.ReadU32();
    auto count = r.ReadU32();
    if (!count.ok() || *magic != kPersistMagic || *version != kPersistVersion) {
      ++ctx.stats.persist_misses;
      return;
    }
    for (uint32_t n = 0; n < *count; ++n) {
      if (!InstallOneBlock(ctx, r)) {
        // Parse desync: nothing after this point can be trusted.
        ++ctx.stats.persist_misses;
        return;
      }
    }
  }

 private:
  struct Block;

  struct Link {
    uint32_t target_va = 0;
    Block* target = nullptr;
    uint64_t gen = 0;  // valid only while gen == chain_gen_
  };

  // A run of trace instructions needing a single pc guard: a chunk starts
  // wherever pc is not statically known — at a block entry or right after an
  // instruction that may trap or redirect. Inside a chunk only straight-line
  // ALU instructions precede each step, so pc provably advances by 4 and the
  // per-instruction guard is elided. `seam` marks former block entry points,
  // where pending SMC invalidations force an exit (equivalent to
  // block-by-block dispatch). `va` is the guard: the pc the chunk's first
  // instruction must execute at.
  using Chunk = ir::Tier2Input::Piece;

  // A superblock: the concatenated instructions of a hot loop's blocks.
  // Once `execs` crosses the tier-up threshold the trace is lifted into an
  // optimized tier-2 unit (src/cpu/ir/); the unit shares the trace's page
  // registrations, so SMC/sfence invalidation kills both at once. `code`
  // (head va, instructions, chunks) is exactly what the compiler takes.
  struct Trace {
    ir::Tier2Input code;
    uint64_t map_gen = 0;
    uint64_t execs = 0;        // full passes, for tier-2 promotion
    bool tier2_failed = false;  // compile refused; don't retry every pass
    std::vector<uint32_t> gpns;
    std::unique_ptr<ir::Tier2Unit> tier2;
  };

  // Instructions that can neither trap nor redirect control: pc advances by
  // exactly 4, unconditionally (ALU never faults; div-by-zero has a defined
  // result on HV32).
  static bool StraightLine(const isa::Instruction& in) {
    switch (in.opcode) {
      case Opcode::kOp:
      case Opcode::kOpImm:
      case Opcode::kLui:
      case Opcode::kAuipc:
        return true;
      default:
        return false;
    }
  }

  struct Block {
    uint32_t start_va = 0;
    uint64_t key = 0;
    uint64_t map_gen = 0;  // epoch the translation was (re)validated in
    uint32_t heat = 0;     // backward-transfer arrivals (trace promotion)
    bool hot = false;      // clock reference bit
    std::vector<isa::Instruction> instrs;
    std::vector<uint32_t> gpns;  // guest pages the code bytes came from
    Link links[2];
    uint8_t link_rr = 0;
    std::unique_ptr<Trace> trace;  // present on promoted loop heads
  };

  static constexpr size_t kMaxBlockInstrs = 64;
  static constexpr uint64_t kTranslateCostPerInsn = 6;
  static constexpr uint32_t kHotThreshold = 16;
  static constexpr size_t kMaxTraceBlocks = 8;
  static constexpr size_t kMaxTraceInstrs = 256;
  // Persisted translation cache: "HCT2" little-endian, bumped on any layout
  // change so stale blobs are rejected wholesale instead of misparsed.
  static constexpr uint32_t kPersistMagic = 0x32544348;
  static constexpr uint32_t kPersistVersion = 2;

  // The address space code is fetched under: the live CSRs when
  // translating, the block key's fields when restoring.
  struct Space {
    bool paging = false;
    uint32_t ptbr = 0;
  };
  // (probe va, gpn), one per code page; see ProbePage.
  using PageMap = std::vector<std::pair<uint32_t, uint32_t>>;

  static uint64_t Key(uint32_t va, uint32_t ptbr, bool paging) {
    uint64_t k = va;
    k |= static_cast<uint64_t>(ptbr) << 32;
    // ptbr values are page numbers (< 2^20 in practice); fold paging on top.
    return k ^ (paging ? 0x8000000000000000ull : 0);
  }

  // A block whose terminal cannot touch privileged state or translations may
  // be spliced into a superblock. Scratch-CSR accesses qualify: they cannot
  // move status/timecmp (the values RunTrace and the tier-2 executor hoist)
  // or any translation state, and tier-2 elides the dead ones.
  static bool Traceable(const Block& b) {
    if (b.instrs.empty()) {
      return false;
    }
    const isa::Instruction& last = b.instrs.back();
    switch (last.opcode) {
      case Opcode::kJal:
      case Opcode::kJalr:
      case Opcode::kBranch:
        return true;
      case Opcode::kCsrrw:
      case Opcode::kCsrrs:
      case Opcode::kCsrrc:
        return last.imm == static_cast<int32_t>(isa::Csr::kScratch);
      default:
        return !EndsBlock(last);  // plain fall-through (length-capped block)
    }
  }

  // Decodes instructions starting at `va` without delivering any trap: a
  // fetch problem simply ends the block.
  Block TranslateBlock(ExecCore& core, VcpuContext& ctx, uint32_t va) {
    Block block;
    block.start_va = va;
    DecodeBlock(ctx, block, [&](uint32_t a) { return FetchGpn(&core, ctx, LiveSpace(ctx), a); });
    return block;
  }

  // The block stop rule, shared by translation and restore: decodes from
  // b.start_va up to a block-ending instruction, the length cap, or the
  // first word whose page `gpn_of(va)` cannot supply.
  template <typename GpnOf>
  static void DecodeBlock(VcpuContext& ctx, Block& b, GpnOf&& gpn_of) {
    for (uint32_t va = b.start_va; b.instrs.size() < kMaxBlockInstrs && (va & 3u) == 0;
         va += 4) {
      std::optional<uint32_t> gpn = gpn_of(va);
      if (!gpn) {
        break;
      }
      uint32_t word;
      std::memcpy(&word, ctx.memory->PageData(*gpn) + isa::VaPageOffset(va), 4);
      isa::Instruction in = isa::Decode(word);
      b.instrs.push_back(in);
      if (b.gpns.empty() || b.gpns.back() != *gpn) {
        b.gpns.push_back(*gpn);
      }
      if (EndsBlock(in)) {
        break;
      }
    }
  }

  // Fetch-translates `va` under `space` and returns its guest page, or
  // nullopt when the page is absent, MMIO or faults. `core` pays for the
  // translation when given; restore passes null, since provisioning is host
  // work.
  static std::optional<uint32_t> FetchGpn(ExecCore* core, VcpuContext& ctx, Space space,
                                          uint32_t va) {
    mmu::TranslateOutcome out = ctx.virt->Translate(
        va, mmu::Access::kFetch, ctx.state.priv(), space.paging, space.ptbr);
    if (core != nullptr) {
      core->Charge(out.cost);
    }
    if (out.event != mmu::MemEvent::kNone || out.is_mmio) {
      return std::nullopt;
    }
    return isa::PageNumber(out.gpa);
  }

  static Space LiveSpace(const VcpuContext& ctx) {
    return {ctx.state.paging_enabled(), ctx.state.ptbr};
  }

  void SingleStep(ExecCore& core, VcpuContext& ctx) {
    uint32_t word = 0;
    if (!core.Fetch(ctx.state.pc, &word)) {
      return;  // trap vectored or exit latched
    }
    core.Execute(isa::Decode(word));
  }

  Block* FollowLink(Block& from, uint32_t pc) {
    for (Link& l : from.links) {
      if (l.gen == chain_gen_ && l.target_va == pc) {
        return l.target;
      }
    }
    return nullptr;
  }

  void PatchLink(Block& from, uint32_t target_va, Block* target) {
    for (Link& l : from.links) {
      if (l.gen != chain_gen_ || l.target_va == target_va) {
        l = Link{target_va, target, chain_gen_};
        return;
      }
    }
    from.links[from.link_rr & 1] = Link{target_va, target, chain_gen_};
    ++from.link_rr;
  }

  // Returns the cached block for `key`, revalidating it against the current
  // mapping epoch (two translations) when a SFENCE/paging toggle intervened.
  Block* FindValid(uint64_t key, ExecCore& core, VcpuContext& ctx) {
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      return nullptr;
    }
    Block& b = it->second;
    if (b.map_gen != map_gen_) {
      if (!Revalidate(core, ctx, b)) {
        EraseBlock(key, ctx);
        return nullptr;
      }
      b.map_gen = map_gen_;
    }
    return &b;
  }

  // Re-translates the block's first and last instruction addresses and checks
  // they still fetch from the same guest pages. Since blocks are contiguous
  // in va and span at most two pages, matching endpoints imply the whole
  // translation is unchanged.
  bool Revalidate(ExecCore& core, VcpuContext& ctx, const Block& b) {
    if (b.instrs.empty() || b.gpns.empty()) {
      return false;
    }
    Space live = LiveSpace(ctx);
    if (FetchGpn(&core, ctx, live, b.start_va) != b.gpns.front()) {
      return false;
    }
    if (b.gpns.size() > 1) {
      uint32_t last_va = b.start_va + 4 * static_cast<uint32_t>(b.instrs.size() - 1);
      if (FetchGpn(&core, ctx, live, last_va) != b.gpns.back()) {
        return false;
      }
    }
    return true;
  }

  Block* TranslateAndInsert(ExecCore& core, VcpuContext& ctx, uint64_t key) {
    Block nb = TranslateBlock(core, ctx, ctx.state.pc);
    if (nb.instrs.empty()) {
      return nullptr;
    }
    ++ctx.stats.blocks_translated;
    core.Charge(kTranslateCostPerInsn * nb.instrs.size());
    if (blocks_.size() >= max_blocks_) {
      EvictForCapacity(ctx);
    }
    nb.key = key;
    nb.map_gen = map_gen_;
    auto [it, inserted] = blocks_.emplace(key, std::move(nb));
    Block& b = it->second;
    for (uint32_t gpn : b.gpns) {
      code_pages_.insert(gpn);
      page_blocks_[gpn].push_back(key);
    }
    ring_.push_back(key);
    if (ring_.size() > 4 * max_blocks_ + 64) {
      CompactRing();
    }
    return &b;
  }

  // Splices the recorded blocks into a straight-line superblock owned by the
  // loop head.
  void FormTrace(ExecCore& core, VcpuContext& ctx) {
    auto tr = std::make_unique<Trace>();
    tr->code.head_va = trace_head_->start_va;
    tr->map_gen = map_gen_;
    for (Block* b : trace_blocks_) {
      if (!Splice(*tr, *b)) {
        AbortRecording();
        return;
      }
    }
    core.Charge(2 * tr->code.instrs.size());  // splice cost
    for (uint32_t gpn : tr->gpns) {
      code_pages_.insert(gpn);
      page_traces_[gpn].push_back(trace_head_->key);
    }
    trace_head_->trace = std::move(tr);
    ++ctx.stats.traces_formed;
    AbortRecording();
  }

  // Appends one block to a superblock. A block entry always starts a fresh
  // chunk (a seam after the first block); a chunk then runs on while the
  // instruction before stays straight-line. False when the trace would
  // outgrow kMaxTraceInstrs.
  static bool Splice(Trace& tr, const Block& b) {
    if (tr.code.instrs.size() + b.instrs.size() > kMaxTraceInstrs) {
      return false;
    }
    bool open_chunk = false;
    for (size_t i = 0; i < b.instrs.size(); ++i) {
      uint32_t idx = static_cast<uint32_t>(tr.code.instrs.size());
      if (!open_chunk) {
        Chunk c;
        c.begin = idx;
        c.va = b.start_va + 4 * static_cast<uint32_t>(i);
        c.seam = static_cast<uint8_t>(i == 0 && !tr.code.pieces.empty() ? 1 : 0);
        tr.code.pieces.push_back(c);
      }
      tr.code.instrs.push_back(b.instrs[i]);
      tr.code.pieces.back().end = idx + 1;
      open_chunk = StraightLine(b.instrs[i]);
    }
    for (uint32_t gpn : b.gpns) {
      if (std::find(tr.gpns.begin(), tr.gpns.end(), gpn) == tr.gpns.end()) {
        tr.gpns.push_back(gpn);
      }
    }
    return true;
  }

  // The start va of each block a trace splices: its first chunk and every
  // seam chunk.
  static std::vector<uint32_t> BlockStarts(const Trace& tr) {
    std::vector<uint32_t> starts;
    for (const Chunk& c : tr.code.pieces) {
      if (starts.empty() || c.seam != 0) {
        starts.push_back(c.va);
      }
    }
    return starts;
  }

  // Executes the head's superblock, re-entering it while the loop keeps
  // closing. Every instruction is guarded by its expected pc, so traps and
  // off-trace branches fall back naturally; seams honor pending SMC work and
  // the block-boundary interrupt window, so a trace never widens worst-case
  // interrupt latency beyond one block.
  void RunTrace(ExecCore& core, VcpuContext& ctx, Block& head, uint64_t max_cycles) {
    Trace& tr = *head.trace;
    CpuState& s = ctx.state;
    head.hot = true;
    const isa::Instruction* instrs = tr.code.instrs.data();
    const Chunk* chunks = tr.code.pieces.data();
    const size_t nchunks = tr.code.pieces.size();
    const uint32_t head_va = tr.code.head_va;
    // The only CSR a traceable block may touch is the scratch register
    // (which cannot move status or timecmp), and a trap mid-trace fails the
    // next guard, so status (IE) and timecmp are fixed for the whole stay in
    // this trace — hoist them so the per-seam timer/interrupt tests are two
    // compares.
    const uint64_t timer_due =
        s.timecmp != 0 ? s.timecmp : std::numeric_limits<uint64_t>::max();
    const bool ie = s.interrupts_enabled();
    // A long-lived loop would otherwise never return to dispatch (where
    // tier-up happens): once the pass count will cross the promotion
    // threshold, yield so the next dispatch compiles the tier-2 unit.
    uint64_t pass_budget = std::numeric_limits<uint64_t>::max();
    if (options_.enable_tier2 && tr.tier2 == nullptr && !tr.tier2_failed &&
        tr.execs < options_.tier2_threshold) {
      pass_budget = options_.tier2_threshold - tr.execs;
    }
    uint64_t passes = 0;
    for (;;) {
      ++passes;
      for (size_t ci = 0; ci < nchunks; ++ci) {
        const Chunk& c = chunks[ci];
        if (c.seam != 0) {
          if (have_pending_) {
            // Apply SMC invalidations exactly at a block seam.
            CountTracePasses(ctx, tr, passes);
            return;
          }
          // Mirror the dispatch loop's per-block interrupt window at every
          // seam too: without this a trace pass would widen worst-case
          // delivery latency from one block (<=64 instructions) to a full
          // pass (<=256). Bailing out lets dispatch deliver and cut chains.
          if (core.Now() >= timer_due) {
            core.CheckTimer();
          }
          if (ie && s.ipend != 0) {
            CountTracePasses(ctx, tr, passes);
            return;
          }
        }
        if (s.pc != c.va) {
          // Guard failed: trap or off-trace branch.
          CountTracePasses(ctx, tr, passes);
          return;
        }
        for (uint32_t i = c.begin; i < c.end; ++i) {
          if (!core.Execute(instrs[i])) {
            CountTracePasses(ctx, tr, passes);
            return;  // exit latched
          }
        }
      }
      if (s.pc != head_va || have_pending_ || core.cycles() >= max_cycles ||
          passes >= pass_budget) {
        break;
      }
      // Mirror the dispatch loop's per-block interrupt window.
      if (core.Now() >= timer_due) {
        core.CheckTimer();
      }
      if (ie && s.ipend != 0) {
        break;
      }
    }
    CountTracePasses(ctx, tr, passes);
  }

  // Trace passes feed both the external stat and the tier-up counter.
  static void CountTracePasses(VcpuContext& ctx, Trace& tr, uint64_t passes) {
    ctx.stats.trace_executions += passes;
    tr.execs += passes;
  }

  // --- Tier-2 ---------------------------------------------------------------

  // Lifts the head's superblock into an optimized tier-2 unit. A refusal
  // (unsupported instruction in the trace) is remembered so the hot loop
  // does not pay a failed compile on every dispatch.
  void PromoteToTier2(ExecCore& core, VcpuContext& ctx, Block& head) {
    Trace& tr = *head.trace;
    std::optional<ir::Tier2Unit> unit = ir::Compile(tr.code);
    if (!unit || !FillPageMap(core, ctx, tr, *unit)) {
      tr.tier2_failed = true;
      return;
    }
    core.Charge(3 * unit->ops.size());  // optimizer cost, paid once
    unit->map_gen = map_gen_;
    ++ctx.stats.tier2_promotions;
    ctx.stats.guards_elided += unit->guards_elided;
    ctx.stats.csr_writes_elided += unit->csr_elided;
    ctx.stats.tier2_ops_folded += unit->folds;
    ctx.stats.tier2_ops_dead += unit->dead;
    tr.tier2 = std::make_unique<ir::Tier2Unit>(std::move(*unit));
  }

  // Records the unit's guard set, resolved under the current mapping (the
  // trace is current-epoch when promotion happens). Chunks are contiguous
  // and span at most two pages, so probing each chunk's endpoints visits
  // every code page in first-fetch order.
  bool FillPageMap(ExecCore& core, VcpuContext& ctx, const Trace& tr, ir::Tier2Unit& unit) {
    Space live = LiveSpace(ctx);
    for (const Chunk& c : tr.code.pieces) {
      uint32_t last_va = c.va + 4 * (c.end - c.begin - 1);
      if (!ProbePage(&core, ctx, live, c.va, unit.page_map) ||
          !ProbePage(&core, ctx, live, last_va, unit.page_map)) {
        return false;
      }
    }
    return true;
  }

  // FetchGpn for the code page holding `va`, made only the first time the
  // page is touched and recorded in `pages`. A walk over code through one
  // PageMap thus makes one probe per page, in first-fetch order: a tier-2
  // unit's guard set.
  static std::optional<uint32_t> ProbePage(ExecCore* core, VcpuContext& ctx, Space space,
                                           uint32_t va, PageMap& pages) {
    std::optional<uint32_t> gpn = Lookup(pages, va);
    if (!gpn && (gpn = FetchGpn(core, ctx, space, va))) {
      pages.emplace_back(va, *gpn);
    }
    return gpn;
  }

  static std::optional<uint32_t> Lookup(const PageMap& pages, uint32_t va) {
    for (const auto& [probe_va, gpn] : pages) {
      if (isa::PageNumber(probe_va) == isa::PageNumber(va)) {
        return gpn;
      }
    }
    return std::nullopt;
  }

  // Reruns the unit's guard probes against the current mapping epoch.
  bool RevalidateUnit(ExecCore& core, VcpuContext& ctx, const ir::Tier2Unit& unit) {
    for (const auto& [probe_va, want_gpn] : unit.page_map) {
      if (FetchGpn(&core, ctx, LiveSpace(ctx), probe_va) != want_gpn) {
        return false;
      }
    }
    return true;
  }

  // --- Persistence ----------------------------------------------------------

  // Parses one block record and installs the block if its code re-derives
  // from the restored guest. Returns false only on a parse desync
  // (torn/truncated stream); a block that no longer decodes the same is
  // skipped with a persist_miss and parsing continues.
  bool InstallOneBlock(VcpuContext& ctx, ByteReader& r) {
    auto key = r.ReadU64();
    auto heat = r.ReadU32();
    auto ninstr = r.ReadU8();
    auto nstarts = r.ReadU8();
    if (!key.ok() || !heat.ok() || !ninstr.ok() || !nstarts.ok() || *ninstr == 0 ||
        *ninstr > kMaxBlockInstrs || *nstarts > kMaxTraceBlocks) {
      return false;
    }
    uint64_t execs = 0;
    std::vector<uint32_t> starts(*nstarts);
    if (!starts.empty()) {
      auto e = r.ReadU64();
      if (!e.ok()) {
        return false;
      }
      execs = *e;
      for (uint32_t& va : starts) {
        auto v = r.ReadU32();
        if (!v.ok()) {
          return false;
        }
        va = *v;
      }
    }
    Block b;
    b.key = *key;
    b.start_va = static_cast<uint32_t>(*key);
    b.heat = *heat;
    // The address space comes from the key, not the live CSRs. The block's
    // endpoints are probed first, exactly the pages its code spans; the
    // decode then reads no further page, so a block that would now run on
    // past its last page ends there, as a live translation does at a page
    // it cannot fetch.
    Space space{(b.key >> 63) != 0, static_cast<uint32_t>((b.key >> 32) & 0x7FFFFFFFu)};
    uint32_t last_va = b.start_va + 4 * (*ninstr - 1u);
    PageMap pages;
    if (blocks_.size() < max_blocks_ && blocks_.count(b.key) == 0 && (b.start_va & 3u) == 0 &&
        ProbePage(nullptr, ctx, space, b.start_va, pages) &&
        ProbePage(nullptr, ctx, space, last_va, pages)) {
      DecodeBlock(ctx, b, [&](uint32_t va) { return Lookup(pages, va); });
    }
    if (b.instrs.size() != *ninstr) {
      ++ctx.stats.persist_misses;
      return true;
    }
    if (!starts.empty()) {
      std::unique_ptr<Trace> tr;
      if (options_.enable_tier2 && starts.front() == b.start_va) {
        tr = RebuildTrace(ctx, space, starts);
      }
      if (tr != nullptr) {
        tr->execs = execs;
        for (uint32_t gpn : tr->gpns) {
          code_pages_.insert(gpn);
          page_traces_[gpn].push_back(b.key);
        }
        b.trace = std::move(tr);
      } else {
        // Unit dropped (code drift or tier-2 disabled here); the tier-1
        // block underneath is still good.
        ++ctx.stats.persist_misses;
      }
    }
    b.map_gen = map_gen_;
    uint64_t key2 = b.key;
    auto [it, inserted] = blocks_.emplace(key2, std::move(b));
    for (uint32_t gpn : it->second.gpns) {
      code_pages_.insert(gpn);
      page_blocks_[gpn].push_back(key2);
    }
    ring_.push_back(key2);
    ++ctx.stats.persist_hits;
    return true;
  }

  // Rebuilds a persisted tier-2 head's trace from guest memory: decodes
  // each block it splices, splices them as FormTrace does and recompiles.
  // The decode probes every code page once, uncharged, in first-fetch
  // order, which is the unit's guard set. Null when a page cannot be
  // fetched, the compile refuses, or a block that falls through does not
  // reach the next one (the unit checks only branch and jump targets at
  // run time, so a fall-through edge must hold by construction).
  std::unique_ptr<Trace> RebuildTrace(VcpuContext& ctx, Space space,
                                      const std::vector<uint32_t>& starts) {
    auto tr = std::make_unique<Trace>();
    tr->code.head_va = starts.front();
    tr->map_gen = map_gen_;
    PageMap pages;
    for (size_t k = 0; k < starts.size(); ++k) {
      Block b;
      b.start_va = starts[k];
      DecodeBlock(ctx, b, [&](uint32_t va) { return ProbePage(nullptr, ctx, space, va, pages); });
      if (b.instrs.empty()) {
        return nullptr;
      }
      uint32_t next_va = k + 1 < starts.size() ? starts[k + 1] : tr->code.head_va;
      Opcode last = b.instrs.back().opcode;
      bool transfers = last == Opcode::kJal || last == Opcode::kJalr || last == Opcode::kBranch;
      if ((!transfers && b.start_va + 4 * static_cast<uint32_t>(b.instrs.size()) != next_va) ||
          !Splice(*tr, b)) {
        return nullptr;
      }
    }
    std::optional<ir::Tier2Unit> unit = ir::Compile(tr->code);
    if (!unit) {
      return nullptr;
    }
    unit->page_map = std::move(pages);
    unit->map_gen = map_gen_;
    tr->tier2 = std::make_unique<ir::Tier2Unit>(std::move(*unit));
    return tr;
  }

  void RunTier2(ExecCore& core, VcpuContext& ctx, Block& head, uint64_t max_cycles) {
    head.hot = true;
    Trace& tr = *head.trace;
    ir::Tier2Outcome out =
        ir::RunTier2Unit(core, ctx, *tr.tier2, have_pending_, max_cycles);
    // Tier-2 passes count as trace executions too: the unit *is* the trace,
    // executed better, and external consumers key off trace_executions.
    ctx.stats.trace_executions += out.passes;
    ctx.stats.tier2_executions += out.passes;
    tr.execs += out.passes;
    if (out.deopt) {
      ++ctx.stats.deopts;
    }
  }

  void AbortRecording() {
    recording_ = false;
    trace_head_ = nullptr;
    trace_blocks_.clear();
  }

  // Drops a head's superblock and its page registrations.
  void KillTrace(Block& b) {
    if (b.trace == nullptr) {
      return;
    }
    for (uint32_t gpn : b.trace->gpns) {
      auto it = page_traces_.find(gpn);
      if (it != page_traces_.end()) {
        auto& v = it->second;
        v.erase(std::remove(v.begin(), v.end(), b.key), v.end());
        if (v.empty()) {
          page_traces_.erase(it);
        }
      }
      MaybeReleasePage(gpn);
    }
    b.trace.reset();
    b.heat = 0;
  }

  // Removes one block, pruning its key from *every* page it was registered
  // under (a block spanning two pages is registered in both lists; leaving
  // the other list's copy behind would grow it without bound under repeated
  // SMC — the stale-key leak this replaces).
  void EraseBlock(uint64_t key, VcpuContext& ctx) {
    (void)ctx;
    auto it = blocks_.find(key);
    if (it == blocks_.end()) {
      return;
    }
    Block& b = it->second;
    KillTrace(b);
    for (uint32_t gpn : b.gpns) {
      auto pit = page_blocks_.find(gpn);
      if (pit != page_blocks_.end()) {
        auto& v = pit->second;
        v.erase(std::remove(v.begin(), v.end(), key), v.end());
        if (v.empty()) {
          page_blocks_.erase(pit);
        }
      }
      MaybeReleasePage(gpn);
    }
    blocks_.erase(it);
    // Any chain link or recording pointer to this block is now stale.
    ++chain_gen_;
  }

  void MaybeReleasePage(uint32_t gpn) {
    if (page_blocks_.count(gpn) == 0 && page_traces_.count(gpn) == 0) {
      code_pages_.erase(gpn);
    }
  }

  void ApplyPendingInvalidations(VcpuContext& ctx) {
    if (pending_flush_) {
      EvictAll(ctx);
      pending_flush_ = false;
      pending_page_invalidations_.clear();
      have_pending_ = false;
      return;
    }
    for (size_t n = 0; n < pending_page_invalidations_.size(); ++n) {
      uint32_t gpn = pending_page_invalidations_[n];
      auto it = page_blocks_.find(gpn);
      if (it != page_blocks_.end()) {
        std::vector<uint64_t> keys = std::move(it->second);
        for (uint64_t key : keys) {
          EraseBlock(key, ctx);
        }
      }
      // Superblocks splicing code from this page whose head lives elsewhere.
      auto tt = page_traces_.find(gpn);
      if (tt != page_traces_.end()) {
        std::vector<uint64_t> heads = std::move(tt->second);
        for (uint64_t head_key : heads) {
          auto bit = blocks_.find(head_key);
          if (bit != blocks_.end()) {
            KillTrace(bit->second);
          }
        }
        page_traces_.erase(gpn);
      }
      MaybeReleasePage(gpn);
    }
    pending_page_invalidations_.clear();
    have_pending_ = false;
  }

  // Clock sweep: evict cold or stale-epoch blocks until 1/8 of the capacity
  // is free. Hot blocks spend their reference bit to survive one sweep.
  void EvictForCapacity(VcpuContext& ctx) {
    size_t target = max_blocks_ - max_blocks_ / 8;
    if (target >= max_blocks_) {
      target = max_blocks_ > 0 ? max_blocks_ - 1 : 0;
    }
    size_t attempts = 2 * ring_.size() + 8;
    while (blocks_.size() > target && attempts-- > 0 && !ring_.empty()) {
      if (hand_ >= ring_.size()) {
        hand_ = 0;
      }
      uint64_t key = ring_[hand_];
      auto it = blocks_.find(key);
      if (it == blocks_.end()) {
        RemoveRingSlot(hand_);  // lazily drop keys of already-erased blocks
        continue;
      }
      Block& b = it->second;
      if (b.hot && b.map_gen == map_gen_) {
        b.hot = false;
        ++hand_;
        continue;
      }
      EraseBlock(key, ctx);
      RemoveRingSlot(hand_);
      ++ctx.stats.evictions_surgical;
    }
    if (blocks_.size() >= max_blocks_) {
      EvictAll(ctx);  // pathological fallback: everything stayed hot
    }
  }

  void RemoveRingSlot(size_t i) {
    ring_[i] = ring_.back();
    ring_.pop_back();
  }

  void CompactRing() {
    ring_.clear();
    ring_.reserve(blocks_.size());
    for (const auto& [key, b] : blocks_) {
      ring_.push_back(key);
    }
    hand_ = 0;
  }

  void EvictAll(VcpuContext& ctx) {
    ResetCaches();
    ++ctx.stats.evictions_full;
  }

  // Cache reset without the eviction stat: InstallTranslations replaces the
  // caches wholesale (that is provisioning, not an eviction).
  void ResetCaches() {
    blocks_.clear();
    page_blocks_.clear();
    page_traces_.clear();
    code_pages_.clear();
    ring_.clear();
    hand_ = 0;
    AbortRecording();
    ++chain_gen_;
  }

  DbtOptions options_;
  size_t max_blocks_;
  std::unordered_map<uint64_t, Block> blocks_;
  std::unordered_map<uint32_t, std::vector<uint64_t>> page_blocks_;
  // gpn → keys of heads whose trace splices code from that page.
  std::unordered_map<uint32_t, std::vector<uint64_t>> page_traces_;
  std::unordered_set<uint32_t> code_pages_;
  std::vector<uint32_t> pending_page_invalidations_;
  bool pending_flush_ = false;
  bool have_pending_ = false;

  uint64_t chain_gen_ = 1;  // cut-chains generation
  uint64_t map_gen_ = 1;    // translation-mapping epoch

  // Clock eviction state.
  std::vector<uint64_t> ring_;
  size_t hand_ = 0;

  // Trace recording state.
  bool recording_ = false;
  uint64_t recording_gen_ = 0;
  Block* trace_head_ = nullptr;
  std::vector<Block*> trace_blocks_;
};

}  // namespace

std::unique_ptr<ExecutionEngine> MakeEngine(EngineKind kind, const DbtOptions& options) {
  switch (kind) {
    case EngineKind::kInterpreter:
      return MakeInterpreter();
    case EngineKind::kDbt:
      return std::make_unique<DbtEngine>(options);
  }
  return nullptr;
}

}  // namespace hyperion::cpu
