#include "hvbench/bench.h"

#include <cstdio>
#include <cstring>
#include <map>

#include "src/util/byte_stream.h"

namespace hvbench {

const char* const kVmCounterNames[kNumVmCounters] = {
    "instructions",      "cycles",           "blocks_translated", "block_executions",
    "chain_hits",        "trace_executions", "tier2_executions",  "deopts",
    "fastpath_hits",     "fastpath_misses",  "exits",             "cow_breaks",
    "persist_hits",      "persist_misses",   "mmu_walks",         "mmu_walk_steps",
    "mmu_pt_write_traps", "mmu_shadow_syncs", "net_rx_frames",    "net_burst_frames",
    "virtio_kicks",      "virtio_interrupts",
};
const char* const kHostCounterNames[kNumHostCounters] = {
    "rounds", "slices", "idle_picks", "context_switches", "busy_cycles", "steal_cycles",
};

void Hasher::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h_ = (h_ ^ w) * 0x100000001B3ull;
    h_ ^= h_ >> 29;
  }
  for (; i < size; ++i) {
    h_ = (h_ ^ p[i]) * 0x100000001B3ull;
  }
}

uint64_t RamDigest(const core::Vm& vm) {
  const mem::GuestMemory& mem = vm.memory();
  Hasher h;
  for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
    const uint8_t* data = mem.PageData(gpn);
    h.U64(data != nullptr ? gpn : ~uint64_t{gpn});
    if (data != nullptr) {
      h.Bytes(data, isa::kPageSize);
    }
  }
  return h.value();
}

void HashVm(Hasher& h, const core::Vm& vm) {
  h.Str(vm.name());
  h.U64(static_cast<uint64_t>(vm.state()));
  for (uint32_t i = 0; i < vm.num_vcpus(); ++i) {
    ByteWriter w;
    vm.vcpu(i).state.Serialize(w);
    h.Bytes(w.buffer().data(), w.size());
  }
  cpu::VcpuStats st = vm.TotalStats();
  h.U64(st.instructions);
  h.U64(st.cycles);
}

// --- Tracer ---------------------------------------------------------------------

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(WallClock::now() - t0_).count();
}

int Tracer::Open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.rep = rep_;
  s.start_us = NowUs();
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  if (id < 0) {
    return;
  }
  spans_[id].end_us = NowUs();
  // Spans close in LIFO order; tolerate a skipped close by unwinding to `id`.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

void Tracer::Attr(int id, const std::string& key, double value) {
  if (id >= 0) {
    spans_[id].attrs.emplace_back(key, value);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // One JSON object per line: {"id","name","parent","rep","start_us","end_us","attrs"}.
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"rep\":%d,\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"attrs\":{",
                 i, s.name.c_str(), s.parent, s.rep, s.start_us, s.end_us);
    for (size_t k = 0; k < s.attrs.size(); ++k) {
      std::fprintf(f, "%s\"%s\":%.17g", k == 0 ? "" : ",", s.attrs[k].first.c_str(),
                   s.attrs[k].second);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

// --- Counters -------------------------------------------------------------------

Sample TakeSample(const std::vector<core::Host*>& hosts, SimTime now, uint64_t fabric_forwarded) {
  Sample s;
  s.now = now;
  s.fabric_forwarded = fabric_forwarded;
  for (core::Host* host : hosts) {
    const core::Host::HostStats& hs = host->stats();
    s.host[kRounds] += hs.rounds;
    s.host[kSlices] += hs.slices;
    s.host[kIdlePicks] += hs.idle_picks;
    s.host[kContextSwitches] += hs.context_switches;
    for (const core::Host::PcpuStats& p : hs.pcpu) {
      s.host[kBusyCycles] += p.busy_cycles;
      s.host[kStealCycles] += p.steal_cycles;
    }
    s.frames_used += host->pool().used_frames();
    for (const auto& vm_ptr : host->vms()) {
      core::Vm& vm = *vm_ptr;
      Sample::VmEntry e{&vm, vm.name(), {}};
      // Summed per vCPU here: Vm::TotalStats() leaves out the tier-2 and
      // persisted-translation counters.
      for (uint32_t i = 0; i < vm.num_vcpus(); ++i) {
        const cpu::VcpuStats& c = vm.vcpu(i).stats;
        e.v[kInstructions] += c.instructions;
        e.v[kCycles] += c.cycles;
        e.v[kBlocksTranslated] += c.blocks_translated;
        e.v[kBlockExecutions] += c.block_executions;
        e.v[kChainHits] += c.chain_hits;
        e.v[kTraceExecutions] += c.trace_executions;
        e.v[kTier2Executions] += c.tier2_executions;
        e.v[kDeopts] += c.deopts;
        e.v[kFastpathHits] += c.mem_fastpath_hits;
        e.v[kFastpathMisses] += c.mem_fastpath_misses;
        e.v[kExits] += c.TotalExits();
        e.v[kCowBreaks] += c.cow_breaks;
        e.v[kPersistHits] += c.persist_hits;
        e.v[kPersistMisses] += c.persist_misses;
      }
      const mmu::MmuStats& m = vm.virt().stats();
      e.v[kMmuWalks] = m.walks;
      e.v[kMmuWalkSteps] = m.walk_steps;
      e.v[kMmuPtWriteTraps] = m.pt_write_traps;
      e.v[kMmuShadowSyncs] = m.shadow_syncs;
      if (const virtio::VirtioNet* net = vm.virtio_net(); net != nullptr) {
        e.v[kNetRxFrames] = net->net_stats().rx_frames;
        e.v[kNetBurstFrames] = net->net_stats().burst_frames;
        e.v[kVirtioKicks] = net->stats().kicks;
        e.v[kVirtioInterrupts] = net->stats().interrupts;
      }
      s.vms.push_back(std::move(e));
    }
  }
  return s;
}

Delta Diff(const Sample& before, const Sample& after) {
  Delta d;
  std::map<std::pair<const core::Vm*, std::string>, const Sample::VmEntry*> prior;
  for (const Sample::VmEntry& e : before.vms) {
    prior[{e.vm, e.name}] = &e;
  }
  for (const Sample::VmEntry& e : after.vms) {
    auto it = prior.find({e.vm, e.name});
    // A recycled address with the same name shows as counters going
    // backwards: count that VM from zero.
    bool same = it != prior.end() && e.v[kCycles] >= it->second->v[kCycles];
    for (int k = 0; k < kNumVmCounters; ++k) {
      uint64_t base = same ? it->second->v[k] : 0;
      d.vm[k] += static_cast<double>(e.v[k] >= base ? e.v[k] - base : 0);
    }
  }
  for (int k = 0; k < kNumHostCounters; ++k) {
    d.host[k] = static_cast<double>(after.host[k] - before.host[k]);
  }
  d.fabric_forwarded = static_cast<double>(after.fabric_forwarded - before.fabric_forwarded);
  d.sim_ms = SimTimeToMs(after.now - before.now);
  return d;
}

// --- Repetition -------------------------------------------------------------------

void RepResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) {
      failures.push_back(what);
    }
  }
}

void Region::Account(int span, const Sample& before, const Sample& after, double ms,
                     const char* op_kind) {
  Delta d = Diff(before, after);
  rep_.call_ms.push_back(ms);
  rep_.sim_ms += d.sim_ms;
  rep_.instructions += d.vm[kInstructions];
  if (op_kind != nullptr) {
    rep_.ops.push_back(OpRecord{op_kind, ms});
  }
  if (!tracer_.enabled()) {
    return;
  }
  tracer_.Attr(span, "sim_ms", d.sim_ms);
  tracer_.Attr(span, "frames_used", static_cast<double>(after.frames_used));
  tracer_.Attr(span, "fabric_forwarded", d.fabric_forwarded);
  for (int k = 0; k < kNumVmCounters; ++k) {
    tracer_.Attr(span, kVmCounterNames[k], d.vm[k]);
  }
  for (int k = 0; k < kNumHostCounters; ++k) {
    tracer_.Attr(span, kHostCounterNames[k], d.host[k]);
  }
}

Result<assembler::Image> BuildImage(Tracer& tracer, const std::string& source) {
  Span span(tracer, "guest.Build");
  return guest::Build(source);
}

void TraceReport(Tracer& tracer, const migrate::MigrationReport& report, bool precopy,
                 uint32_t vm_pages) {
  if (!tracer.enabled()) {
    return;
  }
  Span span(tracer, "migrate.report");
  span.Attr("precopy", precopy ? 1 : 0);
  span.Attr("rounds", report.rounds);
  span.Attr("pages_sent", static_cast<double>(report.pages_sent));
  span.Attr("vm_pages", vm_pages);
  span.Attr("total_ms_sim", report.TotalMs());
  span.Attr("downtime_ms_sim", report.DowntimeMs());
}

uint32_t ReadProgress(const core::Vm& vm, uint32_t addr) {
  return vm.memory().ReadU32(addr).value_or(0);
}

}  // namespace hvbench
