// Shared pieces of the Hyperion benchmark driver: the seeded input
// generator, the span recorder, counter sampling at span boundaries, the
// timed region of one repetition, and digests of simulated state.
//
// The driver reaches Hyperion only through its public headers. Every layer
// is measured from outside: a span is opened around each public call, and
// the public stats structs are read before and after it.

#ifndef HVBENCH_BENCH_H_
#define HVBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/host.h"
#include "src/guest/programs.h"
#include "src/migrate/migrate.h"
#include "src/util/sim_clock.h"

namespace hvbench {

using namespace hyperion;
using WallClock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int workers = -1;      // fleet worker threads; -1 = nproc - 2
  bool perturb = false;  // change one simulated input (self-check)
  std::string trace_out;
};

// SplitMix64: the benchmark's own generator, so a change to Hyperion's RNG
// cannot change the benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

// 64-bit digest accumulator for simulated state (not cryptographic; it only
// has to tell two runs apart).
class Hasher {
 public:
  void Bytes(const void* data, size_t size);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

// Digest of guest RAM: page presence plus the contents of present pages.
uint64_t RamDigest(const core::Vm& vm);
// Digest of a VM's simulated state: vCPU architectural state, retired
// instructions and cycles, lifecycle state.
void HashVm(Hasher& h, const core::Vm& vm);

// --- Spans -------------------------------------------------------------------

// Records spans (name, start, end, parent, repetition) in memory while
// tracing is on; Write() serializes them when the run ends. Disabled, every
// call is a no-op returning -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(WallClock::now()) {}
  bool enabled() const { return enabled_; }
  void SetRep(int rep) { rep_ = rep; }
  int Open(const char* name);
  void Close(int id);
  void Attr(int id, const std::string& key, double value);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int rep = 0;
    double start_us = 0;
    double end_us = -1;
    std::vector<std::pair<std::string, double>> attrs;
  };
  double NowUs() const;

  bool enabled_;
  WallClock::time_point t0_;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// A span around one block of code; trace-only.
class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.Open(name)) {}
  ~Span() { tracer_.Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void Attr(const std::string& key, double value) { tracer_.Attr(id_, key, value); }

 private:
  Tracer& tracer_;
  int id_;
};

// --- Counters ------------------------------------------------------------------

// Per-VM counters read from VcpuStats, MmuStats and the virtio-net device.
enum VmCounter : int {
  kInstructions,
  kCycles,
  kBlocksTranslated,
  kBlockExecutions,
  kChainHits,
  kTraceExecutions,
  kTier2Executions,
  kDeopts,
  kFastpathHits,
  kFastpathMisses,
  kExits,
  kCowBreaks,
  kPersistHits,
  kPersistMisses,
  kMmuWalks,
  kMmuWalkSteps,
  kMmuPtWriteTraps,
  kMmuShadowSyncs,
  kNetRxFrames,
  kNetBurstFrames,
  kVirtioKicks,
  kVirtioInterrupts,
  kNumVmCounters
};
// Per-host counters (HostStats, PcpuStats) summed over hosts.
enum HostCounter : int {
  kRounds,
  kSlices,
  kIdlePicks,
  kContextSwitches,
  kBusyCycles,
  kStealCycles,
  kNumHostCounters
};

extern const char* const kVmCounterNames[kNumVmCounters];
extern const char* const kHostCounterNames[kNumHostCounters];

struct Sample {
  struct VmEntry {
    const core::Vm* vm;
    std::string name;
    std::array<uint64_t, kNumVmCounters> v;
  };
  std::vector<VmEntry> vms;
  std::array<uint64_t, kNumHostCounters> host{};
  uint64_t frames_used = 0;
  uint64_t fabric_forwarded = 0;
  SimTime now = 0;
};

Sample TakeSample(const std::vector<core::Host*>& hosts, SimTime now, uint64_t fabric_forwarded);

struct Delta {
  std::array<double, kNumVmCounters> vm{};
  std::array<double, kNumHostCounters> host{};
  double fabric_forwarded = 0;
  double sim_ms = 0;
};
// VMs are matched by identity and name; a VM that appears during the span
// counts from zero, one that disappears is dropped.
Delta Diff(const Sample& before, const Sample& after);

// --- One repetition ------------------------------------------------------------

struct OpRecord {
  std::string kind;
  double ms = 0;
};

struct RepResult {
  double setup_s = 0;
  std::vector<double> call_ms;  // host ms of each timed call, in order
  double sim_ms = 0;            // simulated ms those calls advanced
  double instructions = 0;      // guest instructions retired in them
  std::vector<OpRecord> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  uint64_t digest = 0;
  std::vector<double> blackout_ms_sim;  // successful pre-copy migrations
  double net_frames = 0;                // frames the sinks consumed

  // An operation or output check: counts toward failed_share.
  void Check(bool ok, const std::string& what);
};

// The timed region of one repetition. Call() and Run() time a call into
// Hyperion, sample the counters around it, and (when tracing) attach the
// counter deltas to its span.
class Region {
 public:
  Region(Tracer& tracer, RepResult& rep, std::vector<core::Host*> hosts, SimClock& clock,
         const uint64_t* fabric_forwarded = nullptr)
      : tracer_(tracer),
        rep_(rep),
        hosts_(std::move(hosts)),
        clock_(clock),
        fabric_forwarded_(fabric_forwarded) {}

  // Times `fn` as one span named `span`. `op_kind` non-null records it as a
  // closed-loop operation. Returns host milliseconds.
  template <typename Fn>
  double Call(const char* span, const char* op_kind, Fn&& fn) {
    Sample before = Take();
    int id = tracer_.Open(span);
    auto t0 = WallClock::now();
    fn();
    auto t1 = WallClock::now();
    tracer_.Close(id);
    Sample after = Take();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    Account(id, before, after, ms, op_kind);
    last_span_ = id;
    return ms;
  }

  // Records an operation made of several calls (their summed host time).
  void RecordOp(const char* kind, double ms) { rep_.ops.push_back(OpRecord{kind, ms}); }

  // The span of the latest Call/Run (-1 when tracing is off), for callers
  // that attach attributes known only after the call.
  int last_span() const { return last_span_; }

  // RunFor wrapper: advances the clock by `duration` through `run`.
  template <typename Fn>
  double Run(SimTime duration, Fn&& run, const char* op_kind = nullptr) {
    return Call("core.RunFor", op_kind, [&] { run(duration); });
  }

  Tracer& tracer() { return tracer_; }

 private:
  Sample Take() const {
    return TakeSample(hosts_, clock_.now(), fabric_forwarded_ ? *fabric_forwarded_ : 0);
  }
  void Account(int span, const Sample& before, const Sample& after, double ms,
               const char* op_kind);

  Tracer& tracer_;
  RepResult& rep_;
  std::vector<core::Host*> hosts_;
  SimClock& clock_;
  const uint64_t* fabric_forwarded_;
  int last_span_ = -1;
};

// Wall-clock stopwatch for set-up.
class Stopwatch {
 public:
  Stopwatch() : t0_(WallClock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(WallClock::now() - t0_).count();
  }

 private:
  WallClock::time_point t0_;
};

// Assembles `source` (spanned as guest.Build); aborts the repetition's
// correctness on failure by returning an empty image.
Result<assembler::Image> BuildImage(Tracer& tracer, const std::string& source);

// CreateVm + LoadImage as one core.CreateVm span; `create` is the host's or
// the cluster's CreateVm. A failure counts against the repetition and
// returns nullptr.
template <typename Create>
core::Vm* BootVm(Tracer& tracer, RepResult& rep, Create&& create, core::VmConfig config,
                 const assembler::Image& image) {
  Span span(tracer, "core.CreateVm");
  std::string name = config.name;
  Result<core::Vm*> vm = create(std::move(config));
  bool ok = vm.ok() && (*vm)->LoadImage(image).ok();
  rep.Check(ok, "boot " + name);
  return ok ? *vm : nullptr;
}

// Records a zero-length migrate.report span carrying one MigrationReport.
void TraceReport(Tracer& tracer, const migrate::MigrationReport& report, bool precopy,
                 uint32_t vm_pages);

// Reads a guest's progress word, 0 when unreadable.
uint32_t ReadProgress(const core::Vm& vm, uint32_t addr);

RepResult RunFleet(const Options& options, Tracer& tracer);
RepResult RunCompute(const Options& options, Tracer& tracer);
RepResult RunLifecycle(const Options& options, Tracer& tracer);

}  // namespace hvbench

#endif  // HVBENCH_BENCH_H_
