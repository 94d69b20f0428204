// Phase-capability tokens for the staged execution core (DESIGN.md §8/§9).
//
// The run loop alternates between three regimes:
//
//   * execute — vCPU slices running concurrently on worker lanes. All
//     cross-VM side effects (clock events, switch frames, frame decrefs,
//     wakes, log lines) must be *staged* into per-slice buffers.
//   * commit  — the host thread merging staged buffers at the round barrier,
//     in deterministic dispatch order.
//   * serial  — everything else: setup, teardown, clock callbacks, the
//     inter-round portions of Host::RunFor, tests.
//
// The token types below make this split a *compile-time* discipline:
// staging-only APIs demand `const ExecutePhase&`, direct-effect APIs demand
// `const DirectPhase&` (of which CommitPhase and SerialPhase are the only
// concrete kinds), and the constructors are private to the host run loop —
// code running on a worker lane holds an ExecutePhase and has no way to
// manufacture the direct token that `SimClock::ScheduleOwned` or
// `VirtualSwitch::Send` require, so a forgotten staging call is a type error
// instead of a latent race. tests/negcompile/ pins this property.
//
// The execute token is also the route: it carries the slice's stages and
// its frozen start time, and every staged API appends to the stage in the
// token it receives. Staging for anything but the slice's own clock, switch
// or host is a StagingViolation, never a silent direct effect. Dual-context
// code (device completions, migrate demand-fetch) takes `const Phase&` and
// lets a phase-dispatching wrapper (ClockRef, VirtualSwitch::Transmit,
// FramePool::DecRef, Host::WakeVcpu) pick the staged or direct leaf.
//
// The one thread-local is the executing slice's token, for the few callers
// that cannot receive one, and for ScopedSerialPhase — the one sanctioned
// acquisition point outside the run loop — whose constructor aborts inside
// an execute phase: the capability is checked once where it is minted, and
// propagated statically everywhere else.

#ifndef SRC_UTIL_PHASE_H_
#define SRC_UTIL_PHASE_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace hyperion {

// Simulated time in cycles (1 cycle == 1 ns at the nominal 1 GHz).
using SimTime = uint64_t;

// The stage types and the classes that read them, one per layer.
class SimClock;
struct ClockStage;
namespace internal {
class LogMessage;
}  // namespace internal
namespace core {
class Host;
class TimeDomain;
struct WakeStage;
}  // namespace core
namespace fault {
class FaultyBlockStore;
}  // namespace fault
namespace mem {
class FramePool;
struct PoolStage;
}  // namespace mem
namespace net {
class VirtualSwitch;
struct TxStage;
}  // namespace net

// A staging-discipline break the types cannot rule out (see the file
// comment). Aborts in every build type.
[[noreturn]] inline void StagingViolation(const char* what) {
  std::fprintf(stderr, "staging violation: %s\n", what);
  std::abort();
}

class ExecutePhase;
class DirectPhase;

// Common base: carries only the execute/direct discriminator so
// dual-context code can dispatch. Non-copyable — a token names the dynamic
// extent of a phase, it is not a value.
class Phase {
 public:
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  // Downcasts for phase-dispatching wrappers; exactly one is non-null.
  const ExecutePhase* AsExecute() const;
  const DirectPhase* AsDirect() const;

 protected:
  explicit Phase(bool execute) : execute_(execute) {}
  ~Phase() = default;

 private:
  const bool execute_;
};

// Held by a worker lane for the duration of one vCPU slice. Grants access to
// staging APIs only (the friends below), whose stages it carries. Minted
// exclusively by Host::ExecuteSlice; while it lives it is the thread's
// current slice.
class ExecutePhase final : public Phase {
 public:
  // The slice's start time, frozen for the whole slice.
  SimTime vnow() const { return vnow_; }

 private:
  ExecutePhase(SimTime vnow, ClockStage& clock, net::TxStage& tx, mem::PoolStage& pool,
               core::WakeStage& wakes, std::string& log)
      : Phase(true), vnow_(vnow), clock_(clock), tx_(tx), pool_(pool), wakes_(wakes),
        log_(log) {
    assert(current_ == nullptr);
    current_ = this;
  }
  ~ExecutePhase() { current_ = nullptr; }

  // This thread's executing slice, or nullptr; for code without a token.
  static const ExecutePhase* Current() { return current_; }

  static inline thread_local const ExecutePhase* current_ = nullptr;

  const SimTime vnow_;
  ClockStage& clock_;
  net::TxStage& tx_;
  mem::PoolStage& pool_;
  core::WakeStage& wakes_;
  std::string& log_;

  friend class core::Host;               // mints; stages wakes
  friend class SimClock;                 // stages clock events
  friend class net::VirtualSwitch;       // stages frames
  friend class mem::FramePool;           // stages decrefs and FrameBuf releases
  friend class internal::LogMessage;     // buffers log text
  friend class fault::FaultyBlockStore;  // reads slice time behind BlockStore
  friend class ScopedSerialPhase;        // rejects minting inside a slice
};

// Base for the two direct-effect tokens. APIs that mutate shared state
// immediately (schedule on the live queue, deliver a frame, drop a frame
// refcount in place) take `const DirectPhase&`; worker lanes can never
// obtain one.
class DirectPhase : public Phase {
 protected:
  DirectPhase() : Phase(false) {}
  ~DirectPhase() = default;
};

// Held by the host thread while merging staged buffers at the round barrier.
// Minted exclusively by the domain round loop (TimeDomain::RunRound; Host
// retains friendship for its commit helpers).
class CommitPhase final : public DirectPhase {
 private:
  CommitPhase() = default;
  friend class core::Host;
  friend class core::TimeDomain;
};

// Held by single-threaded code between rounds: clock callbacks (every
// EventQueue::Callback receives one), setup/teardown, tests. Minted by the
// domain run loop, by Host, and by ScopedSerialPhase.
class SerialPhase final : public DirectPhase {
 private:
  SerialPhase() = default;
  friend class core::Host;
  friend class core::TimeDomain;
  friend class ScopedSerialPhase;
};

// Runtime-checked acquisition of a SerialPhase for code that is serial by
// construction but outside the run loop's static reach: test bodies,
// example mains, teardown paths, and the transparent-COW fallback in
// GuestMemory::Write. The check backs the otherwise-static discipline and
// survives NDEBUG: constructing one on a worker lane (inside an
// ExecutePhase) aborts.
class ScopedSerialPhase {
 public:
  ScopedSerialPhase() {
    if (ExecutePhase::Current() != nullptr) {
      StagingViolation("ScopedSerialPhase minted inside an execute phase");
    }
  }

  ScopedSerialPhase(const ScopedSerialPhase&) = delete;
  ScopedSerialPhase& operator=(const ScopedSerialPhase&) = delete;

  const SerialPhase& get() const { return phase_; }
  // NOLINTNEXTLINE(google-explicit-constructor): reads as the token itself.
  operator const SerialPhase&() const { return phase_; }

 private:
  SerialPhase phase_;
};

inline const ExecutePhase* Phase::AsExecute() const {
  return execute_ ? static_cast<const ExecutePhase*>(this) : nullptr;
}

inline const DirectPhase* Phase::AsDirect() const {
  return execute_ ? nullptr : static_cast<const DirectPhase*>(this);
}

}  // namespace hyperion

#endif  // SRC_UTIL_PHASE_H_
