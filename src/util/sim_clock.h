// Simulated time.
//
// Hyperion is an event-driven simulation: all durations are expressed in
// simulated cycles of a nominal 1 GHz machine, so 1 cycle == 1 ns. The clock
// only moves when the simulation advances it, which makes every run
// deterministic regardless of host speed.
//
// Staged execution (DESIGN.md §8): while the run loop executes vCPU slices
// on worker threads, the shared event queue must not be touched
// concurrently. Each slice's ExecutePhase carries a ClockStage and the
// slice's start time: StageOwned appends to that stage instead of the queue,
// and slice code reads time from the token (ClockRef::now(ph)), never from
// now(), which is the queue's time. The host thread merges stages at the
// round barrier with CommitStage, in deterministic dispatch order, so the
// final queue contents are identical for any worker count — including zero.
//
// Phase discipline (DESIGN.md §9): the direct-effect entry points
// (ScheduleOwned/ScheduleAt/ScheduleAfter, RunUntil/RunAll, CommitStage)
// demand a direct-phase capability token that worker lanes can never hold;
// lanes use StageOwned, which demands an ExecutePhase. Code that runs in
// both regimes dispatches through ClockRef. Staging for a clock other than
// the slice's own is a StagingViolation: hosts whose slices schedule on each
// other's clocks must share one TimeDomain.

#ifndef SRC_UTIL_SIM_CLOCK_H_
#define SRC_UTIL_SIM_CLOCK_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/event_queue.h"
#include "src/util/phase.h"

namespace hyperion {

constexpr SimTime kSimTicksPerUs = 1000;
constexpr SimTime kSimTicksPerMs = 1000 * kSimTicksPerUs;
constexpr SimTime kSimTicksPerSec = 1000 * kSimTicksPerMs;

inline double SimTimeToMs(SimTime t) { return static_cast<double>(t) / kSimTicksPerMs; }
inline double SimTimeToUs(SimTime t) { return static_cast<double>(t) / kSimTicksPerUs; }
inline double SimTimeToSec(SimTime t) { return static_cast<double>(t) / kSimTicksPerSec; }

// A slice's staged clock events (see the file comment); `clock` is its clock.
struct ClockStage {
  SimClock* clock = nullptr;
  struct Staged {
    SimTime when;
    uint64_t owner;
    EventQueue::Callback fn;
  };
  std::vector<Staged> events;
};

// A monotonically advancing simulated clock with a pending-event queue.
// Events scheduled at the same time fire in scheduling order (stable).
class SimClock {
 public:
  using Callback = EventQueue::Callback;

  // Normalizes a callable into a Callback: phase-taking lambdas pass
  // through; zero-argument lambdas (events that perform no direct effects
  // themselves) are wrapped so existing call sites stay terse.
  template <typename F>
  static Callback WrapCallback(F&& fn) {
    if constexpr (std::is_invocable_v<std::decay_t<F>&, const SerialPhase&>) {
      return Callback(std::forward<F>(fn));
    } else {
      return Callback(
          [f = std::forward<F>(fn)](const SerialPhase&) mutable { f(); });
    }
  }

  SimTime now() const { return now_; }

  // --- Direct scheduling (serial / commit phases only) --------------------

  // Schedules `fn` to run at absolute time `when` (>= now), tagged with
  // `owner` (see EventQueue; 0 = uncancellable).
  template <typename F>
  void ScheduleOwned(const DirectPhase&, SimTime when, uint64_t owner, F fn) {
    assert(when >= now_);
    queue_.Push(when, owner, WrapCallback(std::move(fn)));
  }

  // Schedules `fn` to run at absolute time `when` (>= now).
  template <typename F>
  void ScheduleAt(const DirectPhase& ph, SimTime when, F fn) {
    ScheduleOwned(ph, when, 0, std::move(fn));
  }

  // Schedules `fn` to run `delay` cycles from now.
  template <typename F>
  void ScheduleAfter(const DirectPhase& ph, SimTime delay, F fn) {
    ScheduleOwned(ph, now_ + delay, 0, std::move(fn));
  }

  // --- Staged scheduling (execute phase: worker lanes) --------------------

  // Appends to the executing slice's ClockStage; `when` is validated
  // against the slice's start time.
  template <typename F>
  void StageOwned(const ExecutePhase& ph, SimTime when, uint64_t owner, F fn) {
    ClockStage& stage = ph.clock_;
    if (stage.clock != this) {
      StagingViolation("event staged for another domain's clock");
    }
    assert(when >= ph.vnow());
    stage.events.push_back(ClockStage::Staged{when, owner, WrapCallback(std::move(fn))});
  }

  // Merges a slice's staged events into the queue, in staging order. Called
  // at the round barrier; each staged `when` was validated against the
  // slice's vnow, which is never before the queue's current time.
  void CommitStage(const CommitPhase&, ClockStage& stage) {
    for (ClockStage::Staged& ev : stage.events) {
      assert(ev.when >= now_);
      queue_.Push(ev.when, ev.owner, std::move(ev.fn));
    }
    stage.events.clear();
  }

  // Returns a fresh nonzero owner id for event tagging.
  uint64_t NewOwner() { return ++last_owner_; }

  // Drops every pending event tagged with `owner` (VM teardown). Staged
  // events never survive to a teardown point: teardown only happens between
  // rounds, after every stage has been committed.
  size_t CancelOwner(const DirectPhase&, uint64_t owner) {
    return owner == 0 ? 0 : queue_.CancelOwner(owner);
  }

  // Drops every pending event, owned or not, without running it. Multi-host
  // teardown only: pending deliveries hold frame payloads that must release
  // into their member hosts' pools before those pools are destroyed, so the
  // owning Cluster clears the shared queue before tearing members down.
  size_t DiscardPending(const DirectPhase&) { return queue_.Clear(); }

  // Moves time forward by `delta` without running events (callers that manage
  // their own event dispatch, e.g. the vCPU run loop, use this).
  void Advance(const DirectPhase&, SimTime delta) { now_ += delta; }

  // Advances to `when`, firing every event due on the way, in order. The
  // caller's serial token is handed to each callback.
  void RunUntil(const SerialPhase& ph, SimTime when) {
    while (!queue_.empty() && queue_.top_time() <= when) {
      EventQueue::Event ev = queue_.Pop();
      now_ = ev.when;
      ev.fn(ph);
    }
    if (when > now_) {
      now_ = when;
    }
  }

  // Runs events until the queue drains (or `max_events` fire). Returns the
  // number of events dispatched.
  size_t RunAll(const SerialPhase& ph, size_t max_events = SIZE_MAX) {
    size_t fired = 0;
    while (!queue_.empty() && fired < max_events) {
      EventQueue::Event ev = queue_.Pop();
      now_ = ev.when;
      ev.fn(ph);
      ++fired;
    }
    return fired;
  }

  bool HasPending() const { return !queue_.empty(); }
  SimTime NextEventTime() const {
    assert(!queue_.empty());
    return queue_.top_time();
  }

 private:
  SimTime now_ = 0;
  uint64_t last_owner_ = 0;
  EventQueue queue_;
};

// A clock handle that tags everything it schedules with a fixed owner id.
// Devices hold one instead of a raw SimClock* so that their completion
// events die with the VM that owns them (Vm::~Vm cancels the owner).
// Implicitly convertible from SimClock* — an untagged ref behaves exactly
// like the raw pointer did.
//
// ClockRef is the phase-dispatching wrapper for dual-context code: device
// completion paths run both inside slices (doorbell MMIO from a worker
// lane) and from serial callbacks (snapshot restore, tests), so its now()
// and Schedule* methods take `const Phase&` and route to the slice's token
// or the clock itself accordingly.
class ClockRef {
 public:
  ClockRef() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for SimClock*.
  ClockRef(SimClock* clock, uint64_t owner = 0) : clock_(clock), owner_(owner) {}

  bool valid() const { return clock_ != nullptr; }
  SimClock* clock() const { return clock_; }
  uint64_t owner() const { return owner_; }

  // The current time in `ph`'s regime: the slice's frozen start time inside
  // an execute phase, the clock's time otherwise.
  SimTime now(const Phase& ph) const {
    const ExecutePhase* ep = ph.AsExecute();
    return ep != nullptr ? ep->vnow() : clock_->now();
  }

  template <typename F>
  void ScheduleAt(const Phase& ph, SimTime when, F fn) {
    if (const ExecutePhase* ep = ph.AsExecute()) {
      clock_->StageOwned(*ep, when, owner_, std::move(fn));
    } else {
      clock_->ScheduleOwned(*ph.AsDirect(), when, owner_, std::move(fn));
    }
  }

  template <typename F>
  void ScheduleAfter(const Phase& ph, SimTime delay, F fn) {
    ScheduleAt(ph, now(ph) + delay, std::move(fn));
  }

 private:
  SimClock* clock_ = nullptr;
  uint64_t owner_ = 0;
};

}  // namespace hyperion

#endif  // SRC_UTIL_SIM_CLOCK_H_
