// The pending-event store behind SimClock: a min-heap of owner-tagged
// callbacks ordered by (time, schedule sequence).
//
// Owner tags solve a lifetime problem: device completions and timer wakes
// capture raw Vm*/device pointers, and a VM can be destroyed (DestroyVm,
// post-copy abort) while such events are still pending. Every event carries
// the owner id of the VM that scheduled it; Vm teardown calls CancelOwner to
// drop them before the pointers go stale. Owner 0 means "no owner" — those
// events (switch deliveries, migration timers) are never cancelled and must
// guard their own captures.
//
// The heap is an explicit vector (std::push_heap/pop_heap) rather than a
// std::priority_queue so CancelOwner can filter and re-heapify in place.

#ifndef SRC_UTIL_EVENT_QUEUE_H_
#define SRC_UTIL_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/util/phase.h"

namespace hyperion {

// The queue itself is protected by the phase discipline (src/util/phase.h),
// not a mutex: Push happens only under a direct-phase token (worker lanes
// stage instead), and Pop/CancelOwner only from serial code. Callbacks
// receive the dispatching loop's SerialPhase so they can perform direct
// effects (reschedule, deliver, wake) without re-acquiring a token.
class EventQueue {
 public:
  using Callback = std::function<void(const SerialPhase&)>;

  struct Event {
    SimTime when;
    uint64_t seq;    // tie-breaker: stable FIFO order among same-time events
    uint64_t owner;  // 0 = unowned (uncancellable)
    Callback fn;
  };

  void Push(SimTime when, uint64_t owner, Callback fn) {
    heap_.push_back(Event{when, seq_++, owner, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; callers must check empty() first.
  SimTime top_time() const { return heap_.front().when; }

  // Removes and returns the earliest event.
  Event Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

  // Drops every pending event unconditionally (including owner-0 events);
  // returns how many. Cluster teardown uses this to release event-held
  // resources (frame payloads) while their owning pools are still alive.
  size_t Clear() {
    size_t dropped = heap_.size();
    heap_.clear();
    return dropped;
  }

  // Drops every pending event tagged with `owner`; returns how many.
  size_t CancelOwner(uint64_t owner) {
    size_t dropped = std::erase_if(
        heap_, [owner](const Event& ev) { return ev.owner == owner; });
    if (dropped != 0) {
      std::make_heap(heap_.begin(), heap_.end(), Later{});
    }
    return dropped;
  }

 private:
  // "a fires after b" — yields a min-heap under the std heap algorithms.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  uint64_t seq_ = 0;
};

}  // namespace hyperion

#endif  // SRC_UTIL_EVENT_QUEUE_H_
