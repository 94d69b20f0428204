// Simulated networking: point-to-point links with a bandwidth/latency model
// and an L2-style virtual switch connecting VM NICs on a host.
//
// Time is the host's SimClock; a frame of S bytes on a link with bandwidth B
// and propagation delay D arrives D + S/B after transmission begins, and a
// link serializes back-to-back transmissions (store-and-forward).
//
// Staged execution (DESIGN.md §8): a frame transmitted inside a vCPU slice
// goes into the TxStage its ExecutePhase carries, and is committed at the
// round barrier stamped with the slice's start time — exactly when the
// serial loop would have sent it. A slice may stage only for its own switch.

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/net/frame_buf.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"

namespace hyperion::fault {
class FaultInjector;
}  // namespace hyperion::fault

namespace hyperion::net {

inline constexpr size_t kMaxFrameBytes = 9216;  // jumbo frame cap

// Longest same-destination run the switch coalesces into one delivery
// event. Bounds burst latency (the sink hears nothing until the last frame
// of a burst clears the link) and keeps a single commit from turning a
// whole timeslice of traffic into one delivery.
inline constexpr size_t kMaxBurstFrames = 64;

// A network endpoint address (flat L2 space).
using MacAddr = uint32_t;
inline constexpr MacAddr kBroadcast = 0xFFFFFFFFu;

// A frame's payload is a refcounted FrameBuf: copying a Frame copies a
// handle, so staging, fault-injected duplication, and burst delivery never
// touch the bytes (DESIGN.md §10).
struct Frame {
  MacAddr src = 0;
  MacAddr dst = 0;
  FrameBuf payload;

  size_t wire_bytes() const { return payload.size() + 18; }  // header+fcs overhead
};

// Transmission characteristics of a link or switch port.
struct LinkParams {
  uint64_t bandwidth_bps = 10'000'000'000ull;  // 10 Gb/s
  SimTime latency = 5 * kSimTicksPerUs;        // propagation + switching

  // Serialization delay in cycles (1 cycle == 1 ns), in pure integer
  // arithmetic: `double` loses integer precision past 2^53 intermediate
  // values (a multi-GiB transfer), making timings platform/rounding
  // dependent. The 128-bit product cannot overflow for any size_t input.
  SimTime TransmitTime(size_t bytes) const {
    return static_cast<SimTime>(static_cast<unsigned __int128>(bytes) * 8u *
                                1'000'000'000ull / bandwidth_bps);
  }
};

// A unidirectional-capacity, bidirectional link that serializes transfers.
// Used directly by live migration and by switch ports.
//
// Transfer/TransferFaulty run in both phases (migration drivers are serial;
// post-copy demand fetch fires from an executing slice), so they take
// `const Phase&` and dispatch through the ClockRef. The link-occupancy
// fields they mutate are safe without a lock because each link is queried
// from at most one slice per round (see FaultInjector's site contract).
class Link {
 public:
  Link(SimClock* clock, LinkParams params) : clock_(clock), params_(params) {}

  const LinkParams& params() const { return params_; }

  // Schedules a transfer of `bytes` submitted at `at` (>= any previous
  // submission); returns its completion time. Transfers queue behind one
  // another (the link is busy while transmitting). The submission time is
  // explicit because it is not always the clock's: a slice submits at its
  // start, and the switch commits staged frames at the originating slice's.
  SimTime ScheduleTransferAt(SimTime at, size_t bytes) {
    SimTime start = std::max(at, busy_until_);
    SimTime done = start + params_.TransmitTime(bytes) + params_.latency;
    busy_until_ = start + params_.TransmitTime(bytes);
    bytes_carried_ += bytes;
    return done;
  }

  // Convenience: transfer and invoke `on_done` at completion.
  template <typename F>
  SimTime Transfer(const Phase& ph, size_t bytes, F on_done) {
    SimTime done = ScheduleTransferAt(clock_.now(ph), bytes);
    clock_.ScheduleAt(ph, done, std::move(on_done));
    return done;
  }

  // Attaches a fault injector; `site` names this link in the FaultPlan.
  void SetFault(fault::FaultInjector* injector, std::string site) {
    injector_ = injector;
    fault_site_ = std::move(site);
  }

  // Like Transfer, but consults the fault injector: exactly one of
  // `on_done` (delivered) or `on_lost` (transfer lost in flight) fires at
  // the transfer's would-be completion time. Without an injector this is
  // Transfer(). Injected latency spikes extend the completion time.
  template <typename F, typename G>
  SimTime TransferFaulty(const Phase& ph, size_t bytes, F on_done, G on_lost) {
    return TransferFaultyImpl(ph, bytes, SimClock::WrapCallback(std::move(on_done)),
                              SimClock::WrapCallback(std::move(on_lost)));
  }

  uint64_t bytes_carried() const { return bytes_carried_; }
  uint64_t transfers_lost() const { return transfers_lost_; }
  SimTime busy_until() const { return busy_until_; }

 private:
  SimTime TransferFaultyImpl(const Phase& ph, size_t bytes, SimClock::Callback on_done,
                             SimClock::Callback on_lost);

  ClockRef clock_;
  LinkParams params_;
  fault::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
  SimTime busy_until_ = 0;
  uint64_t bytes_carried_ = 0;
  uint64_t transfers_lost_ = 0;
};

// Receives frames delivered by the switch. Delivery always happens from a
// clock callback, so sinks receive the dispatch loop's serial token. One
// delivery carries 1..kMaxBurstFrames frames to this port, arriving as one
// clock event (the last frame's link-completion time); sinks that can
// amortize per-delivery work (one RX interrupt per burst) do so per call.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void OnFrames(const SerialPhase& ph, std::span<const Frame> frames) = 0;
};

// A switch uplink: receives frames whose destination is not attached to this
// switch (plus broadcast floods), for forwarding across a multi-host fabric
// (src/cluster/fabric.h). Egress to the uplink happens only at commit/serial
// time — the token requirement makes forwarding from an execute lane a type
// error, like every other direct switch effect.
class UplinkPort {
 public:
  virtual ~UplinkPort() = default;
  // `at` is the frame's logical send time (the originating slice's start).
  virtual void OnUplinkFrame(const DirectPhase& ph, Frame frame, SimTime at) = 0;
};

class VirtualSwitch;

// A slice's staged transmissions (see the file comment); `sw` is its switch.
struct TxStage {
  VirtualSwitch* sw = nullptr;
  std::vector<Frame> frames;
};

// A learningless switch: ports register with their address; unicast goes to
// the owning port, broadcast to everyone else. Each port has its own link
// characteristics; delivery happens through the SimClock. With an uplink
// attached, unknown unicast destinations and broadcasts additionally egress
// to the fabric instead of being dropped.
class VirtualSwitch {
 public:
  explicit VirtualSwitch(SimClock* clock) : clock_(clock) {}

  // Delivers a slice's staged frames, in staging order, with logical send
  // time `at` (the slice's start; round barrier).
  void CommitStage(const CommitPhase&, TxStage& stage, SimTime at);

  // Attaches `sink` with address `addr`. Fails on duplicate addresses.
  Status Attach(const DirectPhase&, MacAddr addr, FrameSink* sink,
                LinkParams params = LinkParams{});
  Status Detach(const DirectPhase&, MacAddr addr);

  // True when a port with address `addr` is attached. The fabric resolves
  // destination hosts with this at send time, so a migrated VM's frames
  // follow its NIC to the new host with no forwarding-table invalidation.
  bool HasPort(MacAddr addr) const { return ports_.find(addr) != ports_.end(); }

  // Joins this switch to a cluster fabric (nullptr to detach). Unknown
  // unicast destinations and broadcast frames then egress through `uplink`.
  void SetUplink(UplinkPort* uplink) { uplink_ = uplink; }

  // Fabric ingress: delivers a frame arriving from the uplink to local ports
  // only — never back out the uplink (split horizon), so a destination
  // unknown fabric-wide cannot loop. Direct phases only: fabric delivery is
  // a clock-event effect, off limits from execute lanes.
  void DeliverFromFabric(const DirectPhase& ph, Frame frame, SimTime at);

  // Routes `frame` for immediate delivery scheduling (serial/commit only).
  // Invalid frames are counted and dropped.
  void Send(const DirectPhase&, Frame frame);

  // Transmits a batch in order, from code that runs in both regimes (NIC
  // doorbells). Staged regime: the batch is appended to the slice's TxStage
  // (committed as one contiguous run at the barrier). Direct regime: routed
  // now, so consecutive frames to the same unicast destination leave as one
  // delivery event.
  //
  // Returns when the last egress link touched by a direct-regime run of two
  // or more frames clears (its busy-until), or 0 when unknown (staged,
  // dropped, or no such run). NICs use this as backpressure: polling faster
  // than the wire drains only piles frames into the event queue.
  SimTime TransmitBurst(const Phase& ph, std::vector<Frame> frames);

  // Attaches a fault injector; every frame delivery attempt is then subject
  // to the plan's drop/duplicate/reorder/latency/partition events under
  // `site`. Injected effects are tallied separately in Stats.
  void SetFault(fault::FaultInjector* injector, std::string site) {
    injector_ = injector;
    fault_site_ = std::move(site);
  }

  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_delivered = 0;
    uint64_t frames_dropped = 0;  // unknown destination or oversized
    uint64_t bytes_delivered = 0;
    uint64_t bursts_delivered = 0;  // multi-frame coalesced deliveries
    uint64_t frames_uplinked = 0;     // egressed to the cluster fabric
    uint64_t frames_from_fabric = 0;  // ingressed from the cluster fabric
    // Fault-injection tallies (subsets of the counters above).
    uint64_t frames_injected_dropped = 0;
    uint64_t frames_injected_duplicated = 0;
    uint64_t frames_injected_delayed = 0;

    bool operator==(const Stats&) const = default;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PortState {
    FrameSink* sink;
    Link link;
  };

  // The executing slice's TxStage, which must be this switch's.
  TxStage& StageOf(const ExecutePhase& ph);

  // The one route every frame takes, with logical send time `at`: splits
  // `frames` into runs of consecutive frames to one unicast destination (at
  // most kMaxBurstFrames; a broadcast is a run of one), drops oversized
  // frames, and hands each run to its port, floods it, or egresses it to
  // the uplink. With `uplink_egress` off (fabric ingress) nothing leaves
  // through the uplink: the split horizon. Consumes `frames`. Returns the
  // latest egress busy-until among the delivered runs of >= 2 frames (0 if
  // none).
  SimTime Route(const DirectPhase& ph, std::span<Frame> frames, SimTime at, bool uplink_egress);
  // Delivers one run to one port: fault consultation, duplicate copies and
  // link serialization per frame. With `coalesce`, undelayed copies share
  // one delivery event at the last one's completion; otherwise, and for
  // every delayed copy, each copy is its own event. Returns the port link's
  // busy-until.
  SimTime DeliverRun(const DirectPhase& ph, MacAddr dst_key, PortState& port,
                     std::span<const Frame> run, SimTime at, bool coalesce);
  // The delivery event: hands `frames` to the port at `fire`, re-looked-up
  // by address when the event runs.
  void ScheduleDelivery(const DirectPhase& ph, MacAddr dst_key, std::vector<Frame> frames,
                        SimTime fire);

  SimClock* clock_;
  std::map<MacAddr, std::unique_ptr<PortState>> ports_;
  UplinkPort* uplink_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
  Stats stats_;
};

}  // namespace hyperion::net

#endif  // SRC_NET_NETWORK_H_
