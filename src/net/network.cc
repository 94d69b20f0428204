#include "src/net/network.h"

#include <algorithm>

#include "src/fault/fault.h"

namespace hyperion::net {

SimTime Link::TransferFaultyImpl(const Phase& ph, size_t bytes, SimClock::Callback on_done,
                                 SimClock::Callback on_lost) {
  if (injector_ == nullptr) {
    return Transfer(ph, bytes, std::move(on_done));
  }
  SimTime start = std::max(clock_.now(ph), busy_until_);
  SimTime base = params_.TransmitTime(bytes) + params_.latency;
  fault::TransferFault f = injector_->OnTransfer(fault_site_, start, base);
  SimTime done = start + base + f.extra_latency;
  busy_until_ = start + params_.TransmitTime(bytes);
  bytes_carried_ += bytes;
  if (f.lost) {
    ++transfers_lost_;
    clock_.ScheduleAt(ph, done, std::move(on_lost));
  } else {
    clock_.ScheduleAt(ph, done, std::move(on_done));
  }
  return done;
}

Status VirtualSwitch::Attach(const DirectPhase&, MacAddr addr, FrameSink* sink,
                             LinkParams params) {
  if (addr == kBroadcast) {
    return InvalidArgumentError("cannot attach at the broadcast address");
  }
  auto [it, inserted] =
      ports_.emplace(addr, std::make_unique<PortState>(PortState{sink, Link(clock_, params)}));
  if (!inserted) {
    return AlreadyExistsError("port address already attached");
  }
  return OkStatus();
}

Status VirtualSwitch::Detach(const DirectPhase&, MacAddr addr) {
  if (ports_.erase(addr) == 0) {
    return NotFoundError("no port at that address");
  }
  return OkStatus();
}

TxStage& VirtualSwitch::StageOf(const ExecutePhase& ph) {
  if (ph.tx_.sw != this) {
    StagingViolation("frame staged for another host's switch");
  }
  return ph.tx_;
}

void VirtualSwitch::Send(const DirectPhase& ph, Frame frame) {
  Route(ph, std::span<Frame>(&frame, 1), clock_->now(), /*uplink_egress=*/true);
}

SimTime VirtualSwitch::TransmitBurst(const Phase& ph, std::vector<Frame> frames) {
  if (const ExecutePhase* ep = ph.AsExecute()) {
    TxStage& stage = StageOf(*ep);
    for (Frame& frame : frames) {
      stage.frames.push_back(std::move(frame));
    }
    return 0;  // egress unknown until the barrier commit
  }
  return Route(*ph.AsDirect(), frames, clock_->now(), /*uplink_egress=*/true);
}

void VirtualSwitch::CommitStage(const CommitPhase& ph, TxStage& stage, SimTime at) {
  Route(ph, stage.frames, at, /*uplink_egress=*/true);
  stage.frames.clear();
}

void VirtualSwitch::DeliverFromFabric(const DirectPhase& ph, Frame frame, SimTime at) {
  Route(ph, std::span<Frame>(&frame, 1), at, /*uplink_egress=*/false);
}

SimTime VirtualSwitch::Route(const DirectPhase& ph, std::span<Frame> frames, SimTime at,
                             bool uplink_egress) {
  // Fabric ingress was already counted as sent by the remote switch.
  (uplink_egress ? stats_.frames_sent : stats_.frames_from_fabric) += frames.size();
  SimTime clear = 0;
  size_t i = 0;
  while (i < frames.size()) {
    MacAddr dst = frames[i].dst;
    size_t j = i + 1;
    if (dst != kBroadcast) {
      size_t cap = std::min(frames.size(), i + kMaxBurstFrames);
      while (j < cap && frames[j].dst == dst) {
        ++j;
      }
    }
    std::span<Frame> run = frames.subspan(i, j - i);
    i = j;
    // The coalescing decision belongs to the source run: oversized frames
    // drop here but still count toward it.
    bool coalesce = run.size() >= 2;
    auto fits = std::remove_if(run.begin(), run.end(), [](const Frame& f) {
      return f.payload.size() > kMaxFrameBytes;
    });
    stats_.frames_dropped += run.end() - fits;
    run = run.first(fits - run.begin());

    if (dst == kBroadcast) {
      if (run.empty()) {
        continue;
      }
      for (auto& [addr, port] : ports_) {
        if (addr != run.front().src) {
          DeliverRun(ph, addr, *port, run, at, /*coalesce=*/false);
        }
      }
      if (uplink_egress && uplink_ != nullptr) {
        // Flood the fabric too; remote switches deliver locally only (split
        // horizon: their ingress routes with uplink egress off), so the
        // broadcast cannot loop back.
        ++stats_.frames_uplinked;
        uplink_->OnUplinkFrame(ph, std::move(run.front()), at);
      }
      continue;
    }
    auto it = ports_.find(dst);
    if (it != ports_.end()) {
      SimTime busy = DeliverRun(ph, dst, *it->second, run, at, coalesce);
      if (coalesce) {
        clear = std::max(clear, busy);
      }
    } else if (uplink_egress && uplink_ != nullptr) {
      // Cross-host run: each frame egresses to the fabric individually (the
      // fabric's links re-serialize them).
      for (Frame& frame : run) {
        ++stats_.frames_uplinked;
        uplink_->OnUplinkFrame(ph, std::move(frame), at);
      }
    } else {
      // Unknown destination; for fabric ingress, the port moved or detached
      // while the frame crossed the fabric (live migration switchover).
      stats_.frames_dropped += run.size();
    }
  }
  return clear;
}

SimTime VirtualSwitch::DeliverRun(const DirectPhase& ph, MacAddr dst_key, PortState& port,
                                  std::span<const Frame> run, SimTime at, bool coalesce) {
  // When coalescing, copies that survive injection undelayed accumulate
  // into one delivery event at the last copy's link-completion time
  // (ScheduleTransferAt is monotone across the loop, so that is also the
  // batch's max). A delayed copy always leaves the batch and is scheduled
  // individually: an injected delay lands after the wire time, so delayed
  // frames are genuinely overtaken by later undelayed traffic (reordering),
  // and coalescing must not defeat that.
  std::vector<Frame> batch;
  if (coalesce) {
    batch.reserve(run.size());
  }
  SimTime last_done = 0;
  for (const Frame& frame : run) {
    size_t wire = frame.wire_bytes();
    uint32_t copies = 1;
    SimTime extra_latency = 0;
    if (injector_ != nullptr) {
      fault::FrameFault ff = injector_->OnFrame(fault_site_, at, frame.src, dst_key);
      if (ff.drop) {
        ++stats_.frames_dropped;
        ++stats_.frames_injected_dropped;
        continue;
      }
      copies += ff.duplicates;
      stats_.frames_injected_duplicated += ff.duplicates;
      extra_latency = ff.extra_latency;
      if (extra_latency != 0) {
        ++stats_.frames_injected_delayed;
      }
    }
    for (uint32_t c = 0; c < copies; ++c) {
      SimTime done = port.link.ScheduleTransferAt(at, wire);
      if (coalesce && extra_latency == 0) {
        batch.push_back(frame);
        last_done = done;
      } else {
        ScheduleDelivery(ph, dst_key, {frame}, done + extra_latency);
      }
    }
  }
  if (!batch.empty()) {
    ScheduleDelivery(ph, dst_key, std::move(batch), last_done);
  }
  return port.link.busy_until();
}

void VirtualSwitch::ScheduleDelivery(const DirectPhase& ph, MacAddr dst_key,
                                     std::vector<Frame> frames, SimTime fire) {
  // The port may detach while the frames are in flight, so the event looks
  // the port up again by address when it runs.
  clock_->ScheduleAt(ph, fire, [this, dst_key, frames = std::move(frames)](const SerialPhase& sp) {
    auto it = ports_.find(dst_key);
    if (it == ports_.end()) {
      stats_.frames_dropped += frames.size();  // port detached in flight
      return;
    }
    stats_.frames_delivered += frames.size();
    for (const Frame& f : frames) {
      stats_.bytes_delivered += f.wire_bytes();
    }
    if (frames.size() >= 2) {
      ++stats_.bursts_delivered;
    }
    it->second->sink->OnFrames(sp, frames);
  });
}

}  // namespace hyperion::net
