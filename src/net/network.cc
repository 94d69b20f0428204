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
  SendAt(ph, std::move(frame), clock_->now());
}

void VirtualSwitch::Transmit(const Phase& ph, Frame frame) {
  if (const ExecutePhase* ep = ph.AsExecute()) {
    StageOf(*ep).frames.push_back(std::move(frame));
  } else {
    Send(*ph.AsDirect(), std::move(frame));
  }
}

SimTime VirtualSwitch::TransmitBurst(const Phase& ph, std::vector<Frame> frames) {
  if (const ExecutePhase* ep = ph.AsExecute()) {
    TxStage& stage = StageOf(*ep);
    for (Frame& frame : frames) {
      stage.frames.push_back(std::move(frame));
    }
    return 0;  // egress unknown until the barrier commit
  }
  return SendRunAt(*ph.AsDirect(), frames, clock_->now());
}

void VirtualSwitch::CommitStage(const CommitPhase& ph, TxStage& stage, SimTime at) {
  SendRunAt(ph, stage.frames, at);
  stage.frames.clear();
}

SimTime VirtualSwitch::SendRunAt(const DirectPhase& ph, std::vector<Frame>& frames,
                                 SimTime at) {
  SimTime clear = 0;
  size_t i = 0;
  while (i < frames.size()) {
    size_t j = i + 1;
    if (frames[i].dst != kBroadcast) {
      size_t cap = std::min(frames.size(), i + kMaxBurstFrames);
      while (j < cap && frames[j].dst == frames[i].dst) {
        ++j;
      }
    }
    if (j - i == 1) {
      SendAt(ph, std::move(frames[i]), at);
    } else {
      clear = std::max(clear, SendBurstAt(ph, std::span<Frame>(frames.data() + i, j - i), at));
    }
    i = j;
  }
  return clear;
}

SimTime VirtualSwitch::SendBurstAt(const DirectPhase& ph, std::span<Frame> group, SimTime at) {
  stats_.frames_sent += group.size();
  auto it = ports_.find(group.front().dst);
  if (it == ports_.end()) {
    if (uplink_ != nullptr) {
      // Cross-host run: each frame egresses to the fabric individually (the
      // fabric's links re-serialize them; coalescing happens again at the
      // remote switch's ingress if the sink supports it).
      for (Frame& frame : group) {
        if (frame.payload.size() > kMaxFrameBytes) {
          ++stats_.frames_dropped;
          continue;
        }
        ++stats_.frames_uplinked;
        uplink_->OnUplinkFrame(ph, std::move(frame), at);
      }
      return 0;
    }
    stats_.frames_dropped += group.size();
    return 0;
  }
  return DeliverBurstTo(ph, it->first, *it->second, group, at);
}

void VirtualSwitch::SendAt(const DirectPhase& ph, Frame frame, SimTime at) {
  ++stats_.frames_sent;
  if (frame.payload.size() > kMaxFrameBytes) {
    ++stats_.frames_dropped;
    return;
  }
  if (frame.dst == kBroadcast) {
    for (auto& [addr, port] : ports_) {
      if (addr != frame.src) {
        DeliverTo(ph, addr, *port, frame, at);
      }
    }
    if (uplink_ != nullptr) {
      // Flood the fabric too; remote switches deliver locally only (split
      // horizon in DeliverFromFabric), so the broadcast cannot loop back.
      ++stats_.frames_uplinked;
      uplink_->OnUplinkFrame(ph, std::move(frame), at);
    }
    return;
  }
  auto it = ports_.find(frame.dst);
  if (it == ports_.end()) {
    if (uplink_ != nullptr) {
      ++stats_.frames_uplinked;
      uplink_->OnUplinkFrame(ph, std::move(frame), at);
      return;
    }
    ++stats_.frames_dropped;
    return;
  }
  DeliverTo(ph, it->first, *it->second, frame, at);
}

void VirtualSwitch::DeliverFromFabric(const DirectPhase& ph, Frame frame, SimTime at) {
  ++stats_.frames_from_fabric;
  if (frame.payload.size() > kMaxFrameBytes) {
    ++stats_.frames_dropped;
    return;
  }
  if (frame.dst == kBroadcast) {
    for (auto& [addr, port] : ports_) {
      if (addr != frame.src) {
        DeliverTo(ph, addr, *port, frame, at);
      }
    }
    return;
  }
  auto it = ports_.find(frame.dst);
  if (it == ports_.end()) {
    // The port moved or detached while the frame crossed the fabric (live
    // migration switchover): drop, exactly like an in-flight local frame.
    ++stats_.frames_dropped;
    return;
  }
  DeliverTo(ph, it->first, *it->second, frame, at);
}

void VirtualSwitch::DeliverTo(const DirectPhase& ph, MacAddr dst_key, PortState& port,
                              const Frame& frame, SimTime at) {
  size_t wire = frame.wire_bytes();
  uint32_t copies = 1;
  SimTime extra_latency = 0;
  if (injector_ != nullptr) {
    fault::FrameFault ff = injector_->OnFrame(fault_site_, at, frame.src, dst_key);
    if (ff.drop) {
      ++stats_.frames_dropped;
      ++stats_.frames_injected_dropped;
      return;
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
    ScheduleDeliver(ph, dst_key, frame, done + extra_latency);
  }
}

void VirtualSwitch::ScheduleDeliver(const DirectPhase& ph, MacAddr dst_key, Frame frame,
                                    SimTime fire) {
  // The port may detach while the frame is in flight, so the closure looks
  // the port up again by address at delivery time. An injected delay lands
  // after the wire time, so delayed frames are genuinely overtaken by
  // later undelayed traffic (reordering).
  clock_->ScheduleAt(ph, fire, [this, dst_key, frame = std::move(frame)](const SerialPhase& sp) {
    auto it = ports_.find(dst_key);
    if (it == ports_.end()) {
      ++stats_.frames_dropped;  // port detached in flight
      return;
    }
    ++stats_.frames_delivered;
    stats_.bytes_delivered += frame.wire_bytes();
    it->second->sink->OnFrame(sp, frame);
  });
}

SimTime VirtualSwitch::DeliverBurstTo(const DirectPhase& ph, MacAddr dst_key, PortState& port,
                                      std::span<Frame> group, SimTime at) {
  // Frames that survive injection undelayed accumulate into one delivery
  // event at the last frame's link-completion time (ScheduleTransferAt is
  // monotone across the loop, so that is also the burst's max). A delayed
  // copy leaves the burst and is scheduled individually — coalescing must
  // not defeat injected reordering.
  auto burst = std::make_shared<std::vector<Frame>>();
  burst->reserve(group.size());
  SimTime last_done = 0;
  for (Frame& frame : group) {
    if (frame.payload.size() > kMaxFrameBytes) {
      ++stats_.frames_dropped;
      continue;
    }
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
      if (extra_latency != 0) {
        ScheduleDeliver(ph, dst_key, frame, done + extra_latency);
      } else {
        burst->push_back(frame);
        last_done = done;
      }
    }
  }
  SimTime clear = port.link.busy_until();
  if (burst->empty()) {
    return clear;
  }
  if (burst->size() == 1) {
    ScheduleDeliver(ph, dst_key, std::move(burst->front()), last_done);
    return clear;
  }
  clock_->ScheduleAt(ph, last_done, [this, dst_key, burst](const SerialPhase& sp) {
    auto it = ports_.find(dst_key);
    if (it == ports_.end()) {
      stats_.frames_dropped += burst->size();  // port detached in flight
      return;
    }
    stats_.frames_delivered += burst->size();
    for (const Frame& f : *burst) {
      stats_.bytes_delivered += f.wire_bytes();
    }
    ++stats_.bursts_delivered;
    it->second->sink->OnFrameBurst(sp, std::span<const Frame>(burst->data(), burst->size()));
  });
  return clear;
}

}  // namespace hyperion::net
