#include "src/mem/frame_pool.h"

#include <cassert>
#include <cstring>

namespace hyperion::mem {

FramePool::FramePool(size_t num_frames)
    : memory_(num_frames * isa::kPageSize),
      refcount_(num_frames, 0),
      netbuf_(num_frames, 0),
      free_count_(num_frames) {}

Result<HostFrame> FramePool::AllocateLocked(bool zero) {
  if (free_count_ == 0) {
    return ResourceExhaustedError("host frame pool exhausted");
  }
  // Next-fit scan; wraps once.
  size_t n = refcount_.size();
  for (size_t step = 0; step < n; ++step) {
    size_t i = (alloc_cursor_ + step) % n;
    if (refcount_[i] == 0) {
      alloc_cursor_ = (i + 1) % n;
      refcount_[i] = 1;
      --free_count_;
      if (zero) {
        std::memset(memory_.data() + i * isa::kPageSize, 0, isa::kPageSize);
      }
      return static_cast<HostFrame>(i);
    }
  }
  return InternalError("free_count_ positive but no free frame found");
}

Result<HostFrame> FramePool::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  return AllocateLocked(/*zero=*/true);
}

Result<HostFrame> FramePool::AllocateNetBuf() {
  std::lock_guard<std::mutex> lock(mu_);
  HYP_ASSIGN_OR_RETURN(HostFrame frame, AllocateLocked(/*zero=*/false));
  netbuf_[frame] = 1;
  ++netbuf_count_;
  return frame;
}

void FramePool::ReleaseNetBuf(HostFrame frame) {
  if (const ExecutePhase* slice = ExecutePhase::Current()) {
    DecRef(*slice, frame);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  DecRefLocked(frame);
}

void FramePool::DecRef(const ExecutePhase& ph, HostFrame frame) {
  assert(IsAllocated(frame));
  ph.pool_.decrefs.emplace_back(this, frame);
}

void FramePool::DecRef(const Phase& ph, HostFrame frame) {
  if (const ExecutePhase* ep = ph.AsExecute()) {
    DecRef(*ep, frame);
  } else {
    DecRefImmediate(*ph.AsDirect(), frame);
  }
}

void FramePool::DecRefImmediate(const DirectPhase&, HostFrame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  DecRefLocked(frame);
}

void FramePool::CommitStage(const CommitPhase&, PoolStage& stage) {
  // One lock per run of same-pool entries: almost always the whole stage.
  const auto& decrefs = stage.decrefs;
  for (size_t i = 0; i < decrefs.size();) {
    FramePool* pool = decrefs[i].first;
    std::lock_guard<std::mutex> lock(pool->mu_);
    for (; i < decrefs.size() && decrefs[i].first == pool; ++i) {
      pool->DecRefLocked(decrefs[i].second);
    }
  }
  stage.decrefs.clear();
}

void FramePool::DecRefLocked(HostFrame frame) {
  assert(IsAllocated(frame));
  if (--refcount_[frame] == 0) {
    ++free_count_;
    if (netbuf_[frame] != 0) {
      netbuf_[frame] = 0;
      --netbuf_count_;
    }
  }
}

void FramePool::AddRef(const DirectPhase&, HostFrame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(IsAllocated(frame));
  ++refcount_[frame];
}

uint32_t FramePool::RefCount(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS {
  assert(frame < refcount_.size());
  return refcount_[frame];
}

uint8_t* FramePool::FrameData(HostFrame frame) {
  assert(IsAllocated(frame));
  return memory_.data() + static_cast<size_t>(frame) * isa::kPageSize;
}

const uint8_t* FramePool::FrameData(HostFrame frame) const {
  assert(IsAllocated(frame));
  return memory_.data() + static_cast<size_t>(frame) * isa::kPageSize;
}

}  // namespace hyperion::mem
