#include "src/mem/frame_pool.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hyperion::mem {

namespace {

constexpr size_t kHugePage = size_t{2} << 20;

// Reserves `bytes` of zero-reading anonymous memory aligned to kHugePage,
// advised for huge pages. Nothing is backed until it is touched.
uint8_t* ReserveBacking(size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  // Over-map by one huge page, then trim both ends to the aligned span.
  size_t span = bytes + kHugePage;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (raw == MAP_FAILED) {
    std::perror("FramePool: mmap");
    std::abort();
  }
  auto base = reinterpret_cast<uintptr_t>(raw);
  uintptr_t aligned = (base + kHugePage - 1) & ~(kHugePage - 1);
  if (aligned > base) {
    munmap(raw, aligned - base);
  }
  munmap(reinterpret_cast<void*>(aligned + bytes), base + span - (aligned + bytes));
  auto* mem = reinterpret_cast<uint8_t*>(aligned);
  madvise(mem, bytes, MADV_HUGEPAGE);  // best effort: THP may be off
  return mem;
}

}  // namespace

FramePool::FramePool(size_t num_frames)
    : memory_(ReserveBacking(num_frames * isa::kPageSize)),
      refcount_(num_frames, 0),
      netbuf_(num_frames, 0) {
  recycled_.reserve(num_frames);
}

FramePool::~FramePool() {
  if (memory_ != nullptr) {
    munmap(memory_, total_frames() * isa::kPageSize);
  }
}

Result<HostFrame> FramePool::AllocateLocked(bool zero) {
  HostFrame frame;
  if (!recycled_.empty()) {
    frame = recycled_.back();
    recycled_.pop_back();
    if (zero) {
      std::memset(memory_ + static_cast<size_t>(frame) * isa::kPageSize, 0, isa::kPageSize);
    }
  } else if (high_water_ < refcount_.size()) {
    frame = static_cast<HostFrame>(high_water_++);  // never touched: reads zero
  } else {
    return ResourceExhaustedError("host frame pool exhausted");
  }
  refcount_[frame] = 1;
  return frame;
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
    recycled_.push_back(frame);
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
  return memory_ + static_cast<size_t>(frame) * isa::kPageSize;
}

const uint8_t* FramePool::FrameData(HostFrame frame) const {
  assert(IsAllocated(frame));
  return memory_ + static_cast<size_t>(frame) * isa::kPageSize;
}

}  // namespace hyperion::mem
