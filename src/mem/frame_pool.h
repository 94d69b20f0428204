// Host physical memory: a pool of 4 KiB frames shared by every VM on a host.
//
// Frames are reference-counted so that content-based page sharing (src/ksm)
// can map one host frame into several guests copy-on-write.
//
// Backing: the pool reserves its RAM up front and pays for it only when it
// is touched, so a host can reserve far more than its guests use (the
// overcommit story of consolidation). The frames live in one anonymous,
// private, MAP_NORESERVE mapping, aligned to 2 MiB and advised
// MADV_HUGEPAGE (best effort), so the first touch of a region faults in a
// huge page rather than 512 small ones. The kernel hands out untouched
// pages as zero.
//
// Allocation is O(1) and recycle-first: a LIFO stack of frames released at
// refcount 0 is popped first, and only when it is empty does a high-water
// mark advance over frames never handed out. Zeroing rule: Allocate()
// clears a recycled frame and leaves a never-used one alone (it is already
// zero); AllocateNetBuf() clears neither, since a payload buffer is
// write-before-read. Allocation fails exactly when free_frames() == 0.
//
// Concurrency (DESIGN.md §8): during a round of the staged execution core,
// worker threads may Allocate (COW break, balloon deflate) and stage DecRefs
// (COW break, balloon inflate); Allocate/AddRef take the pool mutex, DecRef
// is deferred into the PoolStage the slice's ExecutePhase carries and
// applied at the round barrier in deterministic commit order. The stage
// holds (pool, frame) pairs, so a release into another host's pool (a
// payload that crossed the fabric) stages the same way. Because AddRef only
// ever happens at barriers (KSM scans, snapshot restore) and DecRefs are
// deferred, every refcount a slice can observe is stable for the whole
// round — sharing decisions do not depend on worker interleaving. Frame
// *numbers* handed out by Allocate may vary with interleaving (which lane
// pops the recycle stack first), but frame numbering is invisible to
// guest-visible state; the one observable caveat is allocation-failure
// attribution when the pool runs dry mid-round, which is
// schedule-dependent.
//
// Phase discipline (DESIGN.md §9): the immediate-effect entry points
// (DecRefImmediate, AddRef) demand a direct-phase token that worker lanes
// cannot hold; lanes stage via DecRef(const ExecutePhase&, ...). Code that
// runs in both regimes (GuestMemory's COW break) dispatches through
// DecRef(const Phase&, ...).

#ifndef SRC_MEM_FRAME_POOL_H_
#define SRC_MEM_FRAME_POOL_H_

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/isa/hv32.h"
#include "src/util/bitmap.h"
#include "src/util/phase.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace hyperion::net {
class FrameBuf;  // friend: the refcounted network payload buffer
}  // namespace hyperion::net

namespace hyperion::mem {

// Index of a host physical frame within a FramePool.
using HostFrame = uint32_t;
inline constexpr HostFrame kInvalidFrame = UINT32_MAX;

class FramePool;

// A slice's deferred DecRefs, in staging order (see the file comment).
struct PoolStage {
  std::vector<std::pair<FramePool*, HostFrame>> decrefs;
};

class FramePool {
 public:
  // A pool holding `num_frames` 4 KiB frames (all initially free), reserved
  // but not yet backed.
  explicit FramePool(size_t num_frames);
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // Applies a slice's staged DecRefs, in staging order (round barrier).
  static void CommitStage(const CommitPhase&, PoolStage& stage);

  // Allocates a zeroed frame with refcount 1 (see the zeroing rule above).
  Result<HostFrame> Allocate();

  // Allocates a frame backing a refcounted network payload buffer
  // (net::FrameBuf) rather than a guest mapping. Netbuf frames always hold
  // pool refcount 1 — FrameBuf multiplexes its own shared handle on top —
  // and are flagged so the frame-accounting auditor expects them to be
  // mapped by zero guest pages. Contents are not zeroed: the buffer is
  // write-before-read by construction.
  Result<HostFrame> AllocateNetBuf();

  // Lockless like RefCount: the auditor runs at the round barrier.
  bool IsNetBuf(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS {
    return frame < netbuf_.size() && netbuf_[frame] != 0;
  }
  size_t netbuf_frames() const HYP_NO_THREAD_SAFETY_ANALYSIS { return netbuf_count_; }

  // Drops one reference from an executing slice: deferred into the slice's
  // PoolStage, applied at the round barrier.
  void DecRef(const ExecutePhase& ph, HostFrame frame);

  // Phase-dispatching decref for code that runs in both regimes
  // (GuestMemory COW break / balloon paths).
  void DecRef(const Phase& ph, HostFrame frame);

  // Drops one reference in place; at refcount 0 the frame goes on top of
  // the recycle stack. Serial/commit phases only.
  void DecRefImmediate(const DirectPhase&, HostFrame frame);

  // Adds a reference (page-sharing). Barrier-only: demands a direct token.
  void AddRef(const DirectPhase&, HostFrame frame);

  // Deliberately lockless (see mu_'s comment): reachable refcounts are
  // round-stable, which the analysis cannot see.
  uint32_t RefCount(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS;

  uint8_t* FrameData(HostFrame frame);
  const uint8_t* FrameData(HostFrame frame) const;

  size_t total_frames() const HYP_NO_THREAD_SAFETY_ANALYSIS { return refcount_.size(); }
  size_t free_frames() const HYP_NO_THREAD_SAFETY_ANALYSIS {
    return recycled_.size() + (total_frames() - high_water_);
  }
  size_t used_frames() const { return total_frames() - free_frames(); }

 private:
  // Release path for FrameBuf's control block, which dies wherever the last
  // handle dies: stages into the thread's current slice when there is one,
  // drops the reference in place otherwise. Private on purpose — the
  // destructor of a refcounted buffer cannot carry a phase token, so the
  // hole in the token discipline is scoped to the one friend that needs it,
  // and the staging route keeps release ordering deterministic for any
  // worker count (DESIGN.md §10).
  friend class net::FrameBuf;
  void ReleaseNetBuf(HostFrame frame);

  Result<HostFrame> AllocateLocked(bool zero) HYP_REQUIRES(mu_);

  // Lockless like RefCount: used on the staged DecRef path (assert only).
  bool IsAllocated(HostFrame frame) const HYP_NO_THREAD_SAFETY_ANALYSIS {
    return frame < refcount_.size() && refcount_[frame] > 0;
  }

  void DecRefLocked(HostFrame frame) HYP_REQUIRES(mu_);

  // Guards refcount_/recycled_/high_water_ against concurrent Allocate
  // calls from slices. RefCount reads are deliberately lockless: the only
  // refcounts a slice can reach are those of frames mapped somewhere, and
  // these are round-stable (see the file comment).
  mutable std::mutex mu_;

  uint8_t* memory_ = nullptr;  // the reserved mapping (see the file comment)
  std::vector<uint32_t> refcount_ HYP_GUARDED_BY(mu_);
  std::vector<uint8_t> netbuf_ HYP_GUARDED_BY(mu_);  // frame backs a FrameBuf
  size_t netbuf_count_ HYP_GUARDED_BY(mu_) = 0;
  // Frames released at refcount 0, most recent last; capacity for every
  // frame is reserved up front, so a release never reallocates.
  std::vector<HostFrame> recycled_ HYP_GUARDED_BY(mu_);
  size_t high_water_ HYP_GUARDED_BY(mu_) = 0;  // frames >= it were never handed out
};

}  // namespace hyperion::mem

#endif  // SRC_MEM_FRAME_POOL_H_
