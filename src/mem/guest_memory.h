// Guest-physical address space of one VM.
//
// GuestMemory maps guest page numbers to host frames from the shared
// FramePool. It provides bounds-checked byte access (used by device DMA,
// snapshotting and migration), a dirty log with any number of independent
// consumers (DirtyCursor: pre-copy rounds, the incremental-snapshot chain),
// page-presence tracking (ballooning, post-copy demand paging) and per-page
// share/write-protect flags (KSM copy-on-write and shadow-paging traps).

#ifndef SRC_MEM_GUEST_MEMORY_H_
#define SRC_MEM_GUEST_MEMORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/mem/frame_pool.h"
#include "src/util/phase.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace hyperion::mem {

class GuestMemory;

// One consumer of a GuestMemory's dirty log. Registers on construction with
// an empty set, collects every page written (or whose presence changed)
// from then on, and unregisters on destruction. Harvest() takes only this
// cursor's pages, so no consumer can steal another's. Cursors come and go
// serially, never inside an execute lane; stores mark them from the VM's
// one lane, so the list is stable while anything reads it.
class DirtyCursor {
 public:
  explicit DirtyCursor(GuestMemory& mem);
  ~DirtyCursor();

  DirtyCursor(const DirtyCursor&) = delete;
  DirtyCursor& operator=(const DirtyCursor&) = delete;

  // Pages dirtied since construction or the previous harvest; clears them.
  Bitmap Harvest() { return dirty_.ExchangeClear(); }

 private:
  friend class GuestMemory;

  GuestMemory& mem_;
  Bitmap dirty_;
};

class GuestMemory {
 public:
  // Creates a fully populated gPA space of `ram_bytes` (must be page-aligned)
  // backed by `pool`. Fails if the pool cannot supply enough frames.
  static Result<std::unique_ptr<GuestMemory>> Create(FramePool* pool, uint32_t ram_bytes);

  ~GuestMemory();

  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  uint32_t ram_size() const { return static_cast<uint32_t>(pages_.size()) * isa::kPageSize; }
  uint32_t num_pages() const { return static_cast<uint32_t>(pages_.size()); }
  FramePool& pool() { return *pool_; }

  // Invoked whenever the backing of a page changes under the guest (remap,
  // release, populate, COW break), so the owner can drop cached translations.
  void SetInvalidateHook(std::function<void(uint32_t)> hook) { invalidate_hook_ = std::move(hook); }

  // --- Page mapping -------------------------------------------------------

  // Host frame backing guest page `gpn`, or kInvalidFrame when not present
  // (ballooned out or not yet arrived during post-copy).
  HostFrame FrameForPage(uint32_t gpn) const;
  bool IsPresent(uint32_t gpn) const { return FrameForPage(gpn) != kInvalidFrame; }

  // Releases the frame backing `gpn` (balloon inflate / migration source).
  // Runs in both regimes (hypercall from a slice; migration serially), so it
  // takes `const Phase&` and the pool decref dispatches on it.
  // Release and populate both mark `gpn` in every live cursor: a presence
  // change is a change the snapshot chain must carry.
  Status ReleasePage(const Phase& ph, uint32_t gpn);

  // Installs a fresh zeroed frame at `gpn` (balloon deflate).
  Status PopulatePage(uint32_t gpn);

  // Replaces the mapping of `gpn` with `frame` (KSM merge; takes a ref on
  // `frame` and drops the old frame's ref). AddRef is barrier-only, so this
  // demands a direct token (KSM scans and snapshot restore are serial).
  Status RemapPage(const DirectPhase& ph, uint32_t gpn, HostFrame frame);

  // Direct pointer to the page's data; null when not present.
  uint8_t* PageData(uint32_t gpn);
  const uint8_t* PageData(uint32_t gpn) const;

  // True when the page is present and holds only zero bytes (snapshot and
  // migration elide such pages).
  bool PageIsZero(uint32_t gpn) const;

  // --- Byte access (crosses page boundaries; fails on absent pages) --------

  Status Read(uint32_t gpa, void* out, size_t size) const;
  // Write breaks sharing transparently when it hits a COW page; the decref
  // that implies routes through the effect phase installed by
  // SetEffectPhase, falling back to a runtime-checked serial token.
  Status Write(uint32_t gpa, const void* data, size_t size);

  Result<uint8_t> ReadU8(uint32_t gpa) const;
  Result<uint16_t> ReadU16(uint32_t gpa) const;
  Result<uint32_t> ReadU32(uint32_t gpa) const;
  Status WriteU8(uint32_t gpa, uint8_t v);
  Status WriteU16(uint32_t gpa, uint16_t v);
  Status WriteU32(uint32_t gpa, uint32_t v);

  // --- Dirty logging -------------------------------------------------------
  //
  // Every consumer holds its own DirtyCursor and harvests its own set:
  // pre-copy scopes one to its rounds. The incremental-snapshot chain is
  // the memory's own cursor, driven by the two calls below.

  // Starts the snapshot chain, or restarts it empty.
  void EnableDirtyLog() { chain_.emplace(*this); }
  // The chain's pages dirtied since it started or was last harvested, and
  // clears them. FailedPrecondition when no chain was started.
  Result<Bitmap> HarvestDirty();

  // Records a change to `gpn` in every live cursor. Returns true when some
  // cursor had not seen the page since its last harvest — the first write
  // since the most recent harvest by any consumer, for which the caller
  // charges the write-protect fault real dirty logging would incur. False
  // with no cursor live.
  bool MarkDirty(uint32_t gpn) { return !cursors_.empty() && MarkCursors(gpn); }

  // --- Per-page flags -------------------------------------------------------

  // COW-shared pages (KSM): stores must break sharing before writing.
  bool IsShared(uint32_t gpn) const;
  void SetShared(uint32_t gpn, bool shared);

  // Allocates a private copy of a shared page and remaps gpn to it.
  // Dual-regime (engine COW break in a slice; host-side writes serially).
  Status BreakSharing(const Phase& ph, uint32_t gpn);

  // Fires the invalidate hook for `gpn` without changing the mapping (KSM
  // flips the shared bit on a representative page: cached writable
  // translations must drop even though the frame is unchanged).
  void NotifySharedExternally(uint32_t gpn) { NotifyInvalidate(gpn); }

  // Installs the phase that transparent COW breaks inside Write should
  // charge effects to. The VM sets this to the slice's ExecutePhase for the
  // duration of RunVcpuSlice (device DMA during queue processing lands
  // here); when unset, Write mints a runtime-checked ScopedSerialPhase.
  void SetEffectPhase(const Phase* ph) { effect_phase_ = ph; }

  // Write-protected pages (shadow paging traps guest page-table writes).
  bool IsWriteProtected(uint32_t gpn) const;
  void SetWriteProtected(uint32_t gpn, bool wp);
  size_t WriteProtectedCount() const { return write_protected_.Count(); }

 private:
  GuestMemory(FramePool* pool, std::vector<HostFrame> pages);

  friend class DirtyCursor;

  Status CheckRange(uint32_t gpa, size_t size) const;
  bool MarkCursors(uint32_t gpn);
  void NotifyInvalidate(uint32_t gpn) {
    if (invalidate_hook_) {
      invalidate_hook_(gpn);
    }
  }

  std::function<void(uint32_t)> invalidate_hook_;
  const Phase* effect_phase_ = nullptr;  // see SetEffectPhase
  FramePool* pool_;
  std::vector<HostFrame> pages_;  // gpn -> host frame (or kInvalidFrame)
  Bitmap shared_;
  Bitmap write_protected_;
  std::vector<DirtyCursor*> cursors_;  // every live cursor, the chain's too
  std::optional<DirtyCursor> chain_;   // declared after cursors_: unregisters first
};

}  // namespace hyperion::mem

#endif  // SRC_MEM_GUEST_MEMORY_H_
