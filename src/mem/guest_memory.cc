#include "src/mem/guest_memory.h"

#include <cassert>
#include <cstring>

namespace hyperion::mem {

using isa::kPageSize;

Result<std::unique_ptr<GuestMemory>> GuestMemory::Create(FramePool* pool, uint32_t ram_bytes) {
  if (ram_bytes == 0 || ram_bytes % kPageSize != 0) {
    return InvalidArgumentError("RAM size must be a positive multiple of the page size");
  }
  if (isa::IsMmio(ram_bytes - 1)) {
    return InvalidArgumentError("RAM size overlaps the MMIO window");
  }
  uint32_t num_pages = ram_bytes / kPageSize;
  if (num_pages > pool->free_frames()) {
    return ResourceExhaustedError("host pool cannot back " + std::to_string(num_pages) +
                                  " guest pages");
  }
  std::vector<HostFrame> pages(num_pages, kInvalidFrame);
  for (uint32_t i = 0; i < num_pages; ++i) {
    HYP_ASSIGN_OR_RETURN(pages[i], pool->Allocate());
  }
  return std::unique_ptr<GuestMemory>(new GuestMemory(pool, std::move(pages)));
}

GuestMemory::GuestMemory(FramePool* pool, std::vector<HostFrame> pages)
    : pool_(pool), pages_(std::move(pages)) {
  shared_.Resize(pages_.size());
  write_protected_.Resize(pages_.size());
}

GuestMemory::~GuestMemory() {
  assert(cursors_.size() == (chain_ ? 1u : 0u) && "a DirtyCursor outlives its memory");
  // Teardown is serial by construction (between rounds).
  ScopedSerialPhase ph;
  for (HostFrame f : pages_) {
    if (f != kInvalidFrame) {
      pool_->DecRefImmediate(ph, f);
    }
  }
}

HostFrame GuestMemory::FrameForPage(uint32_t gpn) const {
  return gpn < pages_.size() ? pages_[gpn] : kInvalidFrame;
}

Status GuestMemory::ReleasePage(const Phase& ph, uint32_t gpn) {
  if (gpn >= pages_.size()) {
    return OutOfRangeError("gpn past end of RAM");
  }
  if (pages_[gpn] == kInvalidFrame) {
    return FailedPreconditionError("page already absent");
  }
  pool_->DecRef(ph, pages_[gpn]);
  pages_[gpn] = kInvalidFrame;
  shared_.Clear(gpn);
  MarkDirty(gpn);
  NotifyInvalidate(gpn);
  return OkStatus();
}

Status GuestMemory::PopulatePage(uint32_t gpn) {
  if (gpn >= pages_.size()) {
    return OutOfRangeError("gpn past end of RAM");
  }
  if (pages_[gpn] != kInvalidFrame) {
    return FailedPreconditionError("page already present");
  }
  HYP_ASSIGN_OR_RETURN(pages_[gpn], pool_->Allocate());
  MarkDirty(gpn);
  NotifyInvalidate(gpn);
  return OkStatus();
}

Status GuestMemory::RemapPage(const DirectPhase& ph, uint32_t gpn, HostFrame frame) {
  if (gpn >= pages_.size()) {
    return OutOfRangeError("gpn past end of RAM");
  }
  pool_->AddRef(ph, frame);
  if (pages_[gpn] != kInvalidFrame) {
    pool_->DecRefImmediate(ph, pages_[gpn]);
  }
  pages_[gpn] = frame;
  NotifyInvalidate(gpn);
  return OkStatus();
}

uint8_t* GuestMemory::PageData(uint32_t gpn) {
  HostFrame f = FrameForPage(gpn);
  return f == kInvalidFrame ? nullptr : pool_->FrameData(f);
}

const uint8_t* GuestMemory::PageData(uint32_t gpn) const {
  HostFrame f = FrameForPage(gpn);
  return f == kInvalidFrame ? nullptr : pool_->FrameData(f);
}

bool GuestMemory::PageIsZero(uint32_t gpn) const {
  const uint8_t* p = PageData(gpn);
  if (p == nullptr) {
    return false;
  }
  uint64_t acc = 0;
  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    acc |= w;
    if (acc != 0) {
      return false;
    }
  }
  return true;
}

Status GuestMemory::CheckRange(uint32_t gpa, size_t size) const {
  uint64_t end = static_cast<uint64_t>(gpa) + size;
  if (end > static_cast<uint64_t>(ram_size())) {
    return OutOfRangeError("gpa range past end of RAM");
  }
  return OkStatus();
}

Status GuestMemory::Read(uint32_t gpa, void* out, size_t size) const {
  HYP_RETURN_IF_ERROR(CheckRange(gpa, size));
  auto* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    uint32_t gpn = isa::PageNumber(gpa);
    uint32_t off = isa::VaPageOffset(gpa);
    size_t chunk = std::min<size_t>(size, kPageSize - off);
    const uint8_t* page = PageData(gpn);
    if (page == nullptr) {
      return FailedPreconditionError("read of absent guest page " + std::to_string(gpn));
    }
    std::memcpy(dst, page + off, chunk);
    dst += chunk;
    gpa += static_cast<uint32_t>(chunk);
    size -= chunk;
  }
  return OkStatus();
}

Status GuestMemory::Write(uint32_t gpa, const void* data, size_t size) {
  HYP_RETURN_IF_ERROR(CheckRange(gpa, size));
  const auto* src = static_cast<const uint8_t*>(data);
  while (size > 0) {
    uint32_t gpn = isa::PageNumber(gpa);
    uint32_t off = isa::VaPageOffset(gpa);
    size_t chunk = std::min<size_t>(size, kPageSize - off);
    if (IsShared(gpn)) {
      // Host-side writes (device DMA, trap emulation) must not scribble on a
      // frame other guests still map: break sharing transparently, charging
      // the effect to the installed phase (the executing slice's) or to a
      // runtime-checked serial token.
      if (effect_phase_ != nullptr) {
        HYP_RETURN_IF_ERROR(BreakSharing(*effect_phase_, gpn));
      } else {
        ScopedSerialPhase serial;
        HYP_RETURN_IF_ERROR(BreakSharing(serial, gpn));
      }
    }
    uint8_t* page = PageData(gpn);
    if (page == nullptr) {
      return FailedPreconditionError("write to absent guest page " + std::to_string(gpn));
    }
    std::memcpy(page + off, src, chunk);
    MarkDirty(gpn);
    src += chunk;
    gpa += static_cast<uint32_t>(chunk);
    size -= chunk;
  }
  return OkStatus();
}

Result<uint8_t> GuestMemory::ReadU8(uint32_t gpa) const {
  uint8_t v;
  HYP_RETURN_IF_ERROR(Read(gpa, &v, sizeof(v)));
  return v;
}

Result<uint16_t> GuestMemory::ReadU16(uint32_t gpa) const {
  uint16_t v;
  HYP_RETURN_IF_ERROR(Read(gpa, &v, sizeof(v)));
  return v;
}

Result<uint32_t> GuestMemory::ReadU32(uint32_t gpa) const {
  uint32_t v;
  HYP_RETURN_IF_ERROR(Read(gpa, &v, sizeof(v)));
  return v;
}

Status GuestMemory::WriteU8(uint32_t gpa, uint8_t v) { return Write(gpa, &v, sizeof(v)); }
Status GuestMemory::WriteU16(uint32_t gpa, uint16_t v) { return Write(gpa, &v, sizeof(v)); }
Status GuestMemory::WriteU32(uint32_t gpa, uint32_t v) { return Write(gpa, &v, sizeof(v)); }

DirtyCursor::DirtyCursor(GuestMemory& mem) : mem_(mem), dirty_(mem.num_pages()) {
  ScopedSerialPhase registering;  // the cursor list changes only between rounds
  mem_.cursors_.push_back(this);
}

DirtyCursor::~DirtyCursor() {
  ScopedSerialPhase unregistering;
  std::erase(mem_.cursors_, this);
}

bool GuestMemory::MarkCursors(uint32_t gpn) {
  if (gpn >= pages_.size()) {
    return false;
  }
  bool first = false;
  for (DirtyCursor* c : cursors_) {
    first |= !c->dirty_.Test(gpn);
    c->dirty_.Set(gpn);
  }
  return first;
}

Result<Bitmap> GuestMemory::HarvestDirty() {
  if (!chain_) {
    return FailedPreconditionError("no dirty-log chain started (EnableDirtyLog)");
  }
  return chain_->Harvest();
}

bool GuestMemory::IsShared(uint32_t gpn) const {
  return gpn < shared_.size() && shared_.Test(gpn);
}

void GuestMemory::SetShared(uint32_t gpn, bool shared) {
  if (gpn < shared_.size()) {
    shared_.Assign(gpn, shared);
  }
}

Status GuestMemory::BreakSharing(const Phase& ph, uint32_t gpn) {
  if (gpn >= pages_.size()) {
    return OutOfRangeError("gpn past end of RAM");
  }
  if (!shared_.Test(gpn)) {
    return FailedPreconditionError("page is not shared");
  }
  HostFrame old = pages_[gpn];
  HYP_ASSIGN_OR_RETURN(HostFrame fresh, pool_->Allocate());
  std::memcpy(pool_->FrameData(fresh), pool_->FrameData(old), kPageSize);
  pages_[gpn] = fresh;
  pool_->DecRef(ph, old);
  shared_.Clear(gpn);
  MarkDirty(gpn);
  NotifyInvalidate(gpn);
  return OkStatus();
}

bool GuestMemory::IsWriteProtected(uint32_t gpn) const {
  return gpn < write_protected_.size() && write_protected_.Test(gpn);
}

void GuestMemory::SetWriteProtected(uint32_t gpn, bool wp) {
  if (gpn < write_protected_.size()) {
    write_protected_.Assign(gpn, wp);
  }
}

}  // namespace hyperion::mem
