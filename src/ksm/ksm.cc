#include "src/ksm/ksm.h"

#include <cstring>
#include <unordered_map>

#include "src/util/crc32.h"

namespace hyperion::ksm {

// Threading: ScanOnce runs only from clock events, which the staged execution
// core fires at round barriers — never concurrently with guest slices. It may
// therefore read page contents and mutate FramePool refcounts directly,
// without the per-slice staging that in-slice code must use. The serial
// token minted here is the static form of that argument.
uint64_t KsmDaemon::ScanOnce() {
  ScopedSerialPhase serial;
  ++stats_.scan_passes;
  uint64_t merged_this_pass = 0;

  // hash -> representative pages with that content hash. Rebuilt every pass:
  // page contents are volatile, so a persistent table would chase stale data.
  std::unordered_map<uint32_t, std::vector<PageRef>> table;

  // host frame -> CRC of its contents, for this pass only. Pages that share
  // a frame (merged by an earlier pass, or COW-shared by a fork) are hashed
  // once. Only shared frames (refcount > 1) get an entry: a private frame is
  // mapped by no other page, and a merge only remaps the page being scanned,
  // so nothing would look it up again. Exact: the pass allocates no frame
  // and no guest runs, so a frame's bytes cannot change before the pass
  // ends, and a frame a merge frees is never mapped again in it. A stale
  // entry could only hide a merge, never make a wrong one: the memcmp below
  // decides every merge.
  std::unordered_map<mem::HostFrame, uint32_t> frame_crc;

  for (mem::GuestMemory* memory : clients_) {
    for (uint32_t gpn = 0; gpn < memory->num_pages(); ++gpn) {
      if (!memory->IsPresent(gpn) || memory->IsWriteProtected(gpn)) {
        continue;
      }
      ++stats_.pages_scanned;
      const uint8_t* data = memory->PageData(gpn);
      mem::HostFrame my_frame = memory->FrameForPage(gpn);
      uint32_t hash;
      if (auto memo = frame_crc.find(my_frame); memo != frame_crc.end()) {
        hash = memo->second;
      } else {
        hash = Crc32(data, isa::kPageSize);
        ++stats_.pages_hashed;
        if (pool_->RefCount(my_frame) > 1) {
          frame_crc.emplace(my_frame, hash);
        }
      }

      auto& bucket = table[hash];
      bool merged = false;
      for (const PageRef& rep : bucket) {
        mem::HostFrame rep_frame = rep.memory->FrameForPage(rep.gpn);
        if (rep_frame == my_frame) {
          merged = true;  // already sharing this frame
          break;
        }
        if (std::memcmp(pool_->FrameData(rep_frame), data, isa::kPageSize) != 0) {
          continue;  // hash collision
        }
        // Merge: both map the representative's frame copy-on-write.
        size_t used_before = pool_->used_frames();
        if (!memory->RemapPage(serial, gpn, rep_frame).ok()) {
          continue;
        }
        memory->SetShared(gpn, true);
        rep.memory->SetShared(rep.gpn, true);
        // The representative's cached writable mappings must be dropped; its
        // page content did not change, so a targeted invalidate suffices.
        if (rep.memory != memory || rep.gpn != gpn) {
          rep.memory->NotifySharedExternally(rep.gpn);
        }
        stats_.frames_freed += used_before - pool_->used_frames();
        ++stats_.pages_merged;
        ++merged_this_pass;
        merged = true;
        break;
      }
      if (!merged) {
        bucket.push_back(PageRef{memory, gpn});
      }
    }
  }
  return merged_this_pass;
}

}  // namespace hyperion::ksm
