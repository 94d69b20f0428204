// Content-based page sharing (KSM-style).
//
// The daemon periodically scans registered guests' pages, hashes their
// contents, byte-compares hash collisions, and merges identical pages onto a
// single reference-counted host frame mapped copy-on-write into every owner.
// A pass hashes each host frame once: pages that already share a frame
// (merged earlier, or COW-shared by a fork) reuse the frame's CRC
// from a per-pass memo, so a rescan of merged guests costs one hash per
// distinct frame. Only shared frames enter the memo; a private frame is
// hashed without one, so a pass with no sharing pays no memo inserts.
// Guest stores to a merged page raise a COW-break exit that re-privatizes it
// (handled in the CPU memory path).
//
// Pages that are write-protected (shadow PT interception) or absent are
// never merged.

#ifndef SRC_KSM_KSM_H_
#define SRC_KSM_KSM_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/mem/frame_pool.h"
#include "src/mem/guest_memory.h"

namespace hyperion::ksm {

struct KsmStats {
  uint64_t pages_scanned = 0;
  uint64_t pages_hashed = 0;   // CRCs computed: one per distinct frame per pass
  uint64_t pages_merged = 0;   // remapped onto an existing shared frame
  uint64_t frames_freed = 0;   // host frames released by merging
  uint64_t scan_passes = 0;

  uint64_t BytesSaved() const { return frames_freed * isa::kPageSize; }
};

class KsmDaemon {
 public:
  explicit KsmDaemon(mem::FramePool* pool) : pool_(pool) {}

  // Registers a guest address space for scanning. The memory's invalidate
  // hook (see GuestMemory::SetInvalidateHook) must drop cached translations;
  // merging relies on it.
  void AddClient(mem::GuestMemory* memory) { clients_.push_back(memory); }

  void RemoveClient(mem::GuestMemory* memory) { std::erase(clients_, memory); }

  // One full scan-and-merge pass over all clients. Returns pages merged in
  // this pass.
  uint64_t ScanOnce();

  const KsmStats& stats() const { return stats_; }

 private:
  struct PageRef {
    mem::GuestMemory* memory;
    uint32_t gpn;
  };

  mem::FramePool* pool_;
  std::vector<mem::GuestMemory*> clients_;
  KsmStats stats_;
};

}  // namespace hyperion::ksm

#endif  // SRC_KSM_KSM_H_
