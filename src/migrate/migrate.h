// Live migration between hosts.
//
// Pre-copy: iterative rounds stream (re-)dirtied pages while the guest keeps
// running; when the dirty set stops shrinking past a threshold the VM pauses
// for a final stop-and-copy. Downtime grows with the dirty rate.
//
// Post-copy: the VM pauses only for its (tiny) CPU/device state, resumes at
// the destination immediately, and faults pages over on demand while a
// background pusher drains the rest. Downtime is constant; the cost moves
// into demand-fetch stalls.
//
// Both flavors make the destination at switchover straight from the paused
// source (snapshot::MakeVmFrom): pre-copy copies its pages, post-copy leaves
// them to demand paging. The rounds charge wire time but copy nothing.
// Storage is assumed shared between hosts (the standard deployment); only
// RAM and machine state move.
//
// Fault tolerance: when MigrateOptions.fault carries a FaultInjector, every
// wire transfer is subject to the plan's loss/outage/latency events. The RAM
// stream moves in chunks; on the source side each chunk is sent at most
// kMaxChunkRetries times with exponential backoff between attempts, and
// pre-copy's pending set makes the stream resumable — only unacked pages are
// resent. Post-copy's transfers retry until its run limit. Both flavors share
// one switchover, so both guarantee it is atomic: a migration that fails at
// any injected point returns an error with the source VM running (if it was
// running) and consistent, and no VM left on the destination. Only a
// successful switchover leaves the source paused for the caller to destroy.

#ifndef SRC_MIGRATE_MIGRATE_H_
#define SRC_MIGRATE_MIGRATE_H_

#include <string>

#include "src/core/host.h"
#include "src/core/vm.h"
#include "src/net/network.h"

namespace hyperion::fault {
class FaultInjector;
}  // namespace hyperion::fault

namespace hyperion::migrate {

// Attempts per source-side chunk (pre-copy rounds, stop-and-copy, machine
// state) before the migration aborts.
inline constexpr uint32_t kMaxChunkRetries = 6;

struct MigrateOptions {
  net::LinkParams link{1'000'000'000ull, 50 * kSimTicksPerUs};  // 1 Gb/s, 50 us
  // Pre-copy: scan pages and send a marker instead of 4 KiB for all-zero
  // pages (untouched guest RAM). Disable for the ablation baseline.
  bool skip_zero_pages = true;
  // Post-copy: pages pushed per background batch.
  uint32_t background_batch_pages = 32;
  // Post-copy: bound on how long to drive the destination until residency.
  SimTime postcopy_run_limit = 60 * kSimTicksPerSec;

  // --- Fault tolerance -----------------------------------------------------
  // Injector governing the migration wire (nullptr = fault-free).
  fault::FaultInjector* fault = nullptr;
  std::string fault_site = "migrate:link";
  // RAM moves in chunks of this many pages; a chunk is the loss/retry unit.
  uint32_t chunk_pages = 128;
  // First retry delay; doubles per attempt up to the cap.
  SimTime retry_backoff = 5 * kSimTicksPerMs;
  SimTime retry_backoff_cap = 500 * kSimTicksPerMs;
  // Pre-copy: cap on one round's wall time; on expiry the unsent remainder
  // carries into the next round's pending set. 0 = unlimited.
  SimTime round_timeout = 0;
};

struct MigrationReport {
  uint32_t rounds = 0;          // pre-copy rounds (incl. the full first pass)
  uint64_t pages_sent = 0;      // page transfers, including resends
  uint64_t bytes_sent = 0;
  SimTime total_time = 0;       // start -> all state resident at destination
  SimTime downtime = 0;         // guest fully paused / unavailable
  uint64_t demand_fetches = 0;  // post-copy only
  SimTime demand_stall_total = 0;
  // Robustness cost under fault injection:
  uint64_t retries = 0;         // chunk/fetch retransmissions
  uint64_t timeouts = 0;        // pre-copy rounds cut off by round_timeout
  uint64_t pages_resent = 0;    // page transfers repeated due to loss

  double DowntimeMs() const { return SimTimeToMs(downtime); }
  double TotalMs() const { return SimTimeToMs(total_time); }
  // Two reports are equal iff the migrations behaved identically (the chaos
  // harness's determinism oracle).
  bool operator==(const MigrationReport&) const = default;
};

// Migrates `vm` from `src` to `dst` with iterative pre-copy. On success the
// source VM is left paused (caller destroys it) and the returned pointer is
// the running destination VM. The report lands in *report — also on failure,
// where it records the progress made before the abort.
Result<core::Vm*> PreCopyMigrate(core::Host& src, core::Vm* vm, core::Host& dst,
                                 const MigrateOptions& options, MigrationReport* report);

// Migrates `vm` with post-copy: instant switchover, then demand paging. The
// destination host is driven until every needed page is resident (or the
// run limit hits, which fails the migration, destroys the destination VM,
// and resumes the source — switchover rolls back).
Result<core::Vm*> PostCopyMigrate(core::Host& src, core::Vm* vm, core::Host& dst,
                                  const MigrateOptions& options, MigrationReport* report);

}  // namespace hyperion::migrate

#endif  // SRC_MIGRATE_MIGRATE_H_
