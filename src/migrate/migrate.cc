#include "src/migrate/migrate.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/fault/fault.h"
#include "src/snapshot/snapshot.h"
#include "src/util/logging.h"

namespace hyperion::migrate {

namespace {

constexpr uint32_t kMaxPrecopyRounds = 30;
// Pre-copy enters stop-and-copy once a round's dirty set is at most this
// many pages.
constexpr size_t kStopCopyThresholdPages = 64;
constexpr uint64_t kPageMetaBytes = 8;  // per-page wire header
constexpr uint64_t kPageWireBytes = isa::kPageSize + kPageMetaBytes;

// Conservative size of the non-RAM machine state on the wire.
uint64_t MachineStateBytes(core::Vm& vm) {
  return 4096 + static_cast<uint64_t>(vm.num_vcpus()) * 256;
}

// The source side of the migration wire: sends chunks while the source host
// (and the guest, unless paused) keeps running, retrying lost chunks with
// exponential backoff. Each attempt spends real wire time, so the guest
// dirties more memory during retries — the robustness cost the report's
// retry counters make visible.
class WireSender {
 public:
  WireSender(core::Host& src, const MigrateOptions& options, MigrationReport& rep)
      : src_(src), options_(options), rep_(rep) {}

  // Sends one chunk of `bytes` covering `pages` page transfers. Returns
  // false when the chunk was lost kMaxChunkRetries times. The caller
  // accounts the first attempt; retries account themselves.
  bool SendChunk(uint64_t bytes, uint64_t pages) {
    SimTime backoff = options_.retry_backoff;
    for (uint32_t attempt = 0;; ++attempt) {
      SimTime start = src_.clock().now();
      SimTime duration = options_.link.TransmitTime(bytes) + options_.link.latency;
      bool lost = false;
      if (options_.fault != nullptr) {
        fault::TransferFault f =
            options_.fault->OnTransfer(options_.fault_site, start, duration);
        duration += f.extra_latency;
        lost = f.lost;
      }
      src_.RunFor(duration);  // wall time passes whether or not the chunk lands
      if (!lost) {
        return true;
      }
      if (attempt + 1 >= kMaxChunkRetries) {
        return false;
      }
      ++rep_.retries;
      rep_.pages_resent += pages;
      rep_.pages_sent += pages;
      rep_.bytes_sent += bytes;
      src_.RunFor(backoff);
      backoff = std::min(backoff * 2, options_.retry_backoff_cap);
    }
  }

  // Streams `pages` of `mem` in chunks of options.chunk_pages and returns
  // how many were acked, or nullopt once a chunk is lost past the retry
  // budget. `elide_zero` sends a header-only marker for an all-zero (or
  // absent) page; a nonzero `timeout` ends the stream at the first chunk
  // boundary past it, counting a timeout and leaving the rest unsent.
  std::optional<size_t> SendPages(mem::GuestMemory& mem, const std::vector<uint32_t>& pages,
                                  bool elide_zero, SimTime timeout) {
    size_t chunk_pages = std::max<uint32_t>(1, options_.chunk_pages);
    SimTime start = src_.clock().now();
    size_t sent = 0;
    while (sent < pages.size()) {
      size_t n = std::min(chunk_pages, pages.size() - sent);
      uint64_t zero_pages = 0;
      if (elide_zero) {
        for (size_t k = 0; k < n; ++k) {
          uint32_t gpn = pages[sent + k];
          if (!mem.IsPresent(gpn) || mem.PageIsZero(gpn)) {
            ++zero_pages;
          }
        }
      }
      uint64_t bytes = (n - zero_pages) * kPageWireBytes + zero_pages * kPageMetaBytes;
      rep_.pages_sent += n;
      rep_.bytes_sent += bytes;
      if (!SendChunk(bytes, n)) {
        return std::nullopt;
      }
      sent += n;
      if (timeout != 0 && sent < pages.size() && src_.clock().now() - start >= timeout) {
        ++rep_.timeouts;
        break;
      }
    }
    return sent;
  }

 private:
  core::Host& src_;
  const MigrateOptions& options_;
  MigrationReport& rep_;
};

// What the shared routine hands its flavor's steps. The driver runs between
// rounds on the caller's thread.
struct Migration {
  Migration(core::Host& src, const MigrateOptions& options) : wire(src, options, rep) {}

  ScopedSerialPhase serial;
  MigrationReport rep;
  WireSender wire;
};

// A flavor's step; an empty one does nothing.
using Step = std::function<Status(Migration&)>;
using AdoptStep = std::function<Status(Migration&, core::Vm* dvm)>;

// The one migration routine. Each flavor fills in up to three steps:
//   live      runs while the guest keeps running (pre-copy's rounds). A
//             failure here leaves the guest as it was.
//   blackout  runs once the guest is paused, before the machine state
//             crosses (pre-copy's stop-and-copy).
//   adopt     runs once the destination is running (post-copy's demand
//             paging); it adds its own time to total_time.
// Between blackout and adopt the machine state crosses, the downtime is
// stamped, and the destination is made from the now-consistent source.
// From the pause on, any failure rolls back: no VM stays on `dst`, and the
// source resumes if it was running. The report lands in *report either way.
Result<core::Vm*> Migrate(core::Host& src, core::Vm* vm, core::Host& dst,
                          const MigrateOptions& options, MigrationReport* report,
                          snapshot::PageSource pages, const Step& live, const Step& blackout,
                          const AdoptStep& adopt) {
  if (vm->state() != core::VmState::kRunning && vm->state() != core::VmState::kPaused) {
    return FailedPreconditionError("vm is not migratable in its current state");
  }
  bool was_running = vm->state() == core::VmState::kRunning;
  Migration m(src, options);
  SimTime t0 = src.clock().now();
  auto finish = [&](Result<core::Vm*> result) {
    if (report != nullptr) {
      *report = m.rep;
    }
    return result;
  };
  if (live) {
    Status st = live(m);
    if (!st.ok()) {
      return finish(st);
    }
  }

  vm->Pause(m.serial);
  SimTime pause_start = src.clock().now();
  core::Vm* dvm = nullptr;
  auto roll_back = [&](Status st) {
    if (dvm != nullptr) {
      (void)dst.DestroyVm(dvm);
    }
    if (was_running) {
      vm->Resume(m.serial);
    }
    return finish(st);
  };
  if (blackout) {
    Status st = blackout(m);
    if (!st.ok()) {
      return roll_back(st);
    }
  }
  uint64_t state_bytes = MachineStateBytes(*vm);
  m.rep.bytes_sent += state_bytes;
  if (!m.wire.SendChunk(state_bytes, 0)) {
    return roll_back(AbortedError(
        "machine-state transfer lost past the retry budget; source vm resumed"));
  }
  m.rep.downtime = src.clock().now() - pause_start;

  // Same configuration; the disk is shared storage, so the shared_ptr simply
  // attaches at the destination too.
  auto created = snapshot::MakeVmFrom(dst, vm->config(), *vm, pages);
  if (!created.ok()) {
    return roll_back(created.status());
  }
  dvm = *created;
  SimTime switched = src.clock().now() - t0;
  if (adopt) {
    Status st = adopt(m, dvm);
    if (!st.ok()) {
      return roll_back(st);
    }
  }
  m.rep.total_time += switched;
  return finish(dvm);
}

// Post-copy machinery living on the destination host: serves demand faults
// from the paused source VM's memory and pushes the rest in the background.
// Lost transfers (injected) are retried with exponential backoff for as long
// as the caller keeps driving the destination; the postcopy_run_limit bounds
// the whole phase.
class PostCopyServer : public std::enable_shared_from_this<PostCopyServer> {
 public:
  PostCopyServer(core::Vm* src_vm, core::Vm* dst_vm, core::Host* dst_host,
                 const MigrateOptions& options, MigrationReport& rep)
      : src_vm_(src_vm),
        dst_vm_(dst_vm),
        dst_host_(dst_host),
        options_(options),
        link_(&dst_host->clock(), options.link),
        rep_(rep) {
    link_.SetFault(options_.fault, options_.fault_site);
    for (uint32_t gpn = 0; gpn < src_vm_->memory().num_pages(); ++gpn) {
      if (src_vm_->memory().IsPresent(gpn)) {
        missing_.insert(gpn);
      }
    }
    dst_vm_->SetMissingPageHandler(
        [this](const ExecutePhase& ph, uint32_t vcpu, uint32_t gpn) {
          return OnFault(ph, vcpu, gpn);
        });
  }

  bool Done() const { return missing_.empty() && in_flight_.empty(); }

  void StartBackgroundPush(const DirectPhase& ph) { PushNextBatch(ph); }

 private:
  // vCPUs stalled on one in-flight page, and when the first of them stalled.
  struct Stall {
    SimTime since = 0;
    std::vector<uint32_t> vcpus;
  };

  // Runs inside the faulting vCPU's slice: everything it schedules stages
  // through the ExecutePhase until the round barrier.
  bool OnFault(const ExecutePhase& ph, uint32_t vcpu, uint32_t gpn) {
    bool on_wire = in_flight_.count(gpn) != 0;
    if (!on_wire && !missing_.count(gpn)) {
      return false;  // truly absent page (ballooned) — a real guest bug
    }
    SimTime start = ph.vnow();
    auto [it, first] = stalls_.try_emplace(gpn, Stall{start, {}});
    if (!first) {
      it->second.since = std::min(it->second.since, start);
    }
    it->second.vcpus.push_back(vcpu);
    ++rep_.demand_fetches;
    if (on_wire) {
      return true;  // a background batch or an earlier fault carries it; wait
    }
    missing_.erase(gpn);
    in_flight_.insert(gpn);
    Send(ph, {gpn}, /*push_next=*/false, options_.retry_backoff);
    return true;
  }

  // Ships `batch` on the link. A lost transfer resends the whole batch after
  // `backoff` (doubling up to the cap); its pages stay in flight, and any
  // vCPU waiting on them stays stalled, until a copy lands. A demand fetch is
  // a batch of one sent from the faulting slice (staged); background batches
  // and every retry go from serial clock callbacks (direct). `push_next`
  // chains the next background batch onto delivery.
  void Send(const Phase& ph, std::vector<uint32_t> batch, bool push_next, SimTime backoff) {
    uint64_t bytes = batch.size() * kPageWireBytes;
    rep_.pages_sent += batch.size();
    rep_.bytes_sent += bytes;
    auto self = weak_from_this();
    link_.TransferFaulty(
        ph, bytes,
        [self, batch, push_next](const SerialPhase& sp) {
          auto s = self.lock();
          if (s == nullptr) {
            return;
          }
          for (uint32_t gpn : batch) {
            s->DeliverPage(sp, gpn);
          }
          if (push_next) {
            s->PushNextBatch(sp);
          }
        },
        [self, batch, push_next, backoff](const SerialPhase& sp) {
          auto s = self.lock();
          if (s == nullptr) {
            return;
          }
          ++s->rep_.retries;
          s->rep_.pages_resent += batch.size();
          SimTime next = std::min(backoff * 2, s->options_.retry_backoff_cap);
          s->dst_host_->clock().ScheduleAfter(
              sp, backoff, [self, batch, push_next, next](const SerialPhase& sp2) {
                if (auto s2 = self.lock()) {
                  s2->Send(sp2, batch, push_next, next);
                }
              });
        });
  }

  void DeliverPage(const SerialPhase& ph, uint32_t gpn) {
    in_flight_.erase(gpn);
    // Copy the bytes from the (paused) source. Populating fires the invalidate
    // hook; overwriting a page the guest populated itself needs a manual one.
    mem::GuestMemory& dmem = dst_vm_->memory();
    if (dmem.IsPresent(gpn)) {
      dst_vm_->InvalidateGpn(gpn);
    } else {
      (void)dmem.PopulatePage(gpn);
    }
    const uint8_t* from = src_vm_->memory().PageData(gpn);
    if (from != nullptr) {
      std::memcpy(dmem.PageData(gpn), from, isa::kPageSize);
    }

    auto stall = stalls_.find(gpn);
    if (stall != stalls_.end()) {
      rep_.demand_stall_total += dst_host_->clock().now() - stall->second.since;
      for (uint32_t vcpu : stall->second.vcpus) {
        dst_host_->WakeVcpu(ph, dst_vm_, vcpu);
      }
      stalls_.erase(stall);
    }
  }

  void PushNextBatch(const DirectPhase& ph) {
    if (missing_.empty()) {
      return;
    }
    std::vector<uint32_t> batch;
    for (uint32_t gpn : missing_) {
      batch.push_back(gpn);
      if (batch.size() >= options_.background_batch_pages) {
        break;
      }
    }
    for (uint32_t gpn : batch) {
      missing_.erase(gpn);
      in_flight_.insert(gpn);
    }
    Send(ph, std::move(batch), /*push_next=*/true, options_.retry_backoff);
  }

  core::Vm* src_vm_;
  core::Vm* dst_vm_;
  core::Host* dst_host_;
  MigrateOptions options_;
  net::Link link_;
  MigrationReport& rep_;

  std::set<uint32_t> missing_;
  std::set<uint32_t> in_flight_;
  std::map<uint32_t, Stall> stalls_;
};

}  // namespace

Result<core::Vm*> PreCopyMigrate(core::Host& src, core::Vm* vm, core::Host& dst,
                                 const MigrateOptions& options, MigrationReport* report) {
  mem::GuestMemory& mem = vm->memory();
  // The resumable-transfer state: pages the destination copy does not have
  // yet. A chunk leaves the set only once its transfer is acked, so an
  // aborted round resends exactly the unacked remainder, never the pages
  // that already made it.
  std::vector<uint32_t> pending;

  auto rounds = [&](Migration& m) -> Status {
    // The rounds' own dirty set: it starts empty here and unregisters when
    // the rounds end, whatever other consumers the log has.
    mem::DirtyCursor dirtied(mem);
    for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
      if (mem.IsPresent(gpn)) {
        pending.push_back(gpn);
      }
    }
    for (uint32_t round = 1; round <= kMaxPrecopyRounds; ++round) {
      m.rep.rounds = round;
      std::optional<size_t> sent =
          m.wire.SendPages(mem, pending, options.skip_zero_pages, options.round_timeout);
      if (!sent) {
        return AbortedError("pre-copy chunk lost " + std::to_string(kMaxChunkRetries) +
                            " times; migration aborted with the source vm untouched");
      }
      bool timed_out = *sent < pending.size();
      pending.erase(pending.begin(), pending.begin() + static_cast<ptrdiff_t>(*sent));

      // Next round: the unsent remainder plus everything the guest re-dirtied
      // while this round was on the wire.
      for (size_t gpn : dirtied.Harvest().SetBits()) {
        pending.push_back(static_cast<uint32_t>(gpn));
      }
      std::sort(pending.begin(), pending.end());
      pending.erase(std::unique(pending.begin(), pending.end()), pending.end());

      if (vm->state() == core::VmState::kCrashed) {
        return AbortedError("source vm crashed mid-migration: " +
                            vm->crash_reason().ToString());
      }
      if (!timed_out && pending.size() <= kStopCopyThresholdPages) {
        break;
      }
      if (vm->state() != core::VmState::kRunning) {
        // Guest shut down mid-migration; whatever is left goes in the final copy.
        break;
      }
    }
    return OkStatus();
  };
  // Stop-and-copy ships the remainder whole: no zero-page elision, no
  // round timeout.
  auto stop_and_copy = [&](Migration& m) -> Status {
    if (!m.wire.SendPages(mem, pending, /*elide_zero=*/false, /*timeout=*/0)) {
      return AbortedError("stop-and-copy chunk lost past the retry budget; source vm resumed");
    }
    return OkStatus();
  };
  return Migrate(src, vm, dst, options, report, snapshot::PageSource::kCopy, rounds,
                 stop_and_copy, nullptr);
}

Result<core::Vm*> PostCopyMigrate(core::Host& src, core::Vm* vm, core::Host& dst,
                                  const MigrateOptions& options, MigrationReport* report) {
  // Only the machine state crosses before the guest resumes at the
  // destination; its RAM follows on demand.
  auto demand_page = [&](Migration& m, core::Vm* dvm) -> Status {
    auto server = std::make_shared<PostCopyServer>(vm, dvm, &dst, options, m.rep);
    server->StartBackgroundPush(m.serial);

    // Drive the destination until fully resident. A failure rolls the
    // switchover back. (The guest may have executed at the destination; in
    // the simulation the source's RAM is authoritative and post-switchover
    // destination writes exist only in destination pages, so resuming the
    // source replays from the switchover point. Chaos tests use quiescent
    // guests where the two are indistinguishable.)
    Status st = OkStatus();
    SimTime run_start = dst.clock().now();
    while (!server->Done() && dst.clock().now() - run_start < options.postcopy_run_limit) {
      dst.RunFor(kSimTicksPerMs);
      if (dvm->state() == core::VmState::kCrashed) {
        st = InternalError("destination vm crashed during post-copy: " +
                           dvm->crash_reason().ToString());
        break;
      }
    }
    if (st.ok() && !server->Done()) {
      ++m.rep.timeouts;
      st = AbortedError(
          "post-copy did not reach residency within the run limit; destination "
          "destroyed, source vm resumed");
    }
    dvm->SetMissingPageHandler(nullptr);
    if (st.ok()) {
      m.rep.total_time = dst.clock().now() - run_start;
    }
    return st;  // the server dies here; pending wire callbacks hold weak_ptrs
  };
  return Migrate(src, vm, dst, options, report, snapshot::PageSource::kDemand, nullptr, nullptr,
                 demand_page);
}

}  // namespace hyperion::migrate
