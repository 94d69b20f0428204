// `lifecycle`: two hosts sharing one core::TimeDomain, 16 MiB DBT guests,
// and a closed loop with one driver thread. Between 4-sim-ms RunFor chunks
// it issues a seeded sequence of full and incremental saves (each restored
// into a replica), template clones, COW forks with writes into the child,
// pre-copy and post-copy migrations to the other host, and KSM passes.
// Guests are CPU-capped so that time inside an operation is mostly
// snapshot, migrate or KSM work.

#include <algorithm>
#include <memory>

#include "hvbench/bench.h"
#include "src/ksm/ksm.h"
#include "src/migrate/migrate.h"
#include "src/snapshot/snapshot.h"

namespace hvbench {

namespace {

constexpr uint32_t kGuestRam = 16u << 20;
constexpr uint32_t kGuestPages = kGuestRam / isa::kPageSize;
// Guest run between operations. The dirty-rate guests are capped per 30 ms
// scheduler period, so each repetition spans several periods and the
// instructions it retires barely depend on the seeded order of operations.
constexpr SimTime kChunk = 4 * kSimTicksPerMs;
// The timed region starts on a boundary of the credit scheduler's 30 ms
// accounting period and runs out to exactly seven periods, so the capped
// guests get the same CPU budget, and retire about as many instructions,
// whatever sim time the seeded operations take (about 180 ms).
constexpr SimTime kCapPeriod = 30 * kSimTicksPerMs;
constexpr SimTime kTimedSpan = 7 * kCapPeriod;
constexpr uint32_t kCowWrites = 64;  // pages written into each fork child

enum class OpKind { kSaveFull, kSaveIncr, kClone, kFork, kPreCopy, kPostCopy, kKsm };

// Operations per repetition: fixed counts, seeded order and targets. The
// counts put the median operation (the 19th of 37) inside the fork group
// and the tail (p73, the 27th) inside the clone group, rather than on the
// edge between two kinds of operation.
constexpr std::pair<OpKind, int> kMix[] = {
    {OpKind::kSaveFull, 2}, {OpKind::kSaveIncr, 10}, {OpKind::kClone, 8}, {OpKind::kFork, 10},
    {OpKind::kPreCopy, 3},  {OpKind::kPostCopy, 2}, {OpKind::kKsm, 2},
};

struct DirtySpec {
  uint32_t hot_pages;
  uint32_t compute_per_write;
};

struct LifecyclePlan {
  DirtySpec ckpt[2];
  DirtySpec mover;
  uint32_t fill_pages;
  uint32_t fill_shared;
  struct Op {
    OpKind kind;
    int target;  // checkpoint guest, clone host, or fork parent (0/1)
    std::vector<uint32_t> cow_pages;
  };
  std::vector<Op> ops;
};

LifecyclePlan MakePlan(uint64_t seed, bool perturb) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
  // Narrow bands: the seed varies which pages and how fast, while every
  // seed asks for about the same amount of work.
  auto dirty = [&] {
    return DirtySpec{static_cast<uint32_t>(rng.Range(112, 144)),
                     static_cast<uint32_t>(rng.Range(4'800, 5'200))};
  };
  LifecyclePlan p;
  p.ckpt[0] = dirty();
  p.ckpt[1] = dirty();
  p.mover = dirty();
  if (perturb) {
    ++p.mover.compute_per_write;
  }
  p.fill_pages = static_cast<uint32_t>(rng.Range(544, 608));
  p.fill_shared = static_cast<uint32_t>(rng.Range(p.fill_pages * 5 / 16, p.fill_pages * 7 / 16));
  for (const auto& [kind, count] : kMix) {
    for (int i = 0; i < count; ++i) {
      p.ops.push_back({kind, 0, {}});
    }
  }
  // Targets alternate within each kind of operation, so every seed splits
  // the work alike; the seed decides the order.
  int next_target[std::size(kMix)] = {};
  for (LifecyclePlan::Op& op : p.ops) {
    op.target = next_target[static_cast<int>(op.kind)]++ % 2;
  }
  rng.Shuffle(p.ops);
  for (LifecyclePlan::Op& op : p.ops) {
    if (op.kind == OpKind::kFork) {
      for (uint32_t i = 0; i < kCowWrites; ++i) {
        op.cow_pages.push_back(static_cast<uint32_t>(rng.Range(0, kGuestPages - 1)));
      }
    }
  }
  return p;
}

// Two hosts on one domain. Pending events are dropped before the hosts go,
// since event-held frames release into the hosts' pools.
struct Rig {
  core::TimeDomain domain{0};
  std::unique_ptr<core::Host> host[2];
  ~Rig() {
    domain.DiscardPendingEvents();
    host[1].reset();
    host[0].reset();
  }
};

// Dirty-rate guests run capped, so guest execution stays a small part of the
// host time spent inside operations.
constexpr uint32_t kDirtyCapPercent = 10;

core::VmConfig GuestConfig(const std::string& name, uint32_t cap_percent = 0) {
  core::VmConfig config{.name = name, .ram_bytes = kGuestRam};
  config.engine = cpu::EngineKind::kDbt;
  config.sched.cap_percent = cap_percent;
  return config;
}

core::Host* HostOf(Rig& rig, const core::Vm* vm) {
  for (auto& host : rig.host) {
    for (const auto& v : host->vms()) {
      if (v.get() == vm) {
        return host.get();
      }
    }
  }
  return nullptr;
}

void HashReport(Hasher& h, const migrate::MigrationReport& r) {
  for (uint64_t v : {uint64_t{r.rounds}, r.pages_sent, r.bytes_sent, r.total_time, r.downtime,
                     r.demand_fetches, r.demand_stall_total, r.retries}) {
    h.U64(v);
  }
}

}  // namespace

RepResult RunLifecycle(const Options& options, Tracer& tracer) {
  RepResult rep;
  const LifecyclePlan plan = MakePlan(options.seed, options.perturb);

  // --- Set-up: domain, hosts, images, guests. ---
  Stopwatch setup;
  int setup_span = tracer.Open("setup");
  Rig rig;
  for (int i = 0; i < 2; ++i) {
    Span span(tracer, "core.AddHost");
    rig.host[i] = std::make_unique<core::Host>(
        core::HostConfig{.name = "lc-h" + std::to_string(i), .num_pcpus = 4}, &rig.domain);
  }
  core::Host& h0 = *rig.host[0];
  auto boot = [&](int host, core::VmConfig config, const std::string& source) -> core::Vm* {
    Result<assembler::Image> image = BuildImage(tracer, source);
    rep.Check(image.ok(), "assemble " + config.name);
    if (!image.ok()) {
      return nullptr;
    }
    return BootVm(
        tracer, rep,
        [&](core::VmConfig c) { return rig.host[host]->CreateVm(std::move(c)); },
        std::move(config), *image);
  };
  core::Vm* ckpt[2] = {nullptr, nullptr};
  core::Vm* replica[2] = {nullptr, nullptr};
  core::Vm* fill[2] = {nullptr, nullptr};
  for (int i = 0; i < 2; ++i) {
    const DirtySpec& d = plan.ckpt[i];
    ckpt[i] = boot(i, GuestConfig("ckpt" + std::to_string(i), kDirtyCapPercent),
                   guest::DirtyRateProgram(d.hot_pages, d.compute_per_write));
    fill[i] = boot(i, GuestConfig("fill" + std::to_string(i)),
                   guest::PatternFillProgram(plan.fill_pages, plan.fill_shared, 100 + i));
    // Replicas hold restored state only; they never run.
    Span span(tracer, "core.CreateVm");
    Result<core::Vm*> r = rig.host[i]->CreateVm(GuestConfig("replica" + std::to_string(i)));
    rep.Check(r.ok(), "create replica");
    if (r.ok()) {
      replica[i] = *r;
      replica[i]->Pause(ScopedSerialPhase());
    }
  }
  core::Vm* mover = boot(0, GuestConfig("mover", kDirtyCapPercent),
                         guest::DirtyRateProgram(plan.mover.hot_pages,
                                                 plan.mover.compute_per_write));
  tracer.Close(setup_span);
  rep.setup_s = setup.Seconds();
  if (rep.failed != 0 || mover == nullptr) {
    return rep;
  }

  // --- Warm-up (untimed): fill the pattern guests, seed the replicas and
  // capture the clone template. ---
  {
    Span span(tracer, "warmup");
    uint32_t fill_progress = 0;
    Result<assembler::Image> fill_image =
        guest::Build(guest::PatternFillProgram(plan.fill_pages, plan.fill_shared, 100));
    uint32_t fill_addr = fill_image.ok() ? guest::ProgressAddress(*fill_image).value_or(0) : 0;
    for (int i = 0; i < 500; ++i) {
      fill_progress = ReadProgress(*fill[0], fill_addr) + ReadProgress(*fill[1], fill_addr);
      if (fill_progress == 2) {
        break;
      }
      h0.RunFor(kChunk);
    }
    rep.Check(fill_progress == 2, "pattern guests finished filling");
  }
  ScopedSerialPhase serial;
  for (int i = 0; i < 2; ++i) {
    ckpt[i]->Pause(serial);
    ckpt[i]->memory().EnableDirtyLog();
    (void)ckpt[i]->memory().HarvestDirty();
    Result<std::vector<uint8_t>> base = snapshot::SaveVm(*ckpt[i]);
    rep.Check(base.ok() && snapshot::LoadVm(*replica[i], *base).ok(), "seed replica");
    ckpt[i]->Resume(serial);
  }
  fill[0]->Pause(serial);
  Result<std::vector<uint8_t>> clone_template = snapshot::SaveVm(*fill[0]);
  uint64_t template_digest = RamDigest(*fill[0]);
  fill[0]->Resume(serial);
  rep.Check(clone_template.ok(), "capture clone template");
  if (rep.failed != 0) {
    return rep;
  }
  const SimTime start = (rig.domain.clock().now() + kCapPeriod - 1) / kCapPeriod * kCapPeriod;
  if (start > rig.domain.clock().now()) {
    h0.RunFor(start - rig.domain.clock().now());
  }

  // --- Timed region: the closed loop. ---
  Region region(tracer, rep, {rig.host[0].get(), rig.host[1].get()}, rig.domain.clock());
  int timed_span = tracer.Open("timed");
  Hasher digest;
  migrate::MigrateOptions mopts;
  mopts.link = net::LinkParams{10'000'000'000ull, 10 * kSimTicksPerUs};
  mopts.chunk_pages = 512;
  mopts.background_batch_pages = 128;
  int serial_no = 0;
  // An operation can span several timed calls with output checks between
  // them; the calls' host times add up to the operation's.
  auto destroy = [&](core::Host& host, core::Vm* vm) {
    bool ok = false;
    double ms = region.Call("core.DestroyVm", nullptr, [&] { ok = host.DestroyVm(vm).ok(); });
    rep.Check(ok, "destroy");
    return ms;
  };
  auto save_and_restore = [&](int i, bool incremental) {
    snapshot::SnapshotInfo info;
    Result<std::vector<uint8_t>> bytes = InternalError("not run");
    double ms = region.Call("op.save", nullptr, [&] {
      ckpt[i]->Pause(serial);
      Span span(tracer, "snapshot.SaveVm");
      snapshot::SaveOptions so;
      so.incremental = incremental;
      bytes = snapshot::SaveVm(*ckpt[i], so, &info);
      ckpt[i]->Resume(serial);
      span.Attr("incremental", incremental ? 1 : 0);
      span.Attr("pages_total", info.pages_total);
      span.Attr("pages_zero", info.pages_zero);
      span.Attr("pages_data", info.pages_data);
      span.Attr("bytes", static_cast<double>(info.bytes));
    });
    rep.Check(bytes.ok(), "SaveVm");
    if (!bytes.ok()) {
      return;
    }
    bool ok = false;
    ms += region.Call("snapshot.LoadVm", nullptr,
                      [&] { ok = snapshot::LoadVm(*replica[i], *bytes).ok(); });
    region.RecordOp(incremental ? "save_incr" : "save_full", ms);
    uint64_t want = RamDigest(*ckpt[i]);
    rep.Check(ok && RamDigest(*replica[i]) == want, "restore matches its source");
    digest.U64(want);
    digest.U64(info.pages_data);
  };

  for (const LifecyclePlan::Op& op : plan.ops) {
    region.Run(kChunk, [&](SimTime d) { h0.RunFor(d); });
    ++serial_no;
    switch (op.kind) {
      case OpKind::kSaveFull:
      case OpKind::kSaveIncr:
        save_and_restore(op.target, op.kind == OpKind::kSaveIncr);
        break;
      case OpKind::kClone: {
        core::Host& host = *rig.host[op.target];
        Result<core::Vm*> clone = InternalError("not run");
        double ms = region.Call("snapshot.CloneVm", nullptr, [&] {
          clone = snapshot::CloneVm(host, GuestConfig("clone" + std::to_string(serial_no)),
                                    *clone_template);
        });
        rep.Check(clone.ok() && RamDigest(**clone) == template_digest,
                  "clone matches its template");
        if (clone.ok()) {
          region.RecordOp("clone", ms + destroy(host, *clone));
        }
        digest.U64(template_digest);
        break;
      }
      case OpKind::kFork: {
        core::Vm* parent = op.target == 0 ? fill[0] : mover;
        core::Host& host = *HostOf(rig, parent);
        Result<core::Vm*> child = InternalError("not run");
        double ms = region.Call("op.fork", nullptr, [&] {
          parent->Pause(serial);
          Span span(tracer, "snapshot.ForkVm");
          child = snapshot::ForkVm(host, GuestConfig("fork" + std::to_string(serial_no)),
                                   *parent);
          parent->Resume(serial);
        });
        uint64_t parent_digest = RamDigest(*parent);
        rep.Check(child.ok() && RamDigest(**child) == parent_digest, "fork matches its parent");
        if (!child.ok()) {
          break;
        }
        uint64_t breaks = 0;
        bool wrote = true;
        ms += region.Call("op.cow_write", nullptr, [&] {
          mem::GuestMemory& cm = (*child)->memory();
          for (uint32_t gpn : op.cow_pages) {
            breaks += cm.IsShared(gpn) ? 1 : 0;
            wrote = cm.WriteU32(gpn * isa::kPageSize + 4 * (gpn % 64), gpn ^ 0x5A5A5A5Au).ok() &&
                    wrote;
          }
        });
        tracer.Attr(region.last_span(), "host_cow_breaks", static_cast<double>(breaks));
        rep.Check(wrote && RamDigest(*parent) == parent_digest,
                  "writes into a fork child leave the parent unchanged");
        digest.U64(parent_digest);
        digest.U64(breaks);
        region.RecordOp("fork", ms + destroy(host, *child));
        break;
      }
      case OpKind::kPreCopy:
      case OpKind::kPostCopy: {
        bool pre = op.kind == OpKind::kPreCopy;
        core::Vm*& moving = pre ? mover : fill[1];
        core::Vm* vm = moving;
        core::Host& src = *HostOf(rig, vm);
        core::Host& dst = &src == rig.host[0].get() ? *rig.host[1] : *rig.host[0];
        migrate::MigrationReport report;
        Result<core::Vm*> moved = InternalError("not run");
        double ms = region.Call(pre ? "migrate.PreCopyMigrate" : "migrate.PostCopyMigrate",
                                nullptr, [&] {
                                  moved = pre ? migrate::PreCopyMigrate(src, vm, dst, mopts, &report)
                                              : migrate::PostCopyMigrate(src, vm, dst, mopts,
                                                                         &report);
                                });
        TraceReport(tracer, report, pre, kGuestPages);
        rep.Check(moved.ok() && RamDigest(**moved) == RamDigest(*vm),
                  "migrated guest matches its source");
        HashReport(digest, report);
        if (!moved.ok()) {
          break;
        }
        if (pre) {
          rep.blackout_ms_sim.push_back(report.DowntimeMs());
        }
        moving = *moved;
        region.RecordOp(pre ? "precopy" : "postcopy", ms + destroy(src, vm));
        break;
      }
      case OpKind::kKsm: {
        // One pass per host pool over every guest but the replicas.
        std::vector<std::vector<core::Vm*>> clients(2);
        std::vector<uint64_t> before;
        for (int h = 0; h < 2; ++h) {
          for (const auto& vm : rig.host[h]->vms()) {
            if (vm->name().rfind("replica", 0) != 0) {
              clients[h].push_back(vm.get());
              before.push_back(RamDigest(*vm));
            }
          }
        }
        ksm::KsmStats stats[2];
        region.Call("op.ksm", "ksm", [&] {
          for (int h = 0; h < 2; ++h) {
            Span span(tracer, "ksm.ScanOnce");
            ksm::KsmDaemon daemon(&rig.host[h]->pool());
            for (core::Vm* vm : clients[h]) {
              daemon.AddClient(&vm->memory());
            }
            daemon.ScanOnce();
            stats[h] = daemon.stats();
            span.Attr("pages_scanned", static_cast<double>(stats[h].pages_scanned));
            span.Attr("pages_merged", static_cast<double>(stats[h].pages_merged));
          }
        });
        size_t k = 0;
        for (int h = 0; h < 2; ++h) {
          for (core::Vm* vm : clients[h]) {
            rep.Check(RamDigest(*vm) == before[k++], "KSM pass changed " + vm->name());
          }
          digest.U64(stats[h].pages_merged);
        }
        break;
      }
    }
  }
  if (rig.domain.clock().now() < start + kTimedSpan) {
    region.Run(start + kTimedSpan - rig.domain.clock().now(), [&](SimTime d) { h0.RunFor(d); });
  }
  tracer.Close(timed_span);

  // --- Final digest over every guest. ---
  Span check(tracer, "check");
  for (auto& host : rig.host) {
    std::vector<core::Vm*> vms;
    for (const auto& vm : host->vms()) {
      vms.push_back(vm.get());
    }
    std::sort(vms.begin(), vms.end(),
              [](const core::Vm* a, const core::Vm* b) { return a->name() < b->name(); });
    for (core::Vm* vm : vms) {
      HashVm(digest, *vm);
      digest.U64(RamDigest(*vm));
    }
  }
  digest.U64(rig.domain.clock().now());
  rep.digest = digest.value();
  return rep;
}

}  // namespace hvbench
