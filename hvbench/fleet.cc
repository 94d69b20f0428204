// `fleet`: one Cluster of 8 hosts x 4 pCPUs and 200 guests on VmConfig
// defaults. About 1 in 8 guests burns cycles, the rest tick idly, and three
// virtio-net stream/sink pairs talk across hosts. Placement starts skewed
// onto half the hosts; the scenario then goes through churn, CheckpointAll
// plus a few operator backups, one injected host crash and one host drain,
// with the benchmark calling DrsTick() itself every 4 simulated ms.

#include <algorithm>
#include <map>
#include <memory>

#include "hvbench/bench.h"
#include "src/cluster/cluster.h"
#include "src/fault/fault.h"
#include "src/snapshot/snapshot.h"

namespace hvbench {

namespace {

constexpr int kHosts = 8;
constexpr int kPlainGuests = 194;
constexpr int kNetPairs = 3;  // 194 + 2 * 3 = 200 guests
constexpr int kTicks = 6;
constexpr SimTime kTick = 4 * kSimTicksPerMs;
constexpr int kChurnTicks = 2;  // departures and arrivals happen in ticks 1..2
constexpr int kBurnersPerHost = 6;  // 1 in 8 plain guests burns cycles
constexpr int kChurn = 16;          // departures, and as many arrivals
constexpr int kCheckpointTick = 2;

// Everything the seed decides.
struct FleetPlan {
  std::vector<int> hot_hosts;  // initial placement targets (half the fleet)
  std::vector<bool> burner;    // per plain guest
  std::vector<uint32_t> idle_period;  // per plain guest, cycles
  std::vector<std::pair<int, int>> pairs;  // (stream host, sink host)
  std::vector<int> departures;             // plain guest indices
  std::vector<int> depart_tick;
  std::vector<uint32_t> arrival_period;
  std::vector<int> arrive_tick;
  std::vector<int> backups;  // plain guest indices saved after CheckpointAll
  int crash_host = 0;
  SimTime crash_at = 0;
  int drain_host = 0;
  int drain_tick = 0;
};

FleetPlan MakePlan(uint64_t seed, bool perturb) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  FleetPlan p;
  std::vector<int> hosts(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    hosts[i] = i;
  }
  rng.Shuffle(hosts);
  // hosts[0..3] take the initial placement; hosts[4..7] start empty and
  // fill through arrivals and rebalancing. The crash hits a loaded host; the
  // drain empties a host that filled up during the run. Net pairs stay off
  // both, and their names sort after every other guest's, so DRS (which
  // sheds the first guest in name order) never picks a streaming guest.
  p.hot_hosts.assign(hosts.begin(), hosts.begin() + kHosts / 2);
  p.crash_host = hosts[0];
  p.drain_host = hosts[kHosts / 2];
  p.crash_at = 3 * kTick + static_cast<SimTime>(rng.Range(1500, 2500)) * kSimTicksPerUs;
  p.drain_tick = 4;

  // Plain guest i lands on hot_hosts[i % 4]. Per hot host the seed picks
  // which 6 guests burn cycles, which 4 idle guests depart and which idle
  // guest is backed up, so every seed loads the hosts alike.
  std::vector<std::vector<int>> by_host(p.hot_hosts.size());
  for (int i = 0; i < kPlainGuests; ++i) {
    by_host[i % p.hot_hosts.size()].push_back(i);
  }
  p.burner.assign(kPlainGuests, false);
  for (std::vector<int>& guests : by_host) {
    rng.Shuffle(guests);
    auto next = guests.begin();
    for (int k = 0; k < kBurnersPerHost; ++k) {
      p.burner[*next++] = true;
    }
    for (int k = 0; k < kChurn / static_cast<int>(by_host.size()); ++k) {
      p.departures.push_back(*next++);
    }
    p.backups.push_back(*next++);
  }
  for (int i = 0; i < kPlainGuests; ++i) {
    p.idle_period.push_back(static_cast<uint32_t>(rng.Range(400'000, 600'000)));
  }
  if (perturb) {
    ++p.idle_period[p.backups[1]];  // an idle guest that neither departs nor crashes
  }
  for (int i = 0; i < kNetPairs; ++i) {
    p.pairs.emplace_back(hosts[rng.Range(1, kHosts / 2 - 1)],
                         hosts[rng.Range(kHosts / 2 + 1, kHosts - 1)]);
  }
  rng.Shuffle(p.departures);
  for (int i = 0; i < kChurn; ++i) {
    p.depart_tick.push_back(1 + i % kChurnTicks);
    p.arrive_tick.push_back(1 + (i + 1) % kChurnTicks);
    p.arrival_period.push_back(static_cast<uint32_t>(rng.Range(400'000, 600'000)));
  }
  return p;
}

std::string PlainName(int i) {
  char name[16];
  std::snprintf(name, sizeof(name), "vm%03d", i);
  return name;
}

// A migration reconciles when its report describes a real transfer: pages
// and bytes on the wire, a blackout inside the total, at least one round.
bool Reconciles(const migrate::MigrationReport& r) {
  return r.rounds >= 1 && r.pages_sent > 0 && r.bytes_sent > 0 && r.downtime > 0 &&
         r.total_time >= r.downtime;
}

}  // namespace

RepResult RunFleet(const Options& options, Tracer& tracer) {
  RepResult rep;
  const FleetPlan plan = MakePlan(options.seed, options.perturb);

  // --- Set-up: cluster, hosts, images, guests. ---
  Stopwatch setup;
  int setup_span = tracer.Open("setup");
  fault::FaultPlan faults;
  faults.AddHostCrash("fleet:crash", plan.crash_at);
  fault::FaultInjector injector(faults);
  cluster::ClusterConfig cc;
  cc.worker_threads = options.workers;
  cc.cpu_overcommit = 32.0;
  cc.ram_overcommit = 4.0;
  cc.drs.interval = 0;  // the benchmark calls DrsTick() itself
  cc.drs.hot_busy = 0.45;
  cc.drs.cool_until = 0.40;
  cc.drs.min_gain = 0.05;
  std::unique_ptr<cluster::Cluster> cl;
  {
    Span span(tracer, "cluster.Cluster");
    cl = std::make_unique<cluster::Cluster>(cc);
  }
  std::vector<core::Host*> hosts;
  for (int i = 0; i < kHosts; ++i) {
    Span span(tracer, "core.AddHost");
    hosts.push_back(cl->AddHost(
        core::HostConfig{.name = "fleet-h" + std::to_string(i), .num_pcpus = 4}));
  }
  hosts[plan.crash_host]->SetFaultInjector(&injector, "fleet:crash");

  // Images are assembled once per distinct program.
  std::map<std::string, assembler::Image> images;
  auto image_for = [&](const std::string& source) -> const assembler::Image* {
    auto it = images.find(source);
    if (it == images.end()) {
      Result<assembler::Image> image = BuildImage(tracer, source);
      rep.Check(image.ok(), "assemble fleet guest");
      if (!image.ok()) {
        return nullptr;
      }
      it = images.emplace(source, std::move(*image)).first;
    }
    return &it->second;
  };
  std::map<std::string, uint32_t> progress_addr;
  std::vector<std::string> alive;
  auto boot = [&](core::VmConfig config, const std::string& source, core::Host* pin) {
    const assembler::Image* image = image_for(source);
    if (image == nullptr) {
      return false;
    }
    std::string name = config.name;
    core::Vm* vm = BootVm(
        tracer, rep, [&](core::VmConfig c) { return cl->CreateVm(std::move(c), pin); },
        std::move(config), *image);
    if (vm == nullptr) {
      return false;
    }
    progress_addr[name] = guest::ProgressAddress(*image).value_or(0);
    alive.push_back(name);
    return true;
  };
  const std::string burn = guest::ComputeProgram(0);
  for (int i = 0; i < kPlainGuests; ++i) {
    core::Host* pin = hosts[plan.hot_hosts[i % plan.hot_hosts.size()]];
    if (!boot(core::VmConfig{.name = PlainName(i)},
              plan.burner[i] ? burn : guest::IdleTickProgram(plan.idle_period[i]), pin)) {
      return rep;
    }
  }
  std::vector<std::string> sinks;
  for (int i = 0; i < kNetPairs; ++i) {
    guest::NetStreamParams np;
    np.peer_mac = static_cast<uint32_t>(2 * i + 2);
    np.payload_bytes = 512;
    np.batch = 32;
    core::VmConfig stream{.name = "web-stream" + std::to_string(i)};
    stream.net_model = core::IoModel::kParavirt;
    stream.mac = 2 * i + 1;
    // Paced sender: the device drains at most 8 TX chains per 20 us poll,
    // about 400 frames per simulated ms, well inside the fabric links.
    stream.net_opts.tx_poll_budget = 8;
    stream.net_opts.tx_poll_interval = 20 * kSimTicksPerUs;
    core::VmConfig sink{.name = "web-sink" + std::to_string(i)};
    sink.net_model = core::IoModel::kParavirt;
    sink.mac = 2 * i + 2;
    sinks.push_back(sink.name);
    if (!boot(std::move(stream), guest::VirtioNetStreamProgram(np),
              hosts[plan.pairs[i].first]) ||
        !boot(std::move(sink), guest::VirtioNetSinkProgram(np), hosts[plan.pairs[i].second])) {
      return rep;
    }
  }
  tracer.Close(setup_span);
  rep.setup_s = setup.Seconds();

  // --- Timed region: kTicks DRS intervals of scripted fleet operations. ---
  const uint64_t* forwarded = &cl->fabric().stats().frames_forwarded;
  Region region(tracer, rep, hosts, cl->clock(), forwarded);
  int timed_span = tracer.Open("timed");
  auto sink_frames = [&] {
    double total = 0;
    for (const std::string& name : sinks) {
      if (core::Vm* vm = cl->FindVm(name); vm != nullptr) {
        total += ReadProgress(*vm, progress_addr[name]);
      }
    }
    return total;
  };
  double frames_start = sink_frames();
  for (int tick = 1; tick <= kTicks; ++tick) {
    SimTime target = static_cast<SimTime>(tick) * kTick;
    if (cl->clock().now() < target) {
      region.Run(target - cl->clock().now(), [&](SimTime d) { cl->RunFor(d); });
    }
    for (int i = 0; i < kChurn; ++i) {
      if (plan.depart_tick[i] == tick) {
        std::string name = PlainName(plan.departures[i]);
        bool ok = false;
        region.Call("core.DestroyVm", "departure", [&] { ok = cl->DestroyVm(name).ok(); });
        rep.Check(ok, "departure " + name);
        alive.erase(std::remove(alive.begin(), alive.end(), name), alive.end());
      }
    }
    for (int i = 0; i < kChurn; ++i) {
      if (plan.arrive_tick[i] == tick) {
        std::string source = guest::IdleTickProgram(plan.arrival_period[i]);
        image_for(source);  // assembling is the tenant's work, not the fleet's
        region.Call("op.arrival", "arrival", [&] {
          boot(core::VmConfig{.name = "new" + std::to_string(i)}, source, nullptr);
        });
      }
    }
    if (tick == kCheckpointTick) {
      size_t saved = 0;
      region.Call("cluster.CheckpointAll", "checkpoint_all", [&] { saved = cl->CheckpointAll(); });
      rep.Check(saved == alive.size(), "CheckpointAll saved every guest");
      // The operator's backups are one operation: a pass over four guests.
      double backup_ms = 0;
      for (int b : plan.backups) {
        core::Vm* vm = cl->FindVm(PlainName(b));
        rep.Check(vm != nullptr, "backup target " + PlainName(b) + " exists");
        if (vm == nullptr) {
          continue;
        }
        bool ok = false;
        backup_ms += region.Call("op.backup", nullptr, [&] {
          ScopedSerialPhase serial;
          vm->Pause(serial);
          snapshot::SnapshotInfo info;
          {
            Span span(tracer, "snapshot.SaveVm");
            ok = snapshot::SaveVm(*vm, {}, &info).ok();
            span.Attr("incremental", 0);
            span.Attr("pages_total", info.pages_total);
            span.Attr("pages_zero", info.pages_zero);
            span.Attr("bytes", static_cast<double>(info.bytes));
          }
          vm->Resume(serial);
        });
        rep.Check(ok, "backup " + vm->name());
      }
      region.RecordOp("backup", backup_ms);
    }
    if (tick == plan.drain_tick) {
      bool ok = false;
      region.Call("cluster.DrainHost", "drain",
                  [&] { ok = cl->DrainHost(hosts[plan.drain_host]).ok(); });
      rep.Check(ok, "DrainHost");
    }
    size_t moves_before = cl->migrations().size();
    uint64_t evac_before = cl->stats().evacuations_respawned + cl->stats().evacuations_lost;
    region.Call("cluster.DrsTick", "drs_tick", [&] { cl->DrsTick(); });
    if (tracer.enabled()) {
      int span = region.last_span();
      tracer.Attr(span, "migrations", static_cast<double>(cl->migrations().size() - moves_before));
      tracer.Attr(span, "evacuations",
                  static_cast<double>(cl->stats().evacuations_respawned +
                                      cl->stats().evacuations_lost - evac_before));
      for (size_t m = moves_before; m < cl->migrations().size(); ++m) {
        TraceReport(tracer, cl->migrations()[m].report, !cc.post_copy,
                    core::VmConfig{}.ram_bytes / isa::kPageSize);
      }
    }
  }
  rep.net_frames = sink_frames() - frames_start;
  tracer.Close(timed_span);

  // --- Output checks and digest. ---
  Span check(tracer, "check");
  std::sort(alive.begin(), alive.end());
  Hasher digest;
  size_t conserved = 0;
  for (const std::string& name : alive) {
    core::Vm* vm = cl->FindVm(name);
    if (vm == nullptr || vm->state() != core::VmState::kRunning) {
      continue;
    }
    ++conserved;
    HashVm(digest, *vm);
    digest.Str(cl->HostOf(name)->name());
    digest.U64(ReadProgress(*vm, progress_addr[name]));
  }
  rep.Check(conserved == alive.size(), "guests conserved: " + std::to_string(conserved) + " of " +
                                           std::to_string(alive.size()));
  const cluster::ClusterStats& st = cl->stats();
  rep.Check(st.evacuations_lost == 0, "evacuations lost");
  rep.Check(st.evacuations_respawned > 0, "the crash evacuated no guest");
  rep.Check(hosts[plan.drain_host]->vms().empty(), "drained host still holds guests");
  uint64_t ok_rebalance = 0;
  uint64_t ok_drain = 0;
  uint64_t failed = 0;
  for (const cluster::MigrationRecord& rec : cl->migrations()) {
    rep.Check(rec.ok && Reconciles(rec.report), "migration of " + rec.vm + " to " + rec.to);
    if (!rec.ok) {
      ++failed;
      continue;
    }
    (rec.reason == "drain" ? ok_drain : ok_rebalance) += 1;
    rep.blackout_ms_sim.push_back(rec.report.DowntimeMs());
    digest.Str(rec.vm + ">" + rec.to);
    digest.U64(rec.report.pages_sent);
    digest.U64(rec.report.downtime);
    digest.U64(rec.report.total_time);
  }
  rep.Check(ok_rebalance == st.rebalance_migrations && ok_drain == st.drain_migrations &&
                failed == st.failed_migrations,
            "migration records disagree with ClusterStats");
  for (uint64_t v : {st.vms_admitted, st.vms_rejected, st.vms_departed, st.rebalance_migrations,
                     st.drain_migrations, st.failed_migrations, st.evacuations_respawned,
                     st.evacuations_lost, st.checkpoints, st.drs_ticks}) {
    digest.U64(v);
  }
  digest.U64(cl->fabric().stats().frames_forwarded);
  digest.U64(cl->clock().now());
  rep.digest = digest.value();
  if (tracer.enabled()) {
    check.Attr("migrations", static_cast<double>(ok_rebalance + ok_drain));
    check.Attr("failed_migrations", static_cast<double>(st.failed_migrations));
    check.Attr("evacuations_lost", static_cast<double>(st.evacuations_lost));
  }
  return rep;
}

}  // namespace hvbench
