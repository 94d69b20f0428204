#include "src/core/host.h"

#include <algorithm>
#include <cstdlib>

#include "src/fault/fault.h"
#include "src/util/logging.h"

namespace hyperion::core {

HostConfig HostConfig::FromEnv() {
  HostConfig config;
  config.worker_threads = 0;
  // The process environment is read-only for the whole run; this is the one
  // place the core consults it.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("HYPERION_WORKERS")) {
    int parsed = std::atoi(env);
    if (parsed > 0) {
      config.worker_threads = parsed;
    }
  }
  return config;
}

Host::Host(HostConfig config) : Host(std::move(config), nullptr) {}

Host::Host(HostConfig config, TimeDomain* domain)
    : config_(std::move(config)),
      pool_(config_.ram_bytes / isa::kPageSize),
      owned_domain_(domain == nullptr
                        ? std::make_unique<TimeDomain>(config_.worker_threads)
                        : nullptr),
      domain_(domain == nullptr ? owned_domain_.get() : domain),
      switch_(&domain_->clock()),
      sched_(sched::MakeScheduler(config_.sched_policy, config_.num_pcpus)),
      pcpu_free_at_(config_.num_pcpus, 0),
      pcpu_last_entity_(config_.num_pcpus, sched::kIdle) {
  stats_.pcpu.resize(config_.num_pcpus);
  for (uint32_t p = 0; p < config_.num_pcpus; ++p) {
    pcpu_heap_.push({0, p});
  }
  domain_->AddMember(this);
}

Host::~Host() {
  // Unlink from the domain before members die: a clustered domain outlives
  // this host and must not step it again. VM teardown below (vms_ member
  // destruction) still needs the domain clock, which outlives this call
  // either way (owned_domain_ is destroyed after vms_).
  domain_->RemoveMember(this);
}

Result<Vm*> Host::CreateVm(VmConfig vm_config) {
  for (const auto& vm : vms_) {
    if (vm->name() == vm_config.name) {
      return AlreadyExistsError("vm name already in use: " + vm_config.name);
    }
  }
  auto vm = std::unique_ptr<Vm>(new Vm(this, std::move(vm_config)));
  HYP_RETURN_IF_ERROR(vm->Init(serial_));

  sched::EntityId base = next_entity_;
  next_entity_ += vm->num_vcpus();
  vm_base_entity_[vm.get()] = base;
  sched::EntityConfig entity_cfg = vm->config().sched;
  if (vm->num_vcpus() > 1 && entity_cfg.gang == 0) {
    // Siblings of an SMP guest form a gang (co-scheduling): a descheduled
    // lock holder must not strand spinning siblings for whole rounds.
    entity_cfg.gang = base + 1;  // nonzero and unique per VM
  }
  for (uint32_t i = 0; i < vm->num_vcpus(); ++i) {
    HYP_RETURN_IF_ERROR(sched_->AddEntity(base + i, entity_cfg));
    entities_[base + i] = EntityRef{vm.get(), i};
    sched_->SetRunnable(base + i, true, clock().now());
  }
  vms_.push_back(std::move(vm));
  return vms_.back().get();
}

Status Host::DestroyVm(Vm* vm) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [vm](const std::unique_ptr<Vm>& p) { return p.get() == vm; });
  if (it == vms_.end()) {
    return NotFoundError("vm is not on this host");
  }
  sched::EntityId base = vm_base_entity_[vm];
  for (uint32_t i = 0; i < vm->num_vcpus(); ++i) {
    (void)sched_->RemoveEntity(base + i);
    entities_.erase(base + i);
  }
  vm_base_entity_.erase(vm);
  vms_.erase(it);  // ~Vm cancels the VM's pending clock events
  return OkStatus();
}

Vm* Host::FindVm(const std::string& name) {
  for (const auto& vm : vms_) {
    if (vm->name() == name) {
      return vm.get();
    }
  }
  return nullptr;
}

sched::EntityId Host::EntityOf(Vm* vm, uint32_t vcpu) const {
  auto it = vm_base_entity_.find(vm);
  return it == vm_base_entity_.end() ? sched::kIdle : it->second + vcpu;
}

void Host::WakeVcpu(const Phase& ph, Vm* vm, uint32_t vcpu) { SetRunnable(ph, vm, vcpu, true); }

void Host::BlockVcpu(const Phase& ph, Vm* vm, uint32_t vcpu) { SetRunnable(ph, vm, vcpu, false); }

void Host::SetRunnable(const Phase& ph, Vm* vm, uint32_t vcpu, bool runnable) {
  sched::EntityId id = EntityOf(vm, vcpu);
  if (id == sched::kIdle) {
    return;
  }
  if (runnable) {
    vm->vcpu(vcpu).state.waiting = false;
  }
  if (const ExecutePhase* ep = ph.AsExecute()) {
    if (ep->wakes_.host != this) {
      StagingViolation("vCPU wake staged for another host");
    }
    ep->wakes_.ops.push_back(WakeStage::Op{vm, vcpu, runnable});
    return;
  }
  sched_->SetRunnable(id, runnable, clock().now());
}

void Host::SetFaultInjector(fault::FaultInjector* injector, std::string site) {
  fault_injector_ = injector;
  fault_site_ = std::move(site);
}

void Host::CrashAllVms(const Status& reason) {
  for (auto& vm : vms_) {
    if (vm->state() == VmState::kRunning) {
      vm->Crash(serial_, reason);
    }
  }
}

void Host::RunFor(SimTime duration) { domain_->RunFor(duration); }

void Host::FaultGate(SimTime end) {
  paused_until_ = 0;
  if (fault_injector_ == nullptr) {
    return;
  }
  SimTime now = clock().now();
  if (fault_injector_->TakeCrash(fault_site_, now)) {
    failed_ = true;
    CrashAllVms(UnavailableError("injected host crash on " + config_.name));
  }
  if (auto until = fault_injector_->PauseUntil(fault_site_, now)) {
    // The host is stalled: no vCPU dispatches while now < paused_until_, but
    // shared time and device events still advance (an SMI-style stall). The
    // accounting is incremental — the domain may advance the clock by less
    // than the window per round when other members still run.
    paused_until_ = *until;
    SimTime begin = std::max(now, pause_accounted_until_);
    SimTime stop = std::min(*until, end);
    if (stop > begin) {
      stats_.fault_pause_time += stop - begin;
      pause_accounted_until_ = stop;
    }
  }
}

SimTime Host::DispatchAnchor() const {
  return std::max(pcpu_heap_.top().first, paused_until_);
}

void Host::DispatchRound(SimTime window_end, SimTime end,
                         std::map<const void*, const Vm*>& store_users, RoundPlan& plan) {
  SimTime now = clock().now();
  if (now < paused_until_) {
    return;  // stalled inside an injected pause window: nothing dispatches
  }
  // VMs sharing one BlockStore must not execute in the same round: their
  // concurrent store accesses would race and perturb per-site fault-op
  // ordering. The first VM to claim a store vetoes the others until commit.
  // The map spans the whole domain round — a store can be shared across
  // hosts mid-migration.
  auto eligible = [&](sched::EntityId id) {
    const EntityRef& ref = entities_.at(id);
    const void* store = ref.vm->config().disk.get();
    if (store == nullptr) {
      return true;
    }
    auto it = store_users.find(store);
    if (it == store_users.end() || it->second == ref.vm) {
      return true;
    }
    plan.vetoed = true;
    return false;
  };

  sched_->BeginRound();
  while (!pcpu_heap_.empty()) {
    auto [free_at, p] = pcpu_heap_.top();
    SimTime t = std::max(free_at, now);
    if (t >= window_end) {
      break;
    }
    pcpu_heap_.pop();
    sched::EntityId id = sched_->PickNext(t, eligible);
    if (id == sched::kIdle) {
      ++stats_.idle_picks;
      plan.idles.push_back(IdlePick{p, t, std::min(window_end, sched_->NextEligibleTime(t))});
      continue;
    }
    EntityRef ref = entities_[id];
    if (const void* store = ref.vm->config().disk.get()) {
      store_users.emplace(store, ref.vm);
    }
    SliceWork work;
    work.host = this;
    work.pcpu = p;
    work.start = t;
    work.id = id;
    work.ref = ref;
    // The budget deliberately ignores window_end: like the serial loop, a
    // slice may overrun the next event (the event is simply processed after).
    work.budget = std::min<uint64_t>(config_.timeslice_cycles, end - t);
    plan.slices.push_back(std::move(work));
  }
}

void Host::CommitSlices(const CommitPhase& commit, RoundPlan& plan) {
  // Staged effects merge in dispatch order — (start time, pCPU index) — so
  // the post-round state is identical for any worker count.
  for (SliceWork& work : plan.slices) {
    clock().CommitStage(commit, work.clock_stage);
    switch_.CommitStage(commit, work.tx_stage, work.start);
    mem::FramePool::CommitStage(commit, work.pool_stage);
    for (const WakeStage::Op& op : work.wakes.ops) {
      sched::EntityId wid = EntityOf(op.vm, op.vcpu);
      if (wid != sched::kIdle) {
        sched_->SetRunnable(wid, op.runnable, work.start);
      }
      if (op.runnable) {
        plan.wake_horizon = std::min(plan.wake_horizon, work.start);
      }
    }
    internal::WriteLogText(commit, work.log);

    SimTime done = work.start + std::max<uint64_t>(work.result.cycles, 1);
    // Switching the pCPU to a different vCPU costs a world switch plus the
    // cold-cache tail; consolidation efficiency decays slightly with it.
    if (pcpu_last_entity_[work.pcpu] != work.id) {
      done += config_.costs.context_switch;
      pcpu_last_entity_[work.pcpu] = work.id;
      ++stats_.context_switches;
      stats_.pcpu[work.pcpu].steal_cycles += config_.costs.context_switch;
    }
    pcpu_free_at_[work.pcpu] = done;
    pcpu_heap_.push({done, work.pcpu});
    plan.min_done = std::min(plan.min_done, done);
    ++stats_.slices;
    stats_.cycles_executed += work.result.cycles;
    stats_.pcpu[work.pcpu].busy_cycles += work.result.cycles;

    bool still_runnable =
        work.result.end == SliceEnd::kBudget || work.result.end == SliceEnd::kYielded;
    sched_->Account(work.id, work.result.cycles, still_runnable, done);
  }

  if (!plan.slices.empty() && verify::AuditEnabled()) {
    verify::AuditReport report = AuditFrameAccounting();
    if (!report.ok()) {
      CrashAllVms(InternalError("frame accounting audit failed on " + config_.name +
                                ":\n" + report.ToString()));
    }
  }
}

void Host::ParkIdles(const RoundPlan& plan, SimTime domain_min_done,
                     SimTime event_horizon) {
  // Idle pCPUs park until their pick could change: a wake committed this
  // round (visible from the waker's slice start); after a store veto, the
  // end of the earliest conflicting slice — which may live on another member
  // host, hence the domain-wide bound; or the next pending clock event as of
  // the barrier. The last clamp matters across hosts: a frame committed this
  // round can wake a vCPU on a member whose pCPUs all parked before the
  // delivery event existed, and no busy pCPU over there would ever re-derive
  // the horizon. Without any bound, the park time is strictly in the future,
  // so rounds always advance.
  SimTime horizon = std::min(plan.wake_horizon, event_horizon);
  if (plan.vetoed) {
    horizon = std::min(horizon, domain_min_done);
  }
  for (const IdlePick& idle : plan.idles) {
    SimTime park = idle.park;
    if (horizon != ~SimTime{0}) {
      park = std::min(park, std::max(idle.start, horizon));
    }
    if (park > idle.start) {
      stats_.pcpu[idle.pcpu].idle_time += park - idle.start;
    }
    pcpu_free_at_[idle.pcpu] = park;
    pcpu_heap_.push({park, idle.pcpu});
  }
  ++stats_.rounds;
}

void Host::ExecuteSlice(SliceWork& work) {
  // The lane's ExecutePhase carries the slice's stages; while it lives,
  // ScopedSerialPhase cannot be minted from guest-triggered code.
  work.clock_stage.clock = &domain_->clock();
  work.tx_stage.sw = &switch_;
  work.wakes.host = this;
  ExecutePhase ep(work.start, work.clock_stage, work.tx_stage, work.pool_stage, work.wakes,
                  work.log);
  work.result = work.ref.vm->RunVcpuSlice(ep, work.ref.vcpu, work.budget);
}

bool Host::AnyVcpuRunnable() const {
  for (const auto& [id, ref] : entities_) {
    (void)id;
    const cpu::CpuState& s = ref.vm->vcpu(ref.vcpu).state;
    if (ref.vm->state() == VmState::kRunning && !s.halted && !s.waiting) {
      return true;
    }
  }
  return false;
}

bool Host::RunUntilQuiescent(SimTime max_time) {
  for (;;) {
    bool any_runnable = AnyVcpuRunnable();
    if (!any_runnable && !clock().HasPending()) {
      return true;
    }
    if (clock().now() >= max_time) {
      return false;
    }
    SimTime before = clock().now();
    SimTime step = max_time - before;
    if (any_runnable) {
      step = std::min<SimTime>(step, 50 * kSimTicksPerMs);
    } else {
      // Nothing schedulable: hop straight to the next event instead of
      // grinding through fixed-size idle chunks.
      step = std::min<SimTime>(step, std::max<SimTime>(clock().NextEventTime() - before, 1));
    }
    RunFor(step);
    if (clock().now() == before) {
      return false;  // no progress possible
    }
  }
}

verify::AuditReport Host::AuditFrameAccounting() const {
  verify::AuditReport report;
  std::vector<const mem::GuestMemory*> spaces;
  spaces.reserve(vms_.size());
  for (const auto& vm : vms_) {
    spaces.push_back(&vm->memory());
  }
  verify::AuditFrameAccounting(pool_, spaces, &report);
  return report;
}

bool Host::RunUntilVmStops(Vm* vm, SimTime max_time) {
  while (clock().now() < max_time && vm->state() == VmState::kRunning) {
    RunFor(std::min<SimTime>(max_time - clock().now(), 10 * kSimTicksPerMs));
  }
  return vm->state() != VmState::kRunning;
}

}  // namespace hyperion::core
