#include "src/snapshot/snapshot.h"

#include <cstring>
#include <numeric>

#include "src/util/byte_stream.h"
#include "src/util/crc32.h"

namespace hyperion::snapshot {

namespace {

constexpr uint32_t kMagic = 0x504E5348;  // "HSNP"
// v1: no feature-bits word. v2 adds a u32 feature-bit mask right after the
// version; each bit gates an optional trailing section, so a v2 reader can
// restore any v1 image and reject (rather than misparse) images from a
// future writer that set bits it does not know.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kFeatTranslations = 1u << 0;  // per-vCPU translation cache
constexpr uint32_t kKnownFeatures = kFeatTranslations;

constexpr uint8_t kPageData = 0;
constexpr uint8_t kPageZero = 1;
constexpr uint8_t kPageAbsent = 2;

constexpr uint8_t kFlagIncremental = 1;

// Encodes `vm` with a page section of exactly `pages`. SaveVm picks the
// pages; ForkVm passes none to carry the machine state alone.
std::vector<uint8_t> Encode(core::Vm& vm, SaveOptions options, const std::vector<uint32_t>& pages,
                            SnapshotInfo* info) {
  ByteWriter w;
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);
  // Translation sections are collected up front so the feature word can say
  // definitively whether the trailing sections exist. An interpreter engine
  // serializes to an empty blob; that still counts as the section being
  // present (restore passes it through and the engine ignores it).
  uint32_t features = 0;
  std::vector<std::vector<uint8_t>> translations;
  if (options.translations) {
    features |= kFeatTranslations;
    translations.reserve(vm.num_vcpus());
    for (uint32_t i = 0; i < vm.num_vcpus(); ++i) {
      translations.push_back(vm.engine(i).SerializeTranslations());
    }
  }
  w.WriteU32(features);
  w.WriteU8(options.incremental ? kFlagIncremental : 0);
  w.WriteU32(vm.memory().ram_size());
  w.WriteU32(vm.num_vcpus());

  for (uint32_t i = 0; i < vm.num_vcpus(); ++i) {
    vm.vcpu(i).state.Serialize(w);
  }

  w.WriteString(vm.console());
  w.WriteU32(static_cast<uint32_t>(vm.logged_values().size()));
  for (uint32_t v : vm.logged_values()) {
    w.WriteU32(v);
  }
  w.WriteU32(vm.balloon_target());

  // Page section.
  SnapshotInfo local_info;
  mem::GuestMemory& mem = vm.memory();
  size_t count_at = w.size();
  w.WriteU32(0);  // patched below with the emitted entry count
  uint32_t emitted = 0;
  for (uint32_t gpn : pages) {
    ++local_info.pages_total;
    if (!mem.IsPresent(gpn)) {
      w.WriteU32(gpn);
      w.WriteU8(kPageAbsent);
      ++local_info.pages_absent;
      ++emitted;
      continue;
    }
    const uint8_t* data = mem.PageData(gpn);
    if (mem.PageIsZero(gpn)) {
      if (options.incremental) {
        // Incremental restores patch over existing state, so a page that
        // became zero must be recorded explicitly.
        w.WriteU32(gpn);
        w.WriteU8(kPageZero);
        ++emitted;
      }
      ++local_info.pages_zero;
      continue;  // full snapshots elide zero pages entirely
    }
    w.WriteU32(gpn);
    w.WriteU8(kPageData);
    w.WriteBytes(data, isa::kPageSize);
    ++local_info.pages_data;
    ++emitted;
  }
  w.PatchU32(count_at, emitted);

  // Device section, in bus mapping order.
  const auto& devs = vm.bus().devices();
  w.WriteU32(static_cast<uint32_t>(devs.size()));
  for (const devices::MmioDevice* dev : devs) {
    w.WriteString(std::string(dev->name()));
    ByteWriter dw;
    dev->Serialize(dw);
    w.WriteBlob(dw.buffer());
  }

  // Translation cache sections, one blob per vCPU, inside the outer CRC.
  if ((features & kFeatTranslations) != 0) {
    for (const std::vector<uint8_t>& blob : translations) {
      w.WriteBlob(blob);
    }
  }

  uint32_t crc = Crc32(w.buffer().data(), w.size());
  w.WriteU32(crc);

  local_info.bytes = w.size();
  if (info != nullptr) {
    *info = local_info;
  }
  return w.TakeBuffer();
}

}  // namespace

Result<std::vector<uint8_t>> SaveVm(core::Vm& vm, SaveOptions options, SnapshotInfo* info) {
  mem::GuestMemory& mem = vm.memory();
  std::vector<uint32_t> pages;
  if (options.incremental) {
    HYP_ASSIGN_OR_RETURN(Bitmap dirty, mem.HarvestDirty());
    for (size_t gpn : dirty.SetBits()) {
      pages.push_back(static_cast<uint32_t>(gpn));
    }
  } else {
    pages.resize(mem.num_pages());
    std::iota(pages.begin(), pages.end(), 0u);
  }
  return Encode(vm, options, pages, info);
}

Status LoadVm(core::Vm& vm, std::span<const uint8_t> bytes) {
  if (bytes.size() < 8) {
    return DataLossError("snapshot too small");
  }
  uint32_t crc_stored;
  std::memcpy(&crc_stored, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.data(), bytes.size() - 4) != crc_stored) {
    return DataLossError("snapshot checksum mismatch");
  }

  ByteReader r(bytes.first(bytes.size() - 4));
  HYP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) {
    return DataLossError("bad snapshot magic");
  }
  HYP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version < 1 || version > kVersion) {
    return UnimplementedError("unsupported snapshot version");
  }
  uint32_t features = 0;
  if (version >= 2) {
    HYP_ASSIGN_OR_RETURN(features, r.ReadU32());
    if ((features & ~kKnownFeatures) != 0) {
      return UnimplementedError("snapshot carries unknown feature bits");
    }
  }
  HYP_ASSIGN_OR_RETURN(uint8_t flags, r.ReadU8());
  bool incremental = flags & kFlagIncremental;

  HYP_ASSIGN_OR_RETURN(uint32_t ram, r.ReadU32());
  HYP_ASSIGN_OR_RETURN(uint32_t vcpus, r.ReadU32());
  if (ram != vm.memory().ram_size() || vcpus != vm.num_vcpus()) {
    return FailedPreconditionError("snapshot geometry does not match the target VM");
  }

  for (uint32_t i = 0; i < vcpus; ++i) {
    HYP_ASSIGN_OR_RETURN(vm.vcpu(i).state, cpu::CpuState::Deserialize(r));
  }

  HYP_ASSIGN_OR_RETURN(std::string console, r.ReadString());
  HYP_ASSIGN_OR_RETURN(uint32_t nlog, r.ReadU32());
  std::vector<uint32_t> logged(nlog);
  for (auto& v : logged) {
    HYP_ASSIGN_OR_RETURN(v, r.ReadU32());
  }
  HYP_ASSIGN_OR_RETURN(uint32_t balloon_target, r.ReadU32());

  mem::GuestMemory& mem = vm.memory();
  // Restore runs serially between rounds; the token is runtime-checked once.
  ScopedSerialPhase serial;
  if (!incremental) {
    // Full restore baseline: every page present and zeroed. A page that
    // already reads zero is left alone, so a fresh target (whose frames
    // were never touched) is not faulted in just to store zeros.
    for (uint32_t gpn = 0; gpn < mem.num_pages(); ++gpn) {
      if (!mem.IsPresent(gpn)) {
        HYP_RETURN_IF_ERROR(mem.PopulatePage(gpn));
      } else if (!mem.PageIsZero(gpn)) {
        std::memset(mem.PageData(gpn), 0, isa::kPageSize);
      }
    }
  }

  HYP_ASSIGN_OR_RETURN(uint32_t entries, r.ReadU32());
  for (uint32_t i = 0; i < entries; ++i) {
    HYP_ASSIGN_OR_RETURN(uint32_t gpn, r.ReadU32());
    HYP_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
    if (gpn >= mem.num_pages()) {
      return DataLossError("snapshot page out of range");
    }
    switch (kind) {
      case kPageData: {
        if (!mem.IsPresent(gpn)) {
          HYP_RETURN_IF_ERROR(mem.PopulatePage(gpn));
        }
        HYP_RETURN_IF_ERROR(r.ReadBytes(mem.PageData(gpn), isa::kPageSize));
        break;
      }
      case kPageZero:
        if (!mem.IsPresent(gpn)) {
          HYP_RETURN_IF_ERROR(mem.PopulatePage(gpn));
        } else {
          std::memset(mem.PageData(gpn), 0, isa::kPageSize);
        }
        break;
      case kPageAbsent:
        if (mem.IsPresent(gpn)) {
          HYP_RETURN_IF_ERROR(mem.ReleasePage(serial, gpn));
        }
        break;
      default:
        return DataLossError("bad page kind in snapshot");
    }
  }

  HYP_ASSIGN_OR_RETURN(uint32_t ndev, r.ReadU32());
  const auto& devs = vm.bus().devices();
  if (ndev != devs.size()) {
    return FailedPreconditionError("snapshot device set does not match the target VM");
  }
  for (uint32_t i = 0; i < ndev; ++i) {
    HYP_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    if (name != devs[i]->name()) {
      return FailedPreconditionError("device order mismatch: snapshot has '" + name +
                                     "', vm has '" + std::string(devs[i]->name()) + "'");
    }
    HYP_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, r.ReadBlob());
    ByteReader dr(blob);
    HYP_RETURN_IF_ERROR(devs[i]->Deserialize(serial, dr));
  }

  std::vector<std::vector<uint8_t>> translations;
  if ((features & kFeatTranslations) != 0) {
    translations.reserve(vcpus);
    for (uint32_t i = 0; i < vcpus; ++i) {
      HYP_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, r.ReadBlob());
      translations.push_back(std::move(blob));
    }
  }

  // Host-side state last: balloon accounting depends on final page presence.
  vm.RestoreHostSideState(std::move(console), std::move(logged), balloon_target);

  // Every cached translation is now stale.
  vm.virt().FlushAll();
  for (uint32_t i = 0; i < vm.num_vcpus(); ++i) {
    vm.engine(i).FlushCodeCache();
  }
  // Then pre-warm from the snapshot's own translation cache: each engine
  // revalidates every persisted unit against the memory restored above and
  // installs what survives. A corrupt or stale blob degrades to cold
  // translation — the restore itself still succeeds.
  for (uint32_t i = 0; i < translations.size(); ++i) {
    vm.engine(i).InstallTranslations(vm.vcpu(i), translations[i]);
  }
  return OkStatus();
}

Result<core::Vm*> CloneVm(core::Host& host, core::VmConfig config,
                          std::span<const uint8_t> template_snapshot) {
  HYP_ASSIGN_OR_RETURN(core::Vm * vm, host.CreateVm(std::move(config)));
  Status st = LoadVm(*vm, template_snapshot);
  if (!st.ok()) {
    (void)host.DestroyVm(vm);
    return st;
  }
  return vm;
}

Result<core::Vm*> ForkVm(core::Host& host, core::VmConfig config, core::Vm& parent) {
  if (parent.state() != core::VmState::kPaused) {
    return FailedPreconditionError("fork requires a paused parent");
  }
  if (config.ram_bytes != parent.memory().ram_size() ||
      config.num_vcpus != parent.num_vcpus()) {
    return InvalidArgumentError("fork config geometry must match the parent");
  }

  HYP_ASSIGN_OR_RETURN(core::Vm * child, host.CreateVm(std::move(config)));
  auto fail = [&host, child](Status st) -> Result<core::Vm*> {
    (void)host.DestroyVm(child);
    return st;
  };

  // Non-RAM machine state transfers through a RAM-less image: an
  // incremental encoding with no pages patches CPU, device and console
  // state only. Translations cannot ride it: the child's RAM is not shared
  // yet, so revalidation would reject every unit. They install below, after
  // the COW remap, straight from the parent's engines.
  std::vector<uint8_t> state_image =
      Encode(parent, {.incremental = true, .translations = false}, {}, nullptr);
  if (Status st = LoadVm(*child, state_image); !st.ok()) {
    return fail(st);
  }

  // Share every present parent page into the child, copy-on-write.
  ScopedSerialPhase serial;
  mem::GuestMemory& pmem = parent.memory();
  mem::GuestMemory& cmem = child->memory();
  for (uint32_t gpn = 0; gpn < pmem.num_pages(); ++gpn) {
    if (!pmem.IsPresent(gpn)) {
      if (cmem.IsPresent(gpn)) {
        if (Status st = cmem.ReleasePage(serial, gpn); !st.ok()) {
          return fail(st);
        }
      }
      continue;
    }
    if (Status st = cmem.RemapPage(serial, gpn, pmem.FrameForPage(gpn)); !st.ok()) {
      return fail(st);
    }
    cmem.SetShared(gpn, true);
    pmem.SetShared(gpn, true);
    pmem.NotifySharedExternally(gpn);
  }
  child->virt().FlushAll();
  for (uint32_t i = 0; i < child->num_vcpus(); ++i) {
    child->engine(i).FlushCodeCache();
  }
  // Pre-warm the child's code caches from the parent now that its pages
  // share the parent's frames: revalidation reads the shared frames, so a
  // fork of a warmed parent starts with zero cold translates.
  for (uint32_t i = 0; i < child->num_vcpus(); ++i) {
    std::vector<uint8_t> blob = parent.engine(i).SerializeTranslations();
    child->engine(i).InstallTranslations(child->vcpu(i), blob);
  }
  child->Pause(serial);
  child->Resume(serial);
  return child;
}

}  // namespace hyperion::snapshot
