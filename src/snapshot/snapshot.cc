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
// pages; MakeVmFrom passes none to carry the machine state alone.
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

namespace {

// LoadVm. `fresh`: `vm` was just created, so every page is present and reads zero.
Status Restore(core::Vm& vm, std::span<const uint8_t> bytes, bool fresh) {
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
  if (!incremental && !fresh) {
    // Full restore baseline: every page present and zeroed. A page that
    // already reads zero is left alone, so frames the host never touched
    // are not faulted in just to store zeros.
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
  // re-derives every translation the blob names from the memory restored
  // above and installs what still decodes the same. A corrupt or stale blob
  // degrades to cold translation — the restore itself still succeeds.
  for (uint32_t i = 0; i < translations.size(); ++i) {
    vm.engine(i).InstallTranslations(vm.vcpu(i), translations[i]);
  }
  return OkStatus();
}

template <typename Init>
Result<core::Vm*> CreateVmThen(core::Host& host, core::VmConfig config, Init init) {
  HYP_ASSIGN_OR_RETURN(core::Vm * vm, host.CreateVm(std::move(config)));
  if (Status st = init(*vm); !st.ok()) {
    (void)host.DestroyVm(vm);
    return st;
  }
  return vm;
}

}  // namespace

Status LoadVm(core::Vm& vm, std::span<const uint8_t> bytes) { return Restore(vm, bytes, false); }

Result<core::Vm*> CloneVm(core::Host& host, core::VmConfig config,
                          std::span<const uint8_t> template_snapshot) {
  return CreateVmThen(host, std::move(config), [&](core::Vm& vm) {
    return Restore(vm, template_snapshot, /*fresh=*/true);
  });
}

Result<core::Vm*> MakeVmFrom(core::Host& host, core::VmConfig config, core::Vm& source,
                             PageSource pages) {
  if (source.state() == core::VmState::kRunning) {
    return FailedPreconditionError("a vm can be made only from a stopped source");
  }
  if (config.ram_bytes != source.memory().ram_size() ||
      config.num_vcpus != source.num_vcpus()) {
    return InvalidArgumentError("config geometry must match the source");
  }

  return CreateVmThen(host, std::move(config), [&](core::Vm& vm) -> Status {
    // One pass in page order over the fresh VM, whose pages are all present
    // and read zero.
    ScopedSerialPhase serial;
    mem::GuestMemory& smem = source.memory();
    mem::GuestMemory& dmem = vm.memory();
    for (uint32_t gpn = 0; gpn < smem.num_pages(); ++gpn) {
      if (!smem.IsPresent(gpn)) {
        HYP_RETURN_IF_ERROR(dmem.ReleasePage(serial, gpn));
      } else if (pages == PageSource::kShare) {
        HYP_RETURN_IF_ERROR(dmem.RemapPage(serial, gpn, smem.FrameForPage(gpn)));
        dmem.SetShared(gpn, true);
        smem.SetShared(gpn, true);
        smem.NotifySharedExternally(gpn);
      } else if (pages == PageSource::kCopy && !smem.PageIsZero(gpn)) {
        // Copying a zero page would only fault in a frame that reads zero.
        std::memcpy(dmem.PageData(gpn), smem.PageData(gpn), isa::kPageSize);
      }
    }

    // Machine state crosses once, in a page-less image whose restore counts
    // the released pages as ballooned; the translation caches ride along
    // when the pages they re-derive from are in place.
    std::vector<uint8_t> state_image = Encode(
        source, {.incremental = true, .translations = pages != PageSource::kDemand}, {}, nullptr);
    HYP_RETURN_IF_ERROR(LoadVm(vm, state_image));
    if (pages == PageSource::kDemand) {
      // Post-copy delivers every present page; until then it is absent.
      for (uint32_t gpn = 0; gpn < smem.num_pages(); ++gpn) {
        if (smem.IsPresent(gpn)) {
          HYP_RETURN_IF_ERROR(dmem.ReleasePage(serial, gpn));
        }
      }
    }
    vm.Pause(serial);  // align lifecycle state, then resume cleanly
    vm.Resume(serial);
    return OkStatus();
  });
}

Result<core::Vm*> ForkVm(core::Host& host, core::VmConfig config, core::Vm& parent) {
  return MakeVmFrom(host, std::move(config), parent, PageSource::kShare);
}

}  // namespace hyperion::snapshot
