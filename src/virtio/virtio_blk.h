// Paravirtual block device.
//
// Request chain format (queue 0):
//   desc 0 (RO): header { u32 type (0=read, 1=write); u32 pad; u64 sector; }
//   desc 1..k  : data buffers (WRITE flag set for reads)
//   desc last (WO): u8 status (0 = ok, 1 = io error, 2 = unsupported)
//
// One kick may carry many requests; completions are posted together and a
// single interrupt fires — per-request exit cost approaches 1/batch.

#ifndef SRC_VIRTIO_VIRTIO_BLK_H_
#define SRC_VIRTIO_VIRTIO_BLK_H_

#include "src/storage/block_store.h"
#include "src/util/cost_model.h"
#include "src/util/sim_clock.h"
#include "src/virtio/virtio.h"

namespace hyperion::virtio {

inline constexpr uint32_t kVirtioIdNet = 1;
inline constexpr uint32_t kVirtioIdBlk = 2;
inline constexpr uint32_t kVirtioIdConsole = 3;

inline constexpr uint32_t kBlkReqRead = 0;
inline constexpr uint32_t kBlkReqWrite = 1;

inline constexpr uint8_t kBlkStatusOk = 0;
inline constexpr uint8_t kBlkStatusIoErr = 1;
inline constexpr uint8_t kBlkStatusUnsupported = 2;

class VirtioBlk final : public VirtioDevice {
 public:
  // Completion is scheduled on `clock`. An owner-tagged ClockRef lets the
  // owning VM cancel in-flight completion events on destruction.
  VirtioBlk(mem::GuestMemory* memory, devices::IrqLine irq, storage::BlockStore* store,
            ClockRef clock, const CostModel& costs = CostModel::Default())
      : VirtioDevice(kVirtioIdBlk, 1, memory, irq),
        store_(store),
        clock_(clock),
        costs_(costs) {}

  std::string_view name() const override { return "virtio-blk"; }

  struct BlkStats {
    uint64_t requests = 0;
    uint64_t sectors = 0;
    uint64_t errors = 0;
  };
  const BlkStats& blk_stats() const { return blk_stats_; }

 protected:
  Status ProcessQueue(const Phase& ph, uint16_t q) override;

 private:
  // Executes one request chain; returns sectors moved (for timing).
  Result<uint64_t> HandleChain(const Chain& chain);

  storage::BlockStore* store_;
  ClockRef clock_;
  const CostModel& costs_;
  BlkStats blk_stats_;
};

}  // namespace hyperion::virtio

#endif  // SRC_VIRTIO_VIRTIO_BLK_H_
