// Fault-injecting storage wrappers.
//
// FaultyBlockStore wraps any BlockStore and surfaces transient injected
// read/write errors (kUnavailable) to its consumer — the virtio and
// emulated block devices propagate them to the guest as I/O errors.
//
// FaultyByteStore wraps the ByteStore under an HVD image and models power
// loss mid-write: a kTornWrite event lands only a sector-aligned prefix of
// one WriteAt, then the device dies (every later operation fails). Tests
// reopen the surviving bytes to check crash consistency.

#ifndef SRC_FAULT_FAULTY_STORE_H_
#define SRC_FAULT_FAULTY_STORE_H_

#include <memory>
#include <string>
#include <utility>

#include "src/fault/fault.h"
#include "src/storage/block_store.h"
#include "src/storage/byte_store.h"
#include "src/util/sim_clock.h"

namespace hyperion::fault {

class FaultyBlockStore final : public storage::BlockStore {
 public:
  // `clock` may be null: time-windowed events then key off now == 0 and only
  // op-count windows select faults. Inside a vCPU slice on `clock`'s domain
  // the time is the slice's start, read from the thread's current slice
  // (BlockStore calls carry no phase token).
  FaultyBlockStore(std::shared_ptr<storage::BlockStore> inner,
                   FaultInjector* injector, std::string site,
                   SimClock* clock = nullptr)
      : inner_(std::move(inner)),
        injector_(injector),
        site_(std::move(site)),
        clock_(clock) {}

  uint64_t num_sectors() const override { return inner_->num_sectors(); }
  Status ReadSectors(uint64_t lba, uint32_t count, uint8_t* out) override;
  Status WriteSectors(uint64_t lba, uint32_t count,
                      const uint8_t* data) override;
  Status Flush() override { return inner_->Flush(); }

  storage::BlockStore* inner() { return inner_.get(); }

 private:
  SimTime now() const {
    if (clock_ == nullptr) {
      return 0;
    }
    const ExecutePhase* slice = ExecutePhase::Current();
    return slice != nullptr && slice->clock_.clock == clock_ ? slice->vnow() : clock_->now();
  }

  std::shared_ptr<storage::BlockStore> inner_;
  FaultInjector* injector_;
  std::string site_;
  SimClock* clock_;
};

class FaultyByteStore final : public storage::ByteStore {
 public:
  FaultyByteStore(std::unique_ptr<storage::ByteStore> inner,
                  FaultInjector* injector, std::string site,
                  SimClock* clock = nullptr)
      : inner_(std::move(inner)),
        injector_(injector),
        site_(std::move(site)),
        clock_(clock) {}

  uint64_t size() const override { return inner_->size(); }
  Status ReadAt(uint64_t offset, void* out, size_t n) const override;
  Status WriteAt(uint64_t offset, const void* data, size_t n) override;
  Status Sync() override;

  // True after a torn write killed the device.
  bool dead() const { return dead_; }
  // The surviving medium (what a post-crash reopen would see).
  storage::ByteStore* inner() { return inner_.get(); }

 private:
  SimTime now() const { return clock_ != nullptr ? clock_->now() : 0; }

  std::unique_ptr<storage::ByteStore> inner_;
  FaultInjector* injector_;
  std::string site_;
  SimClock* clock_;
  bool dead_ = false;
};

}  // namespace hyperion::fault

#endif  // SRC_FAULT_FAULTY_STORE_H_
