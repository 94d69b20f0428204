// Fully emulated programmed-I/O network device.
//
// Like the emulated block device, every byte of every frame crosses the DATA
// port one word at a time — the per-frame exit count scales with frame size.
//
// Register map (word access):
//   0x00 TX_LEN (RW) payload length for the next SEND
//   0x04 TX_DST (RW) destination address
//   0x08 CMD    (WO) 1 = SEND tx buffer, 2 = POP next rx frame into buffer
//   0x0C STATUS (RO) bit0 rx available, bit1 rx frame latched
//   0x10 DATA   (RW) auto-incrementing word window (writes: tx, reads: rx)
//   0x14 RX_LEN (RO) length of the latched rx frame
//   0x18 RX_SRC (RO) source address of the latched rx frame
//   0x1C PTRRST (WO) rewind the data pointer

#ifndef SRC_DEVICES_EMULATED_NET_H_
#define SRC_DEVICES_EMULATED_NET_H_

#include <deque>

#include "src/devices/pic.h"
#include "src/net/network.h"

namespace hyperion::devices {

class EmulatedNetDevice final : public MmioDevice, public net::FrameSink {
 public:
  static constexpr size_t kBufBytes = 4096;

  EmulatedNetDevice(net::VirtualSwitch* vswitch, net::MacAddr addr, IrqLine irq)
      : switch_(vswitch), addr_(addr), irq_(irq), tx_(kBufBytes), rx_buf_(kBufBytes) {}

  net::MacAddr addr() const { return addr_; }

  std::string_view name() const override { return "emu-net"; }
  Result<uint32_t> Read(uint32_t offset, uint32_t size) override;
  Status Write(const Phase& ph, uint32_t offset, uint32_t size, uint32_t value) override;
  void Reset(const DirectPhase& ph) override;

  // net::FrameSink
  void OnFrames(const SerialPhase& ph, std::span<const net::Frame> frames) override;

  struct Stats {
    uint64_t tx_frames = 0;
    uint64_t rx_frames = 0;
    uint64_t rx_dropped = 0;
  };
  const Stats& stats() const { return stats_; }
  size_t rx_queue_depth() const { return rx_queue_.size(); }

 private:
  net::VirtualSwitch* switch_;
  net::MacAddr addr_;
  IrqLine irq_;

  uint32_t tx_len_ = 0;
  uint32_t tx_dst_ = 0;
  std::vector<uint8_t> tx_;
  uint32_t data_ptr_ = 0;

  std::deque<net::Frame> rx_queue_;
  net::Frame rx_latched_;
  bool rx_valid_ = false;
  std::vector<uint8_t> rx_buf_;
  Stats stats_;
};

}  // namespace hyperion::devices

#endif  // SRC_DEVICES_EMULATED_NET_H_
