// Minimal libpcap-format (.pcap) reader and writer.
//
// Substrate for feeding the measurement devices real capture files and
// for exporting synthesized traces in a format standard tools (tcpdump,
// wireshark) can open. Implements the classic pcap file format
// (magic 0xA1B2C3D4, microsecond timestamps), both byte orders on read,
// link type EN10MB.
//
// The reader is buffered: it pulls the capture into one reusable block
// (kReadBlockBytes) with a single istream read per block and walks the
// records in place as FrameViews. next() and next_record() are entry
// points into that one walk.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "packet/headers.hpp"
#include "packet/packet.hpp"
#include "robustness/fault.hpp"

namespace nd::pcap {

inline constexpr std::uint32_t kMagicNative = 0xA1B2C3D4;
inline constexpr std::uint32_t kMagicSwapped = 0xD4C3B2A1;
inline constexpr std::uint32_t kLinkTypeEthernet = 1;
/// Largest snaplen the reader accepts. Real captures use 65535 or
/// less; the cap bounds every per-packet allocation, so a corrupt
/// header field can never become a multi-gigabyte resize.
inline constexpr std::uint32_t kMaxSnapLen = 262144;
/// Bytes of the per-record header (ts_sec, ts_usec, incl_len, orig_len).
inline constexpr std::size_t kRecordHeaderBytes = 16;
/// The reader's block size: one istream read fills this much, so a
/// capture costs about one read() per MiB. Always holds a whole record.
inline constexpr std::size_t kReadBlockBytes = std::size_t{1} << 20;
static_assert(kReadBlockBytes >= kRecordHeaderBytes + kMaxSnapLen);

class PcapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct PcapPacket {
  common::TimestampNs timestamp_ns{0};
  std::uint32_t original_length{0};
  std::vector<std::uint8_t> data;  // captured (possibly truncated) bytes
};

/// One captured frame as a view into PcapReader's buffer.
struct FrameView {
  common::TimestampNs timestamp_ns{0};
  std::uint32_t original_length{0};
  std::span<const std::uint8_t> data;  // captured (possibly truncated)
};

/// Streaming writer. Writes the global header on construction.
class PcapWriter {
 public:
  /// snaplen caps how many frame bytes are stored per packet (classic
  /// capture truncation); the full original length is still recorded.
  explicit PcapWriter(std::ostream& out, std::uint32_t snaplen = 65535);

  /// Write a raw frame.
  void write(common::TimestampNs timestamp_ns,
             std::span<const std::uint8_t> frame);

  /// Convenience: synthesize an Ethernet/IPv4 frame from a record and
  /// write it.
  void write(const packet::PacketRecord& record);

  [[nodiscard]] std::uint64_t packets_written() const { return count_; }

 private:
  std::ostream& out_;
  std::uint32_t snaplen_;
  std::uint64_t count_{0};
};

/// Buffered streaming reader; handles both byte orders. Throws
/// PcapError on a bad magic or a structurally truncated file. Reads
/// ahead of the record it returns, so the stream's position afterwards
/// is unspecified.
class PcapReader {
 public:
  explicit PcapReader(std::istream& in);

  /// Next raw packet, or nullopt at clean end-of-file (a stub of under
  /// four bytes after the last record also reads as end-of-file).
  [[nodiscard]] std::optional<PcapPacket> next();

  /// Next packet parsed to a PacketRecord, skipping non-IPv4 frames.
  [[nodiscard]] std::optional<packet::PacketRecord> next_record();

  [[nodiscard]] bool swapped() const { return swapped_; }
  [[nodiscard]] std::uint32_t snaplen() const { return snaplen_; }
  [[nodiscard]] std::uint32_t link_type() const { return link_type_; }

  /// Attach a fault injector simulating capture damage on the wire:
  /// site "pcap.truncate" shortens the returned frame's data (the
  /// stream stays aligned — the full capture is consumed first) and
  /// "pcap.corrupt" flips a payload byte. Both sites are consulted once
  /// per record, truncate first; a damaged frame is a scratch copy, the
  /// read buffer is never written. Not owned; null detaches.
  void attach_fault_injector(robustness::FaultInjector* faults) {
    faults_ = faults;
  }

 private:
  /// The one walk next() and next_record() share: the next frame as a
  /// view into the buffer (or the fault scratch copy), valid until the
  /// next call; nullopt at clean end-of-file.
  [[nodiscard]] std::optional<FrameView> next_frame();
  /// Make at least `bytes` unread bytes contiguous in the buffer; false
  /// when the stream ends first.
  bool fill(std::size_t bytes) {
    return end_ - pos_ >= bytes || refill(bytes);
  }
  bool refill(std::size_t bytes);
  /// A u32 header field in the file's byte order.
  [[nodiscard]] std::uint32_t load_u32(const std::uint8_t* at) const {
    return swapped_ ? (std::uint32_t{at[0]} << 24) |
                          (std::uint32_t{at[1]} << 16) |
                          (std::uint32_t{at[2]} << 8) | std::uint32_t{at[3]}
                    : std::uint32_t{at[0]} | (std::uint32_t{at[1]} << 8) |
                          (std::uint32_t{at[2]} << 16) |
                          (std::uint32_t{at[3]} << 24);
  }

  std::istream& in_;
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_{0};  // first unread byte
  std::size_t end_{0};  // one past the last buffered byte
  std::vector<std::uint8_t> scratch_;  // fault-damaged frame copy
  bool swapped_{false};
  std::uint32_t snaplen_{0};
  std::uint32_t link_type_{0};
  robustness::FaultInjector* faults_{nullptr};
};

/// Write a whole trace to a file. Returns packets written.
std::uint64_t write_pcap_file(const std::string& path,
                              std::span<const packet::PacketRecord> records,
                              std::uint32_t snaplen = 65535);

/// Read a whole file into records (non-IPv4 frames skipped).
[[nodiscard]] std::vector<packet::PacketRecord> read_pcap_file(
    const std::string& path);

}  // namespace nd::pcap
