#include "pcap/pcap.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace nd::pcap {

namespace {

void put_u32le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  out.write(bytes, 4);
}

void put_u16le(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xFF),
                         static_cast<char>((v >> 8) & 0xFF)};
  out.write(bytes, 2);
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  put_u32le(out_, kMagicNative);
  put_u16le(out_, 2);  // version major
  put_u16le(out_, 4);  // version minor
  put_u32le(out_, 0);  // thiszone
  put_u32le(out_, 0);  // sigfigs
  put_u32le(out_, snaplen_);
  put_u32le(out_, kLinkTypeEthernet);
  if (!out_) throw PcapError("pcap: failed to write global header");
}

void PcapWriter::write(common::TimestampNs timestamp_ns,
                       std::span<const std::uint8_t> frame) {
  const auto captured =
      std::min<std::size_t>(frame.size(), snaplen_);
  put_u32le(out_, static_cast<std::uint32_t>(timestamp_ns / 1'000'000'000ULL));
  put_u32le(out_,
            static_cast<std::uint32_t>((timestamp_ns % 1'000'000'000ULL) /
                                       1000ULL));
  put_u32le(out_, static_cast<std::uint32_t>(captured));
  put_u32le(out_, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(captured));
  if (!out_) throw PcapError("pcap: failed to write packet");
  ++count_;
}

void PcapWriter::write(const packet::PacketRecord& record) {
  write(record.timestamp_ns, packet::build_frame(record));
}

PcapReader::PcapReader(std::istream& in)
    : in_(in), buffer_(kReadBlockBytes) {
  if (!fill(4)) {
    throw PcapError("pcap: empty file");
  }
  // The magic is stored in the writer's byte order: read little-endian,
  // a big-endian file shows the swapped constant.
  const std::uint32_t magic = load_u32(buffer_.data());
  if (magic == kMagicNative) {
    swapped_ = false;
  } else if (magic == kMagicSwapped) {
    swapped_ = true;
  } else {
    throw PcapError("pcap: bad magic number");
  }
  if (!fill(24)) {
    throw PcapError("pcap: truncated global header");
  }
  const std::uint8_t* header = buffer_.data();
  const std::uint32_t vmaj =
      swapped_ ? (std::uint32_t{header[4]} << 8) | header[5]
               : (std::uint32_t{header[5]} << 8) | header[4];
  snaplen_ = load_u32(header + 16);
  link_type_ = load_u32(header + 20);
  pos_ = 24;
  if (vmaj != 2) {
    throw PcapError("pcap: unsupported version " + std::to_string(vmaj));
  }
  if (snaplen_ == 0 || snaplen_ > kMaxSnapLen) {
    // A zero or absurd snaplen is header corruption; rejecting it here
    // also bounds the record size the buffer must hold.
    throw PcapError("pcap: implausible snaplen " + std::to_string(snaplen_));
  }
}

bool PcapReader::refill(std::size_t bytes) {
  // Slide the unread tail (always under one record) to the front, then
  // top the block up from the stream.
  std::memmove(buffer_.data(), buffer_.data() + pos_, end_ - pos_);
  end_ -= pos_;
  pos_ = 0;
  while (end_ < bytes && in_) {
    in_.read(reinterpret_cast<char*>(buffer_.data() + end_),
             static_cast<std::streamsize>(buffer_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
  }
  return end_ >= bytes;
}

std::optional<FrameView> PcapReader::next_frame() {
  if (!fill(4)) {
    return std::nullopt;  // clean EOF
  }
  if (!fill(kRecordHeaderBytes)) {
    throw PcapError("pcap: truncated packet header");
  }
  const std::uint8_t* header = buffer_.data() + pos_;
  const std::uint32_t ts_sec = load_u32(header);
  const std::uint32_t ts_usec = load_u32(header + 4);
  const std::uint32_t caplen = load_u32(header + 8);
  const std::uint32_t origlen = load_u32(header + 12);
  // Strict bound: a capture can never exceed the file's own snaplen,
  // which also keeps every record within one read block.
  if (caplen > snaplen_) {
    throw PcapError("pcap: capture length exceeds snaplen");
  }
  if (!fill(kRecordHeaderBytes + caplen)) {
    throw PcapError("pcap: truncated packet body");
  }
  FrameView frame;
  frame.timestamp_ns =
      static_cast<common::TimestampNs>(ts_sec) * 1'000'000'000ULL +
      static_cast<common::TimestampNs>(ts_usec) * 1000ULL;
  frame.original_length = origlen;
  frame.data = std::span<const std::uint8_t>(
      buffer_.data() + pos_ + kRecordHeaderBytes, caplen);
  pos_ += kRecordHeaderBytes + caplen;
  if (faults_ != nullptr) {
    // Capture-damage sites, applied after the full record is consumed
    // so the walk stays aligned on the next record header.
    const auto truncate = faults_->next("pcap.truncate");
    const auto corrupt = faults_->next("pcap.corrupt");
    if (truncate || corrupt) {
      scratch_.assign(frame.data.begin(), frame.data.end());
      if (truncate) {
        scratch_.resize(
            robustness::truncated_size(scratch_.size(), truncate->salt));
      }
      if (corrupt) robustness::corrupt_bytes(scratch_, corrupt->salt);
      frame.data = scratch_;
    }
  }
  return frame;
}

std::optional<PcapPacket> PcapReader::next() {
  const auto frame = next_frame();
  if (!frame) return std::nullopt;
  return PcapPacket{frame->timestamp_ns, frame->original_length,
                    {frame->data.begin(), frame->data.end()}};
}

std::optional<packet::PacketRecord> PcapReader::next_record() {
  while (const auto frame = next_frame()) {
    if (auto record = packet::parse_frame(frame->data, frame->timestamp_ns)) {
      return record;
    }
  }
  return std::nullopt;
}

std::uint64_t write_pcap_file(const std::string& path,
                              std::span<const packet::PacketRecord> records,
                              std::uint32_t snaplen) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw PcapError("pcap: cannot open for writing: " + path);
  PcapWriter writer(out, snaplen);
  for (const auto& record : records) {
    writer.write(record);
  }
  return writer.packets_written();
}

std::vector<packet::PacketRecord> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PcapError("pcap: cannot open for reading: " + path);
  PcapReader reader(in);
  std::vector<packet::PacketRecord> records;
  while (auto record = reader.next_record()) {
    records.push_back(*record);
  }
  return records;
}

}  // namespace nd::pcap
