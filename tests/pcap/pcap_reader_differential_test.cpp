// Differential test of the buffered pcap reader against a record-at-a-
// time reference: the classic reader that pulls every header field with
// its own istream read and every body into its own vector. Over
// synthesized captures and the fuzz corpus, both must yield the same
// packets and then end the same way — clean end-of-file, or the same
// PcapError message — and fire fault plans at the same occurrences.
#include <gtest/gtest.h>

#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "pcap/pcap.hpp"

namespace nd::pcap {
namespace {

bool read_u32(std::istream& in, bool swapped, std::uint32_t& value) {
  std::uint8_t b[4];
  if (!in.read(reinterpret_cast<char*>(b), 4)) return false;
  value = swapped ? (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
                        (std::uint32_t{b[2]} << 8) | b[3]
                  : std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
                        (std::uint32_t{b[2]} << 16) |
                        (std::uint32_t{b[3]} << 24);
  return true;
}

bool read_u16(std::istream& in, bool swapped, std::uint16_t& value) {
  std::uint8_t b[2];
  if (!in.read(reinterpret_cast<char*>(b), 2)) return false;
  value = static_cast<std::uint16_t>(swapped ? (b[0] << 8) | b[1]
                                             : (b[1] << 8) | b[0]);
  return true;
}

/// The record-at-a-time reference reader.
class ReferenceReader {
 public:
  ReferenceReader(std::istream& in, robustness::FaultInjector* faults)
      : in_(in), faults_(faults) {
    std::uint32_t magic = 0;
    if (!read_u32(in_, false, magic)) throw PcapError("pcap: empty file");
    if (magic == kMagicSwapped) {
      swapped_ = true;
    } else if (magic != kMagicNative) {
      throw PcapError("pcap: bad magic number");
    }
    std::uint16_t vmaj = 0;
    std::uint16_t vmin = 0;
    std::uint32_t zone = 0;
    std::uint32_t sigfigs = 0;
    std::uint32_t link_type = 0;
    if (!read_u16(in_, swapped_, vmaj) || !read_u16(in_, swapped_, vmin) ||
        !read_u32(in_, swapped_, zone) || !read_u32(in_, swapped_, sigfigs) ||
        !read_u32(in_, swapped_, snaplen_) ||
        !read_u32(in_, swapped_, link_type)) {
      throw PcapError("pcap: truncated global header");
    }
    if (vmaj != 2) {
      throw PcapError("pcap: unsupported version " + std::to_string(vmaj));
    }
    if (snaplen_ == 0 || snaplen_ > kMaxSnapLen) {
      throw PcapError("pcap: implausible snaplen " +
                      std::to_string(snaplen_));
    }
  }

  std::optional<PcapPacket> next() {
    std::uint32_t ts_sec = 0;
    if (!read_u32(in_, swapped_, ts_sec)) return std::nullopt;
    std::uint32_t ts_usec = 0;
    std::uint32_t caplen = 0;
    std::uint32_t origlen = 0;
    if (!read_u32(in_, swapped_, ts_usec) ||
        !read_u32(in_, swapped_, caplen) ||
        !read_u32(in_, swapped_, origlen)) {
      throw PcapError("pcap: truncated packet header");
    }
    if (caplen > snaplen_) {
      throw PcapError("pcap: capture length exceeds snaplen");
    }
    PcapPacket packet;
    packet.timestamp_ns = ts_sec * 1'000'000'000ULL + ts_usec * 1000ULL;
    packet.original_length = origlen;
    packet.data.resize(caplen);
    if (caplen > 0 &&
        !in_.read(reinterpret_cast<char*>(packet.data.data()), caplen)) {
      throw PcapError("pcap: truncated packet body");
    }
    if (faults_ != nullptr) {
      if (const auto fault = faults_->next("pcap.truncate")) {
        packet.data.resize(
            robustness::truncated_size(packet.data.size(), fault->salt));
      }
      if (const auto fault = faults_->next("pcap.corrupt")) {
        robustness::corrupt_bytes(packet.data, fault->salt);
      }
    }
    return packet;
  }

 private:
  std::istream& in_;
  robustness::FaultInjector* faults_;
  bool swapped_{false};
  std::uint32_t snaplen_{0};
};

/// What a reader yields over a whole capture.
struct Outcome {
  std::vector<PcapPacket> packets;
  std::optional<std::string> error;  // nullopt: clean end-of-file
};

template <typename Reader>
Outcome drain(const std::string& bytes, robustness::FaultInjector* faults) {
  Outcome outcome;
  std::istringstream in(bytes, std::ios::binary);
  try {
    if constexpr (std::is_same_v<Reader, ReferenceReader>) {
      ReferenceReader reader(in, faults);
      while (auto packet = reader.next()) {
        outcome.packets.push_back(std::move(*packet));
      }
    } else {
      PcapReader reader(in);
      reader.attach_fault_injector(faults);
      while (auto packet = reader.next()) {
        outcome.packets.push_back(std::move(*packet));
      }
    }
  } catch (const PcapError& error) {
    outcome.error = error.what();
  }
  return outcome;
}

void expect_same(const Outcome& reference, const Outcome& buffered,
                 const std::string& label) {
  ASSERT_EQ(reference.packets.size(), buffered.packets.size()) << label;
  for (std::size_t i = 0; i < reference.packets.size(); ++i) {
    const PcapPacket& a = reference.packets[i];
    const PcapPacket& b = buffered.packets[i];
    EXPECT_EQ(a.timestamp_ns, b.timestamp_ns) << label << " packet " << i;
    EXPECT_EQ(a.original_length, b.original_length)
        << label << " packet " << i;
    EXPECT_EQ(a.data, b.data) << label << " packet " << i;
  }
  EXPECT_EQ(reference.error, buffered.error) << label;
}

void check(const std::string& bytes, const std::string& label) {
  expect_same(drain<ReferenceReader>(bytes, nullptr),
              drain<PcapReader>(bytes, nullptr), label);
}

packet::PacketRecord record_at(std::uint32_t i) {
  packet::PacketRecord record;
  record.timestamp_ns = 1'000'000'000ULL + 1'000ULL * i;
  record.src_ip = 0x0A000000 + i;
  record.dst_ip = 0x0B000000 + i % 251;
  record.src_port = static_cast<std::uint16_t>(1024 + i);
  record.dst_port = 443;
  record.protocol =
      i % 3 == 0 ? packet::IpProtocol::kUdp : packet::IpProtocol::kTcp;
  record.size_bytes = 40 + (i * 97) % 1400;
  return record;
}

std::string capture(std::uint32_t packets, std::uint32_t snaplen) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out, snaplen);
  for (std::uint32_t i = 0; i < packets; ++i) writer.write(record_at(i));
  return out.str();
}

/// A capture whose record `probe` (a real frame) starts exactly at file
/// offset `offset`, preceded by zero-filled filler records and followed
/// by a few more real frames.
std::string capture_with_record_at(std::size_t offset) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out, kMaxSnapLen);
  std::size_t at = 24;
  while (at < offset) {
    std::size_t record = std::min<std::size_t>(offset - at, 200'000);
    // Leave room for a whole filler record (header included) after this.
    if (offset - at - record != 0 && offset - at - record < 16) record -= 16;
    writer.write(at, std::vector<std::uint8_t>(record - 16, 0));
    at += record;
  }
  for (std::uint32_t i = 0; i < 4; ++i) writer.write(record_at(i));
  return out.str();
}

/// Rewrite a native (little-endian) capture in big-endian byte order.
std::string to_big_endian(std::string bytes) {
  auto swap32 = [&](std::size_t at) {
    std::swap(bytes[at], bytes[at + 3]);
    std::swap(bytes[at + 1], bytes[at + 2]);
  };
  swap32(0);
  std::swap(bytes[4], bytes[5]);
  std::swap(bytes[6], bytes[7]);
  for (std::size_t at = 8; at < 24; at += 4) swap32(at);
  std::size_t at = 24;
  while (at + kRecordHeaderBytes <= bytes.size()) {
    std::size_t caplen = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      caplen |= std::size_t{static_cast<std::uint8_t>(bytes[at + 8 + b])}
                << (8 * b);
    }
    for (std::size_t field = 0; field < 16; field += 4) swap32(at + field);
    at += kRecordHeaderBytes + caplen;
  }
  return bytes;
}

TEST(PcapReaderDifferential, LargeCaptureAcrossManyRefills) {
  const std::string bytes = capture(12'000, 1500);
  ASSERT_GT(bytes.size(), 3 * kReadBlockBytes);
  check(bytes, "12000 records");
}

TEST(PcapReaderDifferential, RecordsStraddlingARefill) {
  // The first block ends at kReadBlockBytes: put the probe record's
  // header, then its body, across that edge at every byte offset.
  for (std::size_t back = 0; back <= 80; ++back) {
    const std::string bytes = capture_with_record_at(kReadBlockBytes - back);
    const Outcome buffered = drain<PcapReader>(bytes, nullptr);
    ASSERT_FALSE(buffered.error) << *buffered.error;
    ASSERT_GE(buffered.packets.size(), 4u);
    EXPECT_EQ(packet::parse_frame(buffered.packets.back().data,
                                  buffered.packets.back().timestamp_ns),
              record_at(3));
    expect_same(drain<ReferenceReader>(bytes, nullptr), buffered,
                "probe at block end - " + std::to_string(back));
  }
}

TEST(PcapReaderDifferential, OneRecordAtMaxSnapLen) {
  for (const std::size_t offset :
       {std::size_t{24}, kReadBlockBytes - 1000, kReadBlockBytes - 8}) {
    std::string bytes = capture_with_record_at(offset);
    std::ostringstream tail(std::ios::binary);
    {
      PcapWriter writer(tail, kMaxSnapLen);
      std::vector<std::uint8_t> frame(kMaxSnapLen, 0x5A);
      writer.write(7'000'000'000ULL, frame);
      writer.write(record_at(9));
    }
    bytes += tail.str().substr(24);  // append records, not the header
    const Outcome buffered = drain<PcapReader>(bytes, nullptr);
    ASSERT_FALSE(buffered.error) << *buffered.error;
    ASSERT_GE(buffered.packets.size(), 2u);
    EXPECT_EQ(buffered.packets[buffered.packets.size() - 2].data.size(),
              kMaxSnapLen);
    expect_same(drain<ReferenceReader>(bytes, nullptr), buffered,
                "max snaplen after offset " + std::to_string(offset));
  }
}

TEST(PcapReaderDifferential, SwappedByteOrder) {
  const std::string native = capture(3000, 256);
  const std::string swapped = to_big_endian(native);
  std::istringstream in(swapped, std::ios::binary);
  PcapReader reader(in);
  EXPECT_TRUE(reader.swapped());
  EXPECT_EQ(reader.snaplen(), 256u);
  check(swapped, "big-endian");
  // Same packets as the native original.
  expect_same(drain<ReferenceReader>(native, nullptr),
              drain<PcapReader>(swapped, nullptr), "native vs big-endian");
}

TEST(PcapReaderDifferential, CutAtEveryOffsetOfTheLastRecord) {
  for (const std::uint32_t packets : {1u, 40u}) {
    const std::string full = capture(packets, 128);
    const std::string without_last = capture(packets - 1, 128);
    for (std::size_t length = without_last.size(); length <= full.size();
         ++length) {
      check(full.substr(0, length), std::to_string(packets) +
                                        " records cut to " +
                                        std::to_string(length));
    }
  }
  // Cuts inside the global header, too.
  const std::string one = capture(1, 128);
  for (std::size_t length = 0; length <= 24; ++length) {
    check(one.substr(0, length), "header cut to " + std::to_string(length));
  }
}

TEST(PcapReaderDifferential, FaultPlansFireIdentically) {
  const std::string bytes = capture(5000, 200);
  const std::vector<std::string> plans = {
      "pcap.truncate:truncate:p=0.3",
      "pcap.corrupt:corrupt:p=0.4",
      "pcap.truncate:truncate:p=0.2,pcap.corrupt:corrupt:p=0.2",
      "pcap.truncate:truncate:at=0+3+4999,pcap.corrupt:corrupt:at=3",
  };
  for (const std::string& plan : plans) {
    for (const std::uint64_t seed : {1u, 9u}) {
      robustness::FaultInjector reference_faults(
          robustness::parse_fault_plan(plan, seed));
      robustness::FaultInjector buffered_faults(
          robustness::parse_fault_plan(plan, seed));
      const std::string label = plan + " seed " + std::to_string(seed);
      expect_same(drain<ReferenceReader>(bytes, &reference_faults),
                  drain<PcapReader>(bytes, &buffered_faults), label);
      for (const char* site : {"pcap.truncate", "pcap.corrupt"}) {
        EXPECT_EQ(reference_faults.fires(site), buffered_faults.fires(site))
            << label << " " << site;
        EXPECT_EQ(reference_faults.occurrences(site),
                  buffered_faults.occurrences(site))
            << label << " " << site;
      }
      EXPECT_GT(buffered_faults.fires("pcap.truncate") +
                    buffered_faults.fires("pcap.corrupt"),
                0u)
          << label;
    }
  }
}

TEST(PcapReaderDifferential, NextRecordParsesTheSameFrames) {
  const std::string bytes = capture(2000, 96);
  const Outcome reference = drain<ReferenceReader>(bytes, nullptr);
  std::istringstream in(bytes, std::ios::binary);
  PcapReader reader(in);
  std::size_t i = 0;
  while (const auto record = reader.next_record()) {
    ASSERT_LT(i, reference.packets.size());
    EXPECT_EQ(record, packet::parse_frame(reference.packets[i].data,
                                          reference.packets[i].timestamp_ns));
    ++i;
  }
  EXPECT_EQ(i, reference.packets.size());
}

// The fuzz corpus of pcap_fuzz_test.cpp (same seeds and generators):
// random bytes, random truncations and random bit flips of a valid
// capture must end the same way in both readers.
std::string fuzz_capture(std::uint32_t packets) {
  std::ostringstream out(std::ios::binary);
  PcapWriter writer(out, 128);
  for (std::uint32_t i = 0; i < packets; ++i) {
    packet::PacketRecord record;
    record.timestamp_ns = i * 1000ULL;
    record.src_ip = i;
    record.dst_ip = i + 1;
    record.protocol = packet::IpProtocol::kUdp;
    record.size_bytes = 60 + i % 1000;
    writer.write(record);
  }
  return out.str();
}

class PcapReaderFuzzDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcapReaderFuzzDifferential, RandomBytes) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::string data(rng.uniform(4096), '\0');
    for (auto& c : data) c = static_cast<char>(rng.uniform(256));
    // Random bytes rarely pass the magic check; also try them behind a
    // valid global header.
    check(data, "random bytes round " + std::to_string(round));
    check(fuzz_capture(0) + data,
          "header + random bytes round " + std::to_string(round));
  }
}

TEST_P(PcapReaderFuzzDifferential, RandomTruncations) {
  common::Rng rng(GetParam() ^ 0xBEEF);
  const std::string capture = fuzz_capture(20);
  for (int round = 0; round < 100; ++round) {
    check(capture.substr(0, rng.uniform(capture.size() + 1)),
          "truncation round " + std::to_string(round));
  }
}

TEST_P(PcapReaderFuzzDifferential, RandomByteFlips) {
  common::Rng rng(GetParam() ^ 0xF00D);
  const std::string capture = fuzz_capture(20);
  for (int round = 0; round < 100; ++round) {
    std::string mutated = capture;
    const std::size_t flips = 1 + rng.uniform(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.uniform(8));
    }
    check(mutated, "flip round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapReaderFuzzDifferential,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace nd::pcap
