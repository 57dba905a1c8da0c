#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "pcap/pcap.hpp"

namespace dnh::pcap {
namespace {

namespace fs = std::filesystem;

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process directory: `ctest -j` runs cases as separate processes,
    // and a shared directory would let one TearDown delete another's files.
    dir_ = fs::temp_directory_path() /
           ("dnh_pcap_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

Frame make_frame(std::int64_t us, std::initializer_list<std::uint8_t> bytes) {
  Frame f;
  f.timestamp = util::Timestamp::from_micros(us);
  f.data.assign(bytes);
  f.original_length = static_cast<std::uint32_t>(f.data.size());
  return f;
}

TEST_F(PcapTest, WriteReadRoundTrip) {
  const std::string p = path("roundtrip.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'123, {1, 2, 3, 4}));
    writer->write(make_frame(2'500'456, {9, 8, 7}));
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);

  auto f1 = reader->next();
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->timestamp.micros_since_epoch(), 1'000'123);
  EXPECT_EQ(f1->data, (net::Bytes{1, 2, 3, 4}));
  EXPECT_EQ(f1->original_length, 4u);

  auto f2 = reader->next();
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->data.size(), 3u);

  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty()) << reader->error();
  EXPECT_EQ(reader->frames_read(), 2u);
}

TEST_F(PcapTest, EmptyFileHasNoFramesButValidHeader) {
  const std::string p = path("empty.pcap");
  { ASSERT_TRUE(Writer::create(p)); }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty());
}

TEST_F(PcapTest, MissingFileFailsToOpen) {
  EXPECT_FALSE(Reader::open(path("does_not_exist.pcap")));
}

TEST_F(PcapTest, GarbageMagicRejected) {
  const std::string p = path("garbage.pcap");
  std::ofstream out{p, std::ios::binary};
  out.write("not a pcap file at all, padding padding", 40);
  out.close();
  EXPECT_FALSE(Reader::open(p));
}

TEST_F(PcapTest, TruncatedGlobalHeaderRejected) {
  const std::string p = path("short.pcap");
  std::ofstream out{p, std::ios::binary};
  const char magic[] = {'\xd4', '\xc3', '\xb2', '\xa1'};
  out.write(magic, 4);
  out.close();
  EXPECT_FALSE(Reader::open(p));
}

TEST_F(PcapTest, TruncatedRecordReportsError) {
  const std::string p = path("truncrec.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1, {1, 2, 3, 4, 5, 6, 7, 8}));
  }
  // Chop the last 4 bytes of the record body.
  fs::resize_file(p, fs::file_size(p) - 4);
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapTest, ImplausibleRecordLengthReportsError) {
  const std::string p = path("hugelen.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
  }
  std::ofstream out{p, std::ios::binary | std::ios::app};
  // Record header claiming a 100MB body.
  const std::uint32_t rec[4] = {0, 0, 100u * 1024 * 1024, 100u * 1024 * 1024};
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.close();
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapTest, ReadsSwappedByteOrder) {
  const std::string p = path("swapped.pcap");
  std::ofstream out{p, std::ios::binary};
  // Big-endian global header written byte-by-byte (we are little-endian).
  const unsigned char gh[] = {
      0xa1, 0xb2, 0xc3, 0xd4,  // magic in file byte order != host order
      0x00, 0x02, 0x00, 0x04,  // version 2.4
      0, 0, 0, 0, 0, 0, 0, 0,  // thiszone, sigfigs
      0x00, 0x00, 0xff, 0xff,  // snaplen
      0x00, 0x00, 0x00, 0x01,  // linktype ethernet
  };
  out.write(reinterpret_cast<const char*>(gh), sizeof gh);
  const unsigned char rec[] = {
      0x00, 0x00, 0x00, 0x05,  // ts_sec = 5
      0x00, 0x00, 0x00, 0x0a,  // ts_usec = 10
      0x00, 0x00, 0x00, 0x02,  // incl_len = 2
      0x00, 0x00, 0x00, 0x02,  // orig_len = 2
      0xde, 0xad,
  };
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.close();

  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);
  auto f = reader->next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->timestamp.micros_since_epoch(), 5'000'010);
  EXPECT_EQ(f->data, (net::Bytes{0xde, 0xad}));
}

TEST_F(PcapTest, NanosecondMagicConvertedToMicros) {
  const std::string p = path("nanos.pcap");
  std::ofstream out{p, std::ios::binary};
  const std::uint32_t gh[6] = {0xa1b23c4d, 0x00040002u, 0, 0, 65535, 1};
  // Note: version field is (major|minor<<16) little-endian = 2,4.
  std::uint32_t fixed_gh[6];
  std::memcpy(fixed_gh, gh, sizeof gh);
  fixed_gh[1] = 2 | (4u << 16);
  out.write(reinterpret_cast<const char*>(fixed_gh), sizeof fixed_gh);
  const std::uint32_t rec[4] = {7, 123'456'789, 1, 1};
  out.write(reinterpret_cast<const char*>(rec), sizeof rec);
  out.put('\x42');
  out.close();

  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  auto f = reader->next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->timestamp.micros_since_epoch(), 7'000'000 + 123'456);
}

TEST_F(PcapTest, OriginalLengthPreservedWhenLargerThanCaptured) {
  const std::string p = path("snap.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    Frame f = make_frame(1, {1, 2, 3});
    f.original_length = 1500;
    writer->write(f);
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  auto f = reader->next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->data.size(), 3u);
  EXPECT_EQ(f->original_length, 1500u);
}

TEST_F(PcapTest, ManyFramesStreamCleanly) {
  const std::string p = path("many.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 5000; ++i)
      writer->write(make_frame(i * 100, {static_cast<std::uint8_t>(i)}));
    EXPECT_EQ(writer->frames_written(), 5000u);
  }
  auto reader = Reader::open(p);
  ASSERT_TRUE(reader);
  std::uint64_t n = 0;
  while (reader->next()) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_TRUE(reader->error().empty());
}

// ----------------------------------------------------- resync recovery

/// Reads all bytes of a file.
std::vector<std::uint8_t> slurp(const std::string& p) {
  std::ifstream in{p, std::ios::binary};
  return {std::istreambuf_iterator<char>{in},
          std::istreambuf_iterator<char>{}};
}

/// Overwrites a file with the given bytes.
void dump(const std::string& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{p, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PcapTest, ResyncSkipsMidFileGarbage) {
  const std::string p = path("garbage.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'000, {1, 2, 3, 4}));
    writer->write(make_frame(2'000'000, {5, 6, 7, 8}));
  }
  // Splice 100 bytes of 0xff between the two records (after the 24-byte
  // global header, the 16-byte record header and the 4-byte body).
  auto bytes = slurp(p);
  ASSERT_EQ(bytes.size(), 24u + 2 * (16 + 4));
  bytes.insert(bytes.begin() + 24 + 16 + 4, 100, 0xff);
  dump(p, bytes);

  // Strict mode: the garbage terminates the stream with an error.
  {
    auto reader = Reader::open(p);
    ASSERT_TRUE(reader);
    ASSERT_TRUE(reader->next());
    EXPECT_FALSE(reader->next());
    EXPECT_FALSE(reader->error().empty());
  }
  // Resync mode: both frames recovered, damage accounted.
  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  const auto f1 = reader->next();
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->data, (net::Bytes{1, 2, 3, 4}));
  const auto f2 = reader->next();
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->data, (net::Bytes{5, 6, 7, 8}));
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 100u);
  EXPECT_EQ(reader->corruption().truncated_tail, 0u);
}

TEST_F(PcapTest, ResyncSkipsRecordWithLyingLength) {
  const std::string p = path("lie.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 3; ++i)
      writer->write(make_frame(i * 1'000'000, {0xaa, 0xbb, 0xcc}));
  }
  // Lie in the middle record's incl_len: implausibly huge.
  auto bytes = slurp(p);
  const std::size_t second_header = 24 + (16 + 3);
  const std::uint32_t lie = 0x10000000;
  std::memcpy(bytes.data() + second_header + 8, &lie, 4);
  dump(p, bytes);

  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  std::uint64_t frames = 0;
  while (reader->next()) ++frames;
  // The lying record is unrecoverable; its neighbours survive.
  EXPECT_EQ(frames, 2u);
  EXPECT_TRUE(reader->error().empty());
  EXPECT_EQ(reader->corruption().resyncs, 1u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 16u + 3u);
}

TEST_F(PcapTest, ResyncCountsTruncatedTail) {
  const std::string p = path("tail.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    writer->write(make_frame(1'000'000, {1, 2, 3, 4, 5, 6}));
    writer->write(make_frame(2'000'000, {7, 8, 9, 10, 11, 12}));
  }
  auto bytes = slurp(p);
  bytes.resize(bytes.size() - 3);  // cut into the last record body
  dump(p, bytes);

  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  ASSERT_TRUE(reader->next());
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty());  // resync mode never sets error
  EXPECT_EQ(reader->corruption().truncated_tail, 1u);
  EXPECT_EQ(reader->corruption().events(), 1u);
}

TEST_F(PcapTest, ResyncModeOnCleanFileIsInvisible) {
  const std::string p = path("clean.pcap");
  {
    auto writer = Writer::create(p);
    ASSERT_TRUE(writer);
    for (int i = 0; i < 100; ++i)
      writer->write(make_frame(i * 1000, {static_cast<std::uint8_t>(i)}));
  }
  auto reader = Reader::open(p, Reader::Mode::kResync);
  ASSERT_TRUE(reader);
  std::uint64_t n = 0;
  while (reader->next()) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(reader->corruption().events(), 0u);
  EXPECT_EQ(reader->corruption().bytes_skipped, 0u);
}

}  // namespace
}  // namespace dnh::pcap

#include "pcap/pcapng.hpp"

namespace dnh::pcap {
namespace {

/// Writes a minimal pcapng file: SHB + IDB (+ optional if_tsresol) + one
/// EPB per payload.
class PcapngBuilder {
 public:
  explicit PcapngBuilder(bool nanos = false) {
    // SHB: type, len=28, magic, version 1.0, section length -1, len.
    u32(0x0a0d0d0a); u32(28); u32(0x1a2b3c4d);
    u16(1); u16(0);
    u32(0xffffffff); u32(0xffffffff);
    u32(28);
    // IDB: linktype ethernet, snaplen, optional tsresol option.
    if (nanos) {
      // option if_tsresol(9) len 1 value 9 (10^-9), padded; endofopt.
      u32(1); u32(20 + 8 + 4); u16(1); u16(0); u32(65535);
      u16(9); u16(1); bytes_.push_back(9);
      bytes_.push_back(0); bytes_.push_back(0); bytes_.push_back(0);
      u16(0); u16(0);
      u32(20 + 8 + 4);
    } else {
      u32(1); u32(20); u16(1); u16(0); u32(65535); u32(20);
    }
  }

  void add_packet(std::uint64_t ts_ticks,
                  std::initializer_list<std::uint8_t> payload) {
    const std::uint32_t captured = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t padded = (captured + 3u) & ~3u;
    const std::uint32_t total = 32 + padded;
    u32(6); u32(total);
    u32(0);  // interface
    u32(static_cast<std::uint32_t>(ts_ticks >> 32));
    u32(static_cast<std::uint32_t>(ts_ticks));
    u32(captured); u32(captured);
    bytes_.insert(bytes_.end(), payload);
    for (std::uint32_t i = captured; i < padded; ++i) bytes_.push_back(0);
    u32(total);
  }

  std::string write(const std::filesystem::path& dir,
                    const std::string& name) const {
    const std::string path = (dir / name).string();
    std::ofstream out{path, std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
    return path;
  }

 private:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u16(std::uint16_t v) {
    bytes_.push_back(static_cast<std::uint8_t>(v));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  std::vector<std::uint8_t> bytes_;
};

class PcapngTest : public PcapTest {};

TEST_F(PcapngTest, ReadsEnhancedPacketBlocks) {
  PcapngBuilder builder;
  builder.add_packet(5'000'123, {1, 2, 3, 4, 5});
  builder.add_packet(6'000'000, {9, 9});
  const auto path = builder.write(dir_, "basic.pcapng");

  auto reader = NgReader::open(path);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->link_type(), kLinktypeEthernet);
  auto f1 = reader->next();
  ASSERT_TRUE(f1);
  EXPECT_EQ(f1->timestamp.micros_since_epoch(), 5'000'123);
  EXPECT_EQ(f1->data.size(), 5u);
  auto f2 = reader->next();
  ASSERT_TRUE(f2);
  EXPECT_EQ(f2->data, (net::Bytes{9, 9}));
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty()) << reader->error();
}

TEST_F(PcapngTest, HonoursNanosecondResolution) {
  PcapngBuilder builder{/*nanos=*/true};
  builder.add_packet(1'500'000'000ull, {1});  // 1.5s in ns ticks
  const auto path = builder.write(dir_, "nanos.pcapng");
  auto reader = NgReader::open(path);
  ASSERT_TRUE(reader);
  auto frame = reader->next();
  ASSERT_TRUE(frame);
  EXPECT_EQ(frame->timestamp.micros_since_epoch(), 1'500'000);
}

TEST_F(PcapngTest, RejectsClassicPcapMagic) {
  const std::string p = path("classic.pcap");
  { ASSERT_TRUE(Writer::create(p)); }
  EXPECT_FALSE(NgReader::open(p));
}

TEST_F(PcapngTest, RejectsGarbage) {
  const std::string p = path("garbage.pcapng");
  std::ofstream out{p, std::ios::binary};
  out.write("garbage garbage garbage garbage!", 32);
  out.close();
  EXPECT_FALSE(NgReader::open(p));
}

TEST_F(PcapngTest, TruncatedBlockReportsError) {
  PcapngBuilder builder;
  builder.add_packet(1, {1, 2, 3, 4});
  const auto p = builder.write(dir_, "trunc.pcapng");
  std::filesystem::resize_file(p, std::filesystem::file_size(p) - 6);
  auto reader = NgReader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_FALSE(reader->error().empty());
}

TEST_F(PcapngTest, SkipsUnknownBlocks) {
  PcapngBuilder builder;
  builder.add_packet(1, {0xaa});
  auto p = builder.write(dir_, "unknown.pcapng");
  // Append an unknown block (type 0x0BAD) then another valid-looking EPB
  // is unnecessary; just ensure the packet before it is still delivered
  // and the unknown trailing block is skipped cleanly at EOF.
  std::ofstream out{p, std::ios::binary | std::ios::app};
  const std::uint32_t blk[4] = {0x0BAD, 16, 0xdeadbeef, 16};
  out.write(reinterpret_cast<const char*>(blk), sizeof blk);
  out.close();
  auto reader = NgReader::open(p);
  ASSERT_TRUE(reader);
  EXPECT_TRUE(reader->next());
  EXPECT_FALSE(reader->next());
  EXPECT_TRUE(reader->error().empty()) << reader->error();
}

TEST_F(PcapngTest, ReadAnyCaptureDispatches) {
  // Classic file through the unified entry point.
  const std::string classic = path("any.pcap");
  {
    auto writer = Writer::create(classic);
    Frame f;
    f.timestamp = util::Timestamp::from_seconds(1);
    f.data = {1, 2, 3};
    f.original_length = 3;
    writer->write(f);
  }
  int classic_frames = 0;
  std::string error;
  EXPECT_TRUE(read_any_capture(classic,
                               [&](const Frame&) { ++classic_frames; },
                               error));
  EXPECT_EQ(classic_frames, 1);

  PcapngBuilder builder;
  builder.add_packet(1, {1});
  builder.add_packet(2, {2});
  const auto ng = builder.write(dir_, "any.pcapng");
  int ng_frames = 0;
  EXPECT_TRUE(read_any_capture(ng, [&](const Frame&) { ++ng_frames; },
                               error));
  EXPECT_EQ(ng_frames, 2);

  EXPECT_FALSE(read_any_capture(path("missing.pcapng"),
                                [](const Frame&) {}, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace dnh::pcap

#include "util/rng.hpp"

namespace dnh::pcap {
namespace {

TEST_F(PcapngTest, FuzzMutatedFilesDoNotCrash) {
  PcapngBuilder builder;
  for (int i = 0; i < 5; ++i)
    builder.add_packet(i * 1000, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto base_path = builder.write(dir_, "fuzz_base.pcapng");
  std::ifstream in{base_path, std::ios::binary};
  std::vector<char> base{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};

  util::Rng rng{2024};
  for (int iter = 0; iter < 300; ++iter) {
    auto mutated = base;
    const int flips = 1 + static_cast<int>(rng.uniform(0, 8));
    for (int i = 0; i < flips; ++i)
      mutated[rng.index(mutated.size())] =
          static_cast<char>(rng.next_u64());
    const std::string p = path("fuzz_mut.pcapng");
    {
      std::ofstream out{p, std::ios::binary};
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    auto reader = NgReader::open(p);
    if (!reader) continue;
    // Reading to the end must terminate (no hang, no crash).
    int frames = 0;
    while (reader->next() && frames < 1000) ++frames;
  }
}

TEST_F(PcapngTest, FuzzRandomFilesDoNotCrash) {
  util::Rng rng{4048};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<char> junk(rng.uniform(0, 512));
    for (auto& b : junk) b = static_cast<char>(rng.next_u64());
    const std::string p = path("fuzz_junk.pcapng");
    {
      std::ofstream out{p, std::ios::binary};
      out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    auto reader = NgReader::open(p);
    if (reader) {
      int frames = 0;
      while (reader->next() && frames < 1000) ++frames;
    }
  }
}

}  // namespace
}  // namespace dnh::pcap

// --------------------------------------------------- read window edges

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <functional>
#include <thread>

namespace dnh::pcap {
namespace {

/// Where a window edge should fall inside one record: `offset` bytes into
/// its header (the classic record header, or the pcapng block from its
/// type field), or into its packet bytes.
struct Straddle {
  bool in_data = false;
  std::size_t offset = 0;
};

/// Every straddle the edge tests aim for: header and data offsets 0-15.
std::vector<Straddle> all_straddles() {
  std::vector<Straddle> out;
  for (const bool in_data : {false, true})
    for (std::size_t k = 0; k < 16; ++k) out.push_back({in_data, k});
  return out;
}

/// Deterministic, distinguishable packet bytes.
net::Bytes payload(std::size_t index, std::size_t size) {
  net::Bytes bytes(size);
  for (std::size_t j = 0; j < size; ++j)
    bytes[j] = static_cast<std::uint8_t>(index * 131 + j * 7);
  return bytes;
}

// Both layouts below follow the reader's refill rule (window.hpp): the
// first fill reads [0, window), and a refill for a record that does not
// fit keeps the bytes from that record's start and reads up to one window
// past it. Each target record therefore starts so that the current edge
// falls at the requested offset, the next edge is that start plus one
// window, and filler records that end before the edge close the gap.

/// Classic frames (timestamps at a 2023 epoch) laid out for `targets`.
std::vector<Frame> classic_straddles(std::size_t window,
                                     const std::vector<Straddle>& targets) {
  std::vector<Frame> frames;
  std::size_t pos = 24;  // global header
  const auto add = [&](std::size_t body) {
    Frame f;
    f.timestamp = util::Timestamp::from_micros(
        1'700'000'000'000'000LL + static_cast<std::int64_t>(frames.size()));
    f.data = payload(frames.size(), body);
    f.original_length = static_cast<std::uint32_t>(body + 4);
    frames.push_back(std::move(f));
    pos += 16 + body;
  };
  std::size_t edge = window;
  for (const Straddle& t : targets) {
    const std::size_t start = edge - t.offset - (t.in_data ? 16 : 0);
    if (start < pos + 17) {
      ADD_FAILURE() << "window too small for the layout";
      return frames;
    }
    while (start - pos > 1016) add(std::min<std::size_t>(1000, start - pos - 33));
    add(start - pos - 16);
    add(t.in_data ? t.offset + 40 : 100);  // straddles the edge
    edge = start + window;
  }
  add(50);
  return frames;
}

std::string write_classic(const std::string& p,
                          const std::vector<Frame>& frames) {
  auto writer = Writer::create(p);
  EXPECT_TRUE(writer);
  for (const auto& f : frames) writer->write(f);
  return p;
}

/// pcapng bytes: SHB, IDB (optionally with if_tsresol), then EPBs.
class NgFile {
 public:
  explicit NgFile(std::optional<std::uint8_t> tsresol = std::nullopt) {
    u32(0x0a0d0d0a); u32(28); u32(0x1a2b3c4d);
    u16(1); u16(0);
    u32(0xffffffff); u32(0xffffffff);
    u32(28);
    const std::uint32_t idb = tsresol ? 32 : 20;
    u32(1); u32(idb); u16(1); u16(0); u32(65535);
    if (tsresol) {
      u16(9); u16(1);
      for (const std::uint8_t b : {*tsresol, std::uint8_t{0}, std::uint8_t{0},
                                   std::uint8_t{0}})
        bytes.push_back(b);
      u32(0);  // opt_endofopt
    }
    u32(idb);
  }

  /// Appends an EPB; `captured` overrides the captured-length field.
  void add(std::uint64_t ticks, net::BytesView data,
           std::optional<std::uint32_t> captured = std::nullopt) {
    const auto size = static_cast<std::uint32_t>(data.size());
    const std::uint32_t padded = (size + 3u) & ~3u;
    const std::uint32_t total = 32 + padded;
    u32(6); u32(total); u32(0);
    u32(static_cast<std::uint32_t>(ticks >> 32));
    u32(static_cast<std::uint32_t>(ticks));
    u32(captured.value_or(size)); u32(size + 3);
    bytes.insert(bytes.end(), data.begin(), data.end());
    bytes.resize(bytes.size() + (padded - size), 0);
    u32(total);
  }

  std::string write(const std::string& p) const {
    std::ofstream out{p, std::ios::binary};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return p;
  }

  std::vector<std::uint8_t> bytes;

 private:
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u16(std::uint16_t v) {
    bytes.push_back(static_cast<std::uint8_t>(v));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
  }
};

/// Whether a pcapng layout can put an edge at `t` for `window`: blocks
/// start 4-aligned and every edge sits at a block start plus one window,
/// so only offsets congruent to the window size mod 4 are reachable.
bool ng_reachable(std::size_t window, const Straddle& t) {
  return ((t.in_data ? 28 : 0) + t.offset) % 4 == window % 4;
}

/// pcapng frames laid out for the reachable `targets`; fills `file`.
std::vector<Frame> ng_straddles(std::size_t window,
                                const std::vector<Straddle>& targets,
                                NgFile& file) {
  std::vector<Frame> frames;
  const auto add = [&](std::size_t size) {
    Frame f;
    f.timestamp = util::Timestamp::from_micros(
        1'700'000'000'000'000LL + static_cast<std::int64_t>(frames.size()));
    f.data = payload(frames.size(), size);
    f.original_length = static_cast<std::uint32_t>(size + 3);
    file.add(static_cast<std::uint64_t>(f.timestamp.micros_since_epoch()),
             f.data);
    frames.push_back(std::move(f));
  };
  std::size_t edge = window;
  for (const Straddle& t : targets) {
    if (!ng_reachable(window, t)) continue;
    const std::size_t start = edge - t.offset - (t.in_data ? 28 : 0);
    if (start % 4 != 0 || start < file.bytes.size() + 36) {
      ADD_FAILURE() << "window too small for the layout";
      return frames;
    }
    while (start - file.bytes.size() > 1032)
      add(std::min<std::size_t>(1000, start - file.bytes.size() - 68) & ~3u);
    add(start - file.bytes.size() - 32);
    EXPECT_EQ(file.bytes.size(), start);
    add(t.in_data ? t.offset + 41 : 50);  // straddles the edge
    edge = start + window;
  }
  add(50);
  return frames;
}

struct ReadBack {
  std::vector<Frame> frames;
  std::string error;
  CorruptionStats corruption;
};

template <class CaptureReader>
ReadBack drain(CaptureReader& reader) {
  ReadBack out;
  while (const auto view = reader.next_view())
    out.frames.push_back(to_frame(*view));
  out.error = reader.error();
  return out;
}

ReadBack read_classic(const std::string& p, std::size_t window,
                      Reader::Mode mode = Reader::Mode::kStrict) {
  auto reader = Reader::open(p, mode, window);
  EXPECT_TRUE(reader) << p;
  if (!reader) return {};
  ReadBack out = drain(*reader);
  out.corruption = reader->corruption();
  return out;
}

ReadBack read_ng(const std::string& p, std::size_t window) {
  auto reader = NgReader::open(p, window);
  EXPECT_TRUE(reader) << p;
  if (!reader) return {};
  return drain(*reader);
}

void expect_same_frames(const std::vector<Frame>& got,
                        const std::vector<Frame>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "frame " << i;
    EXPECT_EQ(got[i].original_length, want[i].original_length) << i;
    EXPECT_EQ(got[i].data, want[i].data) << "frame " << i;
  }
}

class PcapWindowTest : public PcapTest {};

constexpr std::size_t kSmallWindows[] = {4096, 4097, 4098, 4099};

TEST_F(PcapWindowTest, ClassicRecordsStraddlingEveryEdgeOffsetReadBack) {
  for (const std::size_t window : kSmallWindows) {
    const auto frames = classic_straddles(window, all_straddles());
    const auto p = write_classic(path("edges.pcap"), frames);
    ASSERT_GE(fs::file_size(p), 4 * window);
    for (const auto mode : {Reader::Mode::kStrict, Reader::Mode::kResync}) {
      const ReadBack got = read_classic(p, window, mode);
      expect_same_frames(got.frames, frames);
      EXPECT_TRUE(got.error.empty()) << got.error;
      EXPECT_EQ(got.corruption.events(), 0u);
    }
  }
}

TEST_F(PcapWindowTest, PcapngBlocksStraddlingEveryEdgeOffsetReadBack) {
  // Each window size reaches the offsets congruent to it mod 4; together
  // the four sizes reach every header and data offset 0-15.
  std::size_t reached = 0;
  for (const Straddle& t : all_straddles())
    for (const std::size_t window : kSmallWindows)
      if (ng_reachable(window, t)) {
        ++reached;
        break;
      }
  EXPECT_EQ(reached, all_straddles().size());

  for (const std::size_t window : kSmallWindows) {
    NgFile file;
    const auto frames = ng_straddles(window, all_straddles(), file);
    const auto p = file.write(path("edges.pcapng"));
    ASSERT_GE(fs::file_size(p), 4 * window);
    const ReadBack got = read_ng(p, window);
    expect_same_frames(got.frames, frames);
    EXPECT_TRUE(got.error.empty()) << got.error;
  }
}

/// A few straddles at the default window size: captures of 4+ windows.
const std::vector<Straddle> kDefaultWindowStraddles = {
    {false, 0}, {false, 12}, {true, 0}, {true, 12}};

TEST_F(PcapWindowTest, CapturesOfSeveralDefaultWindowsReadBack) {
  const auto classic = classic_straddles(kReadWindowBytes,
                                         kDefaultWindowStraddles);
  const auto p = write_classic(path("big.pcap"), classic);
  ASSERT_GE(fs::file_size(p), 4 * kReadWindowBytes);
  const ReadBack got = read_classic(p, kReadWindowBytes);
  expect_same_frames(got.frames, classic);
  EXPECT_TRUE(got.error.empty()) << got.error;

  NgFile file;
  const auto ng = ng_straddles(kReadWindowBytes, kDefaultWindowStraddles, file);
  const auto q = file.write(path("big.pcapng"));
  ASSERT_GE(fs::file_size(q), 4 * kReadWindowBytes);
  const ReadBack ng_got = read_ng(q, kReadWindowBytes);
  expect_same_frames(ng_got.frames, ng);
  EXPECT_TRUE(ng_got.error.empty()) << ng_got.error;

  // And through the sink the analyzers use.
  std::size_t views = 0, bytes = 0;
  CaptureReadReport report;
  ASSERT_TRUE(read_any_capture(
      q,
      [&](const FrameView& view) {
        ++views;
        bytes += view.data.size();
      },
      CaptureReadOptions{}, report))
      << report.error;
  EXPECT_EQ(views, ng.size());
  std::size_t want_bytes = 0;
  for (const auto& f : ng) want_bytes += f.data.size();
  EXPECT_EQ(bytes, want_bytes);
}

// ------------------------------------------------------- pipes (FIFOs)

class PcapPipeTest : public PcapTest {
 protected:
  void SetUp() override {
    PcapTest::SetUp();
    // A reader that stops early closes its end: the writer must see
    // EPIPE, not die of SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
  }

  /// Writes `bytes` into a fresh FIFO in `piece`-byte write(2) calls from
  /// a second thread while `read` consumes it.
  ReadBack through_fifo(const std::vector<std::uint8_t>& bytes,
                        std::size_t piece,
                        const std::function<ReadBack(const std::string&)>&
                            read) {
    const std::string fifo = path("capture.fifo");
    fs::remove(fifo);
    EXPECT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    std::thread writer{[&] {
      const int fd = ::open(fifo.c_str(), O_WRONLY);
      if (fd < 0) return;
      for (std::size_t at = 0; at < bytes.size();) {
        const std::size_t n = std::min(piece, bytes.size() - at);
        const ssize_t put = ::write(fd, bytes.data() + at, n);
        if (put < 0 && errno == EINTR) continue;
        if (put < 0) break;  // the reader is gone
        at += static_cast<std::size_t>(put);
      }
      ::close(fd);
    }};
    ReadBack got = read(fifo);
    writer.join();
    return got;
  }

  static void expect_same(const ReadBack& got, const ReadBack& want) {
    expect_same_frames(got.frames, want.frames);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.corruption.resyncs, want.corruption.resyncs);
    EXPECT_EQ(got.corruption.bytes_skipped, want.corruption.bytes_skipped);
    EXPECT_EQ(got.corruption.truncated_tail, want.corruption.truncated_tail);
  }
};

constexpr std::size_t kPieces[] = {1, 3, 17, 4093};

/// The write sizes a capture read through `window` is fed in. The
/// small-window captures put an edge at every header and data offset and
/// take all four; a capture of several default windows skips the 1- and
/// 3-byte writes, which would cost millions of write(2) calls and reach
/// no edge offset the small ones miss.
std::vector<std::size_t> pieces_for(std::size_t window) {
  if (window < kReadWindowBytes)
    return {std::begin(kPieces), std::end(kPieces)};
  return {17, 4093};
}

TEST_F(PcapPipeTest, ClassicThroughFifoMatchesFile) {
  const auto frames = classic_straddles(4096, all_straddles());
  const auto p = write_classic(path("edges.pcap"), frames);
  const auto big = write_classic(
      path("big.pcap"),
      classic_straddles(kReadWindowBytes, kDefaultWindowStraddles));
  for (const auto& [file, window] :
       {std::pair{p, std::size_t{4096}}, std::pair{big, kReadWindowBytes}}) {
    const ReadBack want = read_classic(file, window);
    ASSERT_TRUE(want.error.empty());
    for (const std::size_t piece : pieces_for(window)) {
      SCOPED_TRACE(file + " in pieces of " + std::to_string(piece));
      expect_same(through_fifo(slurp(file), piece,
                               [&](const std::string& fifo) {
                                 return read_classic(fifo, window);
                               }),
                  want);
    }
  }
}

TEST_F(PcapPipeTest, PcapngThroughFifoMatchesFile) {
  NgFile small;
  ng_straddles(4097, all_straddles(), small);
  NgFile big;
  ng_straddles(kReadWindowBytes, kDefaultWindowStraddles, big);
  for (const auto& [file, window] :
       {std::pair{small.write(path("edges.pcapng")), std::size_t{4097}},
        std::pair{big.write(path("big.pcapng")), kReadWindowBytes}}) {
    const ReadBack want = read_ng(file, window);
    ASSERT_TRUE(want.error.empty());
    for (const std::size_t piece : pieces_for(window)) {
      SCOPED_TRACE(file + " in pieces of " + std::to_string(piece));
      expect_same(through_fifo(slurp(file), piece,
                               [&](const std::string& fifo) {
                                 return read_ng(fifo, window);
                               }),
                  want);
    }
  }
}

TEST_F(PcapPipeTest, DamagedClassicThroughFifoMatchesFile) {
  // Garbage spliced in ahead of a record near each of the first window
  // edges, and a tail cut inside the last record: strict mode stops with
  // an error at the first splice, resync mode survives them all.
  const auto frames = classic_straddles(4096, all_straddles());
  auto bytes = slurp(write_classic(path("clean.pcap"), frames));
  std::vector<std::size_t> record_starts;
  for (std::size_t pos = 24; pos + 16 <= bytes.size();) {
    record_starts.push_back(pos);
    std::uint32_t incl = 0;
    std::memcpy(&incl, bytes.data() + pos + 8, 4);
    pos += 16 + incl;
  }
  for (std::size_t edge = 4 * 4096; edge >= 4096; edge -= 4096) {
    const auto it = std::lower_bound(record_starts.begin(),
                                     record_starts.end(), edge);
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(*it), 100,
                 0xff);
  }
  bytes.resize(bytes.size() - 10);
  const auto p = path("damaged.pcap");
  dump(p, bytes);

  for (const auto mode : {Reader::Mode::kStrict, Reader::Mode::kResync}) {
    const ReadBack want = read_classic(p, 4096, mode);
    if (mode == Reader::Mode::kStrict) {
      EXPECT_FALSE(want.error.empty());
    } else {
      EXPECT_TRUE(want.error.empty()) << want.error;
      EXPECT_EQ(want.frames.size(), frames.size() - 1);
      EXPECT_EQ(want.corruption.resyncs, 4u);
      EXPECT_EQ(want.corruption.bytes_skipped, 4u * 100 + 16 + 50 - 10);
      EXPECT_EQ(want.corruption.truncated_tail, 1u);
    }
    for (const std::size_t piece : kPieces) {
      SCOPED_TRACE("pieces of " + std::to_string(piece));
      expect_same(through_fifo(bytes, piece,
                               [&](const std::string& fifo) {
                                 return read_classic(fifo, 4096, mode);
                               }),
                  want);
    }
  }
}

TEST_F(PcapPipeTest, ReadAnyCaptureOpensAFifoOnce) {
  // The format is sniffed from the stream itself, so a pcapng FIFO is not
  // consumed by a failed classic open first.
  NgFile file;
  const auto frames = ng_straddles(4096, all_straddles(), file);
  const ReadBack got = through_fifo(file.bytes, 4093, [](const std::string&
                                                             fifo) {
    ReadBack out;
    CaptureReadReport report;
    read_any_capture(
        fifo, [&](const Frame& frame) { out.frames.push_back(frame); },
        CaptureReadOptions{}, report);
    out.error = report.error;
    return out;
  });
  expect_same_frames(got.frames, frames);
  EXPECT_TRUE(got.error.empty()) << got.error;
}

// --------------------------------------------------- pcapng length/time

TEST_F(PcapngTest, CapturedLengthNearUint32MaxIsRejected) {
  // A 36-byte EPB claiming 0xFFFFFFF0 captured bytes: in 32 bits 20 plus
  // that length wraps to 4 and passes a naive bounds check.
  NgFile file;
  const net::Bytes data{1, 2, 3, 4};
  file.add(1'000'000, data, 0xFFFFFFF0u);
  auto reader = NgReader::open(file.write(path("wrap.pcapng")));
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->next());
  EXPECT_EQ(reader->error(), "enhanced packet data exceeds block");
  EXPECT_EQ(reader->frames_read(), 0u);
}

/// Reads back one EPB stamped `ticks` under `tsresol`.
std::int64_t stamp_micros(const std::string& p, std::uint8_t tsresol,
                          std::uint64_t ticks) {
  NgFile file{tsresol};
  const net::Bytes data{0xab};
  file.add(ticks, data);
  auto reader = NgReader::open(file.write(p));
  EXPECT_TRUE(reader);
  if (!reader) return -1;
  const auto frame = reader->next();
  EXPECT_TRUE(frame) << reader->error();
  return frame ? frame->timestamp.micros_since_epoch() : -1;
}

TEST_F(PcapngTest, RealEpochMicrosecondStamp) {
  EXPECT_EQ(stamp_micros(path("us.pcapng"), 6, 1'700'000'000'123'456ull),
            1'700'000'000'123'456LL);
}

TEST_F(PcapngTest, RealEpochNanosecondStamp) {
  EXPECT_EQ(stamp_micros(path("ns.pcapng"), 9, 1'700'000'000'123'456'789ull),
            1'700'000'000'123'456LL);
}

TEST_F(PcapngTest, RealEpochBinaryResolutionStamp) {
  // 2^-20 s ticks: 1700000000.5 s.
  const std::uint64_t ticks = (1'700'000'000ull << 20) + (1ull << 19);
  EXPECT_EQ(stamp_micros(path("bin.pcapng"), 0x80 | 20, ticks),
            1'700'000'000'500'000LL);
}

}  // namespace
}  // namespace dnh::pcap
