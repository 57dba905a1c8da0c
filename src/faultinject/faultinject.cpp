#include "faultinject/faultinject.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "flowexport/stream.hpp"

namespace dnh::faultinject {
namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;

/// Byte offsets inside an Ethernet II / IPv4 frame (no VLAN tags — the
/// trace generator emits untagged frames; tagged frames simply fail the
/// qualification checks and fall back to a generic mutation).
constexpr std::size_t kEtherTypeOffset = 12;
constexpr std::size_t kIpHeaderOffset = 14;

struct UdpLocation {
  std::size_t udp_header = 0;  ///< offset of the UDP header
  std::size_t payload = 0;     ///< offset of the UDP payload
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

std::uint16_t read_be16(const net::Bytes& data, std::size_t offset) {
  return static_cast<std::uint16_t>((data[offset] << 8) | data[offset + 1]);
}

/// Locates the UDP header/payload in an untagged IPv4 frame, if any.
std::optional<UdpLocation> locate_udp(const net::Bytes& data) {
  if (data.size() < kIpHeaderOffset + 20 + 8) return std::nullopt;
  if (read_be16(data, kEtherTypeOffset) != 0x0800) return std::nullopt;
  if ((data[kIpHeaderOffset] >> 4) != 4) return std::nullopt;
  const std::size_t ihl = (data[kIpHeaderOffset] & 0x0f) * std::size_t{4};
  if (ihl < 20 || data.size() < kIpHeaderOffset + ihl + 8) return std::nullopt;
  if (data[kIpHeaderOffset + 9] != 17) return std::nullopt;  // not UDP
  UdpLocation loc;
  loc.udp_header = kIpHeaderOffset + ihl;
  loc.payload = loc.udp_header + 8;
  loc.src_port = read_be16(data, loc.udp_header);
  loc.dst_port = read_be16(data, loc.udp_header + 2);
  return loc;
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTruncateFrame: return "truncate";
    case FaultKind::kHeaderBitFlip: return "hdr-bitflip";
    case FaultKind::kPayloadBitFlip: return "payload-bitflip";
    case FaultKind::kIpLengthLie: return "ip-length-lie";
    case FaultKind::kUdpLengthLie: return "udp-length-lie";
    case FaultKind::kDnsCompressionLoop: return "dns-pointer-loop";
    case FaultKind::kTimestampRegression: return "ts-regression";
    case FaultKind::kDropFrame: return "drop";
    case FaultKind::kDuplicateFrame: return "duplicate";
    case FaultKind::kReorderFrame: return "reorder";
  }
  return "?";
}

FrameCorruptor::FrameCorruptor(FaultConfig config)
    : config_{config}, rng_{config.seed} {}

bool FrameCorruptor::corrupt_in_place(pcap::Frame& frame, FaultKind kind) {
  net::Bytes& data = frame.data;
  switch (kind) {
    case FaultKind::kTruncateFrame: {
      if (data.size() < 2) return false;
      data.resize(rng_.uniform(1, data.size() - 1));
      return true;
    }
    case FaultKind::kHeaderBitFlip: {
      if (data.empty()) return false;
      const std::size_t span = std::min<std::size_t>(data.size(), 42);
      const int flips = 1 + static_cast<int>(rng_.uniform(0, 3));
      for (int i = 0; i < flips; ++i)
        data[rng_.index(span)] ^=
            static_cast<std::uint8_t>(1u << rng_.uniform(0, 7));
      return true;
    }
    case FaultKind::kPayloadBitFlip: {
      if (data.empty()) return false;
      const std::size_t from = data.size() > 42 ? 42 : 0;
      const int flips = 1 + static_cast<int>(rng_.uniform(0, 7));
      for (int i = 0; i < flips; ++i)
        data[from + rng_.index(data.size() - from)] ^=
            static_cast<std::uint8_t>(1u << rng_.uniform(0, 7));
      return true;
    }
    case FaultKind::kIpLengthLie: {
      if (data.size() < kIpHeaderOffset + 20 ||
          read_be16(data, kEtherTypeOffset) != 0x0800)
        return false;
      const auto lie = static_cast<std::uint16_t>(rng_.uniform(0, 0xffff));
      data[kIpHeaderOffset + 2] = static_cast<std::uint8_t>(lie >> 8);
      data[kIpHeaderOffset + 3] = static_cast<std::uint8_t>(lie);
      return true;
    }
    case FaultKind::kUdpLengthLie: {
      const auto loc = locate_udp(data);
      if (!loc) return false;
      const auto lie = static_cast<std::uint16_t>(rng_.uniform(0, 0xffff));
      data[loc->udp_header + 4] = static_cast<std::uint8_t>(lie >> 8);
      data[loc->udp_header + 5] = static_cast<std::uint8_t>(lie);
      return true;
    }
    case FaultKind::kDnsCompressionLoop: {
      const auto loc = locate_udp(data);
      if (!loc || (loc->src_port != 53 && loc->dst_port != 53)) return false;
      // The QNAME starts at DNS offset 12; a pointer back to offset 12 is
      // a one-hop cycle the name decoder must refuse to follow.
      if (data.size() < loc->payload + 14) return false;
      data[loc->payload + 12] = 0xc0;
      data[loc->payload + 13] = 0x0c;
      return true;
    }
    case FaultKind::kTimestampRegression: {
      frame.timestamp = util::Timestamp::from_micros(
          last_ts_.micros_since_epoch() -
          static_cast<std::int64_t>(rng_.uniform(1'000'000, 5'000'000)));
      return true;
    }
    case FaultKind::kDropFrame:
    case FaultKind::kDuplicateFrame:
    case FaultKind::kReorderFrame:
      break;  // handled by feed(); not in-place mutations
  }
  return false;
}

void FrameCorruptor::feed(const pcap::Frame& frame,
                          std::vector<pcap::Frame>& out) {
  ++stats_.frames_in;
  // A frame held for reordering is released AFTER the current frame.
  std::optional<pcap::Frame> pending;
  pending.swap(held_);

  pcap::Frame current = frame;
  bool drop = false, duplicate = false, hold = false;
  if (config_.fault_rate > 0 && rng_.chance(config_.fault_rate)) {
    auto kind = static_cast<FaultKind>(rng_.weighted_index(config_.weights));
    switch (kind) {
      case FaultKind::kDropFrame:
        drop = true;
        break;
      case FaultKind::kDuplicateFrame:
        duplicate = true;
        break;
      case FaultKind::kReorderFrame:
        // Only one frame deep; a second reorder degrades to a duplicate.
        if (!pending) hold = true;
        else { kind = FaultKind::kDuplicateFrame; duplicate = true; }
        break;
      default:
        if (!corrupt_in_place(current, kind)) {
          // Frame does not qualify (too short / not DNS): degrade to a
          // generic header flip so the configured rate is still honoured.
          kind = FaultKind::kHeaderBitFlip;
          if (!corrupt_in_place(current, kind)) {
            kind = FaultKind::kTimestampRegression;
            corrupt_in_place(current, kind);
          }
        }
        break;
    }
    ++stats_.by_kind[static_cast<std::size_t>(kind)];
  }

  if (hold) {
    held_ = std::move(current);
  } else if (!drop) {
    out.push_back(current);
    ++stats_.frames_out;
    if (duplicate) {
      out.push_back(std::move(current));
      ++stats_.frames_out;
    }
  }
  if (pending) {
    out.push_back(std::move(*pending));
    ++stats_.frames_out;
  }
  if (frame.timestamp > last_ts_) last_ts_ = frame.timestamp;
}

void FrameCorruptor::flush(std::vector<pcap::Frame>& out) {
  if (!held_) return;
  out.push_back(std::move(*held_));
  ++stats_.frames_out;
  held_.reset();
}

std::optional<FileFaultReport> corrupt_pcap_file(
    const std::string& src, const std::string& dst,
    const FileFaultConfig& config) {
  std::unique_ptr<std::FILE, FileCloser> in{std::fopen(src.c_str(), "rb")};
  if (!in) return std::nullopt;
  // Slurp the file; captures used for chaos tests are laptop-sized.
  std::fseek(in.get(), 0, SEEK_END);
  const long size = std::ftell(in.get());
  if (size < 24) return std::nullopt;
  std::fseek(in.get(), 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (std::fread(bytes.data(), 1, bytes.size(), in.get()) != bytes.size())
    return std::nullopt;

  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kMagicMicros) return std::nullopt;  // native classic only

  util::Rng rng{config.seed};
  FileFaultReport report;
  std::vector<std::uint8_t> out(bytes.begin(), bytes.begin() + 24);
  std::size_t last_body_size = 0;
  bool in_fault_run = false;
  const auto fault = [&] {
    if (!in_fault_run) ++report.fault_runs;
    in_fault_run = true;
  };

  std::size_t pos = 24;
  while (pos + 16 <= bytes.size()) {
    std::uint32_t incl_len = 0;
    std::memcpy(&incl_len, bytes.data() + pos + 8, 4);
    if (pos + 16 + incl_len > bytes.size()) break;  // source itself short
    ++report.records_in;

    if (rng.chance(config.garbage_run_rate)) {
      const std::uint32_t run = static_cast<std::uint32_t>(rng.uniform(
          config.garbage_min_bytes,
          std::max(config.garbage_min_bytes, config.garbage_max_bytes)));
      for (std::uint32_t i = 0; i < run; ++i)
        out.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      ++report.garbage_runs;
      report.garbage_bytes += run;
      fault();
    }

    const std::size_t header_at = out.size();
    out.insert(out.end(), bytes.begin() + pos, bytes.begin() + pos + 16 + incl_len);
    if (rng.chance(config.length_lie_rate)) {
      // An implausible captured length: the reader must refuse to allocate
      // and scan past this record (its frame is unrecoverable).
      const std::uint32_t lie =
          0x10000000u | static_cast<std::uint32_t>(rng.uniform(0, 0xffffff));
      std::memcpy(out.data() + header_at + 8, &lie, 4);
      ++report.length_lies;
      fault();
    } else {
      ++report.records_intact;
      in_fault_run = false;
    }
    last_body_size = incl_len;
    pos += 16 + incl_len;
  }

  if (config.truncate_tail && last_body_size >= 2 && report.records_intact > 0) {
    out.resize(out.size() - last_body_size / 2);
    report.truncated_tail = true;
    --report.records_intact;
  }

  std::unique_ptr<std::FILE, FileCloser> ofile{std::fopen(dst.c_str(), "wb")};
  if (!ofile) return std::nullopt;
  if (std::fwrite(out.data(), 1, out.size(), ofile.get()) != out.size())
    return std::nullopt;
  return report;
}

std::string_view spill_fault_mode_name(SpillFaultMode mode) {
  switch (mode) {
    case SpillFaultMode::kTornRecord: return "torn-record";
    case SpillFaultMode::kBitFlip: return "bit-flip";
    case SpillFaultMode::kTruncateManifest: return "truncate-manifest";
    case SpillFaultMode::kGarbageAppend: return "garbage-append";
  }
  return "?";
}

namespace {

/// The spill segment frame header (pipeline/spill.hpp): "DNHS" magic,
/// u32le payload length, u32le payload CRC. Kept in sync by the spill
/// round-trip chaos tests, which would fail loudly on drift.
constexpr std::size_t kSpillFrameHeader = 12;

std::optional<std::vector<std::uint8_t>> slurp_file(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file{std::fopen(path.c_str(), "rb")};
  if (!file) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[1 << 16];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, file.get())) > 0)
    bytes.insert(bytes.end(), buffer, buffer + n);
  return bytes;
}

bool dump_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::unique_ptr<std::FILE, FileCloser> file{std::fopen(path.c_str(), "wb")};
  if (!file) return false;
  return std::fwrite(b.data(), 1, b.size(), file.get()) == b.size();
}

/// Byte extents of each well-formed framed record in a spill segment.
struct RecordSpan {
  std::size_t offset = 0;
  std::size_t length = 0;  ///< header included
};

std::vector<RecordSpan> scan_segment_records(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<RecordSpan> records;
  std::size_t pos = 0;
  while (pos + kSpillFrameHeader <= bytes.size()) {
    if (std::memcmp(bytes.data() + pos, "DNHS", 4) != 0) break;
    const std::uint32_t len =
        static_cast<std::uint32_t>(bytes[pos + 4]) |
        (static_cast<std::uint32_t>(bytes[pos + 5]) << 8) |
        (static_cast<std::uint32_t>(bytes[pos + 6]) << 16) |
        (static_cast<std::uint32_t>(bytes[pos + 7]) << 24);
    if (pos + kSpillFrameHeader + len > bytes.size()) break;
    records.push_back({pos, kSpillFrameHeader + len});
    pos += kSpillFrameHeader + len;
  }
  return records;
}

}  // namespace

std::optional<SpillFaultReport> corrupt_spill_dir(
    const std::string& dir, const SpillFaultConfig& config) {
  util::Rng rng{config.seed};
  SpillFaultReport report;
  const std::string manifest =
      dir + (dir.empty() || dir.back() == '/' ? "" : "/") + "manifest.dnhm";

  if (config.mode == SpillFaultMode::kTruncateManifest ||
      config.mode == SpillFaultMode::kGarbageAppend) {
    auto bytes = slurp_file(manifest);
    if (!bytes || bytes->empty()) return std::nullopt;
    report.target = manifest;
    if (config.mode == SpillFaultMode::kTruncateManifest) {
      // Cut mid-line: recovery must stop its trustworthy prefix at the
      // torn line, not choke on it.
      const std::size_t cut = static_cast<std::size_t>(
          rng.uniform(1, std::max<std::uint64_t>(bytes->size() / 2, 1)));
      report.bytes_removed = cut;
      bytes->resize(bytes->size() - cut);
    } else {
      const std::size_t n = static_cast<std::size_t>(rng.uniform(8, 128));
      for (std::size_t i = 0; i < n; ++i)
        bytes->push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
      report.bytes_appended = n;
    }
    if (!dump_file(manifest, *bytes)) return std::nullopt;
    return report;
  }

  // Segment modes: gather every shard segment that holds records, then
  // pick the victim deterministically from the seed.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> segments;
  for (std::uint32_t shard = 0; shard < 4096; ++shard) {
    const std::string path = dir +
                             (dir.empty() || dir.back() == '/' ? "" : "/") +
                             "shard-" + std::to_string(shard) + ".dnhs";
    auto bytes = slurp_file(path);
    if (!bytes) break;  // segments are densely numbered from 0
    if (!bytes->empty() && !scan_segment_records(*bytes).empty())
      segments.emplace_back(path, std::move(*bytes));
  }
  if (segments.empty()) return std::nullopt;
  auto& [path, bytes] = segments[rng.index(segments.size())];
  const std::vector<RecordSpan> records = scan_segment_records(bytes);
  report.target = path;
  report.segment_records = records.size();

  if (config.mode == SpillFaultMode::kTornRecord) {
    // Chop into the FINAL record: exactly what a SIGKILL between write()
    // and fsync() leaves behind.
    const RecordSpan& last = records.back();
    const std::size_t keep = static_cast<std::size_t>(
        rng.uniform(1, last.length - 1));
    report.bytes_removed = last.length - keep;
    bytes.resize(last.offset + keep);
  } else {  // kBitFlip
    const RecordSpan& victim = records[rng.index(records.size())];
    // Flip inside the payload (past the frame header) so the CRC check —
    // not the magic/length sanity checks — is what must catch it.
    const std::size_t at =
        victim.offset + kSpillFrameHeader +
        static_cast<std::size_t>(
            rng.uniform(0, victim.length - kSpillFrameHeader - 1));
    bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    report.bits_flipped = 1;
  }
  if (!dump_file(path, bytes)) return std::nullopt;
  return report;
}

std::string_view export_fault_mode_name(ExportFaultMode mode) {
  switch (mode) {
    case ExportFaultMode::kTruncateDatagram: return "truncate-datagram";
    case ExportFaultMode::kReorderDatagrams: return "reorder-datagrams";
    case ExportFaultMode::kGarbageDatagram: return "garbage-datagram";
    case ExportFaultMode::kTemplateLoss: return "template-loss";
  }
  return "?";
}

namespace {

/// True when the payload is an IPFIX message whose first set is a
/// template set — the datagrams kTemplateLoss hunts. Scanning only the
/// first set is enough for streams our encoder writes (templates travel
/// at the front of a refresh datagram).
bool carries_ipfix_template(const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 20) return false;
  const std::uint16_t version =
      static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
  if (version != 10) return false;
  const std::uint16_t first_set_id =
      static_cast<std::uint16_t>((payload[16] << 8) | payload[17]);
  return first_set_id == 2;
}

}  // namespace

std::optional<ExportFaultReport> corrupt_export_stream(
    const std::string& src, const std::string& dst,
    const ExportFaultConfig& config) {
  flowexport::DatagramReader reader;
  if (!reader.open(src)) return std::nullopt;
  struct Entry {
    util::Timestamp arrival;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Entry> entries;
  flowexport::Datagram datagram;
  while (reader.next(datagram))
    entries.push_back({datagram.arrival, std::move(datagram.payload)});

  util::Rng rng{config.seed};
  ExportFaultReport report;
  report.datagrams_in = entries.size();

  switch (config.mode) {
    case ExportFaultMode::kTruncateDatagram:
      for (Entry& entry : entries) {
        if (entry.payload.size() < 2 || !rng.chance(config.rate)) continue;
        entry.payload.resize(static_cast<std::size_t>(
            rng.uniform(1, entry.payload.size() - 1)));
        ++report.truncated;
      }
      break;
    case ExportFaultMode::kReorderDatagrams:
      // Swap whole entries, arrival stamps included: the replayed stream
      // really does deliver a newer datagram first, which is what UDP
      // reordering looks like to the collector.
      for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
        if (!rng.chance(config.rate)) continue;
        std::swap(entries[i], entries[i + 1]);
        ++report.reorder_swaps;
        ++i;  // do not re-swap the element just moved back
      }
      break;
    case ExportFaultMode::kGarbageDatagram:
      // The whole payload turns to noise — a foreign UDP stream spliced
      // into the export port, or bit rot beyond recognition. A partial
      // scribble would often leave v5 framing intact and merely change
      // field values; total replacement guarantees the decoder sees an
      // unparseable datagram and degrades with a typed error instead.
      for (Entry& entry : entries) {
        if (entry.payload.empty() || !rng.chance(config.rate)) continue;
        for (std::uint8_t& byte : entry.payload)
          byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
        ++report.garbage_runs;
        report.garbage_bytes += entry.payload.size();
      }
      break;
    case ExportFaultMode::kTemplateLoss: {
      std::vector<Entry> kept;
      kept.reserve(entries.size());
      for (Entry& entry : entries) {
        if (carries_ipfix_template(entry.payload) &&
            rng.chance(config.rate)) {
          ++report.templates_dropped;
          continue;
        }
        kept.push_back(std::move(entry));
      }
      entries = std::move(kept);
      break;
    }
  }

  flowexport::DatagramWriter writer;
  if (!writer.create(dst)) return std::nullopt;
  for (const Entry& entry : entries)
    if (!writer.write(entry.arrival, entry.payload)) return std::nullopt;
  if (!writer.close()) return std::nullopt;
  report.datagrams_out = entries.size();
  return report;
}

std::optional<StallPlan> stall_plan_from_env() {
  const char* raw = std::getenv("DNH_FAULT_STALL");
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long shard = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return std::nullopt;
  StallPlan plan;
  plan.shard = static_cast<std::size_t>(shard);
  return plan;
}

void enter_injected_stall() {
  // A deliberately wedged thread: no exit condition, no interruption
  // point. The watchdog (or a signal) is the only way out — exactly the
  // production failure being rehearsed.
  for (;;) std::this_thread::sleep_for(std::chrono::hours{1});
}

}  // namespace dnh::faultinject
