#include "pcap/pcapng.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnh::pcap {
namespace {

constexpr std::uint32_t kSectionHeaderBlock = 0x0a0d0d0a;
constexpr std::uint32_t kInterfaceBlock = 0x00000001;
constexpr std::uint32_t kSimplePacketBlock = 0x00000003;
constexpr std::uint32_t kEnhancedPacketBlock = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1a2b3c4d;
constexpr std::uint32_t kMaxBlockLength = 16 * 1024 * 1024;

std::uint32_t bswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t bswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

/// `ticks` at `ticks_per_second` as microseconds. Whole seconds and the
/// remainder convert separately: `ticks * 10^6` overflows 64 bits for any
/// real-epoch stamp, and the remainder's product is taken in 128 bits for
/// resolutions finer than about 2^-44 s.
std::int64_t ticks_to_micros(std::uint64_t ticks,
                             std::uint64_t ticks_per_second) noexcept {
  const std::uint64_t seconds = ticks / ticks_per_second;
  const unsigned __int128 rest = ticks % ticks_per_second;
  return static_cast<std::int64_t>(
      seconds * 1'000'000 +
      static_cast<std::uint64_t>(rest * 1'000'000 / ticks_per_second));
}

}  // namespace

std::uint32_t NgReader::to_host(std::uint32_t v) const noexcept {
  return swapped_ ? bswap32(v) : v;
}

std::uint16_t NgReader::to_host(std::uint16_t v) const noexcept {
  return swapped_ ? bswap16(v) : v;
}

std::uint32_t NgReader::load32(const std::uint8_t* at) const noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, at, 4);
  return to_host(v);
}

std::optional<NgReader> NgReader::open(const std::string& path,
                                       std::size_t window_bytes) {
  ByteWindow window;
  if (!window.open(path, window_bytes)) return std::nullopt;
  return open(std::move(window));
}

std::optional<NgReader> NgReader::open(ByteWindow window) {
  if (!window.fill(12)) return std::nullopt;
  NgReader reader;
  std::uint32_t type = 0, magic = 0;
  std::memcpy(&type, window.data(), 4);
  std::memcpy(&magic, window.data() + 8, 4);
  if (type != kSectionHeaderBlock) return std::nullopt;
  if (magic == kByteOrderMagic) {
    reader.swapped_ = false;
  } else if (bswap32(magic) == kByteOrderMagic) {
    reader.swapped_ = true;
  } else {
    return std::nullopt;
  }
  const std::uint32_t length = reader.load32(window.data() + 4);
  if (length < 28 || length > kMaxBlockLength || length % 4 != 0)
    return std::nullopt;
  // Skip the rest of the SHB: version (4) + section length (8) + options.
  // A file that ends inside it simply has no frames.
  window.fill(length);
  window.consume(std::min<std::size_t>(length, window.available()));
  reader.window_ = std::move(window);
  return reader;
}

void NgReader::parse_interface_block(net::BytesView body) {
  Interface iface;
  if (body.size() >= 2) {
    std::uint16_t link = 0;
    std::memcpy(&link, body.data(), 2);
    iface.link_type = to_host(link);
  }
  // Walk options for if_tsresol (code 9, 1 byte).
  std::size_t pos = 8;  // linktype(2) + reserved(2) + snaplen(4)
  while (pos + 4 <= body.size()) {
    std::uint16_t code = 0, opt_len = 0;
    std::memcpy(&code, body.data() + pos, 2);
    std::memcpy(&opt_len, body.data() + pos + 2, 2);
    code = to_host(code);
    opt_len = to_host(opt_len);
    pos += 4;
    if (code == 0) break;  // opt_endofopt
    if (pos + opt_len > body.size()) break;
    if (code == 9 && opt_len >= 1) {
      // 2^-n or 10^-n seconds; a resolution finer than 64-bit ticks per
      // second can express keeps the default.
      const std::uint8_t resol = body[pos];
      const unsigned exponent = resol & 0x7fu;
      if (resol & 0x80) {
        if (exponent < 64) iface.ticks_per_second = 1ull << exponent;
      } else if (exponent <= 19) {
        iface.ticks_per_second = 1;
        for (unsigned i = 0; i < exponent; ++i) iface.ticks_per_second *= 10;
      }
    }
    pos += (opt_len + 3u) & ~3u;  // options are padded to 32 bits
  }
  interfaces_.push_back(iface);
}

void NgReader::stream_ended(const char* truncation) {
  if (!window_.error().empty()) {
    error_ = window_.error();
  } else if (window_.available() > 0) {
    error_ = truncation;
  }
}

std::optional<Frame> NgReader::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return to_frame(*view);
}

// dnh-analyze: hot
std::optional<FrameView> NgReader::next_view() {
  if (!error_.empty()) return std::nullopt;
  while (true) {
    if (!window_.fill(8)) {
      stream_ended("truncated block header");
      return std::nullopt;
    }
    const std::uint32_t type = load32(window_.data());
    const std::uint32_t total_length = load32(window_.data() + 4);
    if (total_length < 12 || total_length > kMaxBlockLength ||
        total_length % 4 != 0) {
      error_ = "implausible block length";
      return std::nullopt;
    }
    if (!window_.fill(total_length)) {
      stream_ended(window_.available() < total_length - 4
                       ? "truncated block body"
                       : "block trailer mismatch");
      return std::nullopt;
    }
    if (load32(window_.data() + total_length - 4) != total_length) {
      error_ = "block trailer mismatch";
      return std::nullopt;
    }
    // The block stays in the window until the next fill, so the body (and
    // a frame viewing it) outlives the consume.
    const net::BytesView body{window_.data() + 8, total_length - 12u};
    window_.consume(total_length);

    if (type == kInterfaceBlock) {
      parse_interface_block(body);
      continue;
    }
    if (type == kEnhancedPacketBlock) {
      if (body.size() < 20) {
        error_ = "short enhanced packet block";
        return std::nullopt;
      }
      const std::uint32_t iface_id = load32(body.data());
      const std::uint32_t ts_high = load32(body.data() + 4);
      const std::uint32_t ts_low = load32(body.data() + 8);
      const std::uint32_t captured = load32(body.data() + 12);
      const std::uint32_t original = load32(body.data() + 16);
      // In size_t: 20 + a captured length near 2^32 wraps in 32 bits.
      if (20 + std::size_t{captured} > body.size()) {
        error_ = "enhanced packet data exceeds block";
        return std::nullopt;
      }
      const std::uint64_t ticks = (std::uint64_t{ts_high} << 32) | ts_low;
      const std::uint64_t ticks_per_second =
          iface_id < interfaces_.size()
              ? interfaces_[iface_id].ticks_per_second
              : 1'000'000;
      ++frames_read_;
      return FrameView{util::Timestamp::from_micros(
                           ticks_to_micros(ticks, ticks_per_second)),
                       original, body.subspan(20, captured)};
    }
    if (type == kSimplePacketBlock) {
      if (body.size() < 4) {
        error_ = "short simple packet block";
        return std::nullopt;
      }
      ++frames_read_;
      return FrameView{util::Timestamp{}, load32(body.data()),
                       body.subspan(4)};
    }
    // Unknown/unsupported block (NRB, ISB, custom, new SHB): skip.
  }
}

bool read_any_capture(const std::string& path,
                      const std::function<void(const Frame&)>& sink,
                      std::string& error) {
  CaptureReadReport report;
  const bool ok = read_any_capture(path, sink, CaptureReadOptions{}, report);
  error = std::move(report.error);
  return ok;
}

namespace {

// Capture-read instrumentation (docs/observability.md). Handles resolve
// once per process; the per-frame cost is two thread-local relaxed
// increments plus a 1-in-64 sampled read-latency span.
struct ReadMetrics {
  obs::Counter frames =
      obs::Registry::global().counter("dnh_pcap_frames_total");
  obs::Counter bytes =
      obs::Registry::global().counter("dnh_pcap_bytes_total");
  obs::Counter resyncs =
      obs::Registry::global().counter("dnh_pcap_resyncs_total");
  obs::Counter bytes_skipped =
      obs::Registry::global().counter("dnh_pcap_bytes_skipped_total");
  obs::Counter truncated_tails =
      obs::Registry::global().counter("dnh_pcap_truncated_tails_total");
  obs::Histogram read_ns =
      obs::Registry::global().histogram("dnh_stage_pcap_read_ns");
};

ReadMetrics& read_metrics() {
  static ReadMetrics metrics;
  return metrics;
}

/// The one frame loop, over either format's reader.
template <class CaptureReader>
void pump(CaptureReader& reader,
          const std::function<void(const FrameView&)>& sink,
          const CaptureReadOptions& options, CaptureReadReport& report) {
  ReadMetrics& metrics = read_metrics();
  obs::SampleGate gate{64};
  while (true) {
    if (options.stop && options.stop()) {
      report.stopped = true;
      break;
    }
    std::optional<FrameView> frame;
    {
      obs::SpanTimer span{metrics.read_ns, gate};
      frame = reader.next_view();
    }
    if (!frame) break;
    metrics.frames.inc();
    metrics.bytes.add(frame->data.size());
    sink(*frame);
    ++report.frames;
  }
  report.error = reader.error();
}

}  // namespace

bool read_any_capture(const std::string& path,
                      const std::function<void(const FrameView&)>& sink,
                      const CaptureReadOptions& options,
                      CaptureReadReport& report) {
  // The format is sniffed from the first bytes of one window rather than
  // by trying each reader in turn: a pipe can be opened and read once.
  ByteWindow window;
  if (window.open(path) && window.fill(4)) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, window.data(), 4);
    if (magic == kSectionHeaderBlock) {
      if (auto ng = NgReader::open(std::move(window))) {
        pump(*ng, sink, options, report);
        return report.error.empty();
      }
    } else if (auto classic = Reader::open(
                   std::move(window), options.resync ? Reader::Mode::kResync
                                                     : Reader::Mode::kStrict)) {
      pump(*classic, sink, options, report);
      report.corruption = classic->corruption();
      ReadMetrics& metrics = read_metrics();
      metrics.resyncs.add(report.corruption.resyncs);
      metrics.bytes_skipped.add(report.corruption.bytes_skipped);
      metrics.truncated_tails.add(report.corruption.truncated_tail);
      return report.error.empty();
    }
  }
  report.error = "not a pcap or pcapng capture: " + path;
  return false;
}

bool read_any_capture(const std::string& path,
                      const std::function<void(const Frame&)>& sink,
                      const CaptureReadOptions& options,
                      CaptureReadReport& report) {
  // One reused Frame: its buffer grows to the largest frame once and is
  // refilled in place after that.
  Frame frame;
  return read_any_capture(
      path,
      [&](const FrameView& view) {
        frame.timestamp = view.timestamp;
        frame.original_length = view.original_length;
        frame.data.assign(view.data.begin(), view.data.end());
        sink(frame);
      },
      options, report);
}

}  // namespace dnh::pcap
