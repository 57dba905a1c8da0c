#include "pcap/pcap.hpp"

#include <cstring>
#include <utility>
#include <vector>

namespace dnh::pcap {
namespace {

constexpr std::uint32_t kMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNanos = 0xa1b23c4d;

std::uint32_t bswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

std::uint16_t bswap16(std::uint16_t v) noexcept {
  return static_cast<std::uint16_t>((v << 8) | (v >> 8));
}

struct GlobalHeader {
  std::uint32_t magic;
  std::uint16_t version_major;
  std::uint16_t version_minor;
  std::int32_t thiszone;
  std::uint32_t sigfigs;
  std::uint32_t snaplen;
  std::uint32_t network;
};
static_assert(sizeof(GlobalHeader) == 24);

struct RecordHeader {
  std::uint32_t ts_sec;
  std::uint32_t ts_frac;
  std::uint32_t incl_len;
  std::uint32_t orig_len;
};
static_assert(sizeof(RecordHeader) == 16);

/// Hard cap on a record body; anything larger is corruption, not capture.
constexpr std::uint32_t kMaxRecordBytes = 256 * 1024;

/// Resync scans accept a candidate only if its timestamp lands within this
/// window of the last good record — random garbage almost never does.
constexpr std::uint32_t kResyncTsWindowSeconds = 366 * 86400;

RecordHeader load_header(const std::uint8_t* at, bool swapped) noexcept {
  RecordHeader rh{};
  std::memcpy(&rh, at, sizeof rh);
  if (swapped) {
    rh.ts_sec = bswap32(rh.ts_sec);
    rh.ts_frac = bswap32(rh.ts_frac);
    rh.incl_len = bswap32(rh.incl_len);
    rh.orig_len = bswap32(rh.orig_len);
  }
  return rh;
}

}  // namespace

Frame to_frame(const FrameView& view) {
  return Frame{view.timestamp, view.original_length,
               net::Bytes(view.data.begin(), view.data.end())};
}

std::optional<Reader> Reader::open(const std::string& path, Mode mode,
                                   std::size_t window_bytes) {
  ByteWindow window;
  if (!window.open(path, window_bytes)) return std::nullopt;
  return open(std::move(window), mode);
}

std::optional<Reader> Reader::open(ByteWindow window, Mode mode) {
  GlobalHeader gh{};
  if (!window.fill(sizeof gh)) return std::nullopt;
  std::memcpy(&gh, window.data(), sizeof gh);
  window.consume(sizeof gh);
  Reader reader;
  reader.window_ = std::move(window);
  reader.mode_ = mode;

  switch (gh.magic) {
    case kMagicMicros:
      break;
    case kMagicNanos:
      reader.nanos_ = true;
      break;
    case 0xd4c3b2a1:  // swapped micros
      reader.swapped_ = true;
      break;
    case 0x4d3cb2a1:  // swapped nanos
      reader.swapped_ = true;
      reader.nanos_ = true;
      break;
    default:
      return std::nullopt;
  }
  const std::uint16_t major =
      reader.swapped_ ? bswap16(gh.version_major) : gh.version_major;
  if (major != 2) return std::nullopt;
  reader.snaplen_ = reader.swapped_ ? bswap32(gh.snaplen) : gh.snaplen;
  reader.link_type_ = reader.swapped_ ? bswap32(gh.network) : gh.network;
  return reader;
}

bool Reader::plausible_header(std::uint32_t ts_sec, std::uint32_t ts_frac,
                              std::uint32_t incl_len, std::uint32_t orig_len,
                              bool have_ref,
                              std::uint32_t ref_sec) const noexcept {
  if (incl_len == 0 || incl_len > kMaxRecordBytes) return false;
  if (orig_len < incl_len || orig_len > kMaxRecordBytes) return false;
  if (ts_frac >= (nanos_ ? 1'000'000'000u : 1'000'000u)) return false;
  if (have_ref) {
    const std::uint32_t lo = ref_sec > kResyncTsWindowSeconds
                                 ? ref_sec - kResyncTsWindowSeconds
                                 : 0;
    if (ts_sec < lo || ts_sec > ref_sec + kResyncTsWindowSeconds)
      return false;
  }
  return true;
}

bool Reader::plausible_candidate(std::uint32_t ts_sec, std::uint32_t ts_frac,
                                 std::uint32_t incl_len,
                                 std::uint32_t orig_len) const noexcept {
  return plausible_header(ts_sec, ts_frac, incl_len, orig_len,
                          have_last_ts_, last_ts_sec_);
}

bool Reader::chain_ok(std::size_t at, std::uint32_t ts_sec,
                      std::uint32_t incl_len) {
  // A lone plausible header inside packet bytes is still possible (e.g.
  // small integers lining up as lengths); demand that the record it
  // describes (at `at` past the read position) ends exactly at EOF or at
  // another plausible header.
  const std::size_t body_end = at + sizeof(RecordHeader) + incl_len;
  if (!window_.fill(body_end + sizeof(RecordHeader))) {
    // The stream ends within the lookahead, so available() is all that is
    // left: only a perfect final record is credible, not a claimed body
    // that overruns EOF or one that leaves a partial trailing header.
    return window_.available() == body_end;
  }
  const RecordHeader next = load_header(window_.data() + body_end, swapped_);
  return plausible_header(next.ts_sec, next.ts_frac, next.incl_len,
                          next.orig_len, true, ts_sec);
}

bool Reader::try_resync() {
  // Scan forward, one byte at a time, for the next plausible record
  // header, starting one byte past the rejected one at the read position.
  //
  // A candidate is *verified* when its record is followed by EOF or by
  // another plausible header (chain_ok); that kills byte-alignment false
  // positives. But a genuine record whose successor is itself damaged
  // fails that check, so a plausible-but-unverified candidate is kept as a
  // fallback: it wins over a later verified candidate provided its claimed
  // body does not overlap it (an overlapping claim is the signature of a
  // false positive straddling the real header). Among unverified
  // candidates that overlap, the one whose timestamp is nearest the last
  // good record's is kept: a genuine header seen one byte early still
  // has plausible fields (a 100-byte length reads as 25600, a small
  // sub-second field stays under 10^6), and only its timestamp, 256 times
  // too large, gives it away.
  //
  // Until a fallback is held the read position follows the scan, so a
  // garbage run of any length streams through the window without growing
  // it. Once one is held the position stays on it, and the scan stops at
  // its claimed end: from there on the rule above picks the fallback
  // whatever follows. That bounds the lookahead to 2 × (16 +
  // kMaxRecordBytes) + 16 bytes past the fallback.
  //
  // Damage before the first good record leaves no reference timestamp, so
  // every gap reads 0 and a header seen one byte early (a 60-byte length
  // reads as 15360) would keep the fallback over the genuine record that
  // starts inside it. The unverified candidates met behind the fallback
  // are remembered instead, and the first verified record stands in for
  // the reference: the first of them that ends before it and lies within
  // the timestamp window of it is taken.
  const std::uint64_t record_start = window_.offset();
  const auto accept = [&](std::size_t at) {
    window_.consume(at);
    corruption_.bytes_skipped += window_.offset() - record_start;
    ++corruption_.resyncs;
    return true;
  };
  const auto gap = [](std::uint32_t a, std::uint32_t b) {
    return a > b ? a - b : b - a;
  };
  struct Unverified {
    std::size_t at, end;
    std::uint32_t ts_sec;
  };
  std::vector<Unverified> behind;  // held only without a reference
  std::size_t at = 1;            // candidate, past the read position
  std::size_t fallback_end = 0;  // 0: no fallback (else at the position)
  std::uint32_t fallback_gap = 0;
  while (fallback_end == 0 || at < fallback_end) {
    if (fallback_end == 0) {
      window_.consume(at);
      at = 0;
    }
    if (!window_.fill(at + sizeof(RecordHeader))) break;  // EOF
    const RecordHeader cand = load_header(window_.data() + at, swapped_);
    if (plausible_candidate(cand.ts_sec, cand.ts_frac, cand.incl_len,
                            cand.orig_len)) {
      if (chain_ok(at, cand.ts_sec, cand.incl_len)) {
        for (const auto& u : behind)
          if (u.end <= at &&
              gap(u.ts_sec, cand.ts_sec) <= kResyncTsWindowSeconds)
            return accept(u.at);
        return accept(at);
      }
      // chain_ok filled past this body, or hit EOF: available() decides
      // whether the claimed body fits in what is left.
      const std::size_t body_end = at + sizeof(RecordHeader) + cand.incl_len;
      const std::uint32_t cand_gap =
          have_last_ts_ ? gap(cand.ts_sec, last_ts_sec_) : 0;
      if (body_end > window_.available()) {
        // The claimed body overruns the stream: not a fallback.
      } else if (fallback_end != 0 && !have_last_ts_) {
        behind.push_back({at, body_end, cand.ts_sec});
      } else if (fallback_end == 0 || cand_gap < fallback_gap) {
        window_.consume(at);  // the position moves onto the new fallback
        fallback_end = body_end - at;
        fallback_gap = cand_gap;
        at = 0;
      }
    }
    ++at;
  }
  if (fallback_end != 0) return accept(0);
  // Nothing recoverable remains: account the tail as skipped and stop.
  window_.consume(window_.available());
  corruption_.bytes_skipped += window_.offset() - record_start;
  ++corruption_.truncated_tail;
  return false;
}

void Reader::stream_ended(const char* truncation) {
  if (!window_.error().empty()) {
    error_ = window_.error();
  } else if (window_.available() == 0) {
    // Clean EOF at a record boundary.
  } else if (mode_ == Mode::kResync) {
    // The file ends inside this record: unrecoverable tail.
    corruption_.bytes_skipped += window_.available();
    ++corruption_.truncated_tail;
    window_.consume(window_.available());
  } else {
    error_ = truncation;
  }
}

std::optional<Frame> Reader::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return to_frame(*view);
}

// dnh-analyze: hot
std::optional<FrameView> Reader::next_view() {
  if (!error_.empty()) return std::nullopt;

  while (true) {
    if (!window_.fill(sizeof(RecordHeader))) {
      stream_ended("truncated record header");
      return std::nullopt;
    }
    const RecordHeader rh = load_header(window_.data(), swapped_);
    // Sanity bound: a record longer than any plausible snaplen means a
    // corrupt stream; never read gigabytes. Resync mode applies the full
    // candidate test so length/timestamp lies are caught here too.
    const bool bad_header =
        mode_ == Mode::kResync
            ? !plausible_candidate(rh.ts_sec, rh.ts_frac, rh.incl_len,
                                   rh.orig_len) &&
                  rh.incl_len != 0  // empty records are legal, if odd
            : rh.incl_len > kMaxRecordBytes;
    if (bad_header) {
      if (mode_ == Mode::kResync) {
        if (try_resync()) continue;
        return std::nullopt;
      }
      error_ = "implausible record length";
      return std::nullopt;
    }

    const std::size_t record = sizeof rh + rh.incl_len;
    if (!window_.fill(record)) {
      stream_ended("truncated record body");
      return std::nullopt;
    }
    const std::int64_t us =
        static_cast<std::int64_t>(rh.ts_sec) * 1'000'000 +
        (nanos_ ? rh.ts_frac / 1000 : rh.ts_frac);
    const FrameView frame{util::Timestamp::from_micros(us), rh.orig_len,
                          net::BytesView{window_.data() + sizeof rh,
                                         rh.incl_len}};
    window_.consume(record);
    have_last_ts_ = true;
    last_ts_sec_ = rh.ts_sec;
    ++frames_read_;
    return frame;
  }
}

std::optional<Writer> Writer::create(const std::string& path,
                                     std::uint32_t snaplen,
                                     std::uint32_t link_type) {
  std::FILE* raw = std::fopen(path.c_str(), "wb");
  if (!raw) return std::nullopt;
  Writer writer;
  writer.file_.reset(raw);

  const GlobalHeader gh{kMagicMicros, 2, 4, 0, 0, snaplen, link_type};
  if (std::fwrite(&gh, sizeof gh, 1, raw) != 1) return std::nullopt;
  return writer;
}

void Writer::write(const Frame& frame) {
  if (!file_) return;
  const std::int64_t us = frame.timestamp.micros_since_epoch();
  RecordHeader rh{};
  rh.ts_sec = static_cast<std::uint32_t>(us / 1'000'000);
  rh.ts_frac = static_cast<std::uint32_t>(us % 1'000'000);
  rh.incl_len = static_cast<std::uint32_t>(frame.data.size());
  rh.orig_len = frame.original_length != 0
                    ? frame.original_length
                    : static_cast<std::uint32_t>(frame.data.size());
  std::fwrite(&rh, sizeof rh, 1, file_.get());
  if (!frame.data.empty())
    std::fwrite(frame.data.data(), 1, frame.data.size(), file_.get());
  ++frames_written_;
}

void Writer::flush() {
  if (file_) std::fflush(file_.get());
}

}  // namespace dnh::pcap
