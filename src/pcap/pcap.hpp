// Classic libpcap savefile codec (no external pcap dependency).
//
// Supports microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) magic in
// both byte orders, link type EN10MB. This is the capture substrate: the
// trace generator writes real .pcap files and the sniffer re-reads them,
// exercising the identical code path a live deployment would.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "net/bytes.hpp"
#include "pcap/window.hpp"
#include "util/time.hpp"

namespace dnh::pcap {

/// Link-layer header type; we only emit/consume Ethernet.
inline constexpr std::uint32_t kLinktypeEthernet = 1;

/// One captured frame: capture timestamp plus the raw link-layer bytes.
struct Frame {
  util::Timestamp timestamp;
  std::uint32_t original_length = 0;  ///< wire length (>= data.size())
  net::Bytes data;                    ///< captured bytes
};

/// A frame as the readers yield it: the captured bytes are a view into
/// the reader's window, valid until the reader's next call (for a sink,
/// for the duration of the sink call).
struct FrameView {
  util::Timestamp timestamp;
  std::uint32_t original_length = 0;  ///< wire length (>= data.size())
  net::BytesView data;                ///< captured bytes
};

/// An owned copy of `view`.
Frame to_frame(const FrameView& view);

/// Damage encountered (and survived) while reading a corrupt savefile in
/// resync mode. `events()` is the number of discrete corruption incidents,
/// comparable against a fault injector's report.
struct CorruptionStats {
  std::uint64_t resyncs = 0;         ///< scans that found a next record
  std::uint64_t bytes_skipped = 0;   ///< bytes discarded by scans
  std::uint64_t truncated_tail = 0;  ///< unrecoverable truncated file tail

  std::uint64_t events() const noexcept { return resyncs + truncated_tail; }
};

/// Streaming reader for a pcap savefile.
///
/// Fails fast on a bad global header. Per-record behaviour depends on the
/// mode:
///  - kStrict (default): any malformed record terminates the stream with a
///    message in `error()` — EOF and corruption stay distinguishable.
///  - kResync: a malformed record header triggers a forward scan for the
///    next plausible record header (bounded lengths, sane sub-second
///    field, timestamp near the last good record). Damage is tallied in
///    `corruption()` and reading continues; `error()` stays empty. This is
///    the degraded mode a months-long deployment runs in: one bad ring
///    page must not kill the capture.
class Reader {
 public:
  enum class Mode { kStrict, kResync };

  /// Opens `path`; returns nullopt if it cannot be opened or the global
  /// header is not a recognizable pcap header. `window_bytes` sizes the
  /// read window (see window.hpp); tests pass a few KiB to put window
  /// edges where they choose.
  static std::optional<Reader> open(const std::string& path,
                                    Mode mode = Mode::kStrict,
                                    std::size_t window_bytes =
                                        kReadWindowBytes);

  /// As above, over an opened window positioned at the global header.
  static std::optional<Reader> open(ByteWindow window, Mode mode);

  /// Reads the next frame as a view into the window, valid until the next
  /// call; nullopt at end of stream (or on error).
  std::optional<FrameView> next_view();

  /// next_view() as an owned copy.
  std::optional<Frame> next();

  /// Non-empty if the stream ended due to corruption rather than EOF
  /// (strict mode only; resync mode reports through `corruption()`), or
  /// because reading the file failed.
  const std::string& error() const noexcept { return error_; }

  /// Damage survived so far (resync mode; all-zero in strict mode).
  const CorruptionStats& corruption() const noexcept { return corruption_; }

  std::uint32_t link_type() const noexcept { return link_type_; }
  std::uint64_t frames_read() const noexcept { return frames_read_; }

 private:
  Reader() = default;

  bool plausible_header(std::uint32_t ts_sec, std::uint32_t ts_frac,
                        std::uint32_t incl_len, std::uint32_t orig_len,
                        bool have_ref, std::uint32_t ref_sec) const noexcept;
  bool plausible_candidate(std::uint32_t ts_sec, std::uint32_t ts_frac,
                           std::uint32_t incl_len,
                           std::uint32_t orig_len) const noexcept;
  bool chain_ok(std::size_t at, std::uint32_t ts_sec, std::uint32_t incl_len);
  bool try_resync();
  /// The stream ended where a record needed more bytes: a clean EOF at a
  /// record boundary, a read error, or a truncated tail (an error in
  /// strict mode, tallied in resync mode).
  void stream_ended(const char* truncation);

  ByteWindow window_;
  Mode mode_ = Mode::kStrict;
  bool swapped_ = false;
  bool nanos_ = false;
  std::uint32_t snaplen_ = 0;
  std::uint32_t link_type_ = 0;
  std::uint64_t frames_read_ = 0;
  bool have_last_ts_ = false;
  std::uint32_t last_ts_sec_ = 0;
  CorruptionStats corruption_;
  std::string error_;
};

/// Streaming writer producing a microsecond-magic, native-order pcap file.
class Writer {
 public:
  /// Creates/truncates `path` and writes the global header; nullopt if the
  /// file cannot be created.
  static std::optional<Writer> create(const std::string& path,
                                      std::uint32_t snaplen = 65535,
                                      std::uint32_t link_type = kLinktypeEthernet);

  /// Appends one frame. Frames must be passed in non-decreasing timestamp
  /// order by convention (not enforced; readers tolerate disorder).
  void write(const Frame& frame);

  std::uint64_t frames_written() const noexcept { return frames_written_; }

  /// Flushes buffered output (also happens on destruction).
  void flush();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f) std::fclose(f);
    }
  };
  Writer() = default;

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::uint64_t frames_written_ = 0;
};

}  // namespace dnh::pcap
