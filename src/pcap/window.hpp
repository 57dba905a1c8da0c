// The read window both capture readers parse from.
//
// One reused buffer over a read-only file descriptor, refilled by large
// read(2) calls with the unread tail moved to the front. Readers parse
// records in place and hand out views into it, so a frame costs no
// allocation and no copy before the consumer's own. Offsets are tracked
// here rather than asked of the kernel, which is what makes pipes and
// regular files the same case: nothing ever seeks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dnh::pcap {

/// Default window size. One refill covers thousands of frames, and the
/// largest lookahead either reader needs (classic resync:
/// 2 × (16 + 256 KiB) + 16 bytes) fits without growing it.
inline constexpr std::size_t kReadWindowBytes = std::size_t{1} << 20;

class ByteWindow {
 public:
  ByteWindow() = default;
  ByteWindow(ByteWindow&& other) noexcept;
  ByteWindow& operator=(ByteWindow&& other) noexcept;
  ByteWindow(const ByteWindow&) = delete;
  ByteWindow& operator=(const ByteWindow&) = delete;
  ~ByteWindow();

  /// Opens `path` read-only (a regular file, a FIFO, a character
  /// device...) with a window of `capacity` bytes; false if it cannot be
  /// opened.
  bool open(const std::string& path, std::size_t capacity = kReadWindowBytes);

  /// Makes at least `n` unread bytes available at data(). A refill keeps
  /// the unread bytes, moved to the front, and reads until the window is
  /// full (a regular file) or holds `n` bytes (a pipe returns what has
  /// arrived); a request larger than the window grows it. False when the
  /// stream ends first: available() then holds everything that was left.
  bool fill(std::size_t n) {
    return end_ - begin_ >= n || refill(n);
  }

  /// The unread bytes. Valid until the next fill().
  const std::uint8_t* data() const noexcept { return buf_.data() + begin_; }
  std::size_t available() const noexcept { return end_ - begin_; }

  /// Marks `n <= available()` bytes read.
  void consume(std::size_t n) noexcept {
    begin_ += n;
    offset_ += n;
  }

  /// Stream offset of data()[0].
  std::uint64_t offset() const noexcept { return offset_; }

  /// Non-empty once a read(2) failed; the stream then counts as ended.
  const std::string& error() const noexcept { return error_; }

 private:
  bool refill(std::size_t n);

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  ///< first unread byte in buf_
  std::size_t end_ = 0;    ///< one past the last byte read into buf_
  std::uint64_t offset_ = 0;
  bool eof_ = false;
  std::string error_;
};

}  // namespace dnh::pcap
