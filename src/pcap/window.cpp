#include "pcap/window.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dnh::pcap {

ByteWindow::ByteWindow(ByteWindow&& other) noexcept
    : fd_{std::exchange(other.fd_, -1)},
      buf_{std::move(other.buf_)},
      begin_{other.begin_},
      end_{other.end_},
      offset_{other.offset_},
      eof_{other.eof_},
      error_{std::move(other.error_)} {}

ByteWindow& ByteWindow::operator=(ByteWindow&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
    begin_ = other.begin_;
    end_ = other.end_;
    offset_ = other.offset_;
    eof_ = other.eof_;
    error_ = std::move(other.error_);
  }
  return *this;
}

ByteWindow::~ByteWindow() {
  if (fd_ >= 0) ::close(fd_);
}

bool ByteWindow::open(const std::string& path, std::size_t capacity) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  *this = ByteWindow{};
  fd_ = fd;
  buf_.resize(capacity > 0 ? capacity : 1);
  return true;
}

bool ByteWindow::refill(std::size_t n) {
  if (eof_ || fd_ < 0) return false;
  const std::size_t unread = end_ - begin_;
  if (n > buf_.size()) buf_.resize(n);  // one record outgrew the window
  if (begin_ != 0) {
    std::memmove(buf_.data(), buf_.data() + begin_, unread);
    begin_ = 0;
    end_ = unread;
  }
  while (end_ < n) {
    const ssize_t got = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      error_ = "read error: ";
      error_ += std::strerror(errno);
    }
    eof_ = true;
    return false;
  }
  return true;
}

}  // namespace dnh::pcap
