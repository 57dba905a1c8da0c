#include "pipeline/spill.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "core/flowdb_io.hpp"
#include "obs/flight.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace dnh::pipeline {
namespace {

constexpr char kMagic[4] = {'D', 'N', 'H', 'S'};
constexpr std::size_t kFrameHeaderBytes = 12;  // magic + len + crc
constexpr std::string_view kManifestName = "manifest.dnhm";
constexpr std::string_view kWindowMeta = "#dnhunter-window v1";
constexpr std::string_view kDnsHeader = "#dnhunter-dns v1";

std::string segment_name(std::uint32_t shard) {
  return "shard-" + std::to_string(shard) + ".dnhs";
}

std::string join_path(const std::string& dir, std::string_view name) {
  if (dir.empty()) return std::string{name};
  return dir.back() == '/' ? dir + std::string{name}
                           : dir + "/" + std::string{name};
}

// Durability helpers. All writes in this file go through full_write and
// are followed by fsync before anything references them; the dnh-lint
// spill-durability rule enforces that pairing.
bool full_write(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // dnh-lint: allow(spill-durability) this loop IS the durability
    // helper; every caller carries the ordering tag and the fsync.
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// A freshly created file is only durable once its directory entry is too;
// one directory fsync at open time covers every later append.
void fsync_dir(const std::string& dir) {
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  ::fsync(dfd);
  ::close(dfd);
}

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t get_u32le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

template <typename T>
bool parse_int(std::string_view field, T& out) {
  const auto result =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return result.ec == std::errc{} &&
         result.ptr == field.data() + field.size();
}

std::string crc_hex(std::string_view body) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", util::crc32_ieee(body));
  return std::string{buf};
}

/// Serializes one window into the framed-record payload text.
std::string encode_payload(std::uint64_t seq,
                           const core::AnalysisWindow& window) {
  std::ostringstream flows;
  flows << kWindowMeta << '\t' << seq << '\t'
        << window.start.micros_since_epoch() << '\t'
        << window.end.micros_since_epoch() << '\n';
  core::write_flow_tsv(window.db, flows);
  std::string out = std::move(flows).str();
  out.append(kDnsHeader) += '\n';
  char buf[24];
  for (const auto& event : window.dns_log) {
    out.append(buf, std::to_chars(buf, std::end(buf),
                                  event.time.micros_since_epoch()).ptr) += '\t';
    out.append(buf, event.client.format(buf)) += '\t';
    out.append(event.fqdn) += '\t';
    for (const auto& server : event.servers)
      out.append(buf, server.format(buf)) += ',';
    if (!event.servers.empty()) out.pop_back();  // the last ','
    out += '\n';
  }
  return out;
}

}  // namespace

SpillWriter::SpillWriter(const std::string& dir, std::uint32_t shard,
                         bool truncate)
    : shard_{shard}, segment_{segment_name(shard)} {
  const std::string path = join_path(dir, segment_);
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return;
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  end_offset_ = end < 0 ? 0 : static_cast<std::uint64_t>(end);
  fsync_dir(dir);
}

SpillWriter::~SpillWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<SpillExtent> SpillWriter::append(
    std::uint64_t seq, const core::AnalysisWindow& window) {
  if (fd_ < 0) return std::nullopt;
  const std::string payload = encode_payload(seq, window);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(kMagic, sizeof kMagic);
  put_u32le(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame, util::crc32_ieee(payload));
  frame += payload;

  // dnh-lint: spill-write(fsync) the record must be on disk before the
  // manifest line that references it is appended.
  if (!full_write(fd_, frame.data(), frame.size())) return std::nullopt;
  if (::fsync(fd_) != 0) return std::nullopt;

  const SpillExtent extent{end_offset_, frame.size()};
  end_offset_ += frame.size();
  bytes_written_ += frame.size();
  // The window is durable as of the fsync above — the point the causal
  // trace calls "spilled".
  obs::trace_event(obs::TraceStage::kSpill, obs::TraceKind::kWindowSpilled,
                   seq, shard_, frame.size());
  return extent;
}

ManifestJournal::ManifestJournal(const std::string& dir, std::uint32_t shards,
                                 std::uint64_t window_us, bool truncate) {
  const std::string path = join_path(dir, kManifestName);
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) return;
  fsync_dir(dir);
  // Every run appends its own header: a resumed run may use a different
  // shard count, and recovery interprets seal entries under the most
  // recent header above them (one "generation" per run).
  std::ostringstream header;
  header << "manifest\tv1\t" << shards << '\t' << window_us;
  if (!append_line(std::move(header).str())) {
    ::close(fd_);
    fd_ = -1;
  }
}

ManifestJournal::~ManifestJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool ManifestJournal::append_line(const std::string& body) {
  const std::string line = body + "\t" + crc_hex(body) + "\n";
  // dnh-lint: manifest-append(fsync) journal lines become visible to
  // recovery only after they are durable.
  if (!full_write(fd_, line.data(), line.size())) return false;
  return ::fsync(fd_) == 0;
}

bool ManifestJournal::append_seal(std::uint64_t seq, std::uint32_t shard,
                                  const std::string& segment,
                                  const SpillExtent& extent,
                                  std::uint64_t seal_seq) {
  if (fd_ < 0) return false;
  std::ostringstream body;
  body << "seal\t" << seq << '\t' << shard << '\t' << segment << '\t'
       << extent.offset << '\t' << extent.length << '\t' << seal_seq;
  return append_line(std::move(body).str());
}

namespace {

/// Seal entries of one run generation: shard count in effect plus the
/// surviving (highest seal_seq) entry per (seq, shard).
struct Generation {
  std::uint32_t shards = 0;
  // dnh-lint: allow(hot-path-bound) recovery-time scan state, one entry
  // per manifest seal line; never touched on the per-packet path.
  std::map<std::uint64_t, std::map<std::uint32_t, ManifestEntry>> seals;
};

}  // namespace

RecoveryPlan scan_spill_dir(const std::string& dir) {
  RecoveryPlan plan;
  std::ifstream in{join_path(dir, kManifestName)};
  if (!in) {
    plan.error = "no manifest journal in spill directory";
    return plan;
  }

  std::vector<Generation> generations;
  std::string line;
  while (std::getline(in, line)) {
    // A line is `<body>\t<crc32-hex>`; anything that fails the frame or
    // the CRC — including a partial final line from a torn append — ends
    // the trustworthy prefix of the journal.
    const auto tab = line.rfind('\t');
    if (tab == std::string::npos) break;
    const std::string_view body{line.data(), tab};
    const std::string_view crc{line.data() + tab + 1,
                               line.size() - tab - 1};
    if (crc.size() != 8 || crc_hex(body) != crc) break;

    const auto fields = util::split(body, '\t');
    if (fields[0] == "manifest") {
      std::uint32_t shards = 0;
      std::uint64_t window_us = 0;
      if (fields.size() != 4 || fields[1] != "v1" ||
          !parse_int(fields[2], shards) ||
          !parse_int(fields[3], window_us) || shards == 0) {
        break;
      }
      if (plan.window_us == 0) {
        plan.window_us = window_us;
      } else if (plan.window_us != window_us) {
        plan.error = "manifest generations disagree on window length";
        return plan;
      }
      generations.push_back(Generation{shards, {}});
    } else if (fields[0] == "seal") {
      if (generations.empty()) break;  // seal before any header: torn
      ManifestEntry entry;
      if (fields.size() != 7 || !parse_int(fields[1], entry.seq) ||
          !parse_int(fields[2], entry.shard) ||
          !parse_int(fields[4], entry.extent.offset) ||
          !parse_int(fields[5], entry.extent.length) ||
          !parse_int(fields[6], entry.seal_seq) ||
          entry.shard >= generations.back().shards) {
        break;
      }
      entry.segment = std::string{fields[3]};
      auto& slot = generations.back().seals[entry.seq][entry.shard];
      if (slot.segment.empty() || entry.seal_seq >= slot.seal_seq)
        slot = std::move(entry);
    } else {
      break;
    }
    ++plan.stats.manifest_lines;
  }
  // Count the torn tail: the line that broke the loop plus the rest.
  if (in || !line.empty()) {
    ++plan.stats.manifest_torn_lines;
    while (std::getline(in, line)) ++plan.stats.manifest_torn_lines;
  }

  if (generations.empty()) {
    plan.error = "manifest journal has no valid header";
    return plan;
  }

  // A window is recoverable when some generation sealed it on every one
  // of its shards; prefer the latest such generation (its bytes are the
  // freshest). The usable result is the longest complete prefix.
  for (std::uint64_t seq = 0;; ++seq) {
    const Generation* complete = nullptr;
    bool journaled = false;
    for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
      const auto found = it->seals.find(seq);
      if (found == it->seals.end()) continue;
      journaled = true;
      if (found->second.size() == it->shards) {
        complete = &*it;
        break;
      }
    }
    if (!complete) {
      if (journaled) ++plan.stats.windows_incomplete;
      break;
    }
    std::vector<ManifestEntry> parts;
    for (const auto& [shard, entry] : complete->seals.at(seq))
      parts.push_back(entry);
    plan.parts.push_back(std::move(parts));
  }
  plan.complete_prefix = plan.parts.size();
  return plan;
}

namespace {

/// Splits the validated payload into its three sections and rebuilds the
/// AnalysisWindow. Returns false on a malformed meta/section layout.
bool decode_payload(const std::string& payload, std::uint64_t expected_seq,
                    core::AnalysisWindow& window, RecoveryStats& stats) {
  const auto meta_end = payload.find('\n');
  if (meta_end == std::string::npos) return false;
  const auto meta =
      util::split(std::string_view{payload.data(), meta_end}, '\t');
  std::uint64_t seq = 0;
  std::int64_t start_us = 0, end_us = 0;
  if (meta.size() != 4 || meta[0] != kWindowMeta ||
      !parse_int(meta[1], seq) || !parse_int(meta[2], start_us) ||
      !parse_int(meta[3], end_us) || seq != expected_seq) {
    return false;
  }
  window.start = util::Timestamp::from_micros(start_us);
  window.end = util::Timestamp::from_micros(end_us);

  const std::string separator = "\n" + std::string{kDnsHeader} + "\n";
  const auto dns_at = payload.find(separator, meta_end);
  if (dns_at == std::string::npos) return false;

  // Flows section: a complete flows-TSV v1 document. The CRC already
  // vouched for the bytes, so row errors here indicate writer bugs, but
  // recovery still degrades (lenient read, typed tally) over crashing.
  std::istringstream flows_in{
      payload.substr(meta_end + 1, dns_at - meta_end - 1)};
  core::TsvRowErrors row_errors;
  auto db = core::read_flow_tsv(flows_in, core::TsvReadMode::kLenient,
                                row_errors);
  if (!db) return false;
  stats.flow_row_errors += row_errors.total();
  window.db = std::move(*db);

  // DNS section: time_us \t client \t fqdn \t comma-joined servers.
  const auto& table = window.db.domain_table();
  std::string_view rest{payload.data() + dns_at + separator.size(),
                        payload.size() - dns_at - separator.size()};
  while (!rest.empty()) {
    const auto eol = rest.find('\n');
    const std::string_view row =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    if (row.empty()) continue;
    const auto fields = util::split(row, '\t');
    core::DnsEvent event;
    std::int64_t time_us = 0;
    const auto client =
        fields.size() == 4 ? net::Ipv4Address::parse(fields[1])
                           : std::nullopt;
    if (fields.size() != 4 || !parse_int(fields[0], time_us) || !client) {
      ++stats.dns_row_errors;
      continue;
    }
    event.time = util::Timestamp::from_micros(time_us);
    event.client = *client;
    event.fqdn_id = table->intern(fields[2]);
    event.fqdn = table->view(event.fqdn_id);
    bool servers_ok = true;
    if (!fields[3].empty()) {
      for (const auto part : util::split(fields[3], ',')) {
        const auto server = net::Ipv4Address::parse(part);
        if (!server) {
          servers_ok = false;
          break;
        }
        event.servers.push_back(*server);
      }
    }
    if (!servers_ok) {
      ++stats.dns_row_errors;
      continue;
    }
    window.dns_log.push_back(std::move(event));
  }
  return true;
}

}  // namespace

// dnh-analyze: shard-local-ids
std::optional<core::AnalysisWindow> load_spilled_window(
    const std::string& dir, const ManifestEntry& entry,
    RecoveryStats& stats) {
  std::ifstream in{join_path(dir, entry.segment), std::ios::binary};
  if (!in) {
    ++stats.records_torn;
    return std::nullopt;
  }
  if (entry.extent.length < kFrameHeaderBytes) {
    ++stats.records_torn;
    return std::nullopt;
  }
  in.seekg(static_cast<std::streamoff>(entry.extent.offset));
  std::string frame(entry.extent.length, '\0');
  in.read(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (static_cast<std::uint64_t>(in.gcount()) != entry.extent.length) {
    ++stats.records_torn;  // extent runs past the segment: torn write
    return std::nullopt;
  }
  if (std::memcmp(frame.data(), kMagic, sizeof kMagic) != 0) {
    ++stats.records_bad_crc;
    return std::nullopt;
  }
  const std::uint32_t payload_len = get_u32le(frame.data() + 4);
  const std::uint32_t crc = get_u32le(frame.data() + 8);
  if (payload_len != entry.extent.length - kFrameHeaderBytes) {
    ++stats.records_bad_crc;
    return std::nullopt;
  }
  const std::string payload = frame.substr(kFrameHeaderBytes);
  if (util::crc32_ieee(payload) != crc) {
    ++stats.records_bad_crc;
    return std::nullopt;
  }

  core::AnalysisWindow window;
  if (!decode_payload(payload, entry.seq, window, stats)) {
    ++stats.records_bad_crc;
    return std::nullopt;
  }
  ++stats.windows_recovered;
  return window;
}

}  // namespace dnh::pipeline
