// Sealed-window spill and the manifest journal: the durability layer under
// the streaming merge (docs/recovery.md).
//
// Every window a shard seals is appended to that shard's spill segment as
// one CRC32-framed record *and fsync'd* before a manifest-journal line
// announcing it is appended (and itself fsync'd). The ordering is the
// whole crash-safety argument: a manifest line never points at bytes that
// might not have reached the disk, so recovery can trust any line whose
// own CRC verifies and treat everything after the first bad line as a
// torn tail.
//
// On-disk layout under the spill directory:
//   manifest.dnhm   append-only text journal, one CRC-suffixed line each
//   shard-<N>.dnhs  per-shard segment of framed window records
//
// Segment record framing (little-endian):
//   "DNHS" | u32 payload_len | u32 crc32(payload) | payload
// The payload is text: a window meta line, the window's flows as the
// flowdb_io flows-TSV v1 document, then a "#dnhunter-dns v1" section with
// one row per retained DnsEvent.
//
// Manifest lines are `<body>\t<crc32-hex-of-body>`:
//   header  manifest\tv1\t<shards>\t<window_us>
//   entry   seal\t<seq>\t<shard>\t<segment>\t<offset>\t<length>\t<seal_seq>
// A resumed run appends a fresh header (its shard count may differ), so a
// journal holds one header per run generation; a window is recoverable
// when some generation sealed it on every one of that generation's shards.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sniffer.hpp"

namespace dnh::pipeline {

/// Where one framed window record landed inside a segment.
struct SpillExtent {
  std::uint64_t offset = 0;  ///< byte offset of the "DNHS" magic
  std::uint64_t length = 0;  ///< framed length, header included
};

/// Per-shard segment writer. Opens (creating or appending) the shard's
/// segment file; every append() is fully written and fsync'd before it
/// returns, so a returned extent is safe to journal.
class SpillWriter {
 public:
  /// `truncate` discards any previous segment content (fresh runs);
  /// resumed runs append, leaving dead torn bytes addressed around via
  /// manifest offsets.
  SpillWriter(const std::string& dir, std::uint32_t shard, bool truncate);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }

  /// Appends one sealed window as a framed record and fsyncs the segment.
  /// Returns the record's extent, or nullopt on any I/O failure.
  std::optional<SpillExtent> append(std::uint64_t seq,
                                    const core::AnalysisWindow& window);

  /// Segment file name relative to the spill dir ("shard-3.dnhs").
  const std::string& segment() const noexcept { return segment_; }

  /// Total framed bytes appended by this writer (the dnh_spill_bytes
  /// contribution of this shard).
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  int fd_ = -1;
  std::uint32_t shard_ = 0;
  std::string segment_;
  std::uint64_t end_offset_ = 0;  ///< current end of the segment file
  std::uint64_t bytes_written_ = 0;
};

/// Append-only journal of sealed windows, shared by all shards (appends
/// are internally unsynchronized — the pipeline serializes them on the
/// merge thread). Each append is CRC-suffixed and fsync'd; callers must
/// fsync the segment first (SpillWriter::append does).
class ManifestJournal {
 public:
  /// Opens the journal, truncating first when `truncate` (fresh run), and
  /// appends this run's header line.
  ManifestJournal(const std::string& dir, std::uint32_t shards,
                  std::uint64_t window_us, bool truncate);
  ~ManifestJournal();

  ManifestJournal(const ManifestJournal&) = delete;
  ManifestJournal& operator=(const ManifestJournal&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }

  /// Journals one sealed window part. `seal_seq` is a per-run monotone
  /// counter used for last-write-wins when a crashed run left duplicates.
  bool append_seal(std::uint64_t seq, std::uint32_t shard,
                   const std::string& segment, const SpillExtent& extent,
                   std::uint64_t seal_seq);

 private:
  bool append_line(const std::string& body);

  int fd_ = -1;
};

/// One validated manifest seal entry.
struct ManifestEntry {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  std::string segment;
  SpillExtent extent;
  std::uint64_t seal_seq = 0;
};

/// Typed accounting of everything recovery tolerated instead of crashing
/// on. Surfaced by `dnhunter --resume` and asserted by the chaos tests.
struct RecoveryStats {
  std::uint64_t manifest_lines = 0;        ///< well-formed lines accepted
  std::uint64_t manifest_torn_lines = 0;   ///< lines dropped at the tail
  std::uint64_t windows_recovered = 0;     ///< complete windows loaded
  std::uint64_t windows_incomplete = 0;    ///< journaled but not by all shards
  std::uint64_t records_bad_crc = 0;       ///< segment records failing CRC
  std::uint64_t records_torn = 0;          ///< extents past the segment end
  std::uint64_t flow_row_errors = 0;       ///< flows-TSV rows dropped on load
  std::uint64_t dns_row_errors = 0;        ///< DNS rows dropped on load

  std::uint64_t total_anomalies() const noexcept {
    return manifest_torn_lines + windows_incomplete + records_bad_crc +
           records_torn + flow_row_errors + dns_row_errors;
  }
};

/// The manifest's answer to "what can this directory give back?": the
/// longest window prefix [0, complete_prefix) for which every window was
/// sealed by every shard of some run generation, plus the entries to load
/// each of those windows. Segment records are NOT validated here — a load
/// failure later shrinks the usable prefix (pipeline.cpp).
struct RecoveryPlan {
  std::uint64_t window_us = 0;       ///< window length all generations share
  std::uint64_t complete_prefix = 0;
  /// parts[seq] = one entry per shard of the generation that completed
  /// `seq`, shard-ascending; sized complete_prefix.
  std::vector<std::vector<ManifestEntry>> parts;
  RecoveryStats stats;
  /// Non-empty when the directory is unusable (no/invalid manifest
  /// header, window-length mismatch between generations).
  std::string error;

  bool usable() const noexcept { return error.empty(); }
};

/// Replays the manifest journal: validates line CRCs, stops at the first
/// torn line, resolves duplicate seals (highest seal_seq wins), and
/// computes the complete window prefix.
RecoveryPlan scan_spill_dir(const std::string& dir);

/// Loads one spilled window record, verifying frame magic, length, and
/// CRC. Returns nullopt on any damage (tallied into `stats`); the caller
/// treats that window — and all windows after it — as unrecoverable.
std::optional<core::AnalysisWindow> load_spilled_window(
    const std::string& dir, const ManifestEntry& entry, RecoveryStats& stats);

}  // namespace dnh::pipeline
