// Deterministic, seeded fault-injection engine for the capture->flowdb
// pipeline ("chaos ingestion").
//
// A sniffer that runs for months at an ISP vantage point sees every kind of
// damage: truncated records, header fields that lie, bit rot, DNS messages
// with compression-pointer cycles, reordered and duplicated TCP segments,
// clocks that step backwards, and captures with garbage spliced mid-file.
// This module manufactures all of those on demand — reproducibly, from an
// explicit seed — so tests and benches can prove the ingestion layers
// degrade gracefully instead of crashing or silently skewing analytics.
//
// Two levels of injection:
//  - FrameCorruptor wraps a frame stream (what Sniffer::on_frame consumes)
//    and damages individual frames in flight.
//  - corrupt_pcap_file rewrites a classic pcap savefile with mid-file
//    garbage runs, record-length lies, and tail truncation, producing the
//    input pcap::Reader's resync mode must recover from.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pcap/pcap.hpp"
#include "util/rng.hpp"

namespace dnh::faultinject {

/// Frame-level fault classes. Each models a concrete operational hazard.
enum class FaultKind : std::uint8_t {
  kTruncateFrame = 0,     ///< captured bytes cut short (snaplen/ring damage)
  kHeaderBitFlip,         ///< bit flips in the first 42 bytes (L2-L4 headers)
  kPayloadBitFlip,        ///< bit flips anywhere past the headers
  kIpLengthLie,           ///< IPv4 total-length field overwritten
  kUdpLengthLie,          ///< UDP length field overwritten
  kDnsCompressionLoop,    ///< self-referencing QNAME compression pointer
  kTimestampRegression,   ///< capture clock steps backwards
  kDropFrame,             ///< frame lost
  kDuplicateFrame,        ///< frame delivered twice
  kReorderFrame,          ///< frame swapped with its successor
};
inline constexpr std::size_t kFaultKindCount = 10;

/// Human-readable name for reports ("truncate", "hdr-bitflip", ...).
std::string_view fault_kind_name(FaultKind kind);

struct FaultConfig {
  std::uint64_t seed = 1;
  /// Per-frame probability of injecting one fault (0 disables everything).
  double fault_rate = 0.01;
  /// Relative weights per FaultKind, indexed by the enum value. Zero a
  /// slot to exclude that class from the mix.
  std::array<double, kFaultKindCount> weights{1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
};

struct FaultStats {
  std::array<std::uint64_t, kFaultKindCount> by_kind{};
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;

  std::uint64_t injected() const noexcept {
    std::uint64_t sum = 0;
    for (const auto n : by_kind) sum += n;
    return sum;
  }
  std::uint64_t count(FaultKind kind) const noexcept {
    return by_kind[static_cast<std::size_t>(kind)];
  }
};

/// Streams frames through a seeded corruption pipeline.
///
/// Deterministic: the same (config, input sequence) always yields the same
/// output sequence and stats, so chaos tests are exactly reproducible.
/// Feed every frame through feed(), then flush() once at end of stream to
/// release a frame held for reordering.
class FrameCorruptor {
 public:
  explicit FrameCorruptor(FaultConfig config);

  /// Consumes one clean frame and appends 0..2 output frames to `out`
  /// (0 = dropped/held for reorder, 2 = duplicate or reorder release).
  void feed(const pcap::Frame& frame, std::vector<pcap::Frame>& out);

  /// Releases any frame still held for reordering.
  void flush(std::vector<pcap::Frame>& out);

  const FaultStats& stats() const noexcept { return stats_; }

 private:
  /// Applies an in-place payload/timestamp fault; returns false when the
  /// frame does not qualify (e.g. DNS loop on a non-DNS frame) so the
  /// caller can fall back to a generic mutation.
  bool corrupt_in_place(pcap::Frame& frame, FaultKind kind);

  FaultConfig config_;
  util::Rng rng_;
  FaultStats stats_;
  std::optional<pcap::Frame> held_;  ///< reorder buffer (one frame deep)
  util::Timestamp last_ts_;
};

/// File-level corruption of a classic pcap savefile.
struct FileFaultConfig {
  std::uint64_t seed = 1;
  /// Per-record-boundary probability of splicing in a garbage run.
  double garbage_run_rate = 0.0;
  std::uint32_t garbage_min_bytes = 16;
  std::uint32_t garbage_max_bytes = 2048;
  /// Per-record probability of overwriting incl_len with an implausible
  /// value (the record header "lies" and the record body is lost).
  double length_lie_rate = 0.0;
  /// Chop the final record's body short (capture killed mid-write).
  bool truncate_tail = false;
};

struct FileFaultReport {
  std::uint64_t records_in = 0;      ///< records in the source file
  std::uint64_t records_intact = 0;  ///< copied with header+body unharmed
  std::uint64_t garbage_runs = 0;
  std::uint64_t garbage_bytes = 0;
  std::uint64_t length_lies = 0;
  /// Maximal runs of adjacent garbage runs and lying records (no intact
  /// record between them): the resync scans a reader needs to skip them.
  std::uint64_t fault_runs = 0;
  bool truncated_tail = false;

  /// Total discrete fault events injected (what resync stats should match).
  std::uint64_t faults() const noexcept {
    return garbage_runs + length_lies + (truncated_tail ? 1 : 0);
  }
};

/// Copies classic pcap `src` to `dst` injecting the configured file-level
/// faults. Deterministic for a given config. Returns nullopt when `src` is
/// missing, not a native-order classic pcap, or `dst` cannot be written.
std::optional<FileFaultReport> corrupt_pcap_file(const std::string& src,
                                                 const std::string& dst,
                                                 const FileFaultConfig& config);

/// Spill-directory corruption modes: the crash/rot hazards the recovery
/// path (docs/recovery.md) must degrade over instead of crashing on. Each
/// models a concrete failure: a write torn by SIGKILL/power loss, silent
/// media bit rot, and a manifest append cut mid-line.
enum class SpillFaultMode : std::uint8_t {
  kTornRecord = 0,    ///< chop the final segment record short (torn write)
  kBitFlip,           ///< flip one bit inside a framed record's payload
  kTruncateManifest,  ///< cut the manifest journal mid-line
  kGarbageAppend,     ///< append a garbage tail to the manifest
};
inline constexpr std::size_t kSpillFaultModeCount = 4;

/// Human-readable mode name ("torn-record", "bit-flip", ...).
std::string_view spill_fault_mode_name(SpillFaultMode mode);

struct SpillFaultConfig {
  std::uint64_t seed = 1;
  SpillFaultMode mode = SpillFaultMode::kBitFlip;
};

struct SpillFaultReport {
  std::string target;                 ///< file that was damaged
  std::uint64_t segment_records = 0;  ///< framed records found in target
  std::uint64_t bytes_removed = 0;    ///< truncation modes
  std::uint64_t bits_flipped = 0;     ///< kBitFlip
  std::uint64_t bytes_appended = 0;   ///< kGarbageAppend
};

/// Damages a spill directory (shard-*.dnhs segments + manifest.dnhm) in
/// place, deterministically for a given config. Returns nullopt when the
/// directory has nothing the chosen mode can damage (no segments with
/// records, or no manifest).
std::optional<SpillFaultReport> corrupt_spill_dir(
    const std::string& dir, const SpillFaultConfig& config);

/// Flow-export stream hazards: what a UDP export path between router and
/// collector actually does to datagrams. Each mode models one failure the
/// flowexport decoder must degrade over with typed stats, never a crash
/// (docs/flow-export.md).
enum class ExportFaultMode : std::uint8_t {
  kTruncateDatagram = 0,  ///< datagram cut short in flight (fragment loss)
  kReorderDatagrams,      ///< adjacent datagrams swapped (UDP reordering)
  kGarbageDatagram,       ///< whole payload replaced with noise (foreign UDP)
  kTemplateLoss,          ///< IPFIX template datagrams dropped entirely
};
inline constexpr std::size_t kExportFaultModeCount = 4;

/// Human-readable mode name ("truncate-datagram", "template-loss", ...).
std::string_view export_fault_mode_name(ExportFaultMode mode);

struct ExportFaultConfig {
  std::uint64_t seed = 1;
  ExportFaultMode mode = ExportFaultMode::kTruncateDatagram;
  /// Per-datagram probability of applying the mode.
  double rate = 0.1;
};

struct ExportFaultReport {
  std::uint64_t datagrams_in = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t truncated = 0;       ///< kTruncateDatagram victims
  std::uint64_t reorder_swaps = 0;   ///< kReorderDatagrams swaps applied
  std::uint64_t garbage_runs = 0;    ///< kGarbageDatagram victims
  std::uint64_t garbage_bytes = 0;
  std::uint64_t templates_dropped = 0;  ///< kTemplateLoss victims

  std::uint64_t faults() const noexcept {
    return truncated + reorder_swaps + garbage_runs + templates_dropped;
  }
};

/// Copies the DNHX export stream `src` to `dst` applying the configured
/// mode. Deterministic for a given config. Returns nullopt when `src` is
/// missing or not a DNHX stream, or `dst` cannot be written. kTemplateLoss
/// only drops datagrams that carry an IPFIX template set; over a NetFlow
/// v5 stream it is a faithful no-op (v5 has no templates to lose).
std::optional<ExportFaultReport> corrupt_export_stream(
    const std::string& src, const std::string& dst,
    const ExportFaultConfig& config);

/// Injected pipeline stall: the hazard class the watchdog and the flight
/// recorder's stall forensics exist for (a worker thread wedged on a lock,
/// a blocking syscall, or a livelock). `DNH_FAULT_STALL=<shard>` makes the
/// named shard's worker park forever at startup; the dispatcher then backs
/// up behind its full ring, group quiescence trips the watchdog, and the
/// stall dump must show every OTHER stage alive. Wired by dnhunter through
/// PipelineConfig::worker_start_hook — the injection is opt-in per
/// process, never compiled into the pipeline itself.
struct StallPlan {
  std::size_t shard = 0;  ///< worker to park
};

/// Parses DNH_FAULT_STALL from the environment. nullopt when unset or
/// unparseable (injection disabled).
std::optional<StallPlan> stall_plan_from_env();

/// Parks the calling thread forever (uninterruptible sleep loop). Never
/// returns; the process ends via the watchdog's exit path or a signal.
[[noreturn]] void enter_injected_stall();

}  // namespace dnh::faultinject
