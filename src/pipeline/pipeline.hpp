// Sharded parallel ingestion: the scale-out layer between capture and
// analytics (docs/pipeline.md has the full architecture discussion).
//
//           ┌─ SPSC ring ─▶ shard 0 (private Sniffer) ─┬─▶ spill ─┐
//  capture ─┤─ SPSC ring ─▶ shard 1 (private Sniffer) ─┼─▶ spill ─┼▶ merge ─▶ sink
//  (dispatcher, client-IP hash)        ...             ┘ (fsync'd) ┘ (k-way)
//
// The dispatcher routes every frame to a shard by a hash of its CLIENT
// address (the FlowDNS recipe: DNS/flow correlation is keyed by client, so
// client-sharding gives each worker a private DNS resolver replica and a
// private flow table with zero cross-shard synchronization on the hot
// path). A connection-affinity table pins each 5-tuple to the shard its
// first packet chose, so both directions of a connection stay together
// even when per-packet orientation is ambiguous (ephemeral-to-ephemeral
// port pairs). Each worker canonically sorts the windows it seals, so the
// merge stage is an incremental k-way merge (pipeline::merge, the one
// routine that combines windows — recomputed, spill-recovered or already
// merged): a window is retired (merged and handed to the sink) as soon as
// every shard has sealed it, through a BOUNDED inbox — merge-stage memory
// scales with the window horizon, not the capture length. The merged
// FlowDatabase and DNS log are byte-identical to what the single-threaded
// Sniffer would have produced.
//
// Durability (docs/recovery.md): with a spill directory configured, every
// sealed per-shard window is CRC-framed into that shard's spill segment
// and fsync'd before the merge thread journals it in the manifest; a
// crashed run resumes with `resume = true`, which re-ingests the capture
// (cross-window resolver/flow state is not durable) but serves the
// manifest's complete window prefix from the spilled bytes, falling back
// to the recomputed window — with typed RecoveryStats — when a record is
// torn or corrupt. Output is byte-identical either way.
//
// Lifecycle supervision (supervisor.hpp): per-stage heartbeats feed an
// optional watchdog that turns a wedged pipeline into a typed
// StallDiagnostic, and a drain check lets SIGINT/SIGTERM end ingestion
// through the normal seal-spill-merge path.
//
// Determinism contract (see docs/pipeline.md for the full argument): on a
// clean, time-ordered capture whose working set fits the per-shard bounds
// (no Clist/DNS-log/TCP-buffer evictions), `shards = N` produces exactly
// the canonicalized single-threaded result for every N.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sniffer.hpp"
#include "flow/flow.hpp"
#include "flowexport/orient.hpp"
#include "flowexport/wire.hpp"
#include "net/bytes.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/spill.hpp"
#include "pipeline/supervisor.hpp"
#include "util/flat_hash.hpp"
#include "util/time.hpp"

namespace dnh::pcap {
struct CorruptionStats;
}

namespace dnh::pipeline {

/// What the dispatcher does when a shard's frame queue is full.
enum class BackpressurePolicy {
  /// Wait (spin, then yield, then sleep) until the shard drains a slot.
  /// Lossless; an overloaded shard stalls the capture feed. The pcap
  /// replay default.
  kBlock,
  /// Shed the frame and count it (ShardStats::frames_dropped, folded into
  /// DegradationStats::pipeline_frames_dropped). Bounded latency; the
  /// live-capture policy where stalling the feed would drop packets in
  /// the kernel anyway, invisibly.
  kDrop,
};

struct PipelineConfig {
  /// Worker shard count (the CLI's --jobs). 1 still runs the full
  /// dispatcher/worker/merge machinery with a single shard.
  std::size_t shards = 2;
  /// Per-shard frame-queue capacity in frames (rounded up to a power of
  /// two). Sized so a burst at line rate amortizes scheduling jitter
  /// without letting queues hide seconds of latency.
  std::size_t queue_capacity = 1 << 12;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Applied to every shard's private Sniffer. Each shard gets the FULL
  /// clist_size: entries are keyed by client and clients never share
  /// entries, so private full-size Clists reproduce single-threaded
  /// tagging exactly. A Clist allocates a slot per response its shard
  /// sees, so N shards together hold one slot per response until their
  /// Clists wrap (at most N × L after that).
  core::SnifferConfig sniffer;
  /// Window rotation length; zero (default) delivers one merged window
  /// covering the whole stream at finish(). Non-zero rotates the way a
  /// long-running deployment needs: boundaries aligned to multiples of the
  /// length, one merged window delivered per boundary crossed (empty ones
  /// included), with resolver and open-flow state carried across.
  util::Duration window{};
  /// Best-effort CPU pinning (the CLI's --pin-shards): shard worker i is
  /// affined to CPU (i+1) % hw_threads via sched_setaffinity, keeping each
  /// shard's flat tables warm in one core's cache instead of migrating.
  /// Silent no-op off Linux, when hw_threads == 1, or when the syscall is
  /// refused (restricted cpusets). Output is unaffected either way — this
  /// is purely a locality hint.
  bool pin_shards = false;
  /// Test seam: invoked on each worker thread before it consumes its
  /// first item. Tests block here to hold queues full and exercise the
  /// backpressure paths deterministically. Leave empty in production.
  std::function<void(std::size_t shard)> worker_start_hook;

  /// Spill directory for sealed-window durability; empty disables
  /// spilling. When set, each shard appends every window it seals to its
  /// own CRC-framed segment (fsync'd) and the merge thread journals it in
  /// the manifest before the window can be considered durable.
  std::string spill_dir;
  /// Resume from `spill_dir`: replay the manifest, serve the complete
  /// window prefix from spilled bytes (falling back to recomputation on
  /// damage), and append new seals after it. A fresh run (resume = false)
  /// truncates any previous spill state in the directory.
  bool resume = false;
  /// Bounded merge-inbox capacity in window messages; 0 picks
  /// max(2 * shards, 4). Workers sealing ahead of the merge thread block
  /// here — this is the streaming-memory bound.
  std::size_t merge_inbox_capacity = 0;
  /// Watchdog stall timeout; zero (default) disables the watchdog.
  util::Duration watchdog_timeout{};
  /// Invoked on the watchdog thread when a stall is declared (see
  /// WatchdogConfig::on_stall). The CLI prints the diagnostic and exits.
  std::function<void(const StallDiagnostic&)> on_stall;
  /// Polled by the dispatcher between frames: returning true stops
  /// ingestion (frames are ignored from then on) so finish() runs the
  /// ordinary seal-spill-merge path. Wire to pipeline::drain_requested
  /// for signal-driven graceful shutdown.
  std::function<bool()> drain_check;
};

/// Per-shard counters. Dispatcher-side fields (enqueued/dropped/blocked/
/// high-water) and worker-side fields (processed + sniffer) are sampled
/// together when the pipeline finishes.
struct ShardStats {
  std::uint64_t frames_enqueued = 0;   ///< frames accepted into the queue
  std::uint64_t frames_processed = 0;  ///< frames the worker consumed
  std::uint64_t frames_dropped = 0;    ///< shed at full queue (kDrop)
  std::uint64_t blocked_pushes = 0;    ///< pushes that had to wait (kBlock)
  std::size_t queue_high_water = 0;    ///< max occupancy seen at enqueue
  /// Max occupancy seen by the metrics snapshot sampler — depth on the
  /// snapshot interval, not per-push, so it reflects sustained backlog
  /// rather than single-frame ripples. Zero when no exporter sampled.
  std::size_t queue_peak_sampled = 0;
  core::SnifferStats sniffer;          ///< the shard's final sniffer stats
};

/// Snapshot of a finished pipeline run, for dimensioning studies: how did
/// load spread over shards, how deep did queues run, what did merging cost.
struct PipelineStats {
  std::vector<ShardStats> shards;
  std::uint64_t frames_dispatched = 0;  ///< frames offered to the pipeline
  std::uint64_t records_dispatched = 0; ///< flow-export records dispatched
  std::uint64_t frames_dropped = 0;     ///< total shed over all shards
  std::uint64_t windows_merged = 0;     ///< merged windows delivered
  util::Duration merge_total{};         ///< wall time spent in merges
  util::Duration merge_max{};           ///< slowest single merge
  /// Peak simultaneous window messages in the merge inbox (bounded by
  /// PipelineConfig::merge_inbox_capacity — the streaming-memory claim).
  std::size_t merge_inbox_peak = 0;
  std::uint64_t windows_spilled = 0;    ///< per-shard windows made durable
  std::uint64_t spill_bytes = 0;        ///< framed bytes appended to segments
  std::uint64_t spill_failures = 0;     ///< appends that failed (I/O error)
  /// Resume accounting: windows in the manifest's complete prefix served
  /// from spilled bytes vs. recomputed because their records were damaged.
  std::uint64_t windows_recovered = 0;
  std::uint64_t windows_recomputed = 0;
  RecoveryStats recovery;               ///< typed spill/manifest damage tally
  bool stalled = false;                 ///< the watchdog declared a stall
  /// Field-wise sum of every shard's SnifferStats (plus capture-container
  /// corruption seen by the dispatcher and pipeline drop accounting): the
  /// counters a single-threaded Sniffer over the same stream would report.
  core::SnifferStats merged;
};

/// Canonical total order used by the merge stage (and by the CLI so that
/// --jobs 1 and --jobs N byte-match): flows by (first packet, 5-tuple,
/// ...), DNS events by (time, client, fqdn, servers).
bool canonical_less(const core::TaggedFlow& a, const core::TaggedFlow& b);
bool canonical_less(const core::DnsEvent& a, const core::DnsEvent& b);

/// Rebuilds `db` with its flows in canonical order.
void canonicalize(core::FlowDatabase& db);
/// Sorts a DNS event log into canonical order.
void canonicalize(std::vector<core::DnsEvent>& log);
inline void canonicalize(core::AnalysisWindow& window) {
  canonicalize(window.db);
  canonicalize(window.dns_log);
}

/// Combines canonically ordered windows into one canonically ordered
/// window: a k-way merge of their flow runs and of their DNS-event runs,
/// never a re-sort. Parts may be a shard's sealed slices of one window,
/// windows recovered from spill or consecutive merged windows; each part's
/// labels may live in any DomainTable (the part keeps it alive), and each
/// distinct name is remapped once per part into the result's fresh table.
/// The result spans the earliest part start to the latest part end; no
/// parts yields an empty window.
core::AnalysisWindow merge(std::vector<core::AnalysisWindow> parts);

/// The multi-threaded streaming engine. Feed frames from ONE thread (the
/// caller becomes the dispatcher stage); windows arrive on the merge
/// thread via the sink; finish() flushes, joins, and freezes stats().
class ShardedAnalyzer {
 public:
  /// Receives each merged window, canonically sorted. Invoked on the
  /// merge thread, strictly in window order.
  using WindowSink = std::function<void(core::AnalysisWindow&&)>;

  ShardedAnalyzer(PipelineConfig config, WindowSink sink);
  ~ShardedAnalyzer();  ///< calls finish() if the caller did not

  ShardedAnalyzer(const ShardedAnalyzer&) = delete;
  ShardedAnalyzer& operator=(const ShardedAnalyzer&) = delete;

  /// Dispatches one link-layer frame (copied into a recycled ring slot).
  /// Frames must arrive in non-decreasing timestamp order for the
  /// determinism guarantee to hold (same contract as pcap replay).
  void on_frame(net::BytesView frame, util::Timestamp ts);

  /// Dispatches one decoded flow-export record (flow-export ingest; see
  /// docs/flow-export.md). The record is oriented here — one orienter must
  /// see every record of a pair, and dispatcher-side orientation keeps
  /// --jobs N identical to --jobs 1 — then routed to the shard owning its
  /// client address, the shard whose resolver replica holds that client's
  /// DNS history. `arrival` (the export datagram's collector-arrival time)
  /// is clamped monotone against the dispatch clock, so a reordered export
  /// stream cannot step the window clock backwards.
  void on_export_record(const flowexport::ExportRecord& record,
                        util::Timestamp arrival);

  /// Streams a capture file (classic pcap or pcapng) through the
  /// pipeline. Returns false if the file cannot be opened or aborts
  /// mid-stream (see error()); frames already dispatched are processed.
  bool process_pcap(const std::string& path);

  /// Flushes every shard, merges the final window, joins all threads.
  /// Idempotent; after it returns stats() is complete and stable.
  void finish();

  /// Complete only after finish(); live reads see partial dispatch-side
  /// counters but no worker/merge-side data.
  const PipelineStats& stats() const noexcept { return stats_; }

  const std::string& error() const noexcept { return error_; }
  std::size_t shard_count() const noexcept { return config_.shards; }
  /// The effective configuration (after shard-count fixups).
  const PipelineConfig& config() const noexcept { return config_; }

  /// Folds capture-container damage observed by an external reader (a
  /// FlowSource that owns its own pcap read) into the merged degradation
  /// stats, exactly as process_pcap does for the reader it owns. Call from
  /// the dispatcher thread, before finish().
  void note_capture_corruption(const pcap::CorruptionStats& corruption);

  /// The stateless dispatch heuristic, exposed for tests and dimensioning
  /// studies: which shard (0..shards-1) a frame would route to on first
  /// sight. Pure: the frame's headers are peeked at fixed offsets
  /// (packet::peek_ipv4_l4, no full decode), the client address is picked
  /// by flow::source_is_client (DNS frames key on the side not on port
  /// 53), hashed, and reduced mod `shards`. Frames the peek rejects —
  /// everything decode_frame would not decode as IPv4 TCP/UDP — route to
  /// shard 0.
  ///
  /// The live dispatcher wraps this in a connection-affinity table
  /// (route_frame): the first packet of a 5-tuple pins its shard, and
  /// every later packet of that connection — in either direction —
  /// follows it. Without the pin, connections whose SYN-based
  /// orientation disagrees with the port heuristic (e.g. both ports
  /// ephemeral with server > client) would have their two directions
  /// hash to different shards and fork into half-flows.
  static std::size_t shard_for(net::BytesView frame, std::size_t shards);

 private:
  struct Item;
  struct Worker;
  struct ShardWindow;

  // Thread-ownership map (checked by the -Wthread-safety build plus the
  // dnh-lint ring-role tags at the SPSC push/pop sites; see
  // docs/static-analysis.md):
  //  - dispatcher thread (the caller of on_frame/process_pcap/finish):
  //    route_frame/dispatch_frame/push_control/broadcast_rotation, all
  //    ring produce sides, and every `Dispatcher-owned` member below.
  //  - worker thread i: worker_loop(i), shard i's ring consume side, and
  //    Worker::sniffer/frames_processed until finish() joins it.
  //  - merge thread: merge_loop/retire_window and the merge-owned
  //    members; hands windows to the sink strictly in order.
  // Cross-thread state is either a lock-free channel (SpscRing), a
  // mutex-guarded inbox (MergeInbox, annotated), or atomics
  // (sampled_peaks_).
  std::size_t route_frame(net::BytesView frame, util::Timestamp ts);
  void dispatch_frame(net::BytesView frame, util::Timestamp ts);
  /// Drains shard's dispatcher-side staging buffer into its ring in one
  /// batched produce (dropping or blocking per the backpressure policy).
  void flush_stage(std::size_t shard);
  void push_control(std::size_t shard, Item&& item);
  void broadcast_rotation(util::Timestamp start, util::Timestamp end);
  /// The dispatch clock: starts the stream on its first timestamp (grid-
  /// aligning the first window), tracks the latest timestamp and
  /// broadcasts every window boundary `ts` crosses.
  void advance_clock(util::Timestamp ts);
  void worker_loop(std::size_t index);
  void merge_loop();
  /// Retires sequence `seq`: on resume, prefers the spilled bytes for the
  /// recovered prefix; otherwise merges the recomputed parts. Either way
  /// through pipeline::merge.
  core::AnalysisWindow retire_window(std::uint64_t seq,
                                     std::vector<ShardWindow>& parts);

  PipelineConfig config_;
  WindowSink sink_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Dispatcher-owned (the thread calling on_frame/process_pcap).
  struct DispatchCounters {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;
    std::uint64_t blocked = 0;
    std::size_t high_water = 0;
  };
  std::vector<DispatchCounters> dispatch_;
  // Connection-affinity routing table: direction-free 5-tuple -> pinned
  // shard, on the same flat open-addressing table as the flow table (one
  // try_emplace per routed frame). Entries expire on the flow table's
  // idle timeout (checked against the arriving packet, so expiry mirrors
  // the table's arrival-driven flow split) and are swept with erase_if on
  // its cadence to bound memory. Dispatcher-thread-only; no
  // synchronisation.
  struct Route {
    std::size_t shard = 0;
    util::Timestamp last;
  };
  // dnh-lint: bounded(sweep_interval_packets) idle entries expire against
  // the arriving packet and are swept on the flow table's cadence.
  util::FlatHash<flow::FlowKey, Route> routes_;
  /// Record orientation state (flow-export ingest). Dispatcher-thread-only.
  flowexport::RecordOrienter orienter_;
  std::uint64_t routed_packets_ = 0;
  std::uint64_t frames_dispatched_ = 0;
  std::uint64_t records_dispatched_ = 0;
  bool started_ = false;
  util::Timestamp window_start_;  ///< current boundary (windowed mode)
  util::Timestamp first_ts_;
  util::Timestamp last_ts_;
  std::uint64_t rotations_ = 0;
  bool draining_ = false;  ///< drain_check fired; frames ignored
  core::DegradationStats capture_degradation_;  ///< resync damage seen

  // Durability. Writers are indexed by shard and thread-confined to that
  // shard's worker after construction; the manifest is appended only by
  // the merge thread (after the worker's segment fsync, which the inbox
  // hand-off sequences before it). The recovery plan is scanned in the
  // constructor and read-only afterwards.
  std::vector<std::unique_ptr<SpillWriter>> spill_writers_;
  std::unique_ptr<ManifestJournal> manifest_;
  RecoveryPlan plan_;
  std::uint64_t resume_prefix_ = 0;  ///< windows served from spill

  // Merge channel (workers -> merge thread; per-window, off the hot path).
  struct MergeInbox;
  std::unique_ptr<MergeInbox> inbox_;
  std::thread merge_thread_;

  // Merge-thread-owned until finish() joins.
  std::uint64_t windows_merged_ = 0;
  util::Duration merge_total_{};
  util::Duration merge_max_{};
  std::uint64_t seal_seq_ = 0;          ///< manifest append ordinal
  std::uint64_t windows_recovered_ = 0;
  std::uint64_t windows_recomputed_ = 0;
  RecoveryStats recovery_stats_;

  // Lifecycle supervision. The board is fully populated in the
  // constructor before any thread starts; the watchdog (optional) is the
  // only reader and stops before stats are folded.
  obs::HeartbeatBoard heartbeats_;
  obs::HeartbeatBoard::StageId dispatch_hb_ = 0;
  std::vector<obs::HeartbeatBoard::StageId> worker_hb_;
  obs::HeartbeatBoard::StageId merge_hb_ = 0;
  std::unique_ptr<Watchdog> watchdog_;

  bool finished_ = false;
  PipelineStats stats_;
  std::string error_;

  // Observability (docs/observability.md). The queue-depth sampler runs
  // on the metrics snapshot thread and reads only the rings' atomic
  // cursors; it is unregistered (synchronously — see SamplerHandle) in
  // finish() before the sampled peaks are folded into stats_.
  obs::SampleGate dispatch_gate_{64};
  obs::Gauge routes_gauge_;
  obs::Gauge inbox_depth_gauge_;   ///< dnh_merge_inbox_depth
  obs::Gauge spill_bytes_gauge_;   ///< dnh_spill_bytes
  std::vector<obs::Gauge> depth_gauges_;  ///< dnh_shard_queue_depth{shard=i}
  std::unique_ptr<std::atomic<std::size_t>[]> sampled_peaks_;
  obs::Registry::SamplerHandle depth_sampler_;
};

}  // namespace dnh::pipeline
