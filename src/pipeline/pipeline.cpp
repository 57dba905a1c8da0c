#include "pipeline/pipeline.hpp"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <thread>
#include <array>
#include <chrono>
#include <deque>
#include <filesystem>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "dns/message.hpp"
#include "flow/table.hpp"
#include "obs/flight.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/spsc_ring.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace dnh::pipeline {

namespace {

// Ring batch sizes: how many frames move per acquire/release pair on the
// produce (dispatcher staging) and consume (worker drain) sides. Small
// enough that a batch adds negligible latency at line rate, large enough
// to amortize the cross-core cache-line bounce.
constexpr std::size_t kDispatchBatch = 8;
constexpr std::size_t kConsumeBatch = 8;

// Fibonacci-based avalanche (splitmix64 finalizer): adjacent client
// addresses — the common case in access networks, where one /24 holds the
// whole customer base — must not land on the same shard.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Producer-side wait ladder: burn a few iterations (the consumer is
// usually a cache miss away), then yield, then sleep so a stalled peer on
// an oversubscribed machine does not starve it of the CPU it needs to
// make the very progress we are waiting for.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 16) return;
  if (spins < 64) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

// Best-effort shard pinning (PipelineConfig::pin_shards): affine the
// calling worker to one CPU so its flat hash tables and Clist stay warm
// in a single core's cache. CPU 0 is left to the dispatcher/merge/OS;
// shard i takes (i+1) mod hw_threads. Every failure mode — non-Linux,
// single-core box, cpuset-restricted container — degrades to a silent
// no-op: pinning is a locality hint and must never affect correctness.
void pin_to_cpu(std::size_t shard) {
#ifdef __linux__
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>((shard + 1) % hw), &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
#else
  (void)shard;
#endif
}

void accumulate(core::DegradationStats& into,
                const core::DegradationStats& from) {
  into.frames_truncated += from.frames_truncated;
  into.bad_ip_headers += from.bad_ip_headers;
  into.bad_l4_headers += from.bad_l4_headers;
  into.unsupported_frames += from.unsupported_frames;
  into.timestamp_regressions += from.timestamp_regressions;
  into.dns_truncated += from.dns_truncated;
  into.dns_pointer_loops += from.dns_pointer_loops;
  into.dns_pointer_out_of_range += from.dns_pointer_out_of_range;
  into.dns_bad_names += from.dns_bad_names;
  into.dns_count_lies += from.dns_count_lies;
  into.tcp_dns_overflows += from.tcp_dns_overflows;
  into.tcp_dns_buffer_evictions += from.tcp_dns_buffer_evictions;
  into.dns_log_evictions += from.dns_log_evictions;
  into.capture_resyncs += from.capture_resyncs;
  into.capture_bytes_skipped += from.capture_bytes_skipped;
  into.capture_truncated_tails += from.capture_truncated_tails;
  into.pipeline_frames_dropped += from.pipeline_frames_dropped;
}

void accumulate(core::SnifferStats& into, const core::SnifferStats& from) {
  into.frames += from.frames;
  into.decode_failures += from.decode_failures;
  into.dns_responses += from.dns_responses;
  into.dns_parse_failures += from.dns_parse_failures;
  into.dns_queries += from.dns_queries;
  into.dns_tcp_messages += from.dns_tcp_messages;
  into.flows_exported += from.flows_exported;
  into.flows_tagged_at_start += from.flows_tagged_at_start;
  into.flows_tagged_at_export += from.flows_tagged_at_export;
  into.export_records += from.export_records;
  accumulate(into.degradation, from.degradation);
}

util::Duration steady_elapsed(std::chrono::steady_clock::time_point from,
                              std::chrono::steady_clock::time_point to) {
  return util::Duration::micros(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

// Pipeline-stage instrumentation (docs/observability.md). Counters are
// process-wide sums over every ShardedAnalyzer instance; per-shard depth
// gauges live on the instance because they carry {shard=N} labels.
struct PipelineMetrics {
  obs::Registry& r = obs::Registry::global();
  obs::Counter frames_dispatched =
      r.counter("dnh_pipeline_frames_dispatched_total");
  obs::Counter records_dispatched =
      r.counter("dnh_pipeline_records_dispatched_total");
  obs::Counter frames_dropped = r.counter("dnh_pipeline_frames_dropped_total");
  obs::Counter blocked_pushes = r.counter("dnh_pipeline_blocked_pushes_total");
  obs::Counter windows_merged = r.counter("dnh_pipeline_windows_merged_total");
  obs::Counter spill_records = r.counter("dnh_spill_records_total");
  obs::Counter stalls = r.counter("dnh_pipeline_stalls_total");
  obs::Histogram dispatch_ns = r.histogram("dnh_stage_dispatch_ns");
  obs::Histogram sniff_ns = r.histogram("dnh_stage_shard_sniff_ns");
  obs::Histogram merge_ns = r.histogram("dnh_stage_merge_ns");
  obs::Histogram depth_samples =
      r.histogram("dnh_shard_queue_depth_samples");
};

PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

std::string shard_label(std::string_view base, std::size_t shard) {
  return std::string{base} + "{shard=" + std::to_string(shard) + "}";
}

}  // namespace

bool canonical_less(const core::TaggedFlow& a, const core::TaggedFlow& b) {
  return std::tie(a.first_packet, a.key, a.last_packet, a.packets_c2s,
                  a.packets_s2c, a.bytes_c2s, a.bytes_s2c, a.protocol,
                  a.fqdn, a.dns_response_time, a.tagged_at_start,
                  a.dpi_label, a.cert_cn, a.cert_san, a.has_certificate) <
         std::tie(b.first_packet, b.key, b.last_packet, b.packets_c2s,
                  b.packets_s2c, b.bytes_c2s, b.bytes_s2c, b.protocol,
                  b.fqdn, b.dns_response_time, b.tagged_at_start,
                  b.dpi_label, b.cert_cn, b.cert_san, b.has_certificate);
}

bool canonical_less(const core::DnsEvent& a, const core::DnsEvent& b) {
  return std::tie(a.time, a.client, a.fqdn, a.servers) <
         std::tie(b.time, b.client, b.fqdn, b.servers);
}

void canonicalize(core::FlowDatabase& db) {
  std::vector<core::TaggedFlow> flows = db.take_flows();
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return canonical_less(a, b); });
  db.reserve(flows.size());
  for (auto& flow : flows) db.append(std::move(flow));
}

void canonicalize(std::vector<core::DnsEvent>& log) {
  std::sort(log.begin(), log.end(),
            [](const auto& a, const auto& b) { return canonical_less(a, b); });
}

namespace {

/// Hands every element of the canonically sorted `runs`, moved out, to
/// `emit(run, row)` in canonical order. Index-heap pattern: the heap holds
/// run indices keyed by each run's current head; an index is popped, its
/// head consumed and the index re-pushed, so a key only changes while its
/// index is out of the heap. Equal keys under canonical_less are
/// value-identical rows, so pop order among ties cannot change a single
/// output byte — which is why merging sorted runs reproduces the global
/// canonical sort exactly. Only merge() calls this: it owns the id remap.
// dnh-analyze: merge-boundary
template <typename Row, typename Emit>
void kway_merge(std::vector<std::vector<Row>>& runs, Emit emit) {
  std::vector<std::size_t> pos(runs.size(), 0);
  const auto greater = [&](std::size_t x, std::size_t y) {
    return canonical_less(runs[y][pos[y]], runs[x][pos[x]]);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      decltype(greater)>
      heap{greater};
  for (std::size_t i = 0; i < runs.size(); ++i)
    if (!runs[i].empty()) heap.push(i);
  while (!heap.empty()) {
    const std::size_t i = heap.top();
    heap.pop();
    emit(i, std::move(runs[i][pos[i]]));
    if (++pos[i] < runs[i].size()) heap.push(i);
  }
}

}  // namespace

// dnh-analyze: id-remap(each part's DomainIds are remapped into the output
// window's fresh table, one intern per distinct name per part)
core::AnalysisWindow merge(std::vector<core::AnalysisWindow> parts) {
  core::AnalysisWindow out;
  if (parts.empty()) return out;
  out.start = parts.front().start;
  out.end = parts.front().end;
  std::vector<std::vector<core::TaggedFlow>> flows;
  std::vector<std::vector<core::DnsEvent>> events;
  // remap[p][id]: part p's id in the output, minted on first use (the order
  // a per-row intern gives). Sized from the rows, never from the part's
  // table: a shard window's table is its worker's, still interning.
  constexpr core::DomainId kUnmapped = ~core::DomainId{0};
  std::vector<std::vector<core::DomainId>> remap(parts.size());
  std::size_t flow_total = 0, event_total = 0;
  for (auto& part : parts) {
    out.start = std::min(out.start, part.start);
    out.end = std::max(out.end, part.end);
    // The moved-out rows' fqdn views stay valid: each part's db keeps its
    // DomainTable, and `parts` outlives the merge.
    flow_total += part.db.size();
    flows.push_back(part.db.take_flows());
    event_total += part.dns_log.size();
    events.push_back(std::move(part.dns_log));
  }
  out.db.reserve(flow_total);
  out.dns_log.reserve(event_total);

  core::DomainTable& table = *out.db.domain_table();
  const auto rebind = [&](std::size_t part, auto& row) {
    std::vector<core::DomainId>& ids = remap[part];
    if (row.fqdn_id >= ids.size())
      ids.resize(std::size_t{row.fqdn_id} + 1, kUnmapped);
    core::DomainId& id = ids[row.fqdn_id];
    if (id == kUnmapped) id = table.intern(row.fqdn);
    row.fqdn_id = id;
    row.fqdn = table.view(id);
  };
  kway_merge(flows, [&](std::size_t part, core::TaggedFlow&& flow) {
    rebind(part, flow);
    out.db.append(std::move(flow));
  });
  kway_merge(events, [&](std::size_t part, core::DnsEvent&& event) {
    rebind(part, event);
    out.dns_log.push_back(std::move(event));
  });
  return out;
}

// One message on a shard's frame ring. Control items (rotate/stop) ride
// the same channel as frames, so a shard processes every frame dispatched
// before a window boundary before it rotates — ordering for free.
struct ShardedAnalyzer::Item {
  enum class Kind : std::uint8_t { kFrame, kRecord, kRotate, kStop };
  Kind kind = Kind::kFrame;
  util::Timestamp ts;     ///< frame timestamp (kFrame) / arrival (kRecord)
  util::Timestamp start;  ///< window bounds (kRotate/kStop)
  util::Timestamp end;
  flowexport::OrientedRecord record;  ///< kRecord payload
  bool deliver = true;    ///< kStop: hand the final window to the sink?
  /// kStop: may the final window be spilled/journaled? False on a
  /// drain-interrupted run — the flush window covers only the frames
  /// ingested before the drain, so journaling it as sealed would make a
  /// later --resume serve a truncated window where an uninterrupted run
  /// computes a full one.
  bool durable = true;
  net::Bytes frame;       ///< recycled across ring laps (vector::assign)
};

/// One shard's contribution to one merged window, canonically pre-sorted
/// by the worker (the k-way merge's input invariant).
struct ShardedAnalyzer::ShardWindow {
  std::uint64_t seq = 0;      ///< window sequence number (global order)
  std::size_t shard = 0;
  bool final_window = false;  ///< emitted by kStop: merge loop exits after
  bool deliver = true;
  bool spilled = false;       ///< durable on disk; extent below is valid
  SpillExtent extent;         ///< where the record landed in the segment
  core::AnalysisWindow window;
};

struct ShardedAnalyzer::MergeInbox {
  util::Mutex mutex;
  util::CondVar cv;        ///< data available (merge thread waits)
  util::CondVar cv_space;  ///< capacity available (sealing workers wait)
  /// Window messages the merge thread may hold at once; workers sealing
  /// further ahead block in cv_space. This cap — not the capture length —
  /// bounds merge-stage memory (the streaming guarantee).
  std::size_t capacity = 0;
  std::size_t peak DNH_GUARDED_BY(mutex) = 0;
  /// One entry per (shard, window) message, drained by the merge thread.
  // dnh-lint: allow(hot-path-bound) per-window (not per-packet), and
  // explicitly capped at `capacity` entries by the cv_space wait.
  std::deque<ShardWindow> queue DNH_GUARDED_BY(mutex);
};

struct ShardedAnalyzer::Worker {
  Worker(const core::SnifferConfig& config, std::size_t queue_capacity)
      : queue(queue_capacity), sniffer(config) {}

  /// Dispatcher-side staging buffer: frames accumulate here and enter the
  /// ring kDispatchBatch at a time via try_produce_n, so the
  /// acquire/release pair (and its cross-core cache-line bounce) is paid
  /// per batch instead of per frame. Item buffers are recycled by
  /// swapping with ring slots. Dispatcher-thread-owned.
  struct Stage {
    std::array<Item, kDispatchBatch> items;
    std::size_t count = 0;
    /// Set while the ring cannot absorb a whole flush. Under kDrop the
    /// dispatcher then bypasses batching and offers each frame at
    /// arrival, so shed-vs-accepted accounting reflects the ring's state
    /// WHEN the frame arrived, not when a batch happened to fill —
    /// exactly the semantics of the pre-batching per-frame push.
    bool congested = false;
  };
  Stage stage;

  SpscRing<Item> queue;
  core::Sniffer sniffer;             ///< worker-thread-owned after start
  std::uint64_t frames_processed = 0;  ///< worker-owned; read after join
  // Spill accounting, worker-owned; folded into PipelineStats after join.
  std::uint64_t windows_spilled = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_failures = 0;
  obs::SampleGate sniff_gate{64};    ///< worker-thread-owned span sampler
  std::thread thread;
};

ShardedAnalyzer::ShardedAnalyzer(PipelineConfig config, WindowSink sink)
    : config_{std::move(config)}, sink_{std::move(sink)} {
  if (config_.shards == 0) config_.shards = 1;
  dispatch_.resize(config_.shards);
  // Record orientation splits pairs exactly where the flow table splits
  // flows: same idle timeout, same sweep cadence.
  flowexport::OrienterConfig orienter_config;
  orienter_config.idle_timeout = config_.sniffer.table.idle_timeout;
  orienter_config.sweep_interval_records =
      config_.sniffer.table.sweep_interval_packets;
  orienter_ = flowexport::RecordOrienter{orienter_config};
  inbox_ = std::make_unique<MergeInbox>();
  inbox_->capacity =
      config_.merge_inbox_capacity != 0
          ? config_.merge_inbox_capacity
          : std::max<std::size_t>(2 * config_.shards, 4);

  // Durability setup, before any thread exists. A resume replays the
  // manifest first; an unusable directory (no valid header, or a window
  // length that disagrees with this run's) degrades to a fresh spill —
  // recorded in the recovery stats — rather than failing the run.
  const bool spilling = !config_.spill_dir.empty();
  if (spilling) {
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    bool truncate = !config_.resume;
    if (config_.resume) {
      plan_ = scan_spill_dir(config_.spill_dir);
      if (plan_.usable() &&
          plan_.window_us !=
              static_cast<std::uint64_t>(config_.window.total_micros())) {
        plan_.error = "spill window length mismatch: manifest has " +
                      std::to_string(plan_.window_us) + "us, run has " +
                      std::to_string(config_.window.total_micros()) + "us";
        plan_.parts.clear();
        plan_.complete_prefix = 0;
      }
      if (plan_.usable()) {
        resume_prefix_ = plan_.complete_prefix;
      } else {
        truncate = true;  // start over; the directory gave us nothing
      }
    }
    recovery_stats_ = plan_.stats;
    spill_writers_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      spill_writers_.push_back(std::make_unique<SpillWriter>(
          config_.spill_dir, static_cast<std::uint32_t>(i), truncate));
      if (!spill_writers_.back()->ok() && error_.empty())
        error_ = "cannot open spill segment in " + config_.spill_dir;
    }
    manifest_ = std::make_unique<ManifestJournal>(
        config_.spill_dir, static_cast<std::uint32_t>(config_.shards),
        static_cast<std::uint64_t>(config_.window.total_micros()), truncate);
    if (!manifest_->ok() && error_.empty())
      error_ = "cannot open manifest journal in " + config_.spill_dir;
  }

  workers_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    core::SnifferConfig shard_config = config_.sniffer;
    shard_config.metrics_shard = i;  // labels the shard's state gauges
    workers_.push_back(
        std::make_unique<Worker>(shard_config, config_.queue_capacity));
  }
  obs::Registry& registry = obs::Registry::global();
  routes_gauge_ = registry.gauge("dnh_pipeline_routes");
  inbox_depth_gauge_ = registry.gauge("dnh_merge_inbox_depth");
  spill_bytes_gauge_ = registry.gauge("dnh_spill_bytes");
  inbox_depth_gauge_.set(0);
  depth_gauges_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    depth_gauges_.push_back(
        registry.gauge(shard_label("dnh_shard_queue_depth", i)));
  sampled_peaks_ =
      std::make_unique<std::atomic<std::size_t>[]>(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    sampled_peaks_[i].store(0, std::memory_order_relaxed);
  // Queue depth is sampled on the exporter's snapshot cadence, not per
  // push: the rings' head/tail cursors are atomics, so the read is safe
  // from the snapshot thread, and interval sampling is what makes the
  // peak/percentile depth statistics meaningful (a per-push high-water
  // mark saturates on any momentary burst).
  depth_sampler_ = registry.add_sampler([this] {
    PipelineMetrics& m = pipeline_metrics();
    for (std::size_t i = 0; i < config_.shards; ++i) {
      const std::size_t depth = workers_[i]->queue.size();
      depth_gauges_[i].set(static_cast<std::int64_t>(depth));
      m.depth_samples.observe(depth);
      auto& peak = sampled_peaks_[i];
      if (depth > peak.load(std::memory_order_relaxed))
        peak.store(depth, std::memory_order_relaxed);
    }
  });
  // Heartbeats registered before any watched thread exists: the board is
  // structurally immutable once the watchdog and workers start.
  dispatch_hb_ = heartbeats_.add_stage("dispatch");
  // The dispatcher runs on the constructing (caller) thread; claim its
  // flight-recorder ring here so every later dispatch event is labeled.
  obs::FlightRecorder::global().set_thread_label("dispatch");
  obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kThreadStart,
                   obs::kNoSeq, obs::kNoShard, config_.shards);
  worker_hb_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    worker_hb_.push_back(
        heartbeats_.add_stage("shard-" + std::to_string(i)));
  merge_hb_ = heartbeats_.add_stage("merge");

  // Threads start only after every Worker exists: a worker never touches
  // another shard's state, but the merge loop walks workers_ indirectly
  // through inbox messages carrying shard indices.
  for (std::size_t i = 0; i < config_.shards; ++i)
    workers_[i]->thread = std::thread{[this, i] { worker_loop(i); }};
  merge_thread_ = std::thread{[this] { merge_loop(); }};

  if (config_.watchdog_timeout.total_micros() > 0) {
    WatchdogConfig watchdog;
    watchdog.timeout = config_.watchdog_timeout;
    // Group quiescence needs a pending-work signal: frames sitting in a
    // ring (atomic cursors, safe cross-thread) or windows sitting in the
    // inbox (its own mutex). Quiet with neither is idle, not a stall.
    watchdog.pending = [this](std::string& desc) {
      for (std::size_t i = 0; i < config_.shards; ++i) {
        if (workers_[i]->queue.size() > 0) {
          desc = "frames queued in shard " + std::to_string(i) + "'s ring";
          return true;
        }
      }
      util::MutexLock lock{inbox_->mutex};
      if (!inbox_->queue.empty()) {
        desc = "windows waiting in the merge inbox";
        return true;
      }
      return false;
    };
    watchdog.on_stall = [this](const StallDiagnostic& diag) {
      pipeline_metrics().stalls.inc();
      if (config_.on_stall) config_.on_stall(diag);
    };
    watchdog_ = std::make_unique<Watchdog>(heartbeats_, std::move(watchdog));
  }
}

ShardedAnalyzer::~ShardedAnalyzer() { finish(); }

namespace {

// The shard that owns `client`: its DNS responses, its flows and its
// flow-export records all reduce to this one value.
std::size_t shard_of(net::Ipv4Address client, std::size_t shards) {
  return static_cast<std::size_t>(splitmix64(client.value()) %
                                  static_cast<std::uint64_t>(shards));
}

// The client side is the dispatch key. For DNS traffic the client is
// whoever is NOT on port 53 (responses must land on the same shard as
// the flows they will label); for everything else the flow-orientation
// rule decides.
std::size_t client_shard(const packet::HeaderPeek& hdr, std::size_t shards) {
  if (hdr.src_port == dns::kDnsPort) return shard_of(hdr.dst, shards);
  if (hdr.dst_port == dns::kDnsPort) return shard_of(hdr.src, shards);
  return shard_of(flow::source_is_client(hdr.tcp_flags, hdr.src,
                                         hdr.src_port, hdr.dst, hdr.dst_port)
                      ? hdr.src
                      : hdr.dst,
                  shards);
}

// Direction-free connection identity: both directions of a 5-tuple map to
// the same key, with the lexicographically smaller (ip, port) endpoint in
// the client slots. Purely an index into the routing table — it says
// nothing about which side is the real client.
flow::FlowKey route_key(const packet::HeaderPeek& hdr) {
  flow::FlowKey key;
  key.transport = hdr.is_tcp() ? flow::Transport::kTcp : flow::Transport::kUdp;
  if (std::tie(hdr.src, hdr.src_port) <= std::tie(hdr.dst, hdr.dst_port)) {
    key.client_ip = hdr.src;
    key.client_port = hdr.src_port;
    key.server_ip = hdr.dst;
    key.server_port = hdr.dst_port;
  } else {
    key.client_ip = hdr.dst;
    key.client_port = hdr.dst_port;
    key.server_ip = hdr.src;
    key.server_port = hdr.src_port;
  }
  return key;
}

}  // namespace

std::size_t ShardedAnalyzer::shard_for(net::BytesView frame,
                                       std::size_t shards) {
  if (shards <= 1) return 0;
  const auto hdr = packet::peek_ipv4_l4(frame);
  return hdr ? client_shard(*hdr, shards) : 0;
}

std::size_t ShardedAnalyzer::route_frame(net::BytesView frame,
                                         util::Timestamp ts) {
  if (config_.shards <= 1) return 0;
  const auto hdr = packet::peek_ipv4_l4(frame);
  if (!hdr) return 0;

  // Connection affinity: the first packet of a 5-tuple picks the shard by
  // the stateless heuristic; every later packet — in either direction —
  // follows it. An entry whose connection has been idle past the flow
  // table's timeout is re-homed from the arriving packet, the exact
  // condition under which the table starts a new flow, so a resumed
  // 5-tuple re-orients identically in both worlds.
  const util::Duration idle = config_.sniffer.table.idle_timeout;
  if (++routed_packets_ % config_.sniffer.table.sweep_interval_packets ==
      0) {
    routes_.erase_if([&](const auto& entry) {
      return ts - entry.second.last > idle;
    });
  }
  auto [it, inserted] = routes_.try_emplace(route_key(*hdr));
  Route& route = it->second;
  if (!inserted && !(ts - route.last > idle)) {
    if (ts > route.last) route.last = ts;
    return route.shard;
  }
  route = Route{client_shard(*hdr, config_.shards), ts};
  return route.shard;
}

void ShardedAnalyzer::on_frame(net::BytesView frame, util::Timestamp ts) {
  if (finished_ || draining_) return;
  // Drain polling is amortized: the check is an indirect call (usually a
  // sig_atomic_t read), so once per 64 frames keeps it off the hot path
  // while still reacting to SIGINT within a microsecond-scale burst.
  if (config_.drain_check && (frames_dispatched_ & 63) == 0 &&
      config_.drain_check()) {
    draining_ = true;
    obs::trace_event(obs::TraceStage::kDispatch,
                     obs::TraceKind::kDrainRequested, rotations_, obs::kNoShard,
                     frames_dispatched_);
    return;
  }
  advance_clock(ts);
  ++frames_dispatched_;
  pipeline_metrics().frames_dispatched.inc();
  if ((frames_dispatched_ & 4095) == 0)
    routes_gauge_.set(static_cast<std::int64_t>(routes_.size()));
  dispatch_frame(frame, ts);
}

void ShardedAnalyzer::on_export_record(const flowexport::ExportRecord& record,
                                       util::Timestamp arrival) {
  if (finished_ || draining_) return;
  // A reordered export stream can deliver an older datagram after a newer
  // one. Only the dispatch clock is clamped (it must never step back —
  // window boundaries are monotone); the record's own timestamps pass
  // through untouched, and they alone decide flow boundaries and labels.
  if (started_ && arrival < last_ts_) arrival = last_ts_;
  advance_clock(arrival);
  ++records_dispatched_;
  pipeline_metrics().records_dispatched.inc();

  Item item;
  item.kind = Item::Kind::kRecord;
  item.ts = arrival;
  item.record = orienter_.orient(record);
  // Route by the oriented client: the shard whose resolver replica holds
  // this client's DNS history, so records and the responses that label
  // them always meet on one shard. Records are per-flow (not per-packet),
  // so the lossless control-item push is cheap enough.
  const std::size_t shard =
      config_.shards <= 1
          ? 0
          : shard_of(item.record.key.client_ip, config_.shards);
  push_control(shard, std::move(item));
}

void ShardedAnalyzer::advance_clock(util::Timestamp ts) {
  const std::int64_t width = config_.window.total_micros();
  if (!started_) {
    started_ = true;
    first_ts_ = ts;
    last_ts_ = ts;
    // Align the first window to a clean multiple of the window length.
    if (width > 0)
      window_start_ = util::Timestamp::from_micros(
          ts.micros_since_epoch() / width * width);
  }
  if (ts > last_ts_) last_ts_ = ts;
  if (width > 0) {
    while (ts >= window_start_ + config_.window)
      broadcast_rotation(window_start_, window_start_ + config_.window);
  }
}

void ShardedAnalyzer::dispatch_frame(net::BytesView frame,
                                     util::Timestamp ts) {
  PipelineMetrics& m = pipeline_metrics();
  obs::SpanTimer span{m.dispatch_ns, dispatch_gate_};
  const std::size_t shard = route_frame(frame, ts);
  Worker::Stage& stage = workers_[shard]->stage;
  Item& staged = stage.items[stage.count++];
  staged.kind = Item::Kind::kFrame;
  staged.ts = ts;
  staged.frame.assign(frame.begin(), frame.end());  // recycled capacity
  if (stage.count == kDispatchBatch ||
      (stage.congested && config_.backpressure == BackpressurePolicy::kDrop))
    flush_stage(shard);
}

void ShardedAnalyzer::flush_stage(std::size_t shard) {
  Worker& worker = *workers_[shard];
  Worker::Stage& stage = worker.stage;
  if (stage.count == 0) return;
  PipelineMetrics& m = pipeline_metrics();
  DispatchCounters& counters = dispatch_[shard];

  std::size_t offset = 0;
  const auto produce = [&] {
    // dnh-lint: ring-producer (dispatcher thread owns every produce side)
    return worker.queue.try_produce_n(
        stage.count - offset, [&](Item& slot, std::size_t i) {
          Item& staged = stage.items[offset + i];
          slot.kind = staged.kind;
          slot.ts = staged.ts;
          // Swap keeps BOTH buffer pools warm: the ring slot's recycled
          // capacity returns to the stage for the next frame.
          std::swap(slot.frame, staged.frame);
        });
  };
  offset = produce();
  stage.congested = offset < stage.count;
  if (offset < stage.count) {
    if (config_.backpressure == BackpressurePolicy::kDrop) {
      const std::uint64_t shed = stage.count - offset;
      counters.dropped += shed;
      m.frames_dropped.add(shed);
    } else {
      ++counters.blocked;  // once per stalled flush, not per retry
      m.blocked_pushes.inc();
      obs::trace_event(obs::TraceStage::kDispatch,
                       obs::TraceKind::kBackpressureWait, rotations_,
                       static_cast<unsigned>(shard), stage.count - offset);
      unsigned spins = 0;
      while (offset < stage.count) {
        backoff(spins);
        offset += produce();
      }
    }
  }
  // Progress marker once per ~512 enqueued frames per shard: frequent
  // enough that a stall dump shows the dispatcher was alive moments
  // before, rare enough not to evict window-lifecycle events.
  if (((counters.enqueued ^ (counters.enqueued + offset)) >> 9) != 0)
    obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kFrameBatch,
                     rotations_, static_cast<unsigned>(shard),
                     counters.enqueued + offset);
  counters.enqueued += offset;
  stage.count = 0;
  heartbeats_.beat(dispatch_hb_);
  const std::size_t depth = worker.queue.size();
  if (depth > counters.high_water) counters.high_water = depth;
}

void ShardedAnalyzer::push_control(std::size_t shard, Item&& item) {
  // Staged frames precede the control item in its shard's ring: rotation
  // and stop ordering relies on the frame channel being FIFO end to end.
  flush_stage(shard);
  // Control messages are lossless under every backpressure policy:
  // dropping a rotation would desynchronize the merge sequence.
  Worker& worker = *workers_[shard];
  unsigned spins = 0;
  // dnh-lint: ring-producer (control items ride the dispatcher thread too)
  while (!worker.queue.try_push(std::move(item))) backoff(spins);
}

void ShardedAnalyzer::broadcast_rotation(util::Timestamp start,
                                         util::Timestamp end) {
  for (std::size_t i = 0; i < config_.shards; ++i) {
    Item item;
    item.kind = Item::Kind::kRotate;
    item.start = start;
    item.end = end;
    push_control(i, std::move(item));
  }
  // The WindowTraceId is the rotation's sequence number: every shard's
  // worker assigns exactly this seq when it seals its slice, so the
  // dispatched/sealed/spilled/ingested/emitted events all correlate.
  obs::trace_event(obs::TraceStage::kDispatch,
                   obs::TraceKind::kWindowDispatched, rotations_,
                   obs::kNoShard, config_.shards);
  window_start_ = end;
  ++rotations_;
}

bool ShardedAnalyzer::process_pcap(const std::string& path) {
  pcap::CaptureReadOptions options;
  options.resync = config_.sniffer.resync_capture;
  if (config_.drain_check) {
    // Abort the file read itself on drain: a multi-gigabyte capture must
    // not stand between SIGINT and the seal-spill-merge shutdown path.
    options.stop = [this] {
      if (!draining_ && config_.drain_check()) {
        draining_ = true;
        obs::trace_event(obs::TraceStage::kDispatch,
                         obs::TraceKind::kDrainRequested, rotations_,
                         obs::kNoShard, frames_dispatched_);
      }
      return draining_;
    };
  }
  pcap::CaptureReadReport report;
  const bool ok = pcap::read_any_capture(
      path,
      [this](const pcap::FrameView& frame) {
        on_frame(frame.data, frame.timestamp);
      },
      options, report);
  // Container-level damage is observed by the dispatcher (it owns the
  // reader), not by any shard; folded into merged degradation at finish.
  note_capture_corruption(report.corruption);
  if (!report.error.empty()) error_ = std::move(report.error);
  return ok;
}

void ShardedAnalyzer::note_capture_corruption(
    const pcap::CorruptionStats& corruption) {
  capture_degradation_.capture_resyncs += corruption.resyncs;
  capture_degradation_.capture_bytes_skipped += corruption.bytes_skipped;
  capture_degradation_.capture_truncated_tails += corruption.truncated_tail;
}

// dnh-analyze: shard-local-ids
void ShardedAnalyzer::worker_loop(std::size_t index) {
  if (config_.pin_shards) pin_to_cpu(index);
  // Label + thread-start before the test hook: an injected stall that
  // parks this worker forever must still leave its shard visible in the
  // stall dump.
  obs::FlightRecorder::global().set_thread_label("shard-" +
                                                 std::to_string(index));
  obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kThreadStart,
                   obs::kNoSeq, static_cast<unsigned>(index));
  if (config_.worker_start_hook) config_.worker_start_hook(index);
  Worker& worker = *workers_[index];
  std::uint64_t seq = 0;
  bool running = true;
  unsigned spins = 0;
  const auto emit = [&](bool final_window, bool deliver, bool durable,
                        util::Timestamp start, util::Timestamp end) {
    ShardWindow msg;
    msg.seq = seq++;
    msg.shard = index;
    msg.final_window = final_window;
    msg.deliver = deliver;
    msg.window = core::AnalysisWindow{start, end,
                                      worker.sniffer.take_database(),
                                      worker.sniffer.take_dns_log()};
    if (deliver) {
      // Seal: canonical per-shard order, established here so (a) the sort
      // cost parallelizes across workers instead of serializing on the
      // merge thread and (b) the spilled record is already in its final
      // order — a recovered window replays without re-sorting.
      canonicalize(msg.window);
      obs::trace_event(obs::TraceStage::kShard, obs::TraceKind::kWindowSealed,
                       msg.seq, static_cast<unsigned>(index),
                       worker.frames_processed);
      // Spill before the inbox hand-off. Windows inside the resume
      // prefix are already durable from the crashed run and are skipped;
      // a failed append degrades (the window just is not durable) and is
      // tallied rather than fatal.
      if (durable && !spill_writers_.empty() && msg.seq >= resume_prefix_) {
        if (const auto extent =
                spill_writers_[index]->append(msg.seq, msg.window)) {
          msg.spilled = true;
          msg.extent = *extent;
          ++worker.windows_spilled;
          worker.spill_bytes += extent->length;
          spill_bytes_gauge_.add(static_cast<std::int64_t>(extent->length));
          pipeline_metrics().spill_records.inc();
        } else {
          ++worker.spill_failures;
        }
      }
    }
    {
      util::MutexLock lock{inbox_->mutex};
      // Bounded inbox: sealing ahead of the merge thread parks here, so
      // merge-stage memory is capped by `capacity` windows no matter how
      // long the capture runs. Deadlock-free: the merge thread always
      // drains whenever the queue is non-empty.
      while (inbox_->queue.size() >= inbox_->capacity)
        inbox_->cv_space.wait(lock);
      inbox_->queue.push_back(std::move(msg));
      if (inbox_->queue.size() > inbox_->peak)
        inbox_->peak = inbox_->queue.size();
      inbox_depth_gauge_.set(
          static_cast<std::int64_t>(inbox_->queue.size()));
    }
    inbox_->cv.notify_one();
  };
  while (running) {
    // Batch drain: one acquire/release pair covers up to kConsumeBatch
    // items. Safe even around control items — kStop is the last item its
    // ring will ever carry, so nothing can follow it within a batch.
    // dnh-lint: ring-consumer (this worker thread owns the consume side)
    const std::size_t got =
        worker.queue.try_consume_n(kConsumeBatch, [&](Item& item,
                                                      std::size_t) {
          switch (item.kind) {
            case Item::Kind::kFrame: {
              obs::SpanTimer span{pipeline_metrics().sniff_ns,
                                  worker.sniff_gate};
              worker.sniffer.on_frame(item.frame, item.ts);
              ++worker.frames_processed;
              break;
            }
            case Item::Kind::kRecord:
              worker.sniffer.on_export_record(item.record, item.ts);
              break;
            case Item::Kind::kRotate:
              // Open flows stay live in the flow table across rotations:
              // a flow lands in the window it completes in.
              emit(false, true, true, item.start, item.end);
              break;
            case Item::Kind::kStop:
              worker.sniffer.finish();
              emit(true, item.deliver, item.durable, item.start, item.end);
              running = false;
              break;
          }
        });
    if (got > 0) {
      spins = 0;
      heartbeats_.beat(worker_hb_[index]);
    } else {
      backoff(spins);
    }
  }
}

void ShardedAnalyzer::merge_loop() {
  obs::FlightRecorder::global().set_thread_label("merge");
  obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kThreadStart);
  // dnh-lint: allow(hot-path-bound) holds at most one in-flight window
  // set per shard; erased as soon as every shard reports the sequence.
  std::map<std::uint64_t, std::vector<ShardWindow>> pending;
  std::uint64_t next_seq = 0;
  bool done = false;
  while (!done) {
    ShardWindow msg;
    {
      util::MutexLock lock{inbox_->mutex};
      // Guarded-predicate loop (no wait lambda: every `queue` access
      // stays visibly under `mutex` for the thread-safety analysis).
      while (inbox_->queue.empty()) inbox_->cv.wait(lock);
      msg = std::move(inbox_->queue.front());
      inbox_->queue.pop_front();
      inbox_depth_gauge_.set(
          static_cast<std::int64_t>(inbox_->queue.size()));
    }
    inbox_->cv_space.notify_one();
    heartbeats_.beat(merge_hb_);
    obs::trace_event(obs::TraceStage::kMerge, obs::TraceKind::kMergeIngested,
                     msg.seq, static_cast<unsigned>(msg.shard),
                     msg.spilled ? msg.extent.length : 0);
    // Journal the seal as soon as the message arrives: the worker's
    // segment fsync happened before the inbox hand-off, so the ordering
    // invariant (record durable before the manifest references it)
    // holds, and durability does not wait for the slowest shard.
    if (msg.spilled && manifest_) {
      manifest_->append_seal(msg.seq, static_cast<std::uint32_t>(msg.shard),
                             spill_writers_[msg.shard]->segment(),
                             msg.extent, seal_seq_++);
      obs::trace_event(obs::TraceStage::kMerge,
                       obs::TraceKind::kWindowJournaled, msg.seq,
                       static_cast<unsigned>(msg.shard), msg.extent.length);
    }
    pending[msg.seq].push_back(std::move(msg));
    // Merge strictly in sequence order, only once every shard has
    // reported the sequence number — windows reach the sink in capture
    // order.
    while (true) {
      const auto it = pending.find(next_seq);
      if (it == pending.end() || it->second.size() < config_.shards) break;
      const bool final_window = it->second.front().final_window;
      const bool deliver = it->second.front().deliver;
      const auto t0 = std::chrono::steady_clock::now();
      core::AnalysisWindow merged = retire_window(next_seq, it->second);
      const auto t1 = std::chrono::steady_clock::now();
      const util::Duration elapsed = steady_elapsed(t0, t1);
      pending.erase(it);
      ++next_seq;
      if (deliver) {
        merge_total_ = merge_total_ + elapsed;
        if (elapsed > merge_max_) merge_max_ = elapsed;
        ++windows_merged_;
        // Merges are per-window (rare), so the span is unsampled.
        pipeline_metrics().merge_ns.observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        pipeline_metrics().windows_merged.inc();
        if (sink_) sink_(std::move(merged));
        obs::trace_event(
            obs::TraceStage::kMerge, obs::TraceKind::kWindowEmitted,
            next_seq - 1, obs::kNoShard,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()));
      }
      if (final_window) {
        done = true;
        break;
      }
    }
  }
}

core::AnalysisWindow ShardedAnalyzer::retire_window(
    std::uint64_t seq, std::vector<ShardWindow>& parts) {
  if (config_.resume && seq < resume_prefix_) {
    // The crashed run's spilled bytes are authoritative for the complete
    // prefix. Any damaged record demotes the whole window to the
    // recomputed parts — byte-identical output either way (determinism),
    // just without crediting the spill.
    std::vector<core::AnalysisWindow> loaded;
    loaded.reserve(plan_.parts[seq].size());
    bool intact = true;
    for (const auto& entry : plan_.parts[seq]) {
      auto window =
          load_spilled_window(config_.spill_dir, entry, recovery_stats_);
      if (!window) {
        intact = false;
        break;
      }
      loaded.push_back(std::move(*window));
    }
    if (intact && !loaded.empty()) {
      ++windows_recovered_;
      obs::trace_event(obs::TraceStage::kMerge,
                       obs::TraceKind::kWindowRecovered, seq, obs::kNoShard,
                       loaded.size());
      return merge(std::move(loaded));
    }
    ++windows_recomputed_;
  }
  std::vector<core::AnalysisWindow> windows;
  windows.reserve(parts.size());
  for (auto& part : parts) windows.push_back(std::move(part.window));
  return merge(std::move(windows));
}

void ShardedAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  obs::trace_event(obs::TraceStage::kDispatch, obs::TraceKind::kPipelineFinish,
                   rotations_, obs::kNoShard, frames_dispatched_);

  // The final window's bounds: windowed mode closes the current grid
  // window; single-window mode spans the stream.
  util::Timestamp start;
  util::Timestamp end;
  if (started_) {
    if (config_.window.total_micros() > 0) {
      start = window_start_;
      end = window_start_ + config_.window;
    } else {
      start = first_ts_;
      end = last_ts_;
    }
  }
  for (std::size_t i = 0; i < config_.shards; ++i) {
    Item item;
    item.kind = Item::Kind::kStop;
    item.start = start;
    item.end = end;
    // An empty run delivers no window; the stop window still flows
    // through the merge stage to terminate it. A drained run's flush
    // window is delivered but never journaled: it is truncated at the
    // drain point, and --resume must recompute it.
    item.deliver = started_;
    item.durable = !draining_;
    push_control(i, std::move(item));
  }
  for (auto& worker : workers_) worker->thread.join();
  merge_thread_.join();
  // The watchdog keeps running until after the joins — a hang in the
  // drain itself is exactly what it exists to catch — and stops here,
  // before its stalled() verdict is folded into stats.
  if (watchdog_) watchdog_->stop();
  // All threads joined: every worker- and merge-owned counter is now
  // safely readable from this thread. Unregister the depth sampler
  // (synchronously: reset() waits out an in-flight snapshot) before
  // folding its peaks and publishing the drained-queue gauges.
  depth_sampler_.reset();
  routes_gauge_.set(static_cast<std::int64_t>(routes_.size()));
  for (std::size_t i = 0; i < config_.shards; ++i)
    depth_gauges_[i].set(
        static_cast<std::int64_t>(workers_[i]->queue.size()));

  stats_ = PipelineStats{};
  stats_.shards.resize(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    ShardStats& shard = stats_.shards[i];
    shard.frames_enqueued = dispatch_[i].enqueued;
    shard.frames_dropped = dispatch_[i].dropped;
    shard.blocked_pushes = dispatch_[i].blocked;
    shard.queue_high_water = dispatch_[i].high_water;
    shard.queue_peak_sampled =
        sampled_peaks_[i].load(std::memory_order_relaxed);
    shard.frames_processed = workers_[i]->frames_processed;
    shard.sniffer = workers_[i]->sniffer.stats();
    accumulate(stats_.merged, shard.sniffer);
    stats_.frames_dropped += shard.frames_dropped;
    stats_.windows_spilled += workers_[i]->windows_spilled;
    stats_.spill_bytes += workers_[i]->spill_bytes;
    stats_.spill_failures += workers_[i]->spill_failures;
  }
  stats_.frames_dispatched = frames_dispatched_;
  stats_.records_dispatched = records_dispatched_;
  stats_.windows_merged = windows_merged_;
  stats_.merge_total = merge_total_;
  stats_.merge_max = merge_max_;
  {
    util::MutexLock lock{inbox_->mutex};
    stats_.merge_inbox_peak = inbox_->peak;
  }
  stats_.windows_recovered = windows_recovered_;
  stats_.windows_recomputed = windows_recomputed_;
  stats_.recovery = recovery_stats_;
  stats_.stalled = watchdog_ && watchdog_->stalled();
  stats_.merged.degradation.pipeline_frames_dropped += stats_.frames_dropped;
  accumulate(stats_.merged.degradation, capture_degradation_);
}

}  // namespace dnh::pipeline
