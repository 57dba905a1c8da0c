#include "obs/flight.hpp"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace dnh::obs {

std::string_view trace_stage_name(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::kCli:
      return "cli";
    case TraceStage::kSource:
      return "source";
    case TraceStage::kDispatch:
      return "dispatch";
    case TraceStage::kShard:
      return "shard";
    case TraceStage::kSpill:
      return "spill";
    case TraceStage::kMerge:
      return "merge";
    case TraceStage::kExport:
      return "export";
    case TraceStage::kWatchdog:
      return "watchdog";
  }
  return "unknown";
}

std::string_view trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kThreadStart:
      return "thread-start";
    case TraceKind::kWindowDispatched:
      return "window-dispatched";
    case TraceKind::kWindowSealed:
      return "window-sealed";
    case TraceKind::kWindowSpilled:
      return "window-spilled";
    case TraceKind::kWindowJournaled:
      return "window-journaled";
    case TraceKind::kMergeIngested:
      return "merge-ingested";
    case TraceKind::kWindowEmitted:
      return "window-emitted";
    case TraceKind::kWindowRecovered:
      return "window-recovered";
    case TraceKind::kFrameBatch:
      return "frame-batch";
    case TraceKind::kSniffProgress:
      return "sniff-progress";
    case TraceKind::kBackpressureWait:
      return "backpressure-wait";
    case TraceKind::kSourceOpen:
      return "source-open";
    case TraceKind::kSourceDone:
      return "source-done";
    case TraceKind::kExportDatagram:
      return "export-datagram";
    case TraceKind::kDrainRequested:
      return "drain-requested";
    case TraceKind::kStallDeclared:
      return "stall-declared";
    case TraceKind::kStallInjected:
      return "stall-injected";
    case TraceKind::kPipelineFinish:
      return "pipeline-finish";
  }
  return "unknown";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity);
  mask_ = cap - 1;
  words_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      cap * kWordsPerEvent);
  for (std::size_t i = 0; i < cap * kWordsPerEvent; ++i)
    words_[i].store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const std::size_t cap = capacity();
  const std::uint64_t h1 = head_.load(std::memory_order_acquire);
  const std::uint64_t first = h1 > cap ? h1 - cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(h1 - first));
  std::vector<std::uint64_t> indices;
  indices.reserve(static_cast<std::size_t>(h1 - first));
  for (std::uint64_t idx = first; idx < h1; ++idx) {
    const std::atomic<std::uint64_t>* slot =
        &words_[(idx & mask_) * kWordsPerEvent];
    TraceEvent ev;
    ev.ts_ns = slot[0].load(std::memory_order_relaxed);
    ev.arg = slot[1].load(std::memory_order_relaxed);
    ev.seq = slot[2].load(std::memory_order_relaxed);
    const std::uint64_t packed = slot[3].load(std::memory_order_relaxed);
    ev.stage = TraceEvent::unpack_stage(packed);
    ev.kind = TraceEvent::unpack_kind(packed);
    ev.shard = TraceEvent::unpack_shard(packed);
    out.push_back(ev);
    indices.push_back(idx);
  }
  // Lap detection: the writer may have advanced while we read. An event
  // at index i is only trustworthy if the writer has not *begun* reusing
  // its slot, i.e. has not started storing index i + capacity. record()
  // bumps begin_ before its slot stores (release fence between them), so
  // if any word we read above came from a newer event, the acquire fence
  // here guarantees we also see begin_ > i + capacity and drop the slot.
  // A quiescent full ring has begin_ == head_ and keeps all `cap` events.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t b2 = begin_.load(std::memory_order_relaxed);
  std::size_t keep_from = 0;
  while (keep_from < indices.size() && b2 > indices[keep_from] + cap)
    ++keep_from;
  if (keep_from > 0)
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(keep_from));
  return out;
}

namespace {

/// Source of FlightRecorder::id_: never reused, unlike an address.
std::atomic<std::uint64_t> g_next_recorder_id{1};

}  // namespace

FlightRecorder::FlightRecorder(std::size_t ring_capacity)
    : id_{g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)},
      ring_capacity_{round_up_pow2(ring_capacity)},
      epoch_{std::chrono::steady_clock::now()},
      entries_{std::make_unique<std::atomic<RingEntry*>[]>(kMaxRings)} {
  for (std::size_t i = 0; i < kMaxRings; ++i)
    entries_[i].store(nullptr, std::memory_order_relaxed);
}

FlightRecorder::~FlightRecorder() {
  // Only private recorders die (global() is leaked); the id-keyed thread
  // caches never hand these entries out again.
  const std::size_t n = count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i)
    delete entries_[i].load(std::memory_order_relaxed);
}

// dnh-analyze: allow(signal-safety, the lazy `new` runs once at startup
// -- install_fatal_signal_dump() touches global() before arming handlers,
// so by the time a fatal signal can reach this path the static is a
// plain pointer read)
// dnh-analyze: allow(alloc, one-time lazy init -- the first trace_event
// call constructs the recorder; every later hot-path call is a plain
// pointer read)
FlightRecorder& FlightRecorder::global() {
  // Leaked: rings must outlive every recording thread, including threads
  // still running during static destruction.
  static FlightRecorder* recorder = new FlightRecorder{};
  return *recorder;
}

std::uint64_t FlightRecorder::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

namespace {

/// Per-thread registration cache. Keyed by recorder id, not address, so
/// tests can run private FlightRecorder instances next to the global one
/// and a recorder built where a dead one lived never inherits its ring.
struct RingCache {
  std::uint64_t owner = 0;
  void* entry = nullptr;
};
thread_local RingCache t_ring_cache;

}  // namespace

FlightRecorder::RingEntry* FlightRecorder::entry_for_this_thread() {
  if (t_ring_cache.owner == id_)
    return static_cast<RingEntry*>(t_ring_cache.entry);
  RingEntry* entry = nullptr;
  {
    util::MutexLock lock{mu_};
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= kMaxRings) return nullptr;
    entry = new RingEntry{ring_capacity_};  // freed with the recorder
    entry->ring_id = static_cast<std::uint32_t>(n);
    // Publish the slot before the count: a lock-free reader that sees
    // count >= n+1 must see a valid pointer in slot n.
    entries_[n].store(entry, std::memory_order_release);
    count_.store(n + 1, std::memory_order_release);
  }
  t_ring_cache.owner = id_;
  t_ring_cache.entry = entry;
  return entry;
}

void FlightRecorder::record(TraceStage stage, TraceKind kind,
                            std::uint64_t seq, unsigned shard,
                            std::uint64_t arg) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  RingEntry* entry = entry_for_this_thread();
  if (entry == nullptr) return;
  entry->ring.record(now_ns(), stage, kind, seq, shard, arg);
}

void FlightRecorder::set_thread_label(std::string_view label) {
  RingEntry* entry = entry_for_this_thread();
  if (entry == nullptr) return;
  // Owner-thread only (the entry is this thread's); byte-wise relaxed
  // stores so concurrent dump readers copying the label race-freely see
  // either the old prefix or the new one, never a torn read.
  constexpr std::size_t kLabelCap =
      sizeof(entry->label) / sizeof(entry->label[0]);
  const std::size_t n = std::min(label.size(), kLabelCap - 1);
  for (std::size_t i = 0; i < n; ++i)
    entry->label[i].store(label[i], std::memory_order_relaxed);
  entry->label[n].store('\0', std::memory_order_relaxed);
}

std::size_t FlightRecorder::raw_rings(RawRing* out,
                                      std::size_t max) const noexcept {
  const std::size_t n =
      std::min(count_.load(std::memory_order_acquire), kMaxRings);
  std::size_t filled = 0;
  for (std::size_t i = 0; i < n && filled < max; ++i) {
    const RingEntry* entry = entries_[i].load(std::memory_order_acquire);
    if (entry == nullptr) continue;
    out[filled].ring = &entry->ring;
    std::size_t li = 0;
    for (; li + 1 < sizeof(out[filled].label); ++li) {
      const char c = entry->label[li].load(std::memory_order_relaxed);
      if (c == '\0') break;
      out[filled].label[li] = c;
    }
    out[filled].label[li] = '\0';
    out[filled].ring_id = entry->ring_id;
    ++filled;
  }
  return filled;
}

std::vector<ThreadTrace> FlightRecorder::snapshot() const {
  RawRing raw[kMaxRings];
  const std::size_t n = raw_rings(raw, kMaxRings);
  std::vector<ThreadTrace> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ThreadTrace trace;
    trace.ring_id = raw[i].ring_id;
    trace.label = raw[i].label;  // NUL-terminated fixed buffer
    if (trace.label.empty())
      trace.label = "thread-" + std::to_string(raw[i].ring_id);
    trace.total = raw[i].ring->total();
    trace.events = raw[i].ring->snapshot();
    out.push_back(std::move(trace));
  }
  return out;
}

std::string FlightRecorder::excerpt(std::size_t per_stage) const {
  struct Tagged {
    TraceEvent ev;
    const std::string* label;
  };
  const std::vector<ThreadTrace> threads = snapshot();
  std::vector<std::vector<Tagged>> by_stage(kTraceStageCount);
  for (const ThreadTrace& t : threads)
    for (const TraceEvent& ev : t.events) {
      const auto s = static_cast<std::size_t>(ev.stage);
      if (s < kTraceStageCount) by_stage[s].push_back({ev, &t.label});
    }
  std::ostringstream out;
  out << "trace excerpt (last " << per_stage << " events per stage):";
  bool any = false;
  for (std::size_t s = 0; s < kTraceStageCount; ++s) {
    auto& events = by_stage[s];
    if (events.empty()) continue;
    any = true;
    std::sort(events.begin(), events.end(),
              [](const Tagged& a, const Tagged& b) {
                return a.ev.ts_ns < b.ev.ts_ns;
              });
    const std::size_t first =
        events.size() > per_stage ? events.size() - per_stage : 0;
    out << "\n  [" << trace_stage_name(static_cast<TraceStage>(s)) << "]";
    for (std::size_t i = first; i < events.size(); ++i) {
      const TraceEvent& ev = events[i].ev;
      out << "\n    +" << ev.ts_ns / 1000000 << "." << std::setw(3)
          << std::setfill('0') << (ev.ts_ns / 1000) % 1000 << std::setfill(' ')
          << "ms " << trace_kind_name(ev.kind);
      if (ev.seq != kNoSeq) out << " seq=" << ev.seq;
      if (ev.shard != kNoShard) out << " shard=" << ev.shard;
      if (ev.arg != 0) out << " arg=" << ev.arg;
      out << " (" << *events[i].label << ")";
    }
  }
  if (!any) out << " <no events recorded>";
  return std::move(out).str();
}

}  // namespace dnh::obs
