// Process-wide metrics registry: named counters, gauges, and log-linear
// histograms behind cheap handles, built so the capture hot path pays a
// single uncontended relaxed atomic increment per event.
//
// Design:
//  - Counter: each incrementing thread gets a private cache-line-sized
//    cell per counter (registered lazily on first touch). The hot path is
//    one thread_local vector index plus one relaxed fetch_add — no locks,
//    no sharing, no false sharing. A thread that exits flushes its cells
//    into the counter's `retired` sum, so totals survive worker churn;
//    readers sum retired + all live cells, giving a live (slightly
//    racy-by-design) view suitable for periodic exporters.
//  - Gauge: one relaxed atomic int64; set from whichever thread owns the
//    underlying state (or from a registered sampler for state that is
//    safe to read cross-thread, like SPSC ring cursors).
//  - Histogram: 256 log-linear buckets (4 linear sub-buckets per
//    power-of-two octave, full uint64 range) of shared relaxed atomics.
//    Histograms record span latencies and sampled depths — orders of
//    magnitude rarer than counter bumps — so striping is not worth the
//    memory.
//  - Registry: name -> metric, registration under a mutex (cold path
//    only; call sites cache handles). Samplers registered here run on the
//    snapshot thread just before each collection, for gauges derived from
//    concurrently-readable state.
//
// Naming scheme (see docs/observability.md for the full catalog):
// `dnh_<subsystem>_<what>[_total]{label=value,...}` — the label suffix is
// part of the registry key and is split back out by the Prometheus
// exporter.
//
// The registry is a leaked singleton: metric state is never destroyed, so
// handles and thread-exit flushes stay valid during process teardown.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace dnh::obs {

class Registry;

namespace detail {

struct CounterState;

/// The process-wide mutex serializing every cell-membership operation
/// (lazy registration, flush-on-thread-exit, CounterState teardown,
/// reader sums). Leaked so late TLS destructors can always lock it.
util::Mutex& cells_mu();

/// One thread's private slice of one counter. Cache-line sized so two
/// threads' cells never share a line.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
  /// Back-pointer for the flush-on-thread-exit path; nulled by
  /// ~CounterState when a registry dies before the thread does. Never
  /// touched on the hot path.
  CounterState* owner DNH_GUARDED_BY(cells_mu()) = nullptr;
};

struct CounterState {
  std::string name;
  std::size_t id = 0;  ///< dense registry-wide index (thread-local slot)
  /// Contributions flushed from exited threads.
  std::atomic<std::uint64_t> retired{0};
  /// Live threads' cells (owned by the TLS). Membership, flushes and
  /// reader sums all serialize on cells_mu(), so a registry and the
  /// threads feeding it can die in either order.
  std::vector<Cell*> cells DNH_GUARDED_BY(cells_mu());
  ~CounterState();              ///< orphans live cells
  std::uint64_t value() const DNH_EXCLUDES(cells_mu());
};

/// Sampler registrations, shared between a Registry and its outstanding
/// SamplerHandles. A shared_ptr control block (not a raw back-pointer)
/// so a handle that outlives its registry — a teardown ordering the
/// thread-safety annotation pass flagged — detaches safely instead of
/// dereferencing a dead Registry.
struct SamplerSet {
  util::Mutex mu;
  /// Held while a snapshot runs the sampler list; SamplerHandle::reset()
  /// acquires it so unregistration synchronizes with in-flight samplers.
  /// Acquired before (never while holding) `mu`.
  util::Mutex run_mu;
  std::uint64_t next_id DNH_GUARDED_BY(mu) = 1;
  std::map<std::uint64_t, std::function<void()>> fns DNH_GUARDED_BY(mu);
};

struct GaugeState {
  std::string name;
  std::atomic<std::int64_t> value{0};
};

struct HistogramState;

/// Slow path of Counter::add: allocates and registers this thread's cell.
Cell* register_cell(CounterState* state);
/// Next process-unique counter id (shared across Registry instances).
std::size_t next_counter_id();

}  // namespace detail

/// Cheap copyable handle; default-constructed handles are inert no-ops so
/// optional instrumentation never needs null checks at call sites.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n) const noexcept;
  void inc() const noexcept { add(1); }
  /// Live total (retired + every live thread's cell, relaxed loads).
  std::uint64_t value() const;
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterState* state) noexcept : state_{state} {}
  detail::CounterState* state_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) const noexcept {
    if (state_) state_->value.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) const noexcept {
    if (state_) state_->value.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return state_ ? state_->value.load(std::memory_order_relaxed) : 0;
  }
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeState* state) noexcept : state_{state} {}
  detail::GaugeState* state_ = nullptr;
};

class Histogram {
 public:
  /// Log-linear layout: 4 linear sub-buckets per power-of-two octave.
  /// Bucket i covers values in (bucket_upper(i-1), bucket_upper(i)];
  /// bucket 0 covers exactly {0}. 252 buckets span the whole uint64 range
  /// with <= 25% relative bucket width above 4.
  static constexpr std::size_t kSubBuckets = 4;
  static constexpr std::size_t kBuckets = 252;

  /// Which bucket `v` lands in. Monotone in v; covers all of uint64.
  static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // floor(log2 v), >= 2
    const std::size_t sub =
        static_cast<std::size_t>((v >> (e - 2)) & (kSubBuckets - 1));
    return kSubBuckets + kSubBuckets * static_cast<std::size_t>(e - 2) + sub;
  }

  /// Largest value mapping to bucket `index` (inclusive upper bound).
  static constexpr std::uint64_t bucket_upper(std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t e = 2 + (index - kSubBuckets) / kSubBuckets;
    const std::uint64_t sub = (index - kSubBuckets) % kSubBuckets;
    // 2^e + (sub+1) * 2^(e-2) - 1; at e=63, sub=3 this is exactly
    // UINT64_MAX (2^63 + 2^63 - 1).
    return (std::uint64_t{1} << e) + ((sub + 1) << (e - 2)) - 1;
  }

  Histogram() = default;

  void observe(std::uint64_t v) const noexcept;
  /// Records a span admitted by a 1-in-`sample_every` gate. The rate is
  /// kept with the histogram, so readers can scale the sum of the sampled
  /// spans to an estimated total (HistogramSnapshot::estimated_sum).
  void observe(std::uint64_t v, std::uint32_t sample_every) const noexcept;
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramState* state) noexcept
      : state_{state} {}
  detail::HistogramState* state_ = nullptr;
};

namespace detail {
struct HistogramState {
  std::string name;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint32_t> sample_every{1};
  std::atomic<std::uint64_t> buckets[Histogram::kBuckets]{};
};
}  // namespace detail

/// Read-only copy of one histogram at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// 1 when every span is recorded; N when only 1 in N is.
  std::uint32_t sample_every = 1;
  struct Bucket {
    std::uint64_t upper = 0;  ///< inclusive upper bound of the bucket
    std::uint64_t count = 0;  ///< samples in this bucket (not cumulative)
  };
  std::vector<Bucket> buckets;  ///< non-empty buckets only, ascending

  double mean() const noexcept {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
  }
  /// The sum scaled by the sampling rate: an estimate of the time spent
  /// in every span, sampled or not. Comparable across stages.
  double estimated_sum() const noexcept {
    return static_cast<double>(sum) * sample_every;
  }
  /// Upper bound of the bucket holding quantile `q` in [0,1]; 0 if empty.
  double quantile(double q) const noexcept;
};

/// Read-only copy of every metric at one instant.
struct Snapshot {
  std::int64_t wall_unix_ms = 0;  ///< system clock when taken
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  /// The process-wide registry (leaked: valid through static teardown).
  static Registry& global();

  Registry();
  /// Drops every registered sampler. Outstanding SamplerHandles stay
  /// valid (reset() on them becomes a no-op): the sampler set is shared
  /// state, so the registry and its handles can die in either order.
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates; the handle stays valid forever. Call sites should
  /// cache the handle, not re-resolve per event.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// Unregisters its sampler on destruction; movable, not copyable.
  /// Holds the sampler set alive, NOT the registry: resetting (or
  /// dropping) a handle after its registry died is safe and a no-op.
  class SamplerHandle {
   public:
    SamplerHandle() = default;
    SamplerHandle(SamplerHandle&& o) noexcept { *this = std::move(o); }
    SamplerHandle& operator=(SamplerHandle&& o) noexcept;
    ~SamplerHandle() { reset(); }
    void reset();

   private:
    friend class Registry;
    std::shared_ptr<detail::SamplerSet> set_;
    std::uint64_t id_ = 0;
  };

  /// Registers `fn` to run just before every snapshot (on the snapshot
  /// taker's thread). The sampler must only touch state that is safe to
  /// read from a foreign thread (atomics) and should write through cached
  /// gauge/histogram handles, not re-resolve names.
  [[nodiscard]] SamplerHandle add_sampler(std::function<void()> fn);

  /// Runs the samplers, then collects every metric. Safe to call from any
  /// thread, concurrently with hot-path updates (values are relaxed
  /// reads: each metric internally consistent, cross-metric skew possible).
  Snapshot snapshot() DNH_EXCLUDES(mu_);

  /// Collects without running samplers (used by tests and the final
  /// flush, where owner threads have already published).
  Snapshot collect() const DNH_EXCLUDES(mu_);

  /// Zeroes every value (names and handles survive). Tests/benches only:
  /// concurrent writers make the zero point fuzzy.
  void reset() DNH_EXCLUDES(mu_);

 private:
  friend struct detail::CounterState;

  /// Guards the metric maps. Acquired after detail::SamplerSet::run_mu
  /// (snapshot) and before detail::cells_mu() (collect/reset via
  /// CounterState::value); never the reverse.
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterState>, std::less<>>
      counters_ DNH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<detail::GaugeState>, std::less<>>
      gauges_ DNH_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<detail::HistogramState>, std::less<>>
      histograms_ DNH_GUARDED_BY(mu_);
  /// Shared with outstanding SamplerHandles; internally synchronized.
  std::shared_ptr<detail::SamplerSet> samplers_;
};

}  // namespace dnh::obs
