#include "obs/metrics.hpp"

#include <chrono>
#include <utility>

#include "util/mutex.hpp"

namespace dnh::obs {

namespace detail {

// One process-wide mutex serializes every cell-membership operation:
// lazy registration, the flush-on-thread-exit, CounterState teardown
// and reader sums. All of these are cold paths (the hot path touches
// only its own thread's cell, lock-free), and a single mutex makes the
// teardown story order-independent: a test-local Registry can die while
// threads still hold cells, and threads can exit while the registry
// lives. Leaked so late TLS destructors can always lock it.
util::Mutex& cells_mu() {
  static util::Mutex* mu = new util::Mutex;
  return *mu;
}

namespace {

// Per-thread table of counter cells, indexed by CounterState::id. The
// destructor is the flush-on-thread-exit path: each cell's total moves
// into its counter's `retired` sum and the cell leaves the live list, so
// short-lived worker threads never leak counts or memory. A cell whose
// registry died first was orphaned (owner == nullptr) by ~CounterState
// and is skipped — its counts die with the registry that defined them.
struct ThreadCells {
  struct Slot {
    std::unique_ptr<Cell> cell;
  };
  std::vector<Slot> slots;

  ~ThreadCells() {
    util::MutexLock lock{cells_mu()};
    for (Slot& slot : slots) {
      Cell* cell = slot.cell.get();
      if (!cell || !cell->owner) continue;
      cell->owner->retired.fetch_add(
          cell->value.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      auto& cells = cell->owner->cells;
      for (auto it = cells.begin(); it != cells.end(); ++it) {
        if (*it == cell) {
          cells.erase(it);
          break;
        }
      }
    }
  }
};

thread_local ThreadCells t_cells;

// Counter ids index the per-thread slot table, so they must be unique
// across EVERY Registry instance (tests build private registries), not
// just within one.
std::atomic<std::size_t> g_next_counter_id{0};

}  // namespace

std::size_t next_counter_id() {
  return g_next_counter_id.fetch_add(1, std::memory_order_relaxed);
}

Cell* register_cell(CounterState* state) {
  if (t_cells.slots.size() <= state->id) t_cells.slots.resize(state->id + 1);
  ThreadCells::Slot& slot = t_cells.slots[state->id];
  slot.cell = std::make_unique<Cell>();
  util::MutexLock lock{cells_mu()};
  slot.cell->owner = state;
  state->cells.push_back(slot.cell.get());
  return slot.cell.get();
}

CounterState::~CounterState() {
  util::MutexLock lock{cells_mu()};
  for (Cell* cell : cells) cell->owner = nullptr;
}

std::uint64_t CounterState::value() const {
  util::MutexLock lock{cells_mu()};
  std::uint64_t total = retired.load(std::memory_order_relaxed);
  for (const Cell* cell : cells)
    total += cell->value.load(std::memory_order_relaxed);
  return total;
}

}  // namespace detail

void Counter::add(std::uint64_t n) const noexcept {
  if (!state_) return;
  // Hot path: one thread_local vector index + one relaxed RMW on a cell
  // no other thread writes.
  auto& slots = detail::t_cells.slots;
  detail::Cell* cell =
      state_->id < slots.size() ? slots[state_->id].cell.get() : nullptr;
  if (!cell) cell = detail::register_cell(state_);
  cell->value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  return state_ ? state_->value() : 0;
}

void Histogram::observe(std::uint64_t v) const noexcept {
  if (!state_) return;
  state_->buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  state_->sum.fetch_add(v, std::memory_order_relaxed);
  state_->count.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t v,
                        std::uint32_t sample_every) const noexcept {
  if (!state_) return;
  state_->sample_every.store(sample_every, std::memory_order_relaxed);
  observe(v);
}

std::uint64_t Histogram::count() const noexcept {
  return state_ ? state_->count.load(std::memory_order_relaxed) : 0;
}

std::uint64_t Histogram::sum() const noexcept {
  return state_ ? state_->sum.load(std::memory_order_relaxed) : 0;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (const Bucket& bucket : buckets) {
    seen += bucket.count;
    if (static_cast<double>(seen) >= target)
      return static_cast<double>(bucket.upper);
  }
  return static_cast<double>(buckets.back().upper);
}

Registry& Registry::global() {
  // Leaked deliberately: TLS flush-on-exit destructors and late handle
  // reads must outlive every static destructor.
  static Registry* instance = new Registry;
  return *instance;
}

Registry::Registry()
    : samplers_{std::make_shared<detail::SamplerSet>()} {}

Registry::~Registry() {
  // Drop the sampler functions now: they may capture state owned by
  // whoever owns this registry, and must never run past its death. The
  // SamplerSet itself lives on while any handle still references it, so
  // late SamplerHandle::reset() calls find live (empty) shared state
  // instead of a dangling Registry pointer.
  util::MutexLock lock{samplers_->mu};
  samplers_->fns.clear();
}

Counter Registry::counter(std::string_view name) {
  util::MutexLock lock{mu_};
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    auto state = std::make_unique<detail::CounterState>();
    state->name = std::string{name};
    state->id = detail::next_counter_id();
    it = counters_.emplace(state->name, std::move(state)).first;
  }
  return Counter{it->second.get()};
}

Gauge Registry::gauge(std::string_view name) {
  util::MutexLock lock{mu_};
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    auto state = std::make_unique<detail::GaugeState>();
    state->name = std::string{name};
    it = gauges_.emplace(state->name, std::move(state)).first;
  }
  return Gauge{it->second.get()};
}

Histogram Registry::histogram(std::string_view name) {
  util::MutexLock lock{mu_};
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    auto state = std::make_unique<detail::HistogramState>();
    state->name = std::string{name};
    it = histograms_.emplace(state->name, std::move(state)).first;
  }
  return Histogram{it->second.get()};
}

Registry::SamplerHandle& Registry::SamplerHandle::operator=(
    SamplerHandle&& o) noexcept {
  if (this != &o) {
    reset();
    set_ = std::exchange(o.set_, nullptr);
    id_ = std::exchange(o.id_, 0);
  }
  return *this;
}

void Registry::SamplerHandle::reset() {
  if (!set_) return;
  {
    util::MutexLock lock{set_->mu};
    set_->fns.erase(id_);
  }
  // Wait out any snapshot currently running the (old copy of the) sampler
  // list: once we hold run_mu, no in-flight call can still be touching
  // the state the sampler captured. This is what lets an owner destroy
  // sampled state right after reset(). Works identically whether the
  // registry is alive or already destroyed (the set is shared state).
  // Acquire-then-release only: run_mu must be unlocked *before* the
  // shared_ptr drops, because releasing the last reference destroys the
  // set — and the mutex a still-held guard would then try to unlock.
  { util::MutexLock run_lock{set_->run_mu}; }
  set_.reset();
  id_ = 0;
}

Registry::SamplerHandle Registry::add_sampler(std::function<void()> fn) {
  SamplerHandle handle;
  util::MutexLock lock{samplers_->mu};
  handle.set_ = samplers_;
  handle.id_ = samplers_->next_id++;
  samplers_->fns.emplace(handle.id_, std::move(fn));
  return handle;
}

Snapshot Registry::snapshot() {
  // Copy the sampler list out so samplers can touch the registry (e.g.
  // lazily resolve a handle) without deadlocking; hold run_mu across the
  // calls so SamplerHandle::reset() can wait out an in-flight pass before
  // its owner tears down sampled state.
  util::MutexLock run_lock{samplers_->run_mu};
  std::vector<std::function<void()>> samplers;
  {
    util::MutexLock lock{samplers_->mu};
    samplers.reserve(samplers_->fns.size());
    for (const auto& [id, fn] : samplers_->fns) samplers.push_back(fn);
  }
  for (const auto& fn : samplers) fn();
  return collect();
}

Snapshot Registry::collect() const {
  Snapshot snap;
  snap.wall_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  util::MutexLock lock{mu_};
  for (const auto& [name, state] : counters_)
    snap.counters.emplace(name, state->value());
  for (const auto& [name, state] : gauges_)
    snap.gauges.emplace(name, state->value.load(std::memory_order_relaxed));
  for (const auto& [name, state] : histograms_) {
    HistogramSnapshot hist;
    hist.count = state->count.load(std::memory_order_relaxed);
    hist.sum = state->sum.load(std::memory_order_relaxed);
    hist.sample_every = state->sample_every.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n =
          state->buckets[i].load(std::memory_order_relaxed);
      if (n != 0)
        hist.buckets.push_back({Histogram::bucket_upper(i), n});
    }
    snap.histograms.emplace(name, std::move(hist));
  }
  return snap;
}

void Registry::reset() {
  util::MutexLock lock{mu_};
  {
    util::MutexLock cells_lock{detail::cells_mu()};
    for (const auto& [name, state] : counters_) {
      state->retired.store(0, std::memory_order_relaxed);
      for (detail::Cell* cell : state->cells)
        cell->value.store(0, std::memory_order_relaxed);
    }
  }
  for (const auto& [name, state] : gauges_)
    state->value.store(0, std::memory_order_relaxed);
  for (const auto& [name, state] : histograms_) {
    state->count.store(0, std::memory_order_relaxed);
    state->sum.store(0, std::memory_order_relaxed);
    for (auto& bucket : state->buckets)
      bucket.store(0, std::memory_order_relaxed);
  }
}

}  // namespace dnh::obs
