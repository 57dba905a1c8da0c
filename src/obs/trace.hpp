// Scoped trace spans: RAII timers that feed per-stage latency histograms.
//
// Two flavors:
//  - SpanTimer{hist}            — times every pass through the scope.
//    For coarse stages (a window merge, a whole-file read) where two
//    clock reads are noise.
//  - SpanTimer{hist, gate}      — times 1-in-N passes (systematic
//    sampling). For per-frame stages (decode, dispatch, shard sniff)
//    where clocking every event would cost more than the event itself;
//    the untimed passes pay one increment-and-mask on a caller-owned
//    gate. Sampling is unbiased for the latency DISTRIBUTION; the
//    histogram's count is the number of samples, not of events.
//
// Latencies are recorded in nanoseconds (steady clock). Histogram names
// follow `dnh_stage_<stage>_ns`.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace dnh::obs {

/// 1-in-N admission gate. Owned by the timing call site (one per thread
/// of execution: a member of the single-threaded owner, or a local in the
/// thread's loop) so admission needs no synchronization.
struct SampleGate {
  /// Admits one pass in `every` (rounded up to a power of two, min 1).
  explicit constexpr SampleGate(std::uint32_t every) noexcept {
    std::uint32_t pow2 = 1;
    while (pow2 < every && pow2 < (1u << 30)) pow2 <<= 1;
    mask = pow2 - 1;
  }

  bool admit() noexcept { return (tick++ & mask) == 0; }
  /// The N of "1 in N".
  std::uint32_t every() const noexcept { return mask + 1; }

  std::uint32_t mask = 0;
  std::uint32_t tick = 0;
};

class SpanTimer {
 public:
  /// Times this scope unconditionally.
  explicit SpanTimer(Histogram hist) noexcept
      : hist_{hist}, active_{hist.valid()} {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  /// Times this scope only when the gate admits it.
  SpanTimer(Histogram hist, SampleGate& gate) noexcept
      : hist_{hist},
        every_{gate.every()},
        active_{hist.valid() && gate.admit()} {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  ~SpanTimer() { stop(); }

  /// Ends the span early (idempotent); the destructor becomes a no-op.
  void stop() noexcept {
    if (!active_) return;
    active_ = false;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count();
    hist_.observe(ns > 0 ? static_cast<std::uint64_t>(ns) : 0, every_);
  }

 private:
  Histogram hist_;
  std::uint32_t every_ = 1;  ///< the gate's rate; 1 when unsampled
  bool active_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dnh::obs
