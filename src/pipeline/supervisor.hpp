// Supervised pipeline lifecycle: the watchdog that turns a silent hang
// into a typed diagnostic, and the process-wide drain flag that turns
// SIGINT/SIGTERM into a graceful seal-spill-merge-exit sequence.
//
// The watchdog detects stalls by GROUP quiescence over a HeartbeatBoard:
// it fires only when (a) no stage's heartbeat advanced across a full
// timeout interval AND (b) the pipeline still has pending work (frames in
// a ring, windows in the merge inbox). A busy stage resets the clock for
// everyone; an idle-but-healthy pipeline (nothing pending) never trips.
// That rule has no false positives under legitimately uneven shard load —
// the failure mode single-stage rate thresholds are plagued by.
//
// Signal handling is intentionally minimal: the handlers only set a
// sig_atomic_t flag; the pipeline's dispatcher polls drain_requested()
// between batches and initiates the ordinary end-of-capture path (seal,
// spill, merge, flush metrics, exit 0).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/heartbeat.hpp"
#include "util/mutex.hpp"
#include "util/time.hpp"

namespace dnh::pipeline {

/// What the watchdog saw when it declared a stall. Carries enough to
/// attribute the hang: every stage's beat count (frozen by definition of
/// group quiescence) and which pending-work condition kept the pipeline
/// from counting as idle.
struct StallDiagnostic {
  struct Stage {
    std::string name;
    std::uint64_t beats = 0;
  };
  std::vector<Stage> stages;
  /// Real (not capture) time with no progress, at detection.
  util::Duration stalled_for;
  /// Which pending-work signal was set ("frames queued in shard rings",
  /// "windows waiting in merge inbox", ...).
  std::string pending;
  /// Flight-recorder excerpt (last few events per stage) captured at
  /// detection: the event history that says WHERE the pipeline froze,
  /// not just that it did (docs/observability.md).
  std::string trace_excerpt;

  /// One-paragraph human rendering for logs / stderr.
  std::string to_string() const;
};

struct WatchdogConfig {
  /// Real-time window with zero beats (while work is pending) that
  /// counts as a stall.
  util::Duration timeout = util::Duration::seconds(30);
  /// How often the board is polled. Clamped to <= timeout/2.
  util::Duration poll = util::Duration::seconds(1);
  /// Returns true when the pipeline has undone work, describing it into
  /// the out-param. Must only read cross-thread-safe state (ring cursors,
  /// inbox size under its own mutex). Quiescence with NO pending work is
  /// idle, not a stall.
  std::function<bool(std::string&)> pending;
  /// Invoked (once; the watchdog then disarms) on the watchdog thread
  /// when a stall is declared. The dnhunter default prints the diagnostic
  /// and exits 4; tests substitute a recorder.
  std::function<void(const StallDiagnostic&)> on_stall;
};

/// The watchdog's per-poll decision, apart from its thread so a test can
/// drive it at chosen instants. The watchdog thread owns one.
struct QuietClock {
  using Clock = std::chrono::steady_clock;
  QuietClock(const obs::HeartbeatBoard& b, Clock::duration t,
             Clock::time_point now)
      : board{b}, timeout{t}, quiet_since{now} {
    for (std::size_t i = 0; i < b.stages(); ++i) counts.push_back(b.count(i));
  }

  /// One poll at `now`. A heartbeat advance since the last poll restarts
  /// the clock; so does a full timeout of quiet with nothing pending (an
  /// idle pipeline). True when a full timeout of quiet passed while
  /// `pending` reports work, which it describes into `what`.
  bool stalled(Clock::time_point now,
               const std::function<bool(std::string&)>& pending,
               std::string& what);

  const obs::HeartbeatBoard& board;
  Clock::duration timeout;
  Clock::time_point quiet_since;      ///< last advance or restart
  std::vector<std::uint64_t> counts;  ///< beat counts at the last poll
};

/// Background monitor of a HeartbeatBoard. Started on construction,
/// joined on destruction or stop(); the board must outlive it and be
/// fully populated (all add_stage calls done) before construction.
class Watchdog {
 public:
  Watchdog(const obs::HeartbeatBoard& board, WatchdogConfig config);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Stops monitoring and joins the thread. Idempotent.
  void stop();

  /// True if a stall was declared at any point (for stats reporting).
  bool stalled() const noexcept;

 private:
  void run();

  const obs::HeartbeatBoard& board_;
  WatchdogConfig config_;
  util::Mutex mu_;
  util::CondVar cv_;
  bool stop_requested_ DNH_GUARDED_BY(mu_) = false;
  std::atomic<bool> stalled_{false};
  std::thread thread_;
};

/// Installs SIGINT/SIGTERM handlers that set the process drain flag.
/// Idempotent; call once from main before starting the pipeline.
void install_drain_signal_handlers();

/// True once SIGINT/SIGTERM arrived (or request_drain() was called): the
/// pipeline should stop ingesting and run its normal completion path.
bool drain_requested() noexcept;

/// Sets the drain flag programmatically (tests, embedders).
void request_drain() noexcept;

/// Clears the flag so one process can run several pipelines (tests).
void reset_drain_flag() noexcept;

}  // namespace dnh::pipeline
