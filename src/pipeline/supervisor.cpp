#include "pipeline/supervisor.hpp"

#include <csignal>
#include <chrono>
#include <sstream>

#include "obs/flight.hpp"

namespace dnh::pipeline {

std::string StallDiagnostic::to_string() const {
  std::ostringstream out;
  out << "pipeline stall: no stage heartbeat advanced for "
      << util::format_duration(stalled_for) << " with work pending ("
      << pending << "); per-stage beats at detection:";
  for (const auto& stage : stages)
    out << ' ' << stage.name << '=' << stage.beats;
  if (!trace_excerpt.empty()) out << '\n' << trace_excerpt;
  return std::move(out).str();
}

bool QuietClock::stalled(Clock::time_point now,
                         const std::function<bool(std::string&)>& pending,
                         std::string& what) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t count = board.count(i);
    if (count != counts[i]) {
      counts[i] = count;
      quiet_since = now;
    }
  }
  if (now - quiet_since < timeout) return false;
  // Quiescent past the timeout — but only a stall if work is pending;
  // otherwise this is an idle pipeline (e.g. between captures) and the
  // clock simply restarts.
  if (pending && pending(what)) return true;
  quiet_since = now;
  return false;
}

Watchdog::Watchdog(const obs::HeartbeatBoard& board, WatchdogConfig config)
    : board_{board}, config_{std::move(config)} {
  thread_ = std::thread{[this] { run(); }};
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    util::MutexLock lock{mu_};
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Watchdog::stalled() const noexcept {
  return stalled_.load(std::memory_order_relaxed);
}

void Watchdog::run() {
  using Clock = QuietClock::Clock;
  const auto timeout =
      std::chrono::microseconds{config_.timeout.total_micros()};
  auto poll = std::chrono::microseconds{config_.poll.total_micros()};
  if (poll > timeout / 2) poll = timeout / 2;
  if (poll <= std::chrono::microseconds::zero())
    poll = std::chrono::microseconds{1000};

  QuietClock quiet{board_, timeout, Clock::now()};
  while (true) {
    {
      util::MutexLock lock{mu_};
      if (stop_requested_) return;
      cv_.wait_for(lock, poll);
      if (stop_requested_) return;
    }
    const auto now = Clock::now();
    std::string pending_desc;
    if (!quiet.stalled(now, config_.pending, pending_desc)) continue;

    StallDiagnostic diag;
    diag.stalled_for = util::Duration::micros(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - quiet.quiet_since)
            .count());
    diag.pending = std::move(pending_desc);
    diag.stages.reserve(quiet.counts.size());
    for (std::size_t i = 0; i < quiet.counts.size(); ++i)
      diag.stages.push_back({board_.name(i), quiet.counts[i]});
    // Forensics: record the declaration itself, then attach the flight
    // recorder's recent history so exit-4 output explains the freeze.
    obs::FlightRecorder::global().set_thread_label("watchdog");
    obs::trace_event(obs::TraceStage::kWatchdog, obs::TraceKind::kStallDeclared,
                     obs::kNoSeq, obs::kNoShard,
                     static_cast<std::uint64_t>(diag.stalled_for.total_micros()));
    diag.trace_excerpt = obs::FlightRecorder::global().excerpt(6);
    stalled_.store(true, std::memory_order_relaxed);
    if (config_.on_stall) config_.on_stall(diag);
    return;  // one diagnostic per watchdog: fail fast, don't spam
  }
}

namespace {

/// Async-signal-safe by construction: the handler touches nothing but
/// this flag. sig_atomic_t (not std::atomic) because that is the only
/// type the C standard guarantees for signal handlers.
volatile std::sig_atomic_t g_drain_requested = 0;

extern "C" void drain_signal_handler(int) { g_drain_requested = 1; }

}  // namespace

void install_drain_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = drain_signal_handler;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: in-flight capture reads resume instead of failing with
  // EINTR; the dispatcher notices the flag between frame batches, which
  // is prompt enough and never corrupts a strict read.
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

bool drain_requested() noexcept { return g_drain_requested != 0; }

void request_drain() noexcept { g_drain_requested = 1; }

void reset_drain_flag() noexcept { g_drain_requested = 0; }

}  // namespace dnh::pipeline
