// Crash-recovery integration tests: a child `dnhunter` is SIGKILLed
// mid-run, then resumed with `--resume`, and the flows-TSV output must be
// byte-identical to an uninterrupted single-threaded run — at several
// shard counts, and under every spill-corruption chaos mode. This is the
// end-to-end proof of the durability ordering (segment fsync before
// manifest append) that the spill unit tests check piecewise.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "faultinject/faultinject.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

#ifndef DNHUNTER_BIN
#error "DNHUNTER_BIN must be defined by the build"
#endif

namespace dnh {
namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  const std::string command =
      std::string{DNHUNTER_BIN} + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (!pipe) return result;
  std::array<char, 4096> buffer;
  std::size_t n;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0)
    result.output.append(buffer.data(), n);
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class RecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = fs::temp_directory_path() /
           ("dnh_recovery_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    pcap_ = (dir_ / "recovery.pcap").string();
    auto profile = trafficgen::profile_eu1_ftth();
    profile.name = "recovery-test";
    profile.duration = util::Duration::minutes(40);
    profile.n_clients = 40;
    trafficgen::Simulator sim{profile};
    ASSERT_TRUE(sim.write_pcap(pcap_));

    // The uninterrupted single-threaded reference everything must match.
    baseline_ = (dir_ / "baseline.tsv").string();
    ASSERT_EQ(run_cli("export " + pcap_ + " --out " + baseline_).exit_code,
              0);
    ASSERT_FALSE(slurp(baseline_).empty());
  }
  static void TearDownTestSuite() { fs::remove_all(dir_); }

  /// Starts `dnhunter` as a direct child (no shell, so the PID is the
  /// binary's) with its output silenced.
  static pid_t spawn(const std::vector<std::string>& args) {
    std::vector<const char*> argv;
    argv.push_back(DNHUNTER_BIN);
    for (const auto& arg : args) argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      // Child: silence it and become dnhunter.
      std::freopen("/dev/null", "w", stdout);
      std::freopen("/dev/null", "w", stderr);
      execv(DNHUNTER_BIN, const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    return pid;
  }

  /// SIGKILLs and reaps `pid`. Returns true if the kill landed mid-run
  /// (the child did not finish first).
  static bool kill_child(pid_t pid) {
    const bool killed = ::kill(pid, SIGKILL) == 0;
    int status = 0;
    ::waitpid(pid, &status, 0);
    return killed && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  }

  /// Runs `dnhunter export` and SIGKILLs it after `grace_us`. Returns true
  /// if the kill landed mid-run.
  static bool run_and_kill(const std::vector<std::string>& args,
                           useconds_t grace_us) {
    const pid_t pid = spawn(args);
    ::usleep(grace_us);
    return kill_child(pid);
  }

  /// kill -9 a spilling run after `grace_us`, then --resume at `jobs`
  /// shards and require byte-identical flows-TSV. Some kills land before
  /// the first window seals (0 recovered) and some after the run finished
  /// (skipped) — both are valid; the byte-identity assertion is absolute
  /// either way.
  void kill_and_resume(std::size_t jobs, useconds_t grace_us) {
    const std::string spill =
        (dir_ / ("spill_j" + std::to_string(jobs) + "_" +
                 std::to_string(grace_us)))
            .string();
    const std::string out = spill + ".tsv";
    fs::remove_all(spill);
    const std::vector<std::string> args = {
        "export",      pcap_,   "--out",       out,
        "--jobs",      std::to_string(jobs),   "--spill-dir", spill,
        "--window",    "300"};
    if (!run_and_kill(args, grace_us)) {
      GTEST_LOG_(INFO) << "child finished before the kill; skipping";
      return;
    }
    const auto resumed = run_cli(
        "export " + pcap_ + " --out " + out + " --jobs " +
        std::to_string(jobs) + " --spill-dir " + spill +
        " --resume --window 300");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resume:"), std::string::npos);
    EXPECT_EQ(slurp(out), slurp(baseline_))
        << "resume at --jobs " << jobs << " diverged from the baseline";
  }

  static fs::path dir_;
  static std::string pcap_;
  static std::string baseline_;
};

fs::path RecoveryTest::dir_;
std::string RecoveryTest::pcap_;
std::string RecoveryTest::baseline_;

TEST_F(RecoveryTest, SpilledWindowedRunMatchesBaseline) {
  // No crash at all: the spilling, windowed, sharded run must already be
  // byte-identical to the single-threaded whole-capture export.
  const std::string spill = (dir_ / "spill_clean").string();
  const std::string out = (dir_ / "clean.tsv").string();
  const auto result = run_cli("export " + pcap_ + " --out " + out +
                              " --jobs 4 --spill-dir " + spill +
                              " --window 300");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(slurp(out), slurp(baseline_));
  EXPECT_TRUE(fs::exists(spill + "/manifest.dnhm"));
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs1) {
  kill_and_resume(1, 30'000);
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs4) {
  kill_and_resume(4, 30'000);
}

TEST_F(RecoveryTest, KillNineThenResumeIsByteIdenticalJobs8) {
  kill_and_resume(8, 30'000);
}

TEST_F(RecoveryTest, KillNineEarlyAndLateStillResume) {
  kill_and_resume(4, 5'000);    // likely before the first seal
  kill_and_resume(4, 120'000);  // likely deep into the capture
}

TEST_F(RecoveryTest, GracefulDrainThenResumeIsByteIdentical) {
  // SIGTERM mid-run drains gracefully (exit 0, partial results). The
  // drain seals and delivers its truncated flush window but must NOT
  // journal it — otherwise --resume serves the truncated window from
  // spill where an uninterrupted run computes a full one.
  const std::string spill = (dir_ / "spill_drain").string();
  const std::string out = (dir_ / "drain.tsv").string();
  fs::remove_all(spill);
  const pid_t pid = spawn({"export", pcap_, "--out", out, "--jobs", "4",
                           "--spill-dir", spill, "--window", "300"});
  ::usleep(40'000);
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "drain must exit 0";

  const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                               " --jobs 4 --spill-dir " + spill +
                               " --resume --window 300");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(slurp(out), slurp(baseline_))
      << "resume after a graceful drain diverged from the baseline";
}

TEST_F(RecoveryTest, ResumeWithDifferentShardCountMatchesBaseline) {
  const std::string spill = (dir_ / "spill_reshard").string();
  const std::string out = (dir_ / "reshard.tsv").string();
  if (!run_and_kill({"export", pcap_, "--out", out, "--jobs", "4",
                     "--spill-dir", spill, "--window", "300"},
                    40'000)) {
    GTEST_LOG_(INFO) << "child finished before the kill; skipping";
    return;
  }
  const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                               " --jobs 2 --spill-dir " + spill +
                               " --resume --window 300");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
  EXPECT_EQ(slurp(out), slurp(baseline_));
}

TEST_F(RecoveryTest, ResumeOverCorruptedSpillDegradesWithTypedStats) {
  // Build a COMPLETE spill dir (uninterrupted run), then damage it with
  // every chaos mode and resume: output must stay byte-identical and the
  // run must report typed degradation, never crash.
  for (std::size_t i = 0; i < faultinject::kSpillFaultModeCount; ++i) {
    const auto mode = static_cast<faultinject::SpillFaultMode>(i);
    const std::string label{faultinject::spill_fault_mode_name(mode)};
    const std::string spill = (dir_ / ("spill_chaos_" + label)).string();
    const std::string out = (dir_ / ("chaos_" + label + ".tsv")).string();
    ASSERT_EQ(run_cli("export " + pcap_ + " --out " + out +
                      " --jobs 4 --spill-dir " + spill + " --window 300")
                  .exit_code,
              0);
    faultinject::SpillFaultConfig config;
    config.seed = 17 + i;
    config.mode = mode;
    const auto report = faultinject::corrupt_spill_dir(spill, config);
    ASSERT_TRUE(report.has_value()) << label;

    const auto resumed = run_cli("export " + pcap_ + " --out " + out +
                                 " --jobs 4 --spill-dir " + spill +
                                 " --resume --window 300");
    ASSERT_EQ(resumed.exit_code, 0) << label << ": " << resumed.output;
    EXPECT_NE(resumed.output.find("resume:"), std::string::npos) << label;
    EXPECT_EQ(slurp(out), slurp(baseline_)) << label;
  }
}

TEST_F(RecoveryTest, KillNineLeavesRecoverableFlightRecorderDump) {
  // The flight recorder keeps DIR/flight.dnht current while a --spill-dir
  // run is alive (synchronous first dump, then a 100ms refresh via
  // tmp+rename). After SIGKILL — no atexit, no signal handler — the last
  // completed dump must still be there and render cleanly, because the
  // rename never exposes a half-written file (docs/observability.md).
  const std::string spill = (dir_ / "spill_trace_kill").string();
  const std::string out = (dir_ / "trace_kill.tsv").string();
  fs::remove_all(spill);
  const std::string dump = spill + "/flight.dnht";
  const pid_t pid = spawn({"export", pcap_, "--out", out, "--jobs", "4",
                           "--spill-dir", spill, "--window", "300"});
  // Kill on an observable event, not after a fixed grace: wait until a
  // refresh of the dump already carries window-lifecycle events (not just
  // the startup thread-starts). The deadline only bounds a broken run;
  // the assertions below then report what the dump lacked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool child_exited = false;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      child_exited = true;
      break;
    }
    if (fs::exists(dump) &&
        run_cli("trace-cat " + dump).output.find("window-dispatched") !=
            std::string::npos)
      break;
    ::usleep(20'000);
  }
  if (child_exited || !kill_child(pid)) {
    GTEST_LOG_(INFO) << "child finished before the kill; skipping";
    return;
  }
  ASSERT_TRUE(fs::exists(dump))
      << "flight.dnht missing after SIGKILL mid-run";
  const auto rendered = run_cli("trace-cat " + dump);
  ASSERT_EQ(rendered.exit_code, 0) << rendered.output;
  EXPECT_NE(rendered.output.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(rendered.output.find("thread_name"), std::string::npos);
  EXPECT_NE(rendered.output.find("window-dispatched"), std::string::npos)
      << "dump should carry dispatcher lifecycle events";
  // Complete frames only: a torn trailing frame would print a warning.
  EXPECT_EQ(rendered.output.find("warning:"), std::string::npos)
      << rendered.output;
}

TEST_F(RecoveryTest, ResumeWithoutSpillDirIsAUsageError) {
  EXPECT_EQ(run_cli("export " + pcap_ + " --out /dev/null --resume")
                .exit_code,
            2);
}

}  // namespace
}  // namespace dnh
