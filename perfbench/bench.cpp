// DN-Hunter benchmark program. perfbench/run.py builds it and
// calls it twice per run:
//
//   dnh_perfbench prepare --workload W --seed N --cache DIR
//                         --gen-hash H --src-hash H
//     Generates the workload's capture (cached under DIR, keyed on every
//     generator parameter, the seed and the generator sources) and the
//     reference output digests (keyed on the capture and all sources).
//     Runs in its own process so generation never counts against the
//     measured process's time or memory.
//
//   dnh_perfbench run --workload W --seed N --seconds S --trace 0|1
//                     --cache DIR --work DIR --gen-hash H --src-hash H
//                     [--commit C] [--results FILE]
//     Measures the workload through the public library API, checks every
//     run's output against the reference, and prints the result object as
//     the last line of stdout. Exit 1 on an output mismatch.
//
// Workloads (BENCHMARK.json records why each was chosen; predictions.json
// lists which metric each layer should move, on which workload):
//   batch-ftth    EU1-FTTH, 2048 clients, 2 h; closed loop, shards=3
//   batch-mobile  US-3G, 8192 clients, 1 h; closed loop, shards=1
//   live-windows  the batch-ftth capture replayed open loop at 400k
//                 frames/s, shards=3, kDrop, 30 s windows, spill on.
//                 Run by hand only: its window latency follows the host's
//                 fsync latency and CPU steal, which on a shared VM swing
//                 it 2-3x between runs, too far for BENCHMARK.json bounds.
//
// With --trace 1 the run is a separate traced run: it records spans from
// this file around calls into each layer's public functions (nothing
// inside src/ is instrumented) and prints the per-layer metrics.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/content.hpp"
#include "analytics/service_tags.hpp"
#include "analytics/spatial.hpp"
#include "analytics/tangle.hpp"
#include "core/flowdb.hpp"
#include "core/flowdb_io.hpp"
#include "core/resolver.hpp"
#include "core/sniffer.hpp"
#include "dns/wire_scan.hpp"
#include "flow/table.hpp"
#include "packet/decode.hpp"
#include "pcap/pcapng.hpp"
#include "pipeline/pipeline.hpp"
#include "trafficgen/profiles.hpp"
#include "trafficgen/simulator.hpp"

namespace {

using namespace dnh;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "dnh_perfbench: %s\n", message.c_str());
  std::exit(2);
}

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double nanos(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

// ---- small statistics and hashing helpers ---------------------------------

/// Percentile by linear interpolation between closest ranks (p in [0,1]).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// FNV-1a 64, streamed: digests TSV output and query results.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void str(std::string_view s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);
  }
  void num(double v) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    bytes(buf, static_cast<std::size_t>(n) + 1);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Resets VmHWM to the current resident set, so the next peak_rss_mb()
/// reads the peak of what ran in between (Linux >= 4.0). Memory the
/// allocator kept from earlier passes goes back to the system first, so a
/// pass's peak does not depend on what ran before it.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5\n";
}

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

/// Shortest round-trip text of a finite double (JSON has no NaN/inf).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  return fmt("%.17g", v);
}

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  trafficgen::TraceProfile profile;
  std::size_t shards = 1;
  bool live = false;
};

constexpr double kLiveRate = 400'000.0;  // offered frames/s in live-windows
constexpr auto kLiveWindow = util::Duration::seconds(30);

/// The workload's generator profile for `seed`. The seed drives the client
/// population and its traffic; the world (organizations, CDNs, address
/// plan) stays the profile's own, so seeds vary the traffic, not the
/// Internet it runs over.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "batch-ftth" || name == "live-windows") {
    w.profile = trafficgen::profile_eu1_ftth();
    w.profile.n_clients = 2048;
    w.profile.duration = util::Duration::hours(2);
    w.shards = 3;
    w.live = name == "live-windows";
  } else if (name == "batch-mobile") {
    w.profile = trafficgen::profile_us_3g();
    w.profile.n_clients = 8192;
    w.profile.duration = util::Duration::hours(1);
    w.shards = 1;
  } else {
    die("unknown workload '" + name + "'");
  }
  w.profile.seed = w.profile.seed * 1'000'003ULL + seed;
  return w;
}

/// Every generator parameter, in one line: the capture cache key.
std::string describe_profile(const trafficgen::TraceProfile& p) {
  std::ostringstream out;
  out << p.name << " geo=" << static_cast<int>(p.geo)
      << " tech=" << static_cast<int>(p.tech) << " start=" << p.start_hour
      << ':' << p.start_minute << " dur_us=" << p.duration.total_micros()
      << " clients=" << p.n_clients << " visits=" << p.visits_per_client_hour
      << " p2p=" << p.p2p_client_fraction << " dga=" << p.dga_client_fraction
      << " tunnel=" << p.tunnel_client_fraction
      << " mobility=" << p.mobility_fraction
      << " prefetch=" << p.prefetch_per_page
      << " outside=" << p.outside_resolution_prob
      << " invisible=" << p.invisible_dns_client_fraction
      << " tls_miss=" << p.tls_extra_miss
      << " cache_cap_us=" << p.client_cache_cap.total_micros()
      << " seed=" << p.seed << " world.geo=" << static_cast<int>(p.world.geo)
      << " world.tail=" << p.world.tail_organizations
      << " world.seed=" << p.world.seed;
  return out.str();
}

pipeline::PipelineConfig pipeline_config(const Workload& w,
                                         const std::string& spill_dir) {
  pipeline::PipelineConfig config;
  config.shards = w.shards;
  config.backpressure = pipeline::BackpressurePolicy::kBlock;
  if (w.live) {
    config.backpressure = pipeline::BackpressurePolicy::kDrop;
    config.window = kLiveWindow;
    config.spill_dir = spill_dir;
  }
  return config;
}

// ---- the capture held in memory (replays and the open loop) ---------------

struct Capture {
  struct Record {
    std::size_t offset = 0;
    std::size_t length = 0;
    util::Timestamp ts;
  };
  std::vector<std::uint8_t> bytes;
  std::vector<Record> records;

  std::size_t size() const { return records.size(); }
  net::BytesView frame(std::size_t i) const {
    return {bytes.data() + records[i].offset, records[i].length};
  }
  util::Timestamp ts(std::size_t i) const { return records[i].ts; }
};

Capture load_capture(const std::string& path) {
  Capture capture;
  capture.bytes.reserve(static_cast<std::size_t>(fs::file_size(path)));
  std::string error;
  const bool ok = pcap::read_any_capture(
      path,
      [&](const pcap::Frame& frame) {
        capture.records.push_back(
            {capture.bytes.size(), frame.data.size(), frame.timestamp});
        capture.bytes.insert(capture.bytes.end(), frame.data.begin(),
                             frame.data.end());
      },
      error);
  if (!ok) die("cannot read " + path + ": " + error);
  return capture;
}

// ---- output canonical forms -------------------------------------------------

std::string tsv_digest(const std::string& tsv) {
  Digest d;
  d.bytes(tsv.data(), tsv.size());
  return d.hex();
}

/// The flows of consecutive windows, re-added in window order: the
/// database the query batch reads in live-windows.
core::FlowDatabase combine_windows(
    const std::vector<core::AnalysisWindow>& windows) {
  core::FlowDatabase db;
  for (const auto& window : windows)
    for (const auto& flow : window.db.flows()) db.add(flow);
  return db;
}

// ---- the analytics batch ---------------------------------------------------

/// The fixed query batch: which ports, FQDNs and providers to ask about.
/// Chosen once from the reference database (most flows first, ties by
/// key) and cached with it, so every pass asks the same questions.
struct QueryPlan {
  std::vector<std::uint16_t> ports;
  std::vector<std::string> fqdns;
  std::vector<std::string> providers;
};

template <typename K>
std::vector<K> top_by_count(const std::map<K, std::size_t>& counts,
                            std::size_t k) {
  std::vector<std::pair<K, std::size_t>> ranked(counts.begin(), counts.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::vector<K> out;
  for (std::size_t i = 0; i < ranked.size() && i < k; ++i)
    out.push_back(ranked[i].first);
  return out;
}

QueryPlan plan_queries(const core::FlowDatabase& db,
                       const orgdb::OrgDb& orgs) {
  std::map<std::uint16_t, std::size_t> ports;
  std::map<std::string, std::size_t> fqdns;
  std::map<std::string, std::size_t> providers;
  for (const auto& flow : db.flows()) {
    ++ports[flow.key.server_port];
    if (flow.labeled()) ++fqdns[std::string{flow.fqdn}];
    if (const auto org = orgs.lookup(flow.key.server_ip))
      ++providers[std::string{*org}];
  }
  QueryPlan plan;
  plan.ports = top_by_count(ports, 50);
  plan.fqdns = top_by_count(fqdns, 1000);
  plan.providers = top_by_count(providers, 20);
  return plan;
}

struct QueryRun {
  double service_tags_s = 0;
  double spatial_s = 0;
  double content_s = 0;
  double tangle_s = 0;
  std::string digest;
  double total() const {
    return service_tags_s + spatial_s + content_s + tangle_s;
  }
};

/// Runs the batch; each call is timed alone and its result digested
/// outside the timed region.
QueryRun run_queries(const core::FlowDatabase& db, const orgdb::OrgDb& orgs,
                     const QueryPlan& plan) {
  QueryRun run;
  Digest d;
  for (const auto port : plan.ports) {
    const auto t0 = Clock::now();
    const auto tags = analytics::extract_service_tags(db, port);
    run.service_tags_s += secs(Clock::now() - t0);
    for (const auto& tag : tags) {
      d.str(tag.token);
      d.num(tag.score);
    }
  }
  for (const auto& fqdn : plan.fqdns) {
    const auto t0 = Clock::now();
    const auto report = analytics::spatial_discovery(db, orgs, fqdn);
    run.spatial_s += secs(Clock::now() - t0);
    for (const auto* servers :
         {&report.fqdn_servers, &report.organization_servers}) {
      for (const auto& s : *servers) {
        d.num(s.server.value());
        d.num(static_cast<double>(s.flows));
        d.str(s.organization);
      }
    }
  }
  for (const auto& provider : plan.providers) {
    const auto t0 = Clock::now();
    const auto report =
        analytics::content_discovery_by_provider(db, orgs, provider);
    run.content_s += secs(Clock::now() - t0);
    d.num(static_cast<double>(report.total_flows));
    d.num(static_cast<double>(report.distinct_fqdns));
    for (const auto& domain : report.domains) {
      d.str(domain.name);
      d.num(static_cast<double>(domain.flows));
    }
  }
  const auto t0 = Clock::now();
  const auto tangle = analytics::tangle_graph(db);
  run.tangle_s = secs(Clock::now() - t0);
  d.num(static_cast<double>(tangle.organizations));
  d.num(static_cast<double>(tangle.entangled_orgs));
  d.num(static_cast<double>(tangle.multi_tenant_servers));
  for (const auto& pair : tangle.pairs) {
    d.str(pair.org_a);
    d.str(pair.org_b);
    d.num(static_cast<double>(pair.shared_servers));
  }
  run.digest = d.hex();
  return run;
}

// ---- reference (computed untimed by `prepare`, cached) ----------------------

struct Reference {
  std::string tsv_digest;
  std::string query_digest;
  QueryPlan plan;
  std::uint64_t frames = 0;
  std::uint64_t flows = 0;
  std::uint64_t dns_responses = 0;
  std::uint64_t windows = 0;
};

void write_reference(const std::string& path, const Reference& r) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp};
    out << "tsv_digest " << r.tsv_digest << "\nquery_digest "
        << r.query_digest << "\nframes " << r.frames << "\nflows " << r.flows
        << "\ndns_responses " << r.dns_responses << "\nwindows " << r.windows
        << "\n";
    for (const auto port : r.plan.ports) out << "port " << port << "\n";
    for (const auto& fqdn : r.plan.fqdns) out << "fqdn " << fqdn << "\n";
    for (const auto& provider : r.plan.providers)
      out << "provider " << provider << "\n";
    if (!out) die("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

std::optional<Reference> read_reference(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  Reference r;
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) return std::nullopt;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const auto number = [&] { return std::strtoull(value.c_str(), nullptr, 10); };
    if (key == "tsv_digest") r.tsv_digest = value;
    else if (key == "query_digest") r.query_digest = value;
    else if (key == "frames") r.frames = number();
    else if (key == "flows") r.flows = number();
    else if (key == "dns_responses") r.dns_responses = number();
    else if (key == "windows") r.windows = number();
    else if (key == "port")
      r.plan.ports.push_back(static_cast<std::uint16_t>(number()));
    else if (key == "fqdn") r.plan.fqdns.push_back(value);
    else if (key == "provider") r.plan.providers.push_back(value);
    else return std::nullopt;
  }
  if (r.tsv_digest.empty() || r.query_digest.empty()) return std::nullopt;
  return r;
}

/// Batch reference: a bare single-threaded Sniffer, canonicalized.
/// Live reference: the same windows from an unpaced shards=1, kBlock run,
/// concatenated.
Reference compute_reference(const Workload& w, const std::string& pcap_path,
                            const orgdb::OrgDb& orgs) {
  Reference r;
  core::Sniffer sniffer;
  if (!sniffer.process_pcap(pcap_path)) die("reference: " + sniffer.error());
  sniffer.finish();
  r.frames = sniffer.stats().frames;
  r.flows = sniffer.stats().flows_exported;
  r.dns_responses = sniffer.stats().dns_responses;
  if (!w.live) {
    pipeline::canonicalize(sniffer.database());
    std::ostringstream tsv;
    core::write_flow_tsv(sniffer.database(), tsv);
    r.tsv_digest = tsv_digest(tsv.str());
    r.windows = 1;
    const auto& db = sniffer.database();
    r.plan = plan_queries(db, orgs);
    r.query_digest = run_queries(db, orgs, r.plan).digest;
    return r;
  }
  pipeline::PipelineConfig config = pipeline_config(w, "");
  config.shards = 1;
  config.backpressure = pipeline::BackpressurePolicy::kBlock;
  config.spill_dir.clear();
  std::vector<core::AnalysisWindow> windows;
  {
    pipeline::ShardedAnalyzer analyzer{
        config,
        [&](core::AnalysisWindow&& window) {
          windows.push_back(std::move(window));
        }};
    if (!analyzer.process_pcap(pcap_path)) die("reference: " + analyzer.error());
    analyzer.finish();
  }
  std::ostringstream tsv;
  for (const auto& window : windows) core::write_flow_tsv(window.db, tsv);
  r.tsv_digest = tsv_digest(tsv.str());
  r.windows = windows.size();
  const auto db = combine_windows(windows);
  r.plan = plan_queries(db, orgs);
  r.query_digest = run_queries(db, orgs, r.plan).digest;
  return r;
}

// ---- command line -----------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string cache_dir;
  std::string work_dir;
  std::string gen_hash;
  std::string src_hash;
  std::string commit = "unknown";
  std::string results;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: dnh_perfbench prepare|run --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) die("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") a.trace = std::atoi(value.c_str());
    else if (key == "--cache") a.cache_dir = value;
    else if (key == "--work") a.work_dir = value;
    else if (key == "--gen-hash") a.gen_hash = value;
    else if (key == "--src-hash") a.src_hash = value;
    else if (key == "--commit") a.commit = value;
    else if (key == "--results") a.results = value;
    else die("unknown option " + key);
  }
  if (a.workload.empty() || a.cache_dir.empty() || a.gen_hash.empty() ||
      a.src_hash.empty())
    die("--workload, --cache, --gen-hash and --src-hash are required");
  if (a.seconds <= 0) die("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) die("--trace must be 0 or 1");
  return a;
}

struct CachePaths {
  std::string pcap;
  std::string reference;
};

CachePaths cache_paths(const Args& a, const Workload& w) {
  Digest capture_key;
  capture_key.str(describe_profile(w.profile));
  capture_key.str(a.gen_hash);
  Digest reference_key = capture_key;
  reference_key.str(a.src_hash);
  reference_key.str(w.live ? "windows" : "batch");
  const std::string stem = a.cache_dir + "/" + w.profile.name + "-s" +
                           std::to_string(a.seed) + "-";
  return {stem + capture_key.hex() + ".pcap",
          stem + (w.live ? "live-" : "batch-") + reference_key.hex() + ".ref"};
}

/// Writes a file's dirty pages to disk. A freshly generated capture is
/// ~100 MB of dirty page cache; left to background writeback it lands on
/// the measured run, whose spill fsyncs (live-windows) then wait for it.
void flush_to_disk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) die("cannot fsync " + path);
  ::close(fd);
}

int prepare(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  fs::create_directories(a.cache_dir);
  const CachePaths paths = cache_paths(a, w);
  trafficgen::Simulator sim{w.profile};
  double gen_s = 0;
  if (!fs::exists(paths.pcap)) {
    const std::string tmp = paths.pcap + ".tmp" + std::to_string(getpid());
    const auto t0 = Clock::now();
    if (!sim.write_pcap(tmp)) die("cannot write " + tmp);
    gen_s = secs(Clock::now() - t0);
    flush_to_disk(tmp);
    fs::rename(tmp, paths.pcap);
  }
  double reference_s = 0;
  if (!read_reference(paths.reference)) {
    const auto t0 = Clock::now();
    write_reference(paths.reference,
                    compute_reference(w, paths.pcap, sim.world().org_db()));
    reference_s = secs(Clock::now() - t0);
  }
  std::printf("{\"pcap\": \"%s\", \"reference\": \"%s\", \"gen_s\": %s, "
              "\"reference_s\": %s}\n",
              json_escape(paths.pcap).c_str(),
              json_escape(paths.reference).c_str(),
              json_number(gen_s).c_str(), json_number(reference_s).c_str());
  return 0;
}

// ---- measurement ------------------------------------------------------------

/// One named metric: its value, unit and the samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra provenance/honesty lines
};

/// Environment shared by the measuring code of one run.
struct Bench {
  Workload workload;
  std::string pcap;
  Reference reference;
  std::unique_ptr<trafficgen::Simulator> sim;  // for the OrgDb only
  std::string spill_dir;

  const orgdb::OrgDb& orgs() const { return sim->world().org_db(); }
  pipeline::PipelineConfig config() const {
    return pipeline_config(workload, spill_dir);
  }
};

/// What one ingest of the workload produced.
struct Ingest {
  double setup_s = 0;
  double wall_s = 0;          // frames_per_s denominator
  std::uint64_t offered = 0;  // frames offered to the analyzer
  std::uint64_t dropped = 0;
  std::vector<double> window_latency_ms;
  std::vector<double> gen_lag_ms;  // live only
  double send_s = 0;               // live: first due to last send
  pipeline::PipelineStats stats;
  std::vector<core::AnalysisWindow> windows;
  std::string tsv;
  // Traced ingest only: the span breakdown.
  double read_s = 0, dispatch_s = 0, pace_s = 0, feed_s = 0;
  double finish_s = 0, tsv_s = 0, teardown_s = 0;
};

/// Merged output (possibly several windows) of an ingest as one database.
core::FlowDatabase output_db(Ingest& ingest) {
  if (ingest.windows.size() == 1) return std::move(ingest.windows.front().db);
  return combine_windows(ingest.windows);
}

/// Closed-loop batch ingest: process_pcap (or, traced, the same read loop
/// with the read and on_frame calls timed apart), finish, TSV, teardown.
Ingest batch_ingest(Bench& b, bool traced) {
  Ingest r;
  Clock::time_point t_sink{};
  const auto t0 = Clock::now();
  auto analyzer = std::make_unique<pipeline::ShardedAnalyzer>(
      b.config(), [&](core::AnalysisWindow&& window) {
        t_sink = Clock::now();
        r.windows.push_back(std::move(window));
      });
  const auto t_ready = Clock::now();
  r.setup_s = secs(t_ready - t0);
  if (!traced) {
    if (!analyzer->process_pcap(b.pcap)) die("ingest: " + analyzer->error());
  } else {
    std::string error;
    Clock::duration read{}, dispatch{};
    auto last = Clock::now();
    const bool ok = pcap::read_any_capture(
        b.pcap,
        [&](const pcap::Frame& frame) {
          const auto t_read = Clock::now();
          analyzer->on_frame(frame.data, frame.timestamp);
          const auto t_sent = Clock::now();
          read += t_read - last;
          dispatch += t_sent - t_read;
          last = t_sent;
        },
        error);
    if (!ok) die("ingest: " + error);
    r.read_s = secs(read);
    r.dispatch_s = secs(dispatch);
  }
  const auto t_in = Clock::now();
  r.feed_s = secs(t_in - t_ready);
  analyzer->finish();
  const auto t_finished = Clock::now();
  std::ostringstream tsv;
  for (const auto& window : r.windows) core::write_flow_tsv(window.db, tsv);
  const auto t_written = Clock::now();
  r.stats = analyzer->stats();
  analyzer.reset();
  const auto t_end = Clock::now();
  r.tsv = tsv.str();
  r.finish_s = secs(t_finished - t_in);
  r.tsv_s = secs(t_written - t_finished);
  r.teardown_s = secs(t_end - t_written);
  r.wall_s = secs(t_end - t_ready);
  r.offered = r.stats.frames_dispatched;
  r.dropped = r.stats.frames_dropped;
  // A batch has one window; its boundary is the end of the input.
  r.window_latency_ms.push_back(secs(t_sink - t_in) * 1e3);
  return r;
}

/// Open-loop live ingest: frame i is due at start + i / kLiveRate; the
/// generator sends it then (or as soon as it can when late). Each window's
/// latency runs from the due time of the first frame past its boundary to
/// the sink receiving it.
Ingest live_ingest(Bench& b, const Capture& capture, bool traced) {
  Ingest r;
  std::vector<Clock::time_point> received;
  const auto t0 = Clock::now();
  auto analyzer = std::make_unique<pipeline::ShardedAnalyzer>(
      b.config(), [&](core::AnalysisWindow&& window) {
        received.push_back(Clock::now());
        r.windows.push_back(std::move(window));
      });
  const auto t_ready = Clock::now();
  r.setup_s = secs(t_ready - t0);

  const double period_ns = 1e9 / kLiveRate;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(i) * period_ns));
  };
  const std::size_t n = capture.size();
  r.gen_lag_ms.reserve(n);
  Clock::duration pace{}, dispatch{};
  Clock::time_point t_sent = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto due_i = due(i);
    // Sleep, never spin: on a box with as many hardware threads as the
    // pipeline has threads, a spinning generator takes a core from the
    // workers and makes them shed frames the system could have handled.
    // Frames that fall due during one oversleep go out back to back.
    auto now = Clock::now();
    if (now < due_i) {
      std::this_thread::sleep_until(due_i);
      now = Clock::now();
    }
    r.gen_lag_ms.push_back(nanos(now - due_i) * 1e-6);
    analyzer->on_frame(capture.frame(i), capture.ts(i));
    if (traced) {
      const auto after = Clock::now();
      pace += now - t_sent;
      dispatch += after - now;
      t_sent = after;
    }
  }
  const auto t_in = Clock::now();
  r.send_s = secs(t_in - start);
  r.feed_s = secs(t_in - t_ready);
  r.pace_s = secs(pace);
  r.dispatch_s = secs(dispatch);
  analyzer->finish();
  const auto t_finished = Clock::now();
  std::ostringstream tsv;
  for (const auto& window : r.windows) core::write_flow_tsv(window.db, tsv);
  const auto t_written = Clock::now();
  r.stats = analyzer->stats();
  analyzer.reset();
  const auto t_end = Clock::now();
  r.tsv = tsv.str();
  r.finish_s = secs(t_finished - t_in);
  r.tsv_s = secs(t_written - t_finished);
  r.teardown_s = secs(t_end - t_written);
  r.wall_s = secs(t_finished - start);
  r.offered = r.stats.frames_dispatched;
  r.dropped = r.stats.frames_dropped;
  // Every window but the last closes at a boundary crossed mid-stream; the
  // last is flushed by finish() and has no boundary frame.
  for (std::size_t k = 0; k + 1 < r.windows.size(); ++k) {
    const auto boundary = r.windows[k].end;
    const auto first = std::lower_bound(
        capture.records.begin(), capture.records.end(), boundary,
        [](const Capture::Record& rec, util::Timestamp t) {
          return rec.ts < t;
        });
    const auto index =
        static_cast<std::size_t>(first - capture.records.begin());
    r.window_latency_ms.push_back(nanos(received[k] - due(index)) * 1e-6);
  }
  return r;
}

Ingest ingest(Bench& b, const Capture* capture, bool traced) {
  return b.workload.live ? live_ingest(b, *capture, traced)
                         : batch_ingest(b, traced);
}

/// Checks an ingest's output against the reference; a live pass with
/// drops cannot match and is counted in the run's `failed` frames instead.
bool verify(const Ingest& r, const Reference& ref, std::string& why) {
  if (r.dropped > 0) return true;
  const std::string got = tsv_digest(r.tsv);
  if (got != ref.tsv_digest) {
    why = "flows-TSV digest " + got + " != reference " + ref.tsv_digest;
    return false;
  }
  return true;
}

bool verify_queries(const QueryRun& q, const Reference& ref,
                    std::string& why) {
  if (q.digest != ref.query_digest) {
    why = "query digest " + q.digest + " != reference " + ref.query_digest;
    return false;
  }
  return true;
}

/// Extra ShardedAnalyzer constructions that only feed setup_s.
constexpr int kSetupSamples = 5;

RunOutcome measure_end_to_end(Bench& b, const Capture* capture,
                              double seconds) {
  RunOutcome out;
  // Generator lateness is summarised per pass (p50/p90/max over its
  // frames): keeping every frame's sample would grow the process by
  // ~9 MB a pass and show up in peak_rss_mb.
  std::vector<double> setup, fps, query, latency, rss, lag_p50, lag_p90,
      lag_max;
  std::uint64_t offered = 0, dropped = 0, windows = 0, verified = 0;
  double send_s = 0, sent_frames = 0;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    auto analyzer = std::make_unique<pipeline::ShardedAnalyzer>(
        b.config(), [](core::AnalysisWindow&&) {});
    setup.push_back(secs(Clock::now() - t0));
  }
  // One untimed pass first: warms the page cache and the allocator, and
  // is checked like every other pass. Peak RSS is taken per pass (ingest
  // plus queries) and reported as the median pass.
  const auto measure_one = [&](bool timed) {
    reset_peak_rss();
    Ingest r = ingest(b, capture, /*traced=*/false);
    std::string why;
    if (!verify(r, b.reference, why)) {
      out.correct = false;
      out.notes.push_back("ingest mismatch: " + why);
    }
    const core::FlowDatabase db = output_db(r);
    const QueryRun q = run_queries(db, b.orgs(), b.reference.plan);
    if (r.dropped == 0 && !verify_queries(q, b.reference, why)) {
      out.correct = false;
      out.notes.push_back("query mismatch: " + why);
    }
    if (!timed) return;
    if (r.dropped == 0) ++verified;
    rss.push_back(peak_rss_mb());
    setup.push_back(r.setup_s);
    fps.push_back(static_cast<double>(r.offered - r.dropped) / r.wall_s);
    query.push_back(q.total());
    latency.insert(latency.end(), r.window_latency_ms.begin(),
                   r.window_latency_ms.end());
    lag_p50.push_back(percentile(r.gen_lag_ms, 0.5));
    lag_p90.push_back(percentile(r.gen_lag_ms, 0.9));
    lag_max.push_back(percentile(r.gen_lag_ms, 1.0));
    out.notes.push_back(
        "pass " + std::to_string(fps.size()) + ": " +
        fmt("%.0f frames/s", fps.back()) + fmt(", query %.4f s", q.total()) +
        fmt(", window latency p50 %.3f ms", median(r.window_latency_ms)) +
        fmt(", setup %.4f s", r.setup_s) + fmt(", rss %.1f MB", rss.back()) +
        ", dropped " + std::to_string(r.dropped));
    offered += r.offered;
    dropped += r.dropped;
    windows += r.windows.size();
    send_s += r.send_s;
    sent_frames += static_cast<double>(r.offered);
  };
  measure_one(false);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    measure_one(true);
  } while (Clock::now() < deadline && out.correct);

  const std::size_t passes = fps.size();
  out.attempted = offered;
  out.failed = dropped;
  out.metrics = {
      {"frames_per_s", median(fps), "1/s", passes},
      {"query_s", median(query), "s", passes},
      {"setup_s", median(setup), "s", setup.size()},
      {"peak_rss_mb", median(rss), "MB", passes},
  };
  // The open-loop metrics exist only for live-windows, which BENCHMARK.json
  // does not list (see the header); a batch pass has one window, so its
  // end-of-input-to-merged-window time is shown per pass above instead.
  if (b.workload.live) {
    out.metrics.push_back({"window_latency_p50_ms", percentile(latency, 0.5),
                           "ms", latency.size()});
    out.metrics.push_back({"window_latency_p90_ms", percentile(latency, 0.9),
                           "ms", latency.size()});
    out.metrics.push_back({"drop_ratio",
                           static_cast<double>(dropped) /
                               static_cast<double>(offered),
                           "ratio", passes});
  }
  out.notes.push_back("passes " + std::to_string(passes) + " (" +
                      std::to_string(verified) + " checked against the "
                      "reference), windows " +
                      std::to_string(windows) + ", frames offered " +
                      std::to_string(offered) + ", dropped " +
                      std::to_string(dropped));
  if (b.workload.live) {
    out.notes.push_back(
        "offered rate " + fmt("%.0f", kLiveRate) + " frames/s scheduled, " +
        fmt("%.0f", sent_frames / send_s) + " sent, " +
        fmt("%.0f", median(fps)) + " achieved (median pass)");
    out.notes.push_back("generator lateness (median pass) p50 " +
                        fmt("%.4f", median(lag_p50)) + " ms, p90 " +
                        fmt("%.4f", median(lag_p90)) + " ms; max " +
                        fmt("%.4f", percentile(lag_max, 1.0)) + " ms");
    const std::size_t per_pass = passes ? latency.size() / passes : 0;
    if (per_pass < 100)
      out.notes.push_back("WARNING: only " + std::to_string(per_pass) +
                          " windows per pass (expected >= 100)");
  }
  return out;
}

// ---- the traced run ---------------------------------------------------------

/// Spans recorded by this file around calls into each layer. Every span
/// has a parent (except the root) and a duration; accumulated spans sum
/// many short calls (per frame, per chunk) into one node. A span's self
/// time is its duration minus its children's, so the self times of a tree
/// add up to the root's wall time exactly when no child outlasts its
/// parent; the traced run checks that.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double seconds = 0;
  };

  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, 0});
    starts_.push_back(Clock::now());
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].seconds =
        secs(Clock::now() - starts_[static_cast<std::size_t>(id)]);
  }
  void add(const std::string& name, int parent, double seconds) {
    spans_.push_back({name, parent, seconds});
    starts_.push_back(Clock::now());
  }

  double self_seconds(int id) const {
    double self = spans_[static_cast<std::size_t>(id)].seconds;
    for (const auto& s : spans_)
      if (s.parent == id) self -= s.seconds;
    return self;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Prints the tree with durations and self times; returns false when a
  /// self time is negative or the self times miss the root's wall time.
  bool report(int root, std::FILE* out) const {
    double sum = 0;
    bool ok = true;
    std::fprintf(out, "%-34s %12s %12s %7s\n", "span", "total_ms", "self_ms",
                 "self%");
    print(root, 0, out, sum, ok);
    const double wall = spans_[static_cast<std::size_t>(root)].seconds;
    std::fprintf(out, "self times sum %.3f ms, root wall %.3f ms\n",
                 sum * 1e3, wall * 1e3);
    return ok && std::fabs(sum - wall) <= 1e-6 * std::max(1.0, wall);
  }

 private:
  void print(int id, int depth, std::FILE* out, double& sum, bool& ok) const {
    const auto& s = spans_[static_cast<std::size_t>(id)];
    const double self = self_seconds(id);
    const double wall = spans_[0].seconds;
    sum += self;
    if (self < -1e-9) ok = false;
    std::fprintf(out, "%*s%-*s %12.3f %12.3f %6.1f%%\n", 2 * depth, "",
                 34 - 2 * depth, s.name.c_str(), s.seconds * 1e3, self * 1e3,
                 wall > 0 ? 100.0 * self / wall : 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent == id) print(static_cast<int>(i), depth + 1, out,
                                        sum, ok);
  }

  std::vector<Span> spans_;
  std::vector<Clock::time_point> starts_;
};

/// The sniffer's per-frame work, layer by layer, replayed from outside in
/// chunks so each layer's public functions are timed apart: decode every
/// frame; scan each UDP DNS response and insert it into a resolver; feed
/// every other TCP/UDP packet to a flow table; look the resolver up at
/// each flow's first packet (the Sniffer's own flow-start lookup).
struct LayerReplay {
  double decode_s = 0, scan_s = 0, insert_s = 0, table_s = 0, lookup_s = 0;
  std::uint64_t frames = 0, responses = 0, inserts = 0, table_packets = 0,
                lookups = 0;
};

LayerReplay replay_layers(const Capture& capture) {
  LayerReplay r;
  constexpr std::size_t kChunk = 4096;
  auto table_ptr = std::make_shared<core::DomainTable>();
  core::DnsResolver resolver{core::SnifferConfig{}.clist_size, table_ptr};
  flow::FlowTable flows{core::SnifferConfig{}.table};
  std::vector<flow::FlowKey> starts;
  flows.set_flow_start_observer(
      [&](const flow::FlowRecord& record) { starts.push_back(record.key); });
  flows.set_exporter([](flow::FlowRecord&&) {});
  dns::ResponseScratch scanned;
  std::vector<packet::DecodedPacket> decoded;
  decoded.reserve(kChunk);
  for (std::size_t base = 0; base < capture.size(); base += kChunk) {
    const std::size_t end = std::min(base + kChunk, capture.size());
    decoded.clear();
    auto t0 = Clock::now();
    for (std::size_t i = base; i < end; ++i) {
      auto pkt = packet::decode_frame(capture.frame(i), capture.ts(i));
      if (pkt && pkt->is_ipv4()) decoded.push_back(std::move(*pkt));
    }
    auto t1 = Clock::now();
    r.decode_s += secs(t1 - t0);
    r.frames += end - base;
    Clock::duration scan{}, insert{}, table{};
    for (const auto& pkt : decoded) {
      const bool udp = pkt.is_udp();
      const std::uint16_t sport = pkt.src_port(), dport = pkt.dst_port();
      if (udp && sport == dns::kDnsPort) {
        const auto a = Clock::now();
        dns::MessageParseError error = dns::MessageParseError::kNone;
        const bool ok = dns::scan_response(pkt.payload, scanned, error);
        const auto b = Clock::now();
        scan += b - a;
        ++r.responses;
        if (ok && scanned.is_response && scanned.name_len > 0) {
          resolver.insert(pkt.dst_v4(), table_ptr->intern(scanned.name_view()),
                          scanned.addresses, pkt.timestamp);
          insert += Clock::now() - b;
          ++r.inserts;
        }
        continue;
      }
      if (sport == dns::kDnsPort || dport == dns::kDnsPort) continue;
      const auto a = Clock::now();
      flows.on_packet(pkt);
      table += Clock::now() - a;
      ++r.table_packets;
    }
    r.scan_s += secs(scan);
    r.insert_s += secs(insert);
    r.table_s += secs(table);
    t0 = Clock::now();
    for (const auto& key : starts) {
      const auto hit = resolver.lookup(key.client_ip, key.server_ip);
      if (hit) asm volatile("" : : "r"(hit->fqdn.data()) : "memory");
    }
    r.lookup_s += secs(Clock::now() - t0);
    r.lookups += starts.size();
    starts.clear();
  }
  flows.flush();
  return r;
}

RunOutcome measure_traced(Bench& b, double seconds) {
  RunOutcome out;
  std::map<std::string, std::vector<double>> per;  // metric -> iterations
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  int iteration = 0;
  do {
    Tracer t;
    const int root = t.open("workload " + b.workload.name, -1);
    const auto put = [&](const std::string& name, double v) {
      per[name].push_back(v);
    };

    // pcap: the bare read of the capture file.
    int s = t.open("pcap.read", root);
    std::uint64_t frames = 0;
    std::string error;
    if (!pcap::read_any_capture(
            b.pcap, [&](const pcap::Frame&) { ++frames; }, error))
      die("read: " + error);
    t.close(s);
    put("pcap.read_ns_per_frame",
        t.spans()[static_cast<std::size_t>(s)].seconds * 1e9 /
            static_cast<double>(frames));

    s = t.open("bench.load_capture", root);
    const Capture capture = load_capture(b.pcap);
    t.close(s);

    // pipeline: the stateless route heuristic, per frame.
    s = t.open("pipeline.route", root);
    std::size_t route_sum = 0;
    for (std::size_t i = 0; i < capture.size(); ++i)
      route_sum += pipeline::ShardedAnalyzer::shard_for(capture.frame(i),
                                                        b.workload.shards);
    t.close(s);
    asm volatile("" : : "r"(route_sum) : "memory");
    put("pipeline.route_ns_per_frame",
        t.spans()[static_cast<std::size_t>(s)].seconds * 1e9 /
            static_cast<double>(capture.size()));

    // packet / dns / core.resolver / flow, replayed layer by layer.
    s = t.open("core.layer_replay", root);
    const LayerReplay lr = replay_layers(capture);
    t.add("packet.decode", s, lr.decode_s);
    t.add("dns.scan", s, lr.scan_s);
    t.add("core.resolver.insert", s, lr.insert_s);
    t.add("flow.table", s, lr.table_s);
    t.add("core.resolver.lookup", s, lr.lookup_s);
    t.close(s);
    put("packet.decode_ns_per_frame", lr.decode_s * 1e9 / lr.frames);
    put("dns.scan_ns_per_response", lr.scan_s * 1e9 / lr.responses);
    put("core.resolver_insert_ns", lr.insert_s * 1e9 / lr.inserts);
    put("core.resolver_lookup_ns", lr.lookup_s * 1e9 / lr.lookups);
    put("flow.table_ns_per_packet", lr.table_s * 1e9 / lr.table_packets);

    // core: the bare single-threaded Sniffer, the baseline.
    s = t.open("core.sniff", root);
    auto sniffer = std::make_unique<core::Sniffer>();
    for (std::size_t i = 0; i < capture.size(); ++i)
      sniffer->on_frame(capture.frame(i), capture.ts(i));
    sniffer->finish();
    t.close(s);
    const core::SnifferStats sst = sniffer->stats();
    put("core.sniff_ns_per_frame",
        t.spans()[static_cast<std::size_t>(s)].seconds * 1e9 /
            static_cast<double>(sst.frames));
    put("core.tag_at_start_ratio",
        static_cast<double>(sst.flows_tagged_at_start) /
            static_cast<double>(sst.flows_exported));
    put("dns.response_share", static_cast<double>(sst.dns_responses) /
                                  static_cast<double>(sst.frames));

    // core.flowdb add, then the pipeline's canonical sort, on its flows.
    s = t.open("bench.take_flows", root);
    core::FlowDatabase& sdb = sniffer->database();
    std::vector<core::TaggedFlow> taken = sdb.take_flows();
    t.close(s);
    s = t.open("core.flowdb_add", root);
    core::FlowDatabase added{sdb.domain_table()};
    for (auto& flow : taken) added.add(std::move(flow));
    t.close(s);
    put("core.flowdb_add_ns_per_flow",
        t.spans()[static_cast<std::size_t>(s)].seconds * 1e9 /
            static_cast<double>(added.size()));
    s = t.open("pipeline.canonicalize", root);
    pipeline::canonicalize(added);
    t.close(s);
    put("pipeline.canonicalize_s",
        t.spans()[static_cast<std::size_t>(s)].seconds);
    s = t.open("bench.free_sniffer", root);
    taken = {};
    added = core::FlowDatabase{};
    sniffer.reset();
    t.close(s);

    // The workload's own ingest, untraced (counters and overhead base) and
    // traced (setup, feed = read + dispatch or pace + dispatch, finish,
    // TSV, teardown); which goes first alternates between iterations.
    Ingest plain, traced;
    const auto untraced_ingest = [&] {
      s = t.open("bench.untraced_ingest", root);
      plain = ingest(b, &capture, /*traced=*/false);
      t.close(s);
    };
    if (iteration % 2 == 0) untraced_ingest();
    const int ing = t.open("ingest", root);
    traced = ingest(b, &capture, /*traced=*/true);
    t.add("pipeline.setup", ing, traced.setup_s);
    const int feed = static_cast<int>(t.spans().size());
    t.add("bench.feed_loop", ing, traced.feed_s);
    if (b.workload.live) {
      t.add("bench.pace", feed, traced.pace_s);
    } else {
      t.add("pcap.read_in_ingest", feed, traced.read_s);
    }
    t.add("pipeline.dispatch", feed, traced.dispatch_s);
    t.add("pipeline.finish", ing, traced.finish_s);
    t.add("core.tsv_write", ing, traced.tsv_s);
    t.add("pipeline.teardown", ing, traced.teardown_s);
    t.close(ing);
    if (iteration % 2 == 1) untraced_ingest();
    const double traced_frames =
        static_cast<double>(traced.offered - traced.dropped);
    const double plain_fps =
        static_cast<double>(plain.offered - plain.dropped) / plain.wall_s;
    const double traced_fps = traced_frames / traced.wall_s;
    put("trace_overhead_pct", (plain_fps - traced_fps) / plain_fps * 100.0);
    put("pipeline.dispatch_ns_per_frame",
        traced.dispatch_s * 1e9 / static_cast<double>(traced.offered));
    put("pipeline.finish_s", traced.finish_s);
    put("pipeline.teardown_s", traced.teardown_s);
    put("core.tsv_write_s", traced.tsv_s);

    const auto& ps = plain.stats;
    double max_frames = 0, sum_frames = 0, blocked = 0, enqueued = 0,
           high_water = 0;
    for (const auto& shard : ps.shards) {
      const auto f = static_cast<double>(shard.frames_processed);
      max_frames = std::max(max_frames, f);
      sum_frames += f;
      blocked += static_cast<double>(shard.blocked_pushes);
      enqueued += static_cast<double>(shard.frames_enqueued);
      high_water =
          std::max(high_water, static_cast<double>(shard.queue_high_water));
    }
    put("pipeline.shard_skew",
        max_frames / (sum_frames / static_cast<double>(ps.shards.size())));
    put("pipeline.blocked_push_ratio", blocked / enqueued);
    put("pipeline.queue_high_water", high_water);
    put("pipeline.merge_s", ps.merge_total.total_seconds());
    put("pipeline.merge_max_ms", ps.merge_max.total_seconds() * 1e3);
    put("pipeline.windows_spilled", static_cast<double>(ps.windows_spilled));
    put("pipeline.spill_bytes_per_window",
        ps.windows_spilled ? static_cast<double>(ps.spill_bytes) /
                                 static_cast<double>(ps.windows_spilled)
                           : 0.0);
    put("pipeline.inbox_peak", static_cast<double>(ps.merge_inbox_peak));
    put("pipeline.gen_lag_p90_ms",
        b.workload.live ? percentile(plain.gen_lag_ms, 0.9) : 0.0);

    // analytics: the query batch on the ingest's output.
    s = t.open("bench.output_db", root);
    const core::FlowDatabase db = output_db(traced);
    const QueryPlan& plan = b.reference.plan;
    t.close(s);
    s = t.open("analytics", root);
    const QueryRun q = run_queries(db, b.orgs(), plan);
    t.add("analytics.service_tags", s, q.service_tags_s);
    t.add("analytics.spatial", s, q.spatial_s);
    t.add("analytics.content", s, q.content_s);
    t.add("analytics.tangle", s, q.tangle_s);
    t.close(s);
    put("analytics.service_tags_s", q.service_tags_s);
    put("analytics.spatial_s", q.spatial_s);
    put("analytics.content_s", q.content_s);
    put("analytics.content_ms_per_provider",
        plan.providers.empty()
            ? 0.0
            : q.content_s * 1e3 / static_cast<double>(plan.providers.size()));
    put("analytics.tangle_s", q.tangle_s);

    s = t.open("bench.verify", root);
    std::string why;
    for (const Ingest* r : {&plain, &traced}) {
      if (!verify(*r, b.reference, why)) {
        out.correct = false;
        out.notes.push_back("ingest mismatch: " + why);
      }
    }
    if (traced.dropped == 0 && !verify_queries(q, b.reference, why)) {
      out.correct = false;
      out.notes.push_back("query mismatch: " + why);
    }
    out.attempted += traced.offered;
    out.failed += traced.dropped;
    t.close(s);
    s = t.open("bench.free_outputs", root);
    plain = Ingest{};
    traced = Ingest{};
    t.close(s);
    t.close(root);

    std::printf("traced iteration %d:\n", ++iteration);
    if (!t.report(root, stdout)) {
      out.correct = false;
      out.notes.push_back("span self times do not add up to the wall time");
    }
  } while (Clock::now() < deadline && out.correct);

  static const std::map<std::string, std::string> kUnits = {
      {"pcap.read_ns_per_frame", "ns"},
      {"pipeline.route_ns_per_frame", "ns"},
      {"pipeline.dispatch_ns_per_frame", "ns"},
      {"pipeline.shard_skew", "ratio"},
      {"packet.decode_ns_per_frame", "ns"},
      {"dns.scan_ns_per_response", "ns"},
      {"core.resolver_insert_ns", "ns"},
      {"core.resolver_lookup_ns", "ns"},
      {"flow.table_ns_per_packet", "ns"},
      {"core.sniff_ns_per_frame", "ns"},
      {"pipeline.blocked_push_ratio", "ratio"},
      {"pipeline.queue_high_water", "count"},
      {"core.flowdb_add_ns_per_flow", "ns"},
      {"pipeline.canonicalize_s", "s"},
      {"pipeline.merge_s", "s"},
      {"pipeline.merge_max_ms", "ms"},
      {"pipeline.finish_s", "s"},
      {"pipeline.teardown_s", "s"},
      {"core.tsv_write_s", "s"},
      {"pipeline.spill_bytes_per_window", "bytes"},
      {"pipeline.windows_spilled", "count"},
      {"pipeline.inbox_peak", "count"},
      {"pipeline.gen_lag_p90_ms", "ms"},
      {"analytics.service_tags_s", "s"},
      {"analytics.spatial_s", "s"},
      {"analytics.content_s", "s"},
      {"analytics.content_ms_per_provider", "ms"},
      {"analytics.tangle_s", "s"},
      {"core.tag_at_start_ratio", "ratio"},
      {"dns.response_share", "ratio"},
      {"trace_overhead_pct", "%"},
  };
  for (const auto& [name, values] : per) {
    const auto unit = kUnits.find(name);
    if (unit == kUnits.end()) die("no unit for " + name);
    out.metrics.push_back({name, median(values), unit->second, values.size()});
  }
  if (out.metrics.size() != kUnits.size()) die("a per-layer metric is missing");
  return out;
}

int run(const Args& a) {
  Bench b;
  b.workload = make_workload(a.workload, a.seed);
  const CachePaths paths = cache_paths(a, b.workload);
  b.pcap = paths.pcap;
  const auto reference = read_reference(paths.reference);
  if (!fs::exists(b.pcap) || !reference)
    die("capture or reference missing; run `prepare` first");
  b.reference = *reference;
  b.sim = std::make_unique<trafficgen::Simulator>(b.workload.profile);
  if (a.work_dir.empty()) die("--work is required");
  b.spill_dir = a.work_dir + "/spill-" + std::to_string(getpid());
  fs::remove_all(b.spill_dir);

  const std::string build_type = DNH_PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release)
    std::fprintf(stderr,
                 "dnh_perfbench: WARNING: %s build (not Release); figures "
                 "are flagged and must not be compared with Release ones\n",
                 build_type.c_str());

  std::unique_ptr<Capture> capture;
  if (b.workload.live) capture = std::make_unique<Capture>(load_capture(b.pcap));
  RunOutcome out = a.trace ? measure_traced(b, a.seconds)
                           : measure_end_to_end(b, capture.get(), a.seconds);
  capture.reset();
  fs::remove_all(b.spill_dir);

#if defined(__clang__)
  const std::string compiler = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string{"gcc "} + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream prov;
  prov << "{\"commit\": \"" << json_escape(a.commit) << "\", "
       << "\"source_digest\": \"" << json_escape(a.src_hash) << "\", "
       << "\"build_type\": \"" << json_escape(build_type) << "\", "
       << "\"release\": " << (release ? "true" : "false") << ", "
       << "\"compiler\": \"" << json_escape(compiler) << "\", "
       << "\"hw_threads\": " << std::thread::hardware_concurrency() << ", "
       << "\"cpu_model\": \"" << json_escape(cpu_model()) << "\", "
       << "\"workload\": \"" << b.workload.name << "\", "
       << "\"seed\": " << a.seed << ", "
       << "\"seconds\": " << json_number(a.seconds) << ", "
       << "\"trace\": " << a.trace << ", "
       << "\"frames\": " << b.reference.frames << ", "
       << "\"flows\": " << b.reference.flows << ", "
       << "\"dns_responses\": " << b.reference.dns_responses << "}";

  std::printf("workload %s seed %llu (%s, shards=%zu): %llu frames, %llu "
              "flows, %llu DNS responses\n",
              b.workload.name.c_str(), static_cast<unsigned long long>(a.seed),
              b.workload.profile.name.c_str(), b.workload.shards,
              static_cast<unsigned long long>(b.reference.frames),
              static_cast<unsigned long long>(b.reference.flows),
              static_cast<unsigned long long>(b.reference.dns_responses));
  for (const auto& note : out.notes) std::printf("%s\n", note.c_str());
  std::printf("%-36s %20s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& m : out.metrics)
    std::printf("%-36s %20.6f %-6s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);

  std::ostringstream metrics, record_metrics;
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const char* sep = i ? ", " : "";
    metrics << sep << '"' << m.name << "\": {\"value\": "
            << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    record_metrics << sep << '"' << m.name << "\": {\"value\": "
                   << json_number(m.value) << ", \"unit\": \"" << m.unit
                   << "\", \"samples\": " << m.samples << "}";
  }
  const char* correct = out.correct ? "true" : "false";
  if (!a.results.empty()) {
    std::ofstream log{a.results, std::ios::app};
    log << "{\"provenance\": " << prov.str() << ", \"correct\": " << correct
        << ", \"attempted\": " << out.attempted
        << ", \"failed\": " << out.failed << ", \"metrics\": {"
        << record_metrics.str() << "}}\n";
  }
  std::printf("provenance %s\n", prov.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct, static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics.str().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.mode == "prepare") return prepare(args);
  if (args.mode == "run") return run(args);
  die("unknown mode '" + args.mode + "'");
}
