// Flow-export ingest bench: raw codec throughput (records/second through
// ExportDecoder for NetFlow v5 and IPFIX-lite) and the tagging cost of
// living off summaries — the tag hit-ratio of the export path next to the
// packet path over the same generated world (docs/flow-export.md).
//
// Emits machine-readable BENCH_flowexport.json (override with --out).
// There is no speedup gate: the numbers are a record, and the differential
// test suite (test_flowexport) owns the correctness claims.
//
// Usage: bench_flowexport_ingest [--records N] [--out FILE.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "flowexport/stream.hpp"
#include "flowexport/wire.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/source.hpp"

namespace {

using namespace dnh;

struct DecodeRun {
  const char* format = "";
  std::uint64_t records = 0;
  std::uint64_t datagrams = 0;
  double seconds = 0;
  double rps = 0;
  std::uint64_t parse_errors = 0;
};

std::vector<flowexport::Datagram> load_stream(const std::string& path) {
  flowexport::DatagramReader reader;
  if (!reader.open(path)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<flowexport::Datagram> datagrams;
  flowexport::Datagram datagram;
  while (reader.next(datagram)) datagrams.push_back(datagram);
  return datagrams;
}

/// Replays the in-memory datagrams through one decoder until at least
/// `target` records have been decoded. One decoder for the whole run:
/// templates persist across replays exactly as they do across a long
/// export session.
DecodeRun run_decode(const char* format,
                     const std::vector<flowexport::Datagram>& datagrams,
                     std::uint64_t target) {
  DecodeRun run;
  run.format = format;
  flowexport::ExportDecoder decoder;
  std::vector<flowexport::ExportRecord> out;
  const auto t0 = std::chrono::steady_clock::now();
  while (run.records < target) {
    for (const auto& datagram : datagrams) {
      out.clear();
      decoder.on_datagram(
          net::BytesView{datagram.payload.data(), datagram.payload.size()},
          out);
      run.records += out.size();
      ++run.datagrams;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  run.rps = static_cast<double>(run.records) / run.seconds;
  run.parse_errors = decoder.stats().parse_errors();
  return run;
}

double labeled_fraction(const core::FlowDatabase& db) {
  if (db.size() == 0) return 0.0;
  std::uint64_t labeled = 0;
  for (const auto& flow : db.flows()) labeled += flow.labeled();
  return static_cast<double>(labeled) / static_cast<double>(db.size());
}

struct ExportPathRun {
  std::size_t flows = 0;
  double hit_ratio = 0;
  double seconds = 0;
  double rps = 0;  ///< export records ingested per second, end to end
};

/// The export path the CLI wires up: records carry the flows, the capture
/// carries the DNS, late tags ride lookup_at_or_before.
ExportPathRun run_export_path(const std::string& stream,
                              const std::string& pcap) {
  pipeline::PipelineConfig config;
  config.sniffer.dns_only = true;
  ExportPathRun run;
  std::vector<core::AnalysisWindow> windows;
  const auto t0 = std::chrono::steady_clock::now();
  pipeline::ShardedAnalyzer analyzer{
      config, [&](core::AnalysisWindow&& window) {
        windows.push_back(std::move(window));
      }};
  pipeline::ExportStreamSource source{stream, pcap};
  if (!source.run(analyzer)) {
    std::fprintf(stderr, "export path failed: %s\n", source.error().c_str());
    std::exit(1);
  }
  analyzer.finish();
  const core::FlowDatabase merged = pipeline::merge(std::move(windows)).db;
  const auto t1 = std::chrono::steady_clock::now();
  run.seconds = std::chrono::duration<double>(t1 - t0).count();
  run.rps = static_cast<double>(source.decoder_stats().records()) /
            run.seconds;
  run.flows = merged.size();
  run.hit_ratio = labeled_fraction(merged);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t target_records = 1'000'000;
  std::string out_path = "BENCH_flowexport.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc)
      target_records = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out_path = argv[++i];
  }

  bench::print_header(
      "Flow-export ingest: codec throughput and tag hit-ratio vs pcap",
      "N/A (engineering bench; the paper's probe reads packets)");

  auto profile = trafficgen::profile_eu1_ftth();
  profile.name = "flowexport-bench";
  profile.duration = util::Duration::minutes(30);
  profile.n_clients = 48;
  profile.seed = 23;
  const auto trace = bench::load_trace(profile);
  const std::string v5_path = trace.pcap_path + ".v5.dnhx";
  const std::string ipfix_path = trace.pcap_path + ".ipfix.dnhx";
  if (!trace.sim->write_flow_export(v5_path, flowexport::ExportFormat::kV5) ||
      !trace.sim->write_flow_export(ipfix_path,
                                    flowexport::ExportFormat::kIpfix)) {
    std::fprintf(stderr, "cannot write export streams\n");
    return 1;
  }

  const auto v5 = load_stream(v5_path);
  const auto ipfix = load_stream(ipfix_path);
  std::printf("corpus: %s flows, %zu v5 / %zu ipfix datagrams\n",
              util::with_commas(trace.db().size()).c_str(), v5.size(),
              ipfix.size());

  bench::BenchReporter reporter{"flowexport_ingest"};
  std::vector<DecodeRun> decode_runs;
  decode_runs.push_back(run_decode("v5", v5, target_records));
  decode_runs.push_back(run_decode("ipfix", ipfix, target_records));

  util::TextTable decode_table{
      {"format", "records", "datagrams", "seconds", "records/s", "errors"}};
  char buffer[64];
  bool ok = true;
  for (const auto& run : decode_runs) {
    std::snprintf(buffer, sizeof buffer, "%.2f", run.seconds);
    decode_table.add_row(
        {run.format, util::with_commas(run.records),
         util::with_commas(run.datagrams), buffer,
         util::with_commas(static_cast<std::uint64_t>(run.rps)),
         util::with_commas(run.parse_errors)});
    reporter.report(std::string{run.format} + "_records_per_s", run.rps);
    ok &= run.parse_errors == 0;  // a clean stream must decode cleanly
  }
  std::printf("%s", decode_table.render().c_str());
  if (!ok) std::printf("FAIL: parse errors on an undamaged stream\n");

  // Tag hit-ratio: what living off summaries costs against the packet
  // path over the same world. The pcap baseline came from load_trace's
  // single-threaded sniffer.
  const double pcap_ratio = labeled_fraction(trace.db());
  const ExportPathRun v5_run = run_export_path(v5_path, trace.pcap_path);
  const ExportPathRun ipfix_run = run_export_path(ipfix_path,
                                                  trace.pcap_path);
  std::printf("\ntag hit-ratio: pcap %.4f, export v5 %.4f, ipfix %.4f\n",
              pcap_ratio, v5_run.hit_ratio, ipfix_run.hit_ratio);
  std::printf("export ingest end-to-end: %s records/s (v5)\n",
              util::with_commas(
                  static_cast<std::uint64_t>(v5_run.rps)).c_str());
  reporter.report("tag_hit_ratio_pcap", pcap_ratio);
  reporter.report("tag_hit_ratio_v5", v5_run.hit_ratio);
  reporter.report("ingest_records_per_s", v5_run.rps);
  if (pcap_ratio > 0 && v5_run.hit_ratio < pcap_ratio - 1e-9) {
    // The differential tests prove exact tag equality; the bench only
    // sanity-checks that the ratio did not regress behind their back.
    std::printf("FAIL: export hit-ratio below the pcap path\n");
    ok = false;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"flowexport_ingest\",\n"
               "  \"flows\": %zu,\n"
               "  \"tag_hit_ratio\": {\"pcap\": %.4f, \"v5\": %.4f, "
               "\"ipfix\": %.4f},\n"
               "  \"ingest_records_per_s\": %.0f,\n"
               "  \"decode_runs\": [\n",
               trace.db().size(), pcap_ratio, v5_run.hit_ratio,
               ipfix_run.hit_ratio, v5_run.rps);
  for (std::size_t i = 0; i < decode_runs.size(); ++i) {
    const DecodeRun& r = decode_runs[i];
    std::fprintf(out,
                 "    {\"format\": \"%s\", \"records\": %llu, "
                 "\"seconds\": %.4f, \"records_per_s\": %.0f, "
                 "\"parse_errors\": %llu}%s\n",
                 r.format, static_cast<unsigned long long>(r.records),
                 r.seconds, r.rps,
                 static_cast<unsigned long long>(r.parse_errors),
                 i + 1 < decode_runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
