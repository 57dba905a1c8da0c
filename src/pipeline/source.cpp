#include "pipeline/source.hpp"

#include <algorithm>
#include <filesystem>

#include "obs/flight.hpp"
#include "pcap/pcapng.hpp"

namespace dnh::pipeline {

bool PcapFileSource::run(ShardedAnalyzer& analyzer) {
  obs::trace_event(obs::TraceStage::kSource, obs::TraceKind::kSourceOpen);
  const bool ok = analyzer.process_pcap(path_);
  if (!ok) error_ = analyzer.error();
  obs::trace_event(obs::TraceStage::kSource, obs::TraceKind::kSourceDone,
                   obs::kNoSeq, obs::kNoShard, ok ? 1 : 0);
  return ok;
}

std::vector<std::string> CaptureDirSource::list_captures(
    const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{dir, ec}) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".pcap" || ext == ".pcapng" || ext == ".cap")
      files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool CaptureDirSource::run(ShardedAnalyzer& analyzer) {
  const std::vector<std::string> files = list_captures(dir_);
  if (files.empty()) {
    error_ = "no capture files (*.pcap, *.pcapng, *.cap) in " + dir_;
    return false;
  }
  for (const std::string& file : files) {
    // arg = ordinal within the rotation sequence, so the trace shows
    // which capture file the pipeline was inside when something froze.
    obs::trace_event(obs::TraceStage::kSource, obs::TraceKind::kSourceOpen,
                     obs::kNoSeq, obs::kNoShard, files_replayed_);
    if (!analyzer.process_pcap(file)) {
      error_ = file + ": " + analyzer.error();
      return false;
    }
    ++files_replayed_;
  }
  obs::trace_event(obs::TraceStage::kSource, obs::TraceKind::kSourceDone,
                   obs::kNoSeq, obs::kNoShard, files_replayed_);
  return true;
}

bool ExportStreamSource::run(ShardedAnalyzer& analyzer) {
  flowexport::DatagramReader reader;
  if (!reader.open(stream_path_)) {
    error_ = reader.error();
    return false;
  }
  obs::trace_event(obs::TraceStage::kSource, obs::TraceKind::kSourceOpen);
  flowexport::ExportDecoder decoder{decoder_config_};
  flowexport::Datagram held;
  bool have_held = reader.next(held);
  std::vector<flowexport::ExportRecord> records;

  // Dispatches every datagram that had arrived by `upto` (all of them when
  // `drain` is set). Decode failures are typed degradation, not aborts:
  // whatever records the decoder salvaged are dispatched, the error lands
  // in the per-kind stats, and the replay continues.
  const auto pump = [&](util::Timestamp upto, bool drain) {
    while (have_held && (drain || held.arrival <= upto)) {
      records.clear();
      decoder.on_datagram(
          net::BytesView{held.payload.data(), held.payload.size()}, records);
      for (const auto& record : records)
        analyzer.on_export_record(record, held.arrival);
      have_held = reader.next(held);
    }
  };

  bool ok = true;
  if (!dns_pcap_.empty()) {
    pcap::CaptureReadOptions options;
    options.resync = analyzer.config().sniffer.resync_capture;
    pcap::CaptureReadReport report;
    ok = pcap::read_any_capture(
        dns_pcap_,
        [&](const pcap::FrameView& frame) {
          pump(frame.timestamp, false);
          analyzer.on_frame(frame.data, frame.timestamp);
        },
        options, report);
    analyzer.note_capture_corruption(report.corruption);
    if (!report.error.empty()) error_ = std::move(report.error);
  }
  pump(util::Timestamp{}, true);

  decoder_stats_ = decoder.stats();
  stream_corruption_ = reader.corruption();
  datagrams_ = reader.datagrams_read();
  obs::trace_event(obs::TraceStage::kSource, obs::TraceKind::kSourceDone,
                   obs::kNoSeq, obs::kNoShard, datagrams_);
  if (!reader.error().empty() && error_.empty()) error_ = reader.error();
  return ok;
}

}  // namespace dnh::pipeline
