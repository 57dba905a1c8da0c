#include "core/flowdb_io.hpp"

#include <charconv>
#include <fstream>
#include <ostream>

#include "util/strings.hpp"

namespace dnh::core {
namespace {

constexpr std::string_view kHeader = "#dnhunter-flows v1";

template <typename T>
bool parse_int(std::string_view field, T& out) {
  const auto result =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return result.ec == std::errc{} &&
         result.ptr == field.data() + field.size();
}

}  // namespace

std::size_t write_flow_tsv(const FlowDatabase& db, std::ostream& out) {
  // to_chars into one reused buffer, handed on in 64 KiB writes.
  constexpr std::size_t kFlushAt = 64 * 1024;
  std::string buf;
  buf.append(kHeader).append(
      "\n#client_ip\tserver_ip\tclient_port\tserver_port\ttransport\t"
      "first_us\tlast_us\tpkts_c2s\tpkts_s2c\tbytes_c2s\tbytes_s2c\t"
      "protocol\tfqdn\tdns_response_us\ttagged_at_start\tdpi_label\t"
      "cert_cn\tcert_san\thas_certificate\n");
  char text[24];
  const auto put = [&buf, &text](const char* end) {  // text..end, a tab
    buf.append(text, static_cast<std::size_t>(end - text)) += '\t';
  };
  const auto numbers = [&](auto... v) {  // each, then a tab
    (put(std::to_chars(text, std::end(text), v).ptr), ...);
  };
  const auto flush = [&] {
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };
  for (const auto& flow : db.flows()) {
    put(flow.key.client_ip.format(text));
    put(flow.key.server_ip.format(text));
    numbers(flow.key.client_port, flow.key.server_port);
    buf += flow.key.transport == flow::Transport::kTcp ? "tcp\t" : "udp\t";
    numbers(flow.first_packet.micros_since_epoch(),
            flow.last_packet.micros_since_epoch(), flow.packets_c2s,
            flow.packets_s2c, flow.bytes_c2s, flow.bytes_s2c,
            static_cast<int>(flow.protocol));
    buf.append(flow.fqdn) += '\t';
    numbers(flow.dns_response_time.micros_since_epoch());
    buf += flow.tagged_at_start ? "1\t" : "0\t";
    buf.append(flow.dpi_label).append(1, '\t').append(flow.cert_cn) += '\t';
    for (std::size_t i = 0; i < flow.cert_san.size(); ++i)
      buf.append(i > 0 ? "," : "").append(flow.cert_san[i]);
    buf += flow.has_certificate ? "\t1\n" : "\t0\n";
    if (buf.size() >= kFlushAt) flush();
  }
  flush();
  return db.size();
}

std::size_t write_flow_tsv(const FlowDatabase& db, const std::string& path) {
  std::ofstream out{path};
  if (!out) return 0;
  return write_flow_tsv(db, out);
}

namespace {

enum class RowError {
  kNone,
  kFieldCount,
  kAddress,
  kNumber,
  kTransport,
  kProtocol,
};

RowError parse_row(std::string_view line, TaggedFlow& flow) {
  const auto fields = util::split(line, '\t');
  if (fields.size() != 19) return RowError::kFieldCount;

  const auto client = net::Ipv4Address::parse(fields[0]);
  const auto server = net::Ipv4Address::parse(fields[1]);
  if (!client || !server) return RowError::kAddress;
  flow.key.client_ip = *client;
  flow.key.server_ip = *server;

  std::int64_t first_us = 0, last_us = 0, dns_us = 0;
  int protocol = 0, tagged = 0, has_cert = 0;
  if (!parse_int(fields[2], flow.key.client_port) ||
      !parse_int(fields[3], flow.key.server_port) ||
      !parse_int(fields[5], first_us) || !parse_int(fields[6], last_us) ||
      !parse_int(fields[7], flow.packets_c2s) ||
      !parse_int(fields[8], flow.packets_s2c) ||
      !parse_int(fields[9], flow.bytes_c2s) ||
      !parse_int(fields[10], flow.bytes_s2c) ||
      !parse_int(fields[11], protocol) ||
      !parse_int(fields[13], dns_us) || !parse_int(fields[14], tagged) ||
      !parse_int(fields[18], has_cert))
    return RowError::kNumber;
  if (fields[4] == "tcp") {
    flow.key.transport = flow::Transport::kTcp;
  } else if (fields[4] == "udp") {
    flow.key.transport = flow::Transport::kUdp;
  } else {
    return RowError::kTransport;
  }
  if (protocol < 0 ||
      protocol > static_cast<int>(flow::ProtocolClass::kOther))
    return RowError::kProtocol;
  flow.protocol = static_cast<flow::ProtocolClass>(protocol);
  flow.first_packet = util::Timestamp::from_micros(first_us);
  flow.last_packet = util::Timestamp::from_micros(last_us);
  flow.dns_response_time = util::Timestamp::from_micros(dns_us);
  flow.tagged_at_start = tagged != 0;
  // View into the caller's line buffer; FlowDatabase::add re-interns it.
  flow.fqdn = fields[12];
  flow.dpi_label = std::string{fields[15]};
  flow.cert_cn = std::string{fields[16]};
  if (!fields[17].empty()) {
    for (const auto san : util::split(fields[17], ','))
      flow.cert_san.emplace_back(san);
  }
  flow.has_certificate = has_cert != 0;
  return RowError::kNone;
}

void count_row_error(RowError error, TsvRowErrors& errors) {
  switch (error) {
    case RowError::kFieldCount: ++errors.bad_field_count; break;
    case RowError::kAddress: ++errors.bad_address; break;
    case RowError::kNumber: ++errors.bad_number; break;
    case RowError::kTransport: ++errors.bad_transport; break;
    case RowError::kProtocol: ++errors.bad_protocol; break;
    case RowError::kNone: break;
  }
}

}  // namespace

std::optional<FlowDatabase> read_flow_tsv(std::istream& in) {
  TsvRowErrors errors;
  return read_flow_tsv(in, TsvReadMode::kStrict, errors);
}

std::optional<FlowDatabase> read_flow_tsv(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  return read_flow_tsv(in);
}

std::optional<FlowDatabase> read_flow_tsv(std::istream& in, TsvReadMode mode,
                                          TsvRowErrors& errors) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) return std::nullopt;

  FlowDatabase db;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    TaggedFlow flow;
    const RowError row_error = parse_row(line, flow);
    if (row_error != RowError::kNone) {
      count_row_error(row_error, errors);
      if (mode == TsvReadMode::kStrict) return std::nullopt;
      continue;  // lenient: a damaged row must not discard the database
    }
    db.add(std::move(flow));
  }
  return db;
}

std::optional<FlowDatabase> read_flow_tsv(const std::string& path,
                                          TsvReadMode mode,
                                          TsvRowErrors& errors) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  return read_flow_tsv(in, mode, errors);
}

}  // namespace dnh::core
