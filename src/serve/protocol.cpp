#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace tvnep::serve {

namespace {

[[noreturn]] void fail(const std::string& source, long line,
                       const std::string& message) {
  throw ParseError(source, line, 0, message);
}

double finite_member(const JsonValue& obj, const char* key,
                     const std::string& source, long line) {
  const double x = number_member(obj, key, source, line);
  if (!std::isfinite(x))
    fail(source, line, std::string("field \"") + key + "\" must be finite");
  return x;
}

RequestMessage parse_request(const JsonValue& obj, const std::string& source,
                             long line) {
  RequestMessage out;
  out.id = string_member(obj, "id", source, line);
  if (out.id.empty()) fail(source, line, "request needs a non-empty \"id\"");

  const double t_s = finite_member(obj, "t_s", source, line);
  const double t_e = finite_member(obj, "t_e", source, line);
  const double d = finite_member(obj, "d", source, line);
  if (d <= 0.0) fail(source, line, "duration must be positive");
  if (t_e - t_s < d)
    fail(source, line, "window [t_s, t_e] shorter than duration");

  const std::vector<JsonValue>& nodes =
      array_member(obj, "nodes", source, line);
  if (nodes.empty())
    fail(source, line, "request needs a non-empty \"nodes\" demand array");
  net::VnetRequest request(out.id);
  for (const JsonValue& demand : nodes) {
    if (!demand.is_number() || demand.as_number() < 0.0)
      fail(source, line, "node demands must be non-negative numbers");
    request.add_node(demand.as_number());
  }

  if (const JsonValue* links = obj.find("links")) {
    if (!links->is_array()) fail(source, line, "\"links\" must be an array");
    for (const JsonValue& link : links->as_array()) {
      if (!link.is_array() || link.as_array().size() != 3)
        fail(source, line, "each link must be [from, to, demand]");
      const auto& triple = link.as_array();
      for (const JsonValue& field : triple)
        if (!field.is_number()) fail(source, line, "link fields must be numbers");
      const int from = require_index(triple[0], "link endpoint",
                                     request.num_nodes(), source, line);
      const int to = require_index(triple[1], "link endpoint",
                                   request.num_nodes(), source, line);
      if (triple[2].as_number() < 0.0)
        fail(source, line, "link demand must be non-negative");
      request.add_link(from, to, triple[2].as_number());
    }
  }

  request.set_temporal(t_s, t_e, d);
  out.request = std::move(request);

  if (const JsonValue* mapping = obj.find("mapping")) {
    if (!mapping->is_null()) {
      if (!mapping->is_array() ||
          mapping->as_array().size() !=
              static_cast<std::size_t>(out.request.num_nodes()))
        fail(source, line, "\"mapping\" must list one substrate node per "
                           "virtual node");
      std::vector<net::NodeId> nodes_out;
      // The substrate size is unknown at parse time (the engine bounds
      // the ids on admission); here only reject what is no int index.
      for (const JsonValue& node : mapping->as_array())
        nodes_out.push_back(require_index(node, "mapping entry", kAnyIntIndex,
                                          source, line));
      out.mapping = std::move(nodes_out);
    }
  }
  return out;
}

}  // namespace

InMessage parse_message(const std::string& line, const std::string& source,
                        long line_number) {
  const JsonValue root = parse_json(line, source, line_number);
  if (!root.is_object()) fail(source, line_number, "message must be an object");
  InMessage out;
  const std::string& kind = string_member(root, "type", source, line_number);
  if (kind == "request") {
    out.kind = MessageKind::kRequest;
    out.request = parse_request(root, source, line_number);
  } else if (kind == "stats") {
    out.kind = MessageKind::kStats;
  } else if (kind == "reopt") {
    out.kind = MessageKind::kReopt;
  } else if (kind == "drain") {
    out.kind = MessageKind::kDrain;
  } else {
    fail(source, line_number, "unknown message type \"" + kind + "\"");
  }
  return out;
}

std::string encode_request(const RequestMessage& message) {
  std::ostringstream os;
  os << "{\"type\":\"request\",\"id\":\"" << obs::json_escape(message.id)
     << "\",\"t_s\":" << obs::json_number(message.request.earliest_start())
     << ",\"t_e\":" << obs::json_number(message.request.latest_end())
     << ",\"d\":" << obs::json_number(message.request.duration())
     << ",\"nodes\":[";
  for (int v = 0; v < message.request.num_nodes(); ++v) {
    if (v > 0) os << ',';
    os << obs::json_number(message.request.node_demand(v));
  }
  os << "],\"links\":[";
  for (int e = 0; e < message.request.num_links(); ++e) {
    const net::VirtualLink& link = message.request.link(e);
    if (e > 0) os << ',';
    os << '[' << link.from << ',' << link.to << ','
       << obs::json_number(link.demand) << ']';
  }
  os << ']';
  if (message.mapping.has_value()) {
    os << ",\"mapping\":[";
    for (std::size_t v = 0; v < message.mapping->size(); ++v) {
      if (v > 0) os << ',';
      os << (*message.mapping)[v];
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

std::string encode_decision(const Decision& decision) {
  std::ostringstream os;
  os << "{\"type\":\"decision\",\"id\":\"" << obs::json_escape(decision.id)
     << "\",\"accepted\":" << (decision.accepted ? "true" : "false");
  if (decision.accepted) {
    os << ",\"start\":" << obs::json_number(decision.start)
       << ",\"end\":" << obs::json_number(decision.end);
  } else {
    os << ",\"reason\":\"" << obs::json_escape(decision.reason) << "\"";
  }
  os << ",\"mode\":\"" << obs::json_escape(decision.mode)
     << "\",\"latency_ms\":" << obs::json_number(decision.latency_ms) << '}';
  return os.str();
}

std::string encode_error(const std::string& message) {
  return "{\"type\":\"error\",\"message\":\"" + obs::json_escape(message) +
         "\"}";
}

std::string encode_bye(long decided) {
  return "{\"type\":\"bye\",\"decided\":" + std::to_string(decided) + "}";
}

std::string encode_stats(const std::string& fields) {
  std::string out = "{\"type\":\"stats\"";
  if (!fields.empty()) out += "," + fields;
  out += "}";
  return out;
}

}  // namespace tvnep::serve
