// NDJSON wire protocol of the admission daemon (one JSON object per line,
// both directions). DESIGN.md §13 documents the message catalogue; this
// header is the single place where it is encoded and decoded so the
// daemon, the load bench and the tests cannot drift apart.
//
// Client → daemon:
//   {"type":"request","id":"R0","t_s":0.5,"t_e":8.0,"d":3.0,
//    "nodes":[1.5,...],"links":[[from,to,demand],...],"mapping":[3,7,...]}
//   {"type":"stats"}    — ask for a stats snapshot
//   {"type":"reopt"}    — force one synchronous re-optimization pass
//   {"type":"drain"}    — finish queued work, reply "bye", exit
//
// Daemon → client:
//   {"type":"decision","id":...,"accepted":true,"start":...,"end":...,
//    "mode":"exact"|"fastpath","latency_ms":...}
//   {"type":"decision","id":...,"accepted":false,"reason":...,...}
//   {"type":"stats",...}
//   {"type":"error","message":...}      — malformed input (the line is
//                                         dropped; the stream continues)
//   {"type":"bye","decided":N}
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/instance.hpp"

namespace tvnep::serve {

enum class MessageKind { kRequest, kStats, kReopt, kDrain };

struct RequestMessage {
  std::string id;
  net::VnetRequest request;
  std::optional<std::vector<net::NodeId>> mapping;
};

struct InMessage {
  MessageKind kind = MessageKind::kRequest;
  RequestMessage request;  // populated for kRequest only
};

/// Parses one protocol line. Throws ParseError (with `source`/`line`
/// locations) on malformed JSON, unknown types, or invalid request shapes
/// (negative duration, window shorter than duration, link endpoints out of
/// range, mapping size mismatch).
InMessage parse_message(const std::string& line, const std::string& source,
                        long line_number = 1);

/// Serializes a request as a protocol line (no trailing newline) — the
/// inverse of parse_message for kRequest. The load bench and the
/// --emit-ndjson generator use this to feed the daemon.
std::string encode_request(const RequestMessage& message);

struct Decision {
  std::string id;
  bool accepted = false;
  double start = 0.0;
  double end = 0.0;
  /// "exact" (greedy step), "fastpath" (shed single-path router), "shed"
  /// (rejected without solver work), or "error" (internal failure).
  std::string mode = "exact";
  /// Reject reason: "capacity", "window", "overload", "invalid" (mapping
  /// node ids outside the substrate), "internal".
  std::string reason;
  double latency_ms = 0.0;
};

std::string encode_decision(const Decision& decision);
std::string encode_error(const std::string& message);
std::string encode_bye(long decided);

/// Stats snapshot as a flat JSON object; `fields` are pre-rendered
/// members (the daemon assembles them from the metrics registry).
std::string encode_stats(const std::string& fields);

}  // namespace tvnep::serve
