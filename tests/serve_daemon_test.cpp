// Daemon behavior over real pipes and sockets: every request gets exactly
// one decision, malformed lines answer structured errors without killing
// the stream, overload rejects instead of crashing or deadlocking, the
// external stop flag (the SIGTERM path) drains cleanly, and the TCP mode
// round-trips. These run under TSan in tier 1 — the reader, worker and
// reoptimizer threads are all exercised.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.hpp"
#include "support/json.hpp"
#include "workload/trace.hpp"

namespace tvnep::serve {
namespace {

std::vector<std::string> request_lines(int count) {
  workload::WorkloadParams params;
  params.num_requests = count;
  params.flexibility = 1.5;
  params.seed = 5;
  const workload::ArrivalTrace trace = workload::make_trace(params);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    RequestMessage message;
    message.id = "R" + std::to_string(i);
    message.request = trace.requests[i].request;
    message.mapping = trace.requests[i].mapping;
    lines.push_back(encode_request(message));
  }
  return lines;
}

void write_all(int fd, const std::string& text) {
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    ASSERT_GT(n, 0);
    written += static_cast<std::size_t>(n);
  }
}

/// Incremental NDJSON reply reader: read_until lets a test consume
/// replies up to a condition (e.g. "3 decisions seen") before poking the
/// daemon again — no sleeps, no races.
struct LineReader {
  explicit LineReader(int fd) : fd_(fd) {}

  template <typename Pred>
  void read_until(Pred done) {
    char buffer[4096];
    while (!done(replies)) {
      const ssize_t n = ::read(fd_, buffer, sizeof buffer);
      if (n <= 0) break;
      pending_.append(buffer, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t i = pending_.find('\n'); i != std::string::npos;
           i = pending_.find('\n', start)) {
        const std::string line = pending_.substr(start, i - start);
        start = i + 1;
        if (!line.empty()) replies.push_back(parse_json(line, "<daemon>"));
      }
      pending_.erase(0, start);
    }
  }

  std::vector<JsonValue> replies;

 private:
  int fd_;
  std::string pending_;
};

bool saw_bye(const std::vector<JsonValue>& replies) {
  for (const JsonValue& reply : replies) {
    const JsonValue* type = reply.find("type");
    if (type != nullptr && type->as_string() == "bye") return true;
  }
  return false;
}

/// Reads newline-delimited JSON replies until a "bye" (or EOF).
std::vector<JsonValue> read_replies(int fd) {
  LineReader reader(fd);
  reader.read_until(saw_bye);
  return reader.replies;
}

long count_type(const std::vector<JsonValue>& replies,
                const std::string& type) {
  long count = 0;
  for (const JsonValue& reply : replies) {
    const JsonValue* t = reply.find("type");
    if (t != nullptr && t->as_string() == type) ++count;
  }
  return count;
}

DaemonOptions fast_options() {
  DaemonOptions options;
  options.slo_ms = 2000.0;  // generous: CI machines stall under TSan
  options.queue_capacity = 64;
  return options;
}

struct Pipes {
  int in[2];   // test writes in[1], daemon reads in[0]
  int out[2];  // daemon writes out[1], test reads out[0]
  Pipes() {
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
  }
  ~Pipes() {
    for (int fd : {in[0], in[1], out[0], out[1]})
      if (fd >= 0) ::close(fd);
  }
  void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

TEST(ServeDaemon, EveryRequestGetsExactlyOneDecisionThenBye) {
  Pipes pipes;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), fast_options());
  std::thread server(
      [&] { daemon.serve(pipes.in[0], pipes.out[1]); });

  const std::vector<std::string> lines = request_lines(6);
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  payload += "{\"type\":\"stats\"}\n{\"type\":\"drain\"}\n";
  write_all(pipes.in[1], payload);
  pipes.close_fd(pipes.in[1]);

  const std::vector<JsonValue> replies = read_replies(pipes.out[0]);
  server.join();
  EXPECT_EQ(count_type(replies, "decision"), 6);
  EXPECT_EQ(count_type(replies, "stats"), 1);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  EXPECT_EQ(count_type(replies, "error"), 0);
  // One decision per id, and ids come back in request order.
  std::vector<std::string> ids;
  for (const JsonValue& reply : replies)
    if (reply.find("type")->as_string() == "decision")
      ids.push_back(reply.find("id")->as_string());
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(ids[i], "R" + std::to_string(i));
  EXPECT_EQ(daemon.decided_total(), 6);
}

TEST(ServeDaemon, MalformedLinesAnswerErrorsWithoutKillingTheStream) {
  Pipes pipes;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), fast_options());
  std::thread server(
      [&] { daemon.serve(pipes.in[0], pipes.out[1]); });

  std::string payload = "this is not json\n";
  payload += "{\"type\":\"mystery\"}\n";
  payload += "{\"type\":\"request\",\"id\":\"ok\",\"t_s\":0,\"t_e\":4,"
             "\"d\":1,\"nodes\":[1.0]}\n";
  // Well-formed but hostile: mapping names substrate node 999 on a
  // 20-node grid. Must answer a structured "invalid" reject — historically
  // this was an out-of-bounds heap write on the fastpath and an escaping
  // CheckError (std::terminate past the joinable reader) on the exact
  // path.
  payload += "{\"type\":\"request\",\"id\":\"oob\",\"t_s\":0,\"t_e\":4,"
             "\"d\":1,\"nodes\":[1.0],\"mapping\":[999]}\n";
  payload += "{\"type\":\"request\",\"id\":\"ok2\",\"t_s\":0,\"t_e\":4,"
             "\"d\":1,\"nodes\":[1.0]}\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(pipes.in[1], payload);
  pipes.close_fd(pipes.in[1]);

  const std::vector<JsonValue> replies = read_replies(pipes.out[0]);
  server.join();
  EXPECT_EQ(count_type(replies, "error"), 2);
  EXPECT_EQ(count_type(replies, "decision"), 3);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  for (const JsonValue& reply : replies) {
    const JsonValue* id = reply.find("id");
    if (id == nullptr || id->as_string() != "oob") continue;
    EXPECT_FALSE(reply.find("accepted")->as_bool());
    EXPECT_EQ(reply.find("reason")->as_string(), "invalid");
  }
}

TEST(ServeDaemon, OverlongLineAnswersOneErrorAndIsDropped) {
  Pipes pipes;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), fast_options());
  std::thread server(
      [&] { daemon.serve(pipes.in[0], pipes.out[1]); });

  // 4 MiB without a newline, four times the reader's line cap; its bytes
  // must be dropped up to the newline, and the next line served.
  std::string payload(std::size_t{4} << 20, 'x');
  payload += "\n{\"type\":\"request\",\"id\":\"ok\",\"t_s\":0,\"t_e\":4,"
             "\"d\":1,\"nodes\":[1.0]}\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(pipes.in[1], payload);
  pipes.close_fd(pipes.in[1]);

  const std::vector<JsonValue> replies = read_replies(pipes.out[0]);
  server.join();
  EXPECT_EQ(count_type(replies, "error"), 1);
  EXPECT_EQ(count_type(replies, "decision"), 1);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  // Refused for its length, not parsed as a malformed request.
  for (const JsonValue& reply : replies) {
    if (reply.find("type")->as_string() != "error") continue;
    EXPECT_NE(reply.find("message")->as_string().find("exceeds"),
              std::string::npos);
  }
}

TEST(ServeDaemon, DeeplyNestedLineAnswersAnErrorAndKeepsServing) {
  // One 30 KB line of nested brackets used to overflow the reader thread's
  // stack and take the daemon down; it must be one more protocol error.
  Pipes pipes;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), fast_options());
  std::thread server(
      [&] { daemon.serve(pipes.in[0], pipes.out[1]); });

  std::string payload =
      "{\"type\":\"request\",\"x\":" + std::string(30000, '[') + "\n";
  payload += std::string(30000, '{') + "\n";
  payload += "{\"type\":\"request\",\"id\":\"ok\",\"t_s\":0,\"t_e\":4,"
             "\"d\":1,\"nodes\":[1.0]}\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(pipes.in[1], payload);
  pipes.close_fd(pipes.in[1]);

  const std::vector<JsonValue> replies = read_replies(pipes.out[0]);
  server.join();
  EXPECT_EQ(count_type(replies, "error"), 2);
  EXPECT_EQ(count_type(replies, "decision"), 1);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  EXPECT_EQ(daemon.decided_total(), 1);
}

TEST(ServeDaemon, OverloadShedsAndRejectsInsteadOfCrashing) {
  Pipes pipes;
  DaemonOptions options;
  options.slo_ms = 0.0;      // any queueing delay blows the SLO
  options.queue_capacity = 2;  // and the door is nearly shut
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);
  std::thread server(
      [&] { daemon.serve(pipes.in[0], pipes.out[1]); });

  const std::vector<std::string> lines = request_lines(12);
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(pipes.in[1], payload);
  pipes.close_fd(pipes.in[1]);

  const std::vector<JsonValue> replies = read_replies(pipes.out[0]);
  server.join();
  // Every request was answered — shed/rejected, never dropped.
  EXPECT_EQ(count_type(replies, "decision"), 12);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  long overload = 0;
  for (const JsonValue& reply : replies) {
    const JsonValue* reason = reply.find("reason");
    if (reason != nullptr && reason->as_string() == "overload") ++overload;
    // The bye tally must count queue-full door rejects (written by the
    // reader thread) along with worker decisions.
    const JsonValue* type = reply.find("type");
    if (type != nullptr && type->as_string() == "bye") {
      EXPECT_DOUBLE_EQ(reply.find("decided")->as_number(), 12.0);
    }
  }
  EXPECT_GT(overload, 0);
}

bool same_counts(const Daemon::LadderCounts& a,
                 const Daemon::LadderCounts& b) {
  return a.door == b.door && a.overload == b.overload && a.aged == b.aged &&
         a.budget == b.budget && a.solver == b.solver;
}

TEST(ServeDaemon, DecideWalksEachRung) {
  DaemonOptions options;
  options.slo_ms = 100.0;
  options.shed_fraction = 0.5;
  // One committed request overlapping the candidate already makes a
  // two-request component: too large for the exact step.
  options.admission.max_step_requests = 1;
  Daemon daemon(net::make_grid(3, 3, 4.0, 4.0), options);

  // Every request has the same window, so any two overlap.
  auto request = [](const std::string& id) {
    RequestMessage message;
    message.id = id;
    message.request = net::VnetRequest(id);
    message.request.add_node(1.0);
    message.request.add_node(1.0);
    message.request.add_link(0, 1, 1.0);
    message.request.set_temporal(0.0, 20.0, 5.0);
    return message;
  };
  Daemon::LadderCounts expected;
  // The SLO window runs on the caller's timebase; 1000 s is past the 60 s
  // window of the breaches recorded at 0 below.
  const double later = 1000.0;

  // Fresh request, empty ledger, budget intact: the exact step decides.
  Decision d = daemon.decide(request("exact"), 0.0, later);
  EXPECT_EQ(d.mode, "exact");
  EXPECT_TRUE(d.accepted);
  EXPECT_TRUE(same_counts(daemon.ladder_counts(), expected));

  // Queued for the whole SLO: structured reject, no work.
  d = daemon.decide(request("overload"), 0.1, later);
  EXPECT_EQ(d.mode, "shed");
  EXPECT_EQ(d.reason, "overload");
  EXPECT_FALSE(d.accepted);
  EXPECT_GE(d.latency_ms, 100.0);
  ++expected.overload;
  EXPECT_TRUE(same_counts(daemon.ladder_counts(), expected));

  // Queued past shed_fraction·SLO: the fastpath decides.
  d = daemon.decide(request("aged"), 0.05, later);
  EXPECT_EQ(d.mode, "fastpath");
  ++expected.aged;
  EXPECT_TRUE(same_counts(daemon.ladder_counts(), expected));

  // The "exact" commit overlaps: the component exceeds max_step_requests,
  // so the exact path bails and the fastpath decides.
  d = daemon.decide(request("solver"), 0.0, later);
  EXPECT_EQ(d.mode, "fastpath");
  ++expected.solver;
  EXPECT_TRUE(same_counts(daemon.ladder_counts(), expected));

  // A spent error budget sheds a fresh request before its age would.
  const long min_samples = options.slo.min_samples;
  for (long i = 0; i < min_samples; ++i)
    daemon.slo_budget().record(0.0, /*breached=*/true);
  ASSERT_TRUE(daemon.slo_budget().exhausted(0.0));
  d = daemon.decide(request("budget"), 0.0, 0.0);
  EXPECT_EQ(d.mode, "fastpath");
  ++expected.budget;
  EXPECT_TRUE(same_counts(daemon.ladder_counts(), expected));
}

TEST(ServeDaemon, ExternalStopDrainsQueuedWorkAndSaysBye) {
  Pipes pipes;
  std::atomic<bool> stop{false};
  DaemonOptions options = fast_options();
  options.external_stop = &stop;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);
  std::thread server(
      [&] { daemon.serve(pipes.in[0], pipes.out[1]); });

  const std::vector<std::string> lines = request_lines(3);
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  write_all(pipes.in[1], payload);  // note: no drain, no EOF

  // Wait until the daemon has answered everything in flight, then raise
  // the stop flag — the SIGTERM handler path.
  LineReader reader(pipes.out[0]);
  reader.read_until([](const std::vector<JsonValue>& replies) {
    return count_type(replies, "decision") >= 3;
  });
  stop.store(true);
  reader.read_until(saw_bye);
  server.join();
  EXPECT_EQ(count_type(reader.replies, "decision"), 3);
  EXPECT_EQ(count_type(reader.replies, "bye"), 1);
}

TEST(ServeDaemon, TcpModeRoundTripsAndStops) {
  std::atomic<bool> stop{false};
  DaemonOptions options = fast_options();
  options.external_stop = &stop;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);
  const int port = daemon.listen_tcp(0);
  ASSERT_GT(port, 0);
  std::thread server([&] { daemon.serve_tcp(); });

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  write_all(client,
            "{\"type\":\"request\",\"id\":\"tcp0\",\"t_s\":0,\"t_e\":4,"
            "\"d\":1,\"nodes\":[1.0]}\n{\"type\":\"drain\"}\n");
  const std::vector<JsonValue> replies = read_replies(client);
  ::close(client);
  stop.store(true);
  server.join();
  EXPECT_EQ(count_type(replies, "decision"), 1);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  for (const JsonValue& reply : replies) {
    if (reply.find("type")->as_string() == "decision") {
      EXPECT_TRUE(reply.find("accepted")->as_bool());
    }
  }
}

TEST(ServeDaemon, SurvivesClientDroppingSocketMidStream) {
  // A client that vanishes between request and reply historically killed
  // the whole daemon: the reply write raised SIGPIPE (default action:
  // terminate). Now the write path sends with MSG_NOSIGNAL, counts the
  // EPIPE as serve.client_gone, and the daemon keeps serving the next
  // connection.
  std::atomic<bool> stop{false};
  DaemonOptions options = fast_options();
  options.external_stop = &stop;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);
  const int port = daemon.listen_tcp(0);
  ASSERT_GT(port, 0);
  std::thread server([&] { daemon.serve_tcp(); });

  const auto connect_client = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    return fd;
  };

  // First client: send a burst of requests and hang up without reading a
  // single reply — every decision write after the close hits a dead peer.
  const int rude = connect_client();
  const std::vector<std::string> lines = request_lines(4);
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(rude, payload);
  ::close(rude);

  // Second client: the daemon must still be alive and serving.
  const int polite = connect_client();
  write_all(polite,
            "{\"type\":\"request\",\"id\":\"after\",\"t_s\":0,\"t_e\":4,"
            "\"d\":1,\"nodes\":[1.0]}\n{\"type\":\"drain\"}\n");
  const std::vector<JsonValue> replies = read_replies(polite);
  ::close(polite);
  stop.store(true);
  server.join();
  EXPECT_EQ(count_type(replies, "decision"), 1);
  EXPECT_EQ(count_type(replies, "bye"), 1);
  // The rude client's hangup may RST away some of its still-queued
  // requests (that is its loss); what it must never cost is the daemon's
  // life — the polite client's decision above is the real assertion.
  EXPECT_GE(daemon.decided_total(), 1);
}

}  // namespace
}  // namespace tvnep::serve
