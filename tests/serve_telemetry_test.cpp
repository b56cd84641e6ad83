// The serve telemetry plane end-to-end: the loopback /metrics listener
// answering Prometheus scrapes from the live registry, the live ObsSession
// pump draining the tracer into a rotating JSONL stream, request-lifecycle
// span linkage across the daemon's reader/worker threads, and the extended
// stats protocol record. Runs in the TSan tier-1 subset — the scraper,
// pump, reader and worker threads all overlap here.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/metrics_server.hpp"
#include "workload/trace.hpp"

namespace tvnep::serve {
namespace {

class ServeTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override {
    reset_all();
    for (const std::string& path : cleanup_) {
      std::remove(path.c_str());
      std::remove((path + ".1").c_str());
    }
  }

  static void reset_all() {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().reset();
    obs::Metrics::instance().stop();
    obs::Metrics::instance().reset();
  }

  std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + "tvnep_serve_telemetry_" +
                             name + "_" + std::to_string(::getpid());
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

/// Minimal HTTP GET against 127.0.0.1:`port`; returns the full response
/// (headers + body), empty on connection failure.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
    response.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

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

std::string read_to_eof(int fd) {
  std::string out;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof buffer)) > 0)
    out.append(buffer, static_cast<std::size_t>(n));
  return out;
}

TEST_F(ServeTelemetryTest, MetricsServerServesLiveRegistrySnapshot) {
  obs::Metrics::instance().start();
  obs::counter_add("serve.admit.accept", 3.0);
  obs::histogram_observe("serve.admit.latency_ms", 12.5);
  obs::histogram_observe("serve.admit.latency_ms", 50.0);

  int hook_runs = 0;
  MetricsServerOptions options;
  options.const_labels = {{"service", "tvnep_serve"}};
  options.before_scrape = [&hook_runs] { ++hook_runs; };
  MetricsServer server(std::move(options));
  const int port = server.start(0);
  ASSERT_GT(port, 0);

  const std::string response = http_get(port, "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(
      response.find("serve_admit_accept{service=\"tvnep_serve\"} 3"),
      std::string::npos);
  EXPECT_NE(response.find("serve_admit_latency_ms_bucket"),
            std::string::npos);
  EXPECT_NE(response.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(response.find("serve_admit_latency_ms_p99"), std::string::npos);
  EXPECT_EQ(hook_runs, 1);

  // A second scrape sees updates recorded since the first.
  obs::counter_add("serve.admit.accept", 1.0);
  const std::string again = http_get(port, "/metrics");
  EXPECT_NE(again.find("serve_admit_accept{service=\"tvnep_serve\"} 4"),
            std::string::npos);
  EXPECT_EQ(server.scrapes(), 2);

  EXPECT_NE(http_get(port, "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(http_get(port, "/nope").find("404 Not Found"),
            std::string::npos);
  server.stop();
}

TEST_F(ServeTelemetryTest, ScrapeWhileDaemonServes) {
  obs::Metrics::instance().start();

  int pipes_in[2], pipes_out[2];
  ASSERT_EQ(::pipe(pipes_in), 0);
  ASSERT_EQ(::pipe(pipes_out), 0);

  DaemonOptions options;
  options.slo_ms = 2000.0;
  options.queue_capacity = 64;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);

  MetricsServerOptions server_options;
  server_options.const_labels = {{"service", "tvnep_serve"}};
  server_options.before_scrape = [&daemon] { daemon.refresh_slo_gauges(); };
  MetricsServer server(std::move(server_options));
  const int port = server.start(0);
  ASSERT_GT(port, 0);

  std::thread worker([&] {
    daemon.serve(pipes_in[0], pipes_out[1]);
    ::close(pipes_out[1]);  // EOF for the reply reader below
  });
  std::string payload;
  for (const std::string& line : request_lines(8)) payload += line + "\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(pipes_in[1], payload);
  ::close(pipes_in[1]);

  // Scrape concurrently with the serve loop — TSan watches this overlap.
  const std::string mid_run = http_get(port, "/metrics");
  EXPECT_NE(mid_run.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(mid_run.find("serve_slo_budget_remaining"), std::string::npos);

  const std::string replies = read_to_eof(pipes_out[0]);
  worker.join();
  ::close(pipes_in[0]);
  ::close(pipes_out[0]);

  const std::string done = http_get(port, "/metrics");
  server.stop();
  EXPECT_NE(done.find("serve_admit_latency_ms_p99"), std::string::npos);
  EXPECT_NE(done.find("serve_admit_latency_ms_count{service=\"tvnep_serve\"}"
                      " 8"),
            std::string::npos);
  EXPECT_NE(done.find("serve_slo_budget_remaining"), std::string::npos);
  EXPECT_NE(done.find("serve_slo_burn_rate"), std::string::npos);
  EXPECT_NE(replies.find("\"type\":\"bye\""), std::string::npos);
}

TEST_F(ServeTelemetryTest, OneAdmitExportsGreedyStepAnchorMetrics) {
  obs::Metrics::instance().start();
  AdmissionEngine engine(net::make_grid(4, 5, 3.5, 5.0), {});
  RequestMessage message;
  message.id = "R0";
  message.request.add_node(1.0);
  message.request.set_temporal(0.0, 4.0, 1.0);
  message.mapping = std::vector<net::NodeId>{0};
  EXPECT_EQ(engine.admit(message).outcome, AdmitOutcome::kAccepted);

  MetricsServer server(MetricsServerOptions{});
  const int port = server.start(0);
  ASSERT_GT(port, 0);
  const std::string response = http_get(port, "/metrics");
  server.stop();
  // One step evaluated its first anchor and accepted there.
  EXPECT_NE(response.find("greedy_step_anchors_count 1"), std::string::npos)
      << response;
  EXPECT_NE(response.find("greedy_step_node_pruned 0"), std::string::npos);
}

TEST_F(ServeTelemetryTest, StatsRecordCarriesLadderQueueAndSloFields) {
  int pipes_in[2], pipes_out[2];
  ASSERT_EQ(::pipe(pipes_in), 0);
  ASSERT_EQ(::pipe(pipes_out), 0);

  DaemonOptions options;
  options.slo_ms = 2000.0;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);
  std::thread worker([&] {
    daemon.serve(pipes_in[0], pipes_out[1]);
    ::close(pipes_out[1]);
  });

  std::string payload;
  for (const std::string& line : request_lines(3)) payload += line + "\n";
  payload += "{\"type\":\"stats\"}\n{\"type\":\"drain\"}\n";
  write_all(pipes_in[1], payload);
  ::close(pipes_in[1]);
  const std::string replies = read_to_eof(pipes_out[0]);
  worker.join();
  ::close(pipes_in[0]);
  ::close(pipes_out[0]);

  for (const char* field :
       {"\"queue_depth\":", "\"shed_door\":", "\"shed_overload\":",
        "\"shed_aged\":", "\"shed_budget\":", "\"shed_solver\":",
        "\"slo_budget_remaining\":", "\"slo_burn_rate\":",
        "\"reopt_stale\":", "\"reopt_cancelled\":"}) {
    EXPECT_NE(replies.find(field), std::string::npos)
        << "stats record lacks " << field;
  }

  const Daemon::LadderCounts counts = daemon.ladder_counts();
  EXPECT_EQ(counts.door, 0);
  EXPECT_EQ(counts.overload, 0);
  EXPECT_EQ(daemon.reoptimizer().stale_discards(), 0);
  EXPECT_EQ(daemon.reoptimizer().cancelled(), 0);
}

TEST_F(ServeTelemetryTest, RefreshSloGaugesExportsBudgetState) {
  obs::Metrics::instance().start();
  DaemonOptions options;
  options.slo.window_seconds = 60.0;
  options.slo.budget_fraction = 0.10;
  options.slo.min_samples = 1;
  Daemon daemon(net::make_grid(2, 2, 3.5, 5.0), options);

  // Record at t=0 so the daemon's own (just-started) clock, which
  // refresh_slo_gauges reads, still sees the samples inside the window.
  for (int i = 0; i < 10; ++i) daemon.slo_budget().record(0.0, i < 5);
  daemon.refresh_slo_gauges();

  const obs::MetricsSnapshot snapshot = obs::Metrics::instance().snapshot();
  ASSERT_EQ(snapshot.gauges.count("serve.slo.budget_remaining"), 1u);
  ASSERT_EQ(snapshot.gauges.count("serve.slo.burn_rate"), 1u);
  ASSERT_EQ(snapshot.gauges.count("serve.slo.window_total"), 1u);
  // 50% breaching against a 10% budget: burn 5.0, nothing remaining.
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("serve.slo.burn_rate"), 5.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("serve.slo.budget_remaining"), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("serve.slo.window_total"), 10.0);
}

TEST_F(ServeTelemetryTest, RequestSpansLinkAcrossThreads) {
  obs::Tracer::instance().reset();
  obs::Tracer::instance().start();

  int pipes_in[2], pipes_out[2];
  ASSERT_EQ(::pipe(pipes_in), 0);
  ASSERT_EQ(::pipe(pipes_out), 0);
  DaemonOptions options;
  options.slo_ms = 2000.0;
  Daemon daemon(net::make_grid(4, 5, 3.5, 5.0), options);
  std::thread worker([&] {
    daemon.serve(pipes_in[0], pipes_out[1]);
    ::close(pipes_out[1]);
  });
  std::string payload;
  const int count = 5;
  for (const std::string& line : request_lines(count)) payload += line + "\n";
  payload += "{\"type\":\"drain\"}\n";
  write_all(pipes_in[1], payload);
  ::close(pipes_in[1]);
  read_to_eof(pipes_out[0]);
  worker.join();
  ::close(pipes_in[0]);
  ::close(pipes_out[0]);

  obs::Tracer::instance().stop();
  const std::vector<obs::TraceEvent> events = obs::Tracer::instance().drain();
  ASSERT_FALSE(events.empty());

  const auto extract_req = [](const std::string& args) -> std::string {
    const std::string tag = "\"req\":\"";
    const std::size_t at = args.find(tag);
    if (at == std::string::npos) return {};
    const std::size_t pos = at + tag.size();
    return args.substr(pos, args.find('"', pos) - pos);
  };
  std::map<std::string, int> roots, parses, queue_begins, queue_ends;
  for (const obs::TraceEvent& e : events) {
    const std::string name = e.name;
    if (name == "serve.request") {
      // Root spans carry the req tag plus path/outcome args.
      EXPECT_NE(e.args.find("\"req\":\"R"), std::string::npos);
      EXPECT_NE(e.args.find("\"path\":\"worker\""), std::string::npos);
      EXPECT_NE(e.args.find("\"outcome\":\""), std::string::npos);
      roots[extract_req(e.args)]++;
    } else if (name == "serve.request/parse") {
      EXPECT_EQ(e.phase, 'X');
      parses[extract_req(e.args)]++;
    } else if (name == "serve.request/queue") {
      ASSERT_TRUE(e.phase == 'b' || e.phase == 'e');
      EXPECT_FALSE(e.id.empty());
      (e.phase == 'b' ? queue_begins : queue_ends)[e.id]++;
    }
  }
  // One root, one parse, one queue begin/end pair per request id.
  EXPECT_EQ(roots.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string id = "R" + std::to_string(i);
    EXPECT_EQ(roots[id], 1) << id;
    EXPECT_EQ(parses[id], 1) << id;
    EXPECT_EQ(queue_begins[id], 1) << id;
    EXPECT_EQ(queue_ends[id], 1) << id;
  }
}

TEST_F(ServeTelemetryTest, LiveSessionDrainsTracerIntoJsonl) {
  const std::string jsonl = temp_path("live");
  obs::ObsConfig config;
  config.trace_jsonl_path = jsonl;
  config.live_flush_seconds = 3600.0;  // pump idles; the test drives flushes
  {
    obs::ObsSession session(std::move(config));
    { obs::SpanScope span("first", "test"); }
    session.flush_live();
    EXPECT_GE(session.live_flushes(), 1);

    // The first batch is durable mid-run — that is the point of live mode.
    std::ifstream mid(jsonl);
    std::string contents((std::istreambuf_iterator<char>(mid)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("\"name\":\"first\""), std::string::npos);

    { obs::SpanScope span("second", "test"); }
  }  // finish(): final drain appends the tail
  std::ifstream in(jsonl);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"name\":\"first\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\":\"second\""), std::string::npos);
}

TEST_F(ServeTelemetryTest, LiveJsonlRotatesAtTheBoundary) {
  const std::string jsonl = temp_path("rotate");
  obs::ObsConfig config;
  config.trace_jsonl_path = jsonl;
  config.live_flush_seconds = 3600.0;
  config.live_rotate_bytes = 512;
  {
    obs::ObsSession session(std::move(config));
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 16; ++i)
        obs::instant("rotation_filler_event_with_a_long_name", "test");
      session.flush_live();
    }
    std::ifstream rotated(jsonl + ".1");
    EXPECT_TRUE(rotated.good()) << "no rotated generation at the boundary";
  }
  // Both generations respect the boundary.
  std::ifstream current(jsonl, std::ios::ate | std::ios::binary);
  ASSERT_TRUE(current.good());
  EXPECT_LE(current.tellg(), static_cast<std::streamoff>(512));
}

TEST_F(ServeTelemetryTest, TracerDrainMovesEventsOut) {
  obs::Tracer::instance().start();
  obs::instant("one", "test");
  obs::instant("two", "test");
  EXPECT_EQ(obs::Tracer::instance().drain().size(), 2u);
  EXPECT_TRUE(obs::Tracer::instance().drain().empty());
  // Shards survive a drain; new events keep recording.
  obs::instant("three", "test");
  const std::vector<obs::TraceEvent> events = obs::Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "three");
}

}  // namespace
}  // namespace tvnep::serve
