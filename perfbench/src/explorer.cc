// perfbench_explorer — the repository's end-to-end benchmark.
//
// One command builds the reference server in-process from the public
// library API (one net::TcpServer event loop in front of an
// ExplorationService with 2 workers, parallel scan, k = 7, 100 ms budget),
// drives it from one client thread over loopback TCP with closed-loop
// scripted explorer sessions, checks the answers, and prints every metric.
//
//   perfbench_explorer --workload NAME --seed N --seconds S --trace 0|1
//                      [--out DIR] [--commit ID]
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally replays
// the sent scripts in-process with spans around each layer call and reports
// the per-layer metrics. The last stdout line is the JSON result
// {"correct","attempted","failed","metrics"}; the full envelope (commit,
// CPU, build, kernel tier, configuration, phases, checks, every metric) goes
// to DIR/<workload>-seed<N>-trace<T>.json and the spans to a .spans.jsonl
// beside it. Exit status is 0 only when every check passed.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bitset_kernels.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "report.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/service.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using vexus::Stopwatch;
using vexus::server::Request;
using vexus::server::RequestType;
using vexus::server::Response;
namespace json = vexus::server::json;

constexpr const char* kHost = "127.0.0.1";
/// The reference configuration around the workload's store and clients.
constexpr size_t kWorkers = 2;
constexpr size_t kEventLoops = 1;
constexpr double kWarmupS = 1.0;
/// The traced replay stops starting sessions after this many, or after
/// min(half the measured time, kTracedReplayMaxS): enough calls for
/// per-layer means, and a bounded span file.
constexpr size_t kTracedReplayMaxSessions = 500;
constexpr double kTracedReplayMaxS = 5.0;

#define RETURN_IF_ERROR(expr)             \
  do {                                    \
    const vexus::Status status_ = (expr); \
    if (!status_.ok()) return status_;    \
  } while (0)

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".perfbench_out";
  std::string commit = "unknown";
};

/// The served stack of one set-up. Members are declared in construction
/// order so destruction tears down the server before the service before the
/// engine.
struct Stack {
  std::unique_ptr<vexus::core::VexusEngine> engine;
  std::unique_ptr<vexus::server::ExplorationService> service;
  std::unique_ptr<vexus::net::TcpServer> server;
};

/// Generates, preprocesses, and serves until health answers ready.
vexus::Result<SetupTimes> SetUp(const Workload& w, Stack* stack) {
  SetupTimes t;
  Stopwatch watch;
  auto dataset = vexus::data::BookCrossingGenerator::Generate(w.data);
  t.generate_s = watch.ElapsedSeconds();

  watch.Restart();
  vexus::mining::DiscoveryOptions discovery;
  discovery.min_support_fraction = w.min_support;
  auto engine =
      vexus::core::VexusEngine::Preprocess(std::move(dataset), discovery, {});
  if (!engine.ok()) return engine.status();
  stack->engine = std::make_unique<vexus::core::VexusEngine>(
      std::move(engine).ValueOrDie());
  t.preprocess_s = watch.ElapsedSeconds();

  watch.Restart();
  vexus::server::ServiceOptions options;
  options.num_workers = kWorkers;
  options.parallel_greedy_scan = true;
  options.session_template.greedy.k = kScreenK;
  options.session_template.greedy.time_limit_ms = kBudgetMs;
  stack->service = std::make_unique<vexus::server::ExplorationService>(
      stack->engine.get(), options);
  vexus::net::TcpServerOptions net_options;
  net_options.host = kHost;
  net_options.num_loops = kEventLoops;
  stack->server = std::make_unique<vexus::net::TcpServer>(stack->service.get(),
                                                          net_options);
  RETURN_IF_ERROR(stack->server->Start());
  auto client = vexus::net::LineClient::Connect(kHost, stack->server->port());
  if (!client.ok()) return client.status();
  vexus::net::LineClient probe = std::move(client).ValueOrDie();
  Request health;
  health.type = RequestType::kHealth;
  for (;;) {
    auto resp = probe.Call(health);
    if (!resp.ok()) return resp.status();
    const Response& r = resp.ValueOrDie();
    if (r.health.has_value() && r.health->GetBool("ready", false)) break;
    if (watch.ElapsedSeconds() > 30) {
      return vexus::Status::DeadlineExceeded("server never reported ready");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.serve_ready_s = watch.ElapsedSeconds();
  return t;
}

void TearDown(Stack* stack) {
  if (stack->server) stack->server->Drain();
  stack->server.reset();
  stack->service.reset();
  stack->engine.reset();
}

/// Attempted / succeeded / failed requests of one phase.
struct Phase {
  const char* name;
  size_t attempted = 0;
  size_t succeeded = 0;
  size_t failed = 0;
};

struct Checks {
  std::vector<std::string> failures;
  size_t screens_checked = 0;
  size_t backtracks_checked = 0;
  size_t identity_compared = 0;
  void Fail(std::string what) {
    if (failures.size() < 20) failures.push_back(std::move(what));
    else if (failures.size() == 20) failures.push_back("(further failures omitted)");
  }
};

/// The closed-loop client: one thread, `connections` sockets, each lane (one
/// in-flight session slot) sending its next request only when the previous
/// answer arrived.
class Client {
 public:
  Client(const Workload& w, const vexus::core::VexusEngine& engine,
         uint64_t seed, uint16_t port)
      : workload_(w), port_(port) {
    const size_t lanes = w.connections * w.sessions_per_connection;
    for (size_t l = 0; l < lanes; ++l) {
      lanes_.push_back(Lane{ScriptStream(w, engine, seed, l),
                            l / w.sessions_per_connection, SIZE_MAX, 0});
    }
  }

  vexus::Status Connect() {
    for (size_t c = 0; c < workload_.connections; ++c) {
      auto fd = vexus::net::ConnectTcp(kHost, port_, 5000);
      if (!fd.ok()) return fd.status();
      auto conn = std::make_unique<Conn>();
      conn->fd = std::move(fd).ValueOrDie();
      RETURN_IF_ERROR(vexus::net::SetNonBlocking(conn->fd.get()));
      RETURN_IF_ERROR(vexus::net::SetNoDelay(conn->fd.get()));
      conns_.push_back(std::move(conn));
    }
    return vexus::Status::OK();
  }

  /// Runs `warmup_s` unmeasured, then `seconds` measured; then stops
  /// issuing and waits for every in-flight answer.
  vexus::Status Run(double warmup_s, double seconds, RunData* run,
                    std::vector<SessionRun>* sessions) {
    run_ = run;
    sessions_ = sessions;
    epoch_ = Clock::now();
    window_start_ = epoch_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(warmup_s));
    window_end_ = window_start_ + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    run->window_start_ms = Ms(window_start_);
    for (size_t l = 0; l < lanes_.size(); ++l) RETURN_IF_ERROR(Issue(l));

    std::vector<pollfd> fds(conns_.size());
    char buf[1 << 16];
    for (;;) {
      const Clock::time_point now = Clock::now();
      size_t in_flight = 0;
      for (const auto& c : conns_) in_flight += c->inflight.size();
      if (now >= window_end_ && in_flight == 0) break;
      if (now > window_end_ + std::chrono::seconds(60)) {
        return vexus::Status::DeadlineExceeded("answers still missing 60 s after the run");
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        fds[c].fd = conns_[c]->fd.get();
        fds[c].events = POLLIN;
        if (conns_[c]->out_off < conns_[c]->out.size()) fds[c].events |= POLLOUT;
        fds[c].revents = 0;
      }
      const int ready = ::poll(fds.data(), fds.size(), 20);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return vexus::net::ErrnoStatus("poll", errno);
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        Conn& conn = *conns_[c];
        if (fds[c].revents & POLLOUT) RETURN_IF_ERROR(Flush(&conn));
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        for (;;) {
          const ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), 0);
          if (n > 0) {
            const Clock::time_point at = Clock::now();
            conn.framer.Append(std::string_view(buf, static_cast<size_t>(n)));
            while (auto frame = conn.framer.Next()) {
              RETURN_IF_ERROR(OnAnswer(&conn, frame->text, at));
            }
            continue;
          }
          if (n == 0) return vexus::Status::IOError("server closed a connection");
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          return vexus::net::ErrnoStatus("recv", errno);
        }
      }
    }
    return vexus::Status::OK();
  }

 private:
  struct Lane {
    ScriptStream stream;
    size_t conn;
    size_t session;  // index into sessions_, SIZE_MAX before the first
    size_t op;       // next op of that session's script
  };
  struct InFlight {
    size_t lane;
    size_t exchange;
    Clock::time_point sent;
  };
  struct Conn {
    vexus::net::Fd fd;
    vexus::server::LineFramer framer;
    std::string out;
    size_t out_off = 0;
    std::deque<InFlight> inflight;
  };

  double Ms(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - epoch_).count();
  }

  /// Sends lane `l`'s next request, unless the measured window is over.
  vexus::Status Issue(size_t l) {
    if (Clock::now() >= window_end_) return vexus::Status::OK();
    Lane& lane = lanes_[l];
    if (lane.session == SIZE_MAX ||
        lane.op == (*sessions_)[lane.session].script.ops.size()) {
      sessions_->push_back(SessionRun{lane.stream.Next(), {}});
      lane.session = sessions_->size() - 1;
      lane.op = 0;
    }
    SessionRun& session = (*sessions_)[lane.session];
    const Request req = session.script.RequestAt(lane.op++);
    Conn& conn = *conns_[lane.conn];
    conn.out += req.Encode();
    conn.out += '\n';
    const Clock::time_point sent = Clock::now();
    const size_t index = run_->exchanges.size();
    session.exchanges.push_back(index);
    Exchange& ex = run_->exchanges.emplace_back();
    ex.type = req.type;
    ex.measured = sent >= window_start_;
    conn.inflight.push_back(InFlight{l, index, sent});
    return Flush(&conn);
  }

  vexus::Status Flush(Conn* conn) {
    while (conn->out_off < conn->out.size()) {
      const ssize_t n =
          ::send(conn->fd.get(), conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return vexus::Status::OK();
      if (n < 0 && errno == EINTR) continue;
      return vexus::net::ErrnoStatus("send", errno);
    }
    conn->out.clear();
    conn->out_off = 0;
    return vexus::Status::OK();
  }

  vexus::Status OnAnswer(Conn* conn, const std::string& line,
                         Clock::time_point at) {
    if (conn->inflight.empty()) {
      return vexus::Status::Corruption("answer with no request in flight");
    }
    const InFlight f = conn->inflight.front();
    conn->inflight.pop_front();
    Exchange& ex = run_->exchanges[f.exchange];
    ex.answered = true;
    ex.wire_ms = std::chrono::duration<double, std::milli>(at - f.sent).count();
    ex.bytes = static_cast<uint32_t>(line.size() + 1);
    if (ex.measured) run_->window_end_ms = std::max(run_->window_end_ms, Ms(at));
    auto decoded = Response::Decode(line);
    if (!decoded.ok()) {
      ex.code = vexus::StatusCode::kCorruption;
    } else {
      const Response& r = decoded.ValueOrDie();
      ex.code = r.status.code();
      if (r.type != ex.type) ex.code = vexus::StatusCode::kCorruption;
      if (r.degraded.has_value()) {
        ex.degraded = r.degraded->empty() ? '?' : (*r.degraded)[0];
      }
      ex.deadline_hit = r.greedy_deadline_hit;
      ex.elapsed_ms = r.elapsed_ms;
      ex.queue_ms = r.queue_ms;
      ex.coverage = r.coverage;
      ex.diversity = r.diversity;
      for (const auto& g : r.groups) ex.groups.push_back(g.id);
    }
    return Issue(f.lane);
  }

  const Workload& workload_;
  uint16_t port_;
  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<Conn>> conns_;
  RunData* run_ = nullptr;
  std::vector<SessionRun>* sessions_ = nullptr;
  Clock::time_point epoch_;
  Clock::time_point window_start_;
  Clock::time_point window_end_;
};

/// Screen shape and backtrack checks over the wire answers.
void CheckAnswers(const RunData& run, const std::vector<SessionRun>& sessions,
                  size_t num_groups, Checks* checks) {
  for (size_t s = 0; s < sessions.size(); ++s) {
    const SessionRun& session = sessions[s];
    // The screens of this session's HISTORY steps, as the wire showed them.
    std::vector<std::vector<uint32_t>> steps;
    bool history_known = true;
    for (size_t op = 0; op < session.exchanges.size(); ++op) {
      const Exchange& ex = run.exchanges[session.exchanges[op]];
      const ScriptOp& req = session.script.ops[op];
      auto where = [&] {
        return session.script.session_id + " op " + std::to_string(op);
      };
      if (!ex.ok()) {
        history_known = false;
        continue;
      }
      const bool screen = ex.is_screen() || ex.type == RequestType::kBacktrack;
      if (screen) {
        ++checks->screens_checked;
        std::set<uint32_t> distinct(ex.groups.begin(), ex.groups.end());
        const bool in_range =
            std::all_of(ex.groups.begin(), ex.groups.end(),
                        [&](uint32_t g) { return g < num_groups; });
        const bool full = ex.groups.size() == kScreenK;
        const bool reduced = ex.degraded == 'k' && !ex.groups.empty() &&
                             ex.groups.size() <= kScreenK;
        if (distinct.size() != ex.groups.size() || !in_range ||
            !(full || reduced)) {
          checks->Fail(where() + ": screen of " + std::to_string(ex.groups.size()) +
                       " groups is not k distinct in-range ids");
        }
      }
      if (ex.degraded == 's') history_known = false;
      switch (ex.type) {
        case RequestType::kStartSession:
          steps.assign(1, ex.groups);
          break;
        case RequestType::kSelectGroup:
          steps.push_back(ex.groups);
          break;
        case RequestType::kBacktrack: {
          const size_t step = req.arg;
          if (!history_known) break;
          ++checks->backtracks_checked;
          if (step >= steps.size() || steps[step] != ex.groups) {
            checks->Fail(where() + ": backtrack to step " + std::to_string(step) +
                         " did not return that step's screen");
          }
          steps.resize(std::min(steps.size(), step + 1));
          break;
        }
        default:
          break;
      }
    }
  }
}

void PrintMetrics(const char* title, const MetricSet& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

json::Value MetricsJson(const MetricSet& metrics) {
  json::Object o;
  for (const Metric& m : metrics) {
    o.emplace_back(m.name, json::Value(json::Object{{"value", json::Value(m.value)},
                                                     {"unit", json::Value(m.unit)}}));
  }
  return json::Value(std::move(o));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_explorer --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--commit ID]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Usage(("unknown workload '" + args.workload + "'").c_str());
  const Workload& w = *workload;

  // ---- Set-up, repeated; the last stack serves the run. ----
  RunData run;
  Stack stack;
  for (size_t r = 0; r < w.setup_repeats; ++r) {
    TearDown(&stack);
    auto t = SetUp(w, &stack);
    if (!t.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", t.status().ToString().c_str());
      return 1;
    }
    run.setups.push_back(t.ValueOrDie());
  }
  const vexus::core::VexusEngine& engine = *stack.engine;
  run.groups = engine.groups().size();

  // ---- The measured run. ----
  std::vector<SessionRun> sessions;
  Client client(w, engine, args.seed, stack.server->port());
  vexus::Status st = client.Connect();
  if (st.ok()) st = client.Run(kWarmupS, args.seconds, &run, &sessions);
  if (!st.ok()) {
    std::fprintf(stderr, "client failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Phase warmup{"warmup"}, measure{"measure"}, stats_phase{"stats"}, replay_phase{"replay"};
  for (const Exchange& ex : run.exchanges) {
    Phase& p = ex.measured ? measure : warmup;
    ++p.attempted;
    if (ex.ok()) ++p.succeeded;
    else ++p.failed;
  }

  // Server-side counters, then drain and conservation.
  {
    ++stats_phase.attempted;
    auto probe = vexus::net::LineClient::Connect(kHost, stack.server->port());
    Request req;
    req.type = RequestType::kGetStats;
    vexus::Result<Response> resp =
        probe.ok() ? probe.ValueOrDie().Call(req) : vexus::Result<Response>(probe.status());
    if (resp.ok() && resp.ValueOrDie().status.ok() && resp.ValueOrDie().stats) {
      ++stats_phase.succeeded;
      const json::Value& s = *resp.ValueOrDie().stats;
      run.overload_shed = static_cast<uint64_t>(s.GetNumber("shed", 0));
      run.overload_degraded = static_cast<uint64_t>(
          s.GetNumber("degraded_effort", 0) + s.GetNumber("degraded_k", 0) +
          s.GetNumber("degraded_stale", 0) + s.GetNumber("degraded_partial", 0));
    } else {
      ++stats_phase.failed;
    }
  }
  run.overload_escalations = stack.service->dispatcher().overload().escalations();
  stack.server->Drain();
  run.net = stack.server->Stats();
  stack.service->Shutdown();
  run.peak_rss_mb = PeakRssMb();

  Checks checks;
  if (run.net.requests_submitted !=
      run.net.responses_routed + run.net.responses_dropped) {
    checks.Fail("conservation: submitted " + std::to_string(run.net.requests_submitted) +
                " != routed " + std::to_string(run.net.responses_routed) +
                " + dropped " + std::to_string(run.net.responses_dropped));
  }
  CheckAnswers(run, sessions, engine.groups().size(), &checks);

  // ---- Replay: identity check, and with --trace 1 the layer spans. ----
  Replayer replayer(engine, sessions, run.exchanges);
  SpanLog log;
  std::optional<ReplayResult> traced, untraced;
  if (args.trace) {
    traced = replayer.Serve(&log, kTracedReplayMaxSessions,
                            std::min(args.seconds / 2, kTracedReplayMaxS) * 1e3);
    // The same sessions again without spans: the tracing overhead.
    untraced = replayer.Serve(nullptr, traced->sessions, 1e300);
  }
  // The check pass covers every session; the traced pass may stop early.
  const ReplayResult check = replayer.Check(/*threads=*/3);
  const ReplayResult* traced_result = traced ? &*traced : nullptr;
  const ReplayResult* untraced_result = untraced ? &*untraced : nullptr;
  for (const ReplayResult* r : {&check, traced_result, untraced_result}) {
    if (r == nullptr) continue;
    replay_phase.attempted += r->attempted;
    replay_phase.failed += r->failed;
    replay_phase.succeeded += r->attempted - r->failed;
  }
  checks.identity_compared = check.identity_compared;
  for (const std::string& f : check.identity_failures) checks.Fail(f);
  if (checks.identity_compared == 0) {
    checks.Fail("replay identity compared no screen (every screen hit its deadline)");
  }

  // ---- Metrics and output. ----
  const MetricSet e2e = EndToEndMetrics(run);
  const MetricSet layers =
      PerLayerMetrics(run, args.trace ? &log : nullptr, traced_result,
                      untraced_result);
  const bool correct = checks.failures.empty();
  const std::vector<Phase> phases = {warmup, measure, stats_phase, replay_phase};
  size_t attempted = 0, failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
  }

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("store: %zu users, %zu groups; %zu sessions, %zu requests sent\n",
              engine.dataset().num_users(), run.groups, sessions.size(),
              run.exchanges.size());
  for (const Phase& p : phases) {
    std::printf("phase %-8s attempted %8zu  succeeded %8zu  failed %6zu\n", p.name,
                p.attempted, p.succeeded, p.failed);
  }
  std::printf("checks: %zu screens, %zu backtracks, %zu replay-identity screens, "
              "%zu failures\n",
              checks.screens_checked, checks.backtracks_checked,
              checks.identity_compared, checks.failures.size());
  for (const std::string& f : checks.failures) std::printf("  FAIL %s\n", f.c_str());
  PrintMetrics("end-to-end:", e2e);
  PrintMetrics("per-layer:", layers);
  if (args.trace) std::printf("span self times (traced replay):\n%s", SelfTimeTable(log).c_str());

  json::Object config{
      {"workload", json::Value(w.name)},
      {"users", json::Value(w.data.num_users)},
      {"books", json::Value(w.data.num_books)},
      {"ratings", json::Value(w.data.num_ratings)},
      {"min_support", json::Value(w.min_support)},
      {"connections", json::Value(w.connections)},
      {"sessions_per_connection", json::Value(w.sessions_per_connection)},
      {"click_size_quantiles", json::Value(w.click_size_quantiles)},
      {"k", json::Value(kScreenK)},
      {"budget_ms", json::Value(kBudgetMs)},
      {"workers", json::Value(kWorkers)},
      {"event_loops", json::Value(kEventLoops)},
      {"setup_repeats", json::Value(w.setup_repeats)},
      {"warmup_s", json::Value(kWarmupS)},
  };
  json::Array phase_json;
  for (const Phase& p : phases) {
    phase_json.emplace_back(json::Object{{"phase", json::Value(p.name)},
                                         {"attempted", json::Value(p.attempted)},
                                         {"succeeded", json::Value(p.succeeded)},
                                         {"failed", json::Value(p.failed)}});
  }
  json::Array failure_json;
  for (const std::string& f : checks.failures) failure_json.emplace_back(f);
  json::Object envelope{
      {"commit", json::Value(args.commit)},
      {"cpu_model", json::Value(CpuModel())},
      {"nproc", json::Value(std::thread::hardware_concurrency())},
      {"build_type", json::Value(PERFBENCH_BUILD_TYPE)},
      {"kernel_tier", json::Value(vexus::bitset_kernels::LevelName(
                          vexus::bitset_kernels::ActiveLevel()))},
      {"seed", json::Value(args.seed)},
      {"seconds", json::Value(args.seconds)},
      {"trace", json::Value(args.trace)},
      {"config", json::Value(std::move(config))},
      {"phases", json::Value(std::move(phase_json))},
      {"checks", json::Value(json::Object{
                     {"screens", json::Value(checks.screens_checked)},
                     {"backtracks", json::Value(checks.backtracks_checked)},
                     {"replay_identity", json::Value(checks.identity_compared)},
                     {"failures", json::Value(std::move(failure_json))}})},
      {"correct", json::Value(correct)},
      {"end_to_end", MetricsJson(e2e)},
      {"per_layer", MetricsJson(layers)},
  };
  const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  std::error_code mkdir_error;
  std::filesystem::create_directories(args.out_dir, mkdir_error);
  if (!WriteFile(stem + ".json", json::Value(std::move(envelope)).Dump() + "\n") ||
      (args.trace && !WriteFile(stem + ".spans.jsonl", log.ToJsonLines()))) {
    std::fprintf(stderr, "cannot write results under %s\n", args.out_dir.c_str());
    return 1;
  }
  std::printf("result envelope: %s.json\n", stem.c_str());

  json::Object result{{"correct", json::Value(correct)},
                      {"attempted", json::Value(attempted)},
                      {"failed", json::Value(failed)},
                      {"metrics", MetricsJson(args.trace ? layers : e2e)}};
  std::printf("%s\n", json::Value(std::move(result)).Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
