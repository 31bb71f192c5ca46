// Tests of the benchmark itself: script determinism, percentile edge cases,
// metric naming, and that every declared metric is reported on every
// workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>

#include "bench_util.h"
#include "report.h"
#include "replay.h"
#include "server/json.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace json = vexus::server::json;

const vexus::core::VexusEngine& SmallEngine() {
  static const vexus::core::VexusEngine* engine = [] {
    const Workload* w = FindWorkload("small_pipelined");
    vexus::mining::DiscoveryOptions d;
    d.min_support_fraction = w->min_support;
    auto e = vexus::core::VexusEngine::Preprocess(
        vexus::data::BookCrossingGenerator::Generate(w->data), d, {});
    return new vexus::core::VexusEngine(std::move(e).ValueOrDie());
  }();
  return *engine;
}

std::vector<SessionScript> Scripts(const Workload& w, uint64_t seed,
                                   size_t lanes, size_t per_lane) {
  std::vector<SessionScript> out;
  for (size_t l = 0; l < lanes; ++l) {
    ScriptStream stream(w, SmallEngine(), seed, l);
    for (size_t i = 0; i < per_lane; ++i) out.push_back(stream.Next());
  }
  return out;
}

/// Scripts serialized one request line each: the byte-identity surface.
std::string SerializeScripts(const std::vector<SessionScript>& scripts) {
  std::string out;
  for (const SessionScript& s : scripts) {
    for (size_t i = 0; i < s.ops.size(); ++i) {
      out += s.RequestAt(i).Encode();
      out += '\n';
    }
  }
  return out;
}

/// BENCHMARK.json's naming rule: [A-Za-z0-9_.-], starting with a letter or
/// digit, at most 64 characters.
bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

json::Value BenchmarkJson() {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = json::Parse(text.str());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.ValueOrDie() : json::Value();
}

std::vector<std::string> DeclaredNames(const json::Value& bench,
                                       const char* key) {
  std::vector<std::string> names;
  const json::Value* list = bench.Find(key);
  if (list == nullptr || !list->is_array()) return names;
  for (const json::Value& m : list->AsArray()) names.push_back(m.GetString("name", ""));
  return names;
}

/// Runs every workload's scripts through the replay over the small store,
/// with wire exchanges faked as OK deadline-bound answers, and returns both
/// metric sets.
struct WorkloadMetrics {
  MetricSet e2e;
  MetricSet layers;
};
WorkloadMetrics MetricsFor(const Workload& w) {
  std::vector<SessionRun> sessions;
  RunData run;
  run.setups = {SetupTimes{0.1, 0.2, 0.01}};
  run.groups = SmallEngine().groups().size();
  run.peak_rss_mb = 100;
  run.window_end_ms = 1000;
  for (SessionScript& s : Scripts(w, 7, 2, 3)) {
    SessionRun session{std::move(s), {}};
    for (size_t op = 0; op < session.script.ops.size(); ++op) {
      Exchange ex;
      ex.type = session.script.ops[op].type;
      ex.measured = ex.answered = ex.deadline_hit = true;
      ex.wire_ms = 1.0 + static_cast<double>(op);
      ex.elapsed_ms = 0.5;
      ex.coverage = ex.diversity = 0.5;
      session.exchanges.push_back(run.exchanges.size());
      run.exchanges.push_back(ex);
    }
    sessions.push_back(std::move(session));
  }
  Replayer replayer(SmallEngine(), sessions, run.exchanges);
  SpanLog log;
  const ReplayResult traced = replayer.Serve(&log, sessions.size(), 1e9);
  const ReplayResult untraced = replayer.Serve(nullptr, traced.sessions, 1e9);
  EXPECT_EQ(traced.failed, 0u) << w.name;
  return {EndToEndMetrics(run), PerLayerMetrics(run, &log, &traced, &untraced)};
}

TEST(ScriptTest, SameSeedGivesByteIdenticalScripts) {
  for (const Workload& w : Workloads()) {
    const std::string a = SerializeScripts(Scripts(w, 42, 3, 20));
    const std::string b = SerializeScripts(Scripts(w, 42, 3, 20));
    EXPECT_EQ(a, b) << w.name;
    EXPECT_NE(a, SerializeScripts(Scripts(w, 43, 3, 20))) << w.name;
  }
}

TEST(ScriptTest, LaterSessionsDoNotChangeEarlierOnes) {
  const Workload& w = *FindWorkload("paper_deep");
  const std::vector<SessionScript> few = Scripts(w, 5, 1, 3);
  const std::vector<SessionScript> many = Scripts(w, 5, 1, 10);
  EXPECT_EQ(SerializeScripts(few),
            SerializeScripts({many.begin(), many.begin() + 3}));
}

TEST(ScriptTest, WalksFollowSimilarNeighbors) {
  const vexus::core::VexusEngine& engine = SmallEngine();
  const double sigma = vexus::core::GreedyOptions{}.min_similarity;
  size_t followed = 0;
  for (const SessionScript& s : Scripts(*FindWorkload("paper_deep"), 9, 2, 10)) {
    std::optional<uint32_t> prev;
    for (const ScriptOp& op : s.ops) {
      if (op.type != vexus::server::RequestType::kSelectGroup) continue;
      ASSERT_LT(op.arg, engine.groups().size());
      if (prev.has_value()) {
        for (const auto& nb : engine.index().Neighbors(*prev)) {
          if (nb.group == op.arg && nb.similarity >= sigma) ++followed;
        }
      }
      prev = op.arg;
    }
  }
  EXPECT_GT(followed, 0u);
}

TEST(ScriptTest, ShapesMatchTheirWorkloads) {
  using vexus::server::RequestType;
  const SessionScript deep = Scripts(*FindWorkload("paper_deep"), 1, 1, 1)[0];
  ASSERT_EQ(deep.ops.size(), 11u);
  EXPECT_EQ(deep.ops.front().type, RequestType::kStartSession);
  EXPECT_EQ(deep.ops[9].type, RequestType::kGetContext);
  EXPECT_EQ(deep.ops.back().type, RequestType::kEndSession);

  const SessionScript churn = Scripts(*FindWorkload("paper_churn"), 1, 1, 1)[0];
  std::vector<RequestType> types;
  for (const ScriptOp& op : churn.ops) types.push_back(op.type);
  EXPECT_EQ(types, (std::vector<RequestType>{
                       RequestType::kStartSession, RequestType::kSelectGroup,
                       RequestType::kSelectGroup, RequestType::kUnlearn,
                       RequestType::kBacktrack, RequestType::kBookmark,
                       RequestType::kGetContext, RequestType::kEndSession}));
  EXPECT_EQ(churn.ops[4].arg, 0u);
  EXPECT_EQ(*churn.RequestAt(4).step, 0u);
}

TEST(ReplayTest, MirrorMatchesExplorationSessionAndCatchesAMismatch) {
  // The wire side here is a real ExplorationSession driven through the same
  // scripts with no time limit, so every screen converged and is compared.
  vexus::core::SessionOptions options;
  options.greedy.k = kScreenK;
  options.greedy.time_limit_ms = vexus::core::GreedyOptions::kUnboundedTimeLimit;
  std::vector<SessionRun> sessions;
  std::vector<Exchange> exchanges;
  for (SessionScript& script : Scripts(*FindWorkload("small_pipelined"), 11, 2, 6)) {
    auto session = SmallEngine().CreateSession(options);
    SessionRun run{std::move(script), {}};
    for (const ScriptOp& op : run.script.ops) {
      Exchange ex;
      ex.type = op.type;
      ex.answered = true;
      switch (op.type) {
        case vexus::server::RequestType::kStartSession:
          ex.groups = session->Start().groups;
          break;
        case vexus::server::RequestType::kSelectGroup:
          ex.groups = session->SelectGroup(op.arg).groups;
          break;
        case vexus::server::RequestType::kBacktrack:
          ASSERT_TRUE(session->Backtrack(op.arg).ok());
          ex.groups = session->Current().groups;
          break;
        case vexus::server::RequestType::kUnlearn:
          session->Unlearn(op.arg);
          break;
        default:
          break;
      }
      run.exchanges.push_back(exchanges.size());
      exchanges.push_back(std::move(ex));
    }
    sessions.push_back(std::move(run));
  }
  const ReplayResult clean = Replayer(SmallEngine(), sessions, exchanges).Check(2);
  EXPECT_TRUE(clean.identity_failures.empty()) << clean.identity_failures.front();
  EXPECT_GT(clean.identity_compared, 20u);

  for (Exchange& ex : exchanges) {
    if (ex.type != vexus::server::RequestType::kSelectGroup) continue;
    ex.groups.back() = static_cast<uint32_t>(SmallEngine().groups().size());
    break;
  }
  const ReplayResult broken = Replayer(SmallEngine(), sessions, exchanges).Check(2);
  EXPECT_EQ(broken.identity_failures.size(), 1u);
}

TEST(PercentileTest, EdgeCasesMatchBenchSeries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> samples = {
      {}, {3.5}, {2, 1}, {5, 1, 4, 2, 3}, {1, 1, 1, 9}, {-2, 0, 7.25}};
  const std::vector<double> ps = {nan, -1, 0, 0.1, 0.5, 0.9, 0.999, 1, 2};
  for (const auto& v : samples) {
    vexus::bench::Series series;
    series.values = v;
    for (double p : ps) {
      EXPECT_EQ(Percentile(v, p), series.Percentile(p)) << "p=" << p;
    }
  }
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({3.5}, 0.9), 3.5);
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, nan), 1);
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 1), 5);
  EXPECT_EQ(Median({5, 1, 4, 2, 3}), 3);
}

TEST(MetricTest, NamesAreValidAndUnique) {
  EXPECT_TRUE(ValidMetricName("net.wire_overhead_ms.p50"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  for (const Workload& w : Workloads()) {
    const WorkloadMetrics m = MetricsFor(w);
    std::set<std::string> seen;
    for (const MetricSet* set : {&m.e2e, &m.layers}) {
      for (const Metric& metric : *set) {
        EXPECT_TRUE(ValidMetricName(metric.name)) << metric.name;
        EXPECT_TRUE(seen.insert(metric.name).second) << metric.name;
        EXPECT_TRUE(std::isfinite(metric.value)) << metric.name;
      }
    }
  }
}

TEST(MetricTest, EveryDeclaredMetricIsReportedOnEveryWorkload) {
  const json::Value bench = BenchmarkJson();
  const std::vector<std::string> declared_workloads = DeclaredNames(bench, "workloads");
  ASSERT_FALSE(declared_workloads.empty());
  for (const std::string& name : declared_workloads) {
    EXPECT_NE(FindWorkload(name), nullptr) << name;
  }

  const std::vector<std::string> e2e = DeclaredNames(bench, "end_to_end");
  const std::vector<std::string> layers = DeclaredNames(bench, "per_layer");
  ASSERT_FALSE(e2e.empty());
  ASSERT_FALSE(layers.empty());
  for (const std::string& workload : declared_workloads) {
    const Workload& w = *FindWorkload(workload);
    const WorkloadMetrics m = MetricsFor(w);
    std::vector<std::string> reported;
    for (const Metric& metric : m.e2e) reported.push_back(metric.name);
    EXPECT_EQ(reported, e2e) << w.name;
    std::set<std::string> reported_layers;
    for (const Metric& metric : m.layers) reported_layers.insert(metric.name);
    for (const std::string& name : layers) {
      EXPECT_TRUE(reported_layers.count(name)) << w.name << ": " << name;
    }
  }
}

}  // namespace
}  // namespace perfbench
