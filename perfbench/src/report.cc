#include "report.h"

#include <cstdio>
#include <map>
#include <numeric>

#include "bench_util.h"

namespace perfbench {

double Percentile(const std::vector<double>& values, double p) {
  vexus::bench::Series s;
  s.values = values;
  return s.Percentile(p);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

namespace {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double PerSecond(double count, const RunData& run) {
  const double window_s = (run.window_end_ms - run.window_start_ms) / 1e3;
  return window_s > 0 ? count / window_s : 0;
}

template <typename Fn>
std::vector<double> Collect(const RunData& run, Fn&& fn) {
  std::vector<double> out;
  for (const Exchange& ex : run.exchanges) {
    if (ex.measured && ex.answered) fn(ex, &out);
  }
  return out;
}

}  // namespace

MetricSet EndToEndMetrics(const RunData& run) {
  std::vector<double> setup;
  for (const SetupTimes& s : run.setups) setup.push_back(s.total_s());

  const std::vector<double> screen = Collect(run, [](const Exchange& ex, auto* out) {
    if (ex.is_screen()) out->push_back(ex.wire_ms);
  });
  const std::vector<double> op = Collect(run, [](const Exchange& ex, auto* out) {
    out->push_back(ex.wire_ms);
  });
  const std::vector<double> quality = Collect(run, [](const Exchange& ex, auto* out) {
    if (ex.is_screen() && ex.ok()) {
      out->push_back(0.5 * ex.coverage + 0.5 * ex.diversity);
    }
  });
  double screens_ok = 0, ops_ok = 0, screens_attempted = 0, budget_met = 0;
  for (const Exchange& ex : run.exchanges) {
    if (!ex.measured) continue;
    ops_ok += ex.ok();
    if (!ex.is_screen()) continue;
    ++screens_attempted;
    screens_ok += ex.ok();
    // A failed or degraded screen misses the budget whatever its latency.
    budget_met += ex.ok() && ex.degraded == 0 && ex.wire_ms <= kBudgetMs;
  }

  return {
      {"setup_s", "s", Median(setup)},
      {"screen_p50_ms", "ms", Percentile(screen, 0.5)},
      {"screen_p90_ms", "ms", Percentile(screen, 0.9)},
      {"op_p50_ms", "ms", Percentile(op, 0.5)},
      {"op_p90_ms", "ms", Percentile(op, 0.9)},
      {"screens_per_s", "1/s", PerSecond(screens_ok, run)},
      {"ops_per_s", "1/s", PerSecond(ops_ok, run)},
      {"budget_met_frac", "fraction",
       screens_attempted > 0 ? budget_met / screens_attempted : 0},
      {"screen_quality", "score", Mean(quality)},
      {"peak_rss_mb", "MB", run.peak_rss_mb},
  };
}

MetricSet PerLayerMetrics(const RunData& run, const SpanLog* log,
                          const ReplayResult* traced,
                          const ReplayResult* untraced) {
  MetricSet m;
  auto add = [&m](const char* name, const char* unit, double v) {
    m.push_back({name, unit, v});
  };

  const std::vector<double> overhead = Collect(run, [](const Exchange& ex, auto* out) {
    out->push_back(ex.wire_ms - ex.elapsed_ms);
  });
  const std::vector<double> bytes = Collect(run, [](const Exchange& ex, auto* out) {
    out->push_back(static_cast<double>(ex.bytes));
  });
  const std::vector<double> queue = Collect(run, [](const Exchange& ex, auto* out) {
    out->push_back(ex.queue_ms);
  });
  const std::vector<double> execute = Collect(run, [](const Exchange& ex, auto* out) {
    out->push_back(ex.elapsed_ms - ex.queue_ms);
  });
  add("net.wire_overhead_ms.p50", "ms", Percentile(overhead, 0.5));
  add("net.wire_overhead_ms.p90", "ms", Percentile(overhead, 0.9));
  add("net.bytes_out_per_op", "B", Mean(bytes));
  add("net.requests_submitted", "count", static_cast<double>(run.net.requests_submitted));
  add("net.responses_routed", "count", static_cast<double>(run.net.responses_routed));
  add("net.responses_dropped", "count", static_cast<double>(run.net.responses_dropped));
  add("dispatcher.queue_ms.p50", "ms", Percentile(queue, 0.5));
  add("dispatcher.queue_ms.p90", "ms", Percentile(queue, 0.9));
  add("service.execute_ms.p50", "ms", Percentile(execute, 0.5));
  add("service.execute_ms.p90", "ms", Percentile(execute, 0.9));
  add("overload.escalations", "count", static_cast<double>(run.overload_escalations));
  add("overload.shed", "count", static_cast<double>(run.overload_shed));
  add("overload.degraded", "count", static_cast<double>(run.overload_degraded));

  std::vector<double> gen, pre, ready;
  for (const SetupTimes& s : run.setups) {
    gen.push_back(s.generate_s);
    pre.push_back(s.preprocess_s);
    ready.push_back(s.serve_ready_s);
  }
  add("setup.generate_s", "s", Median(gen));
  add("setup.preprocess_s", "s", Median(pre));
  add("setup.serve_ready_s", "s", Median(ready));
  add("setup.groups", "count", static_cast<double>(run.groups));

  if (log == nullptr || traced == nullptr || untraced == nullptr) return m;

  std::map<std::string, std::vector<double>> span_us;
  for (const SpanLog::Span& s : log->spans()) {
    span_us[s.name].push_back(s.duration_us);
  }
  auto span_mean = [&](const char* name, double scale) {
    auto it = span_us.find(name);
    return it == span_us.end() ? 0.0 : Mean(it->second) * scale;
  };
  add("protocol.decode_us", "us", span_mean("protocol.decode", 1));
  add("protocol.encode_us", "us", span_mean("protocol.encode", 1));
  add("session.create_us", "us", span_mean("session.create", 1));
  add("session.lease_us", "us", span_mean("session.lease", 1));
  if (span_us.count("session.backtrack") != 0) {
    add("session.backtrack_us", "us", span_mean("session.backtrack", 1));
  }
  add("feedback.learn_ms", "ms", span_mean("feedback.learn", 1e-3));
  add("feedback.user_weights_ms", "ms", span_mean("feedback.user_weights", 1e-3));
  add("feedback.tokens", "count", Mean(traced->feedback_tokens));

  std::vector<double> rank, pre_pass, overshoot, deadline_hit;
  double pass_ms = 0, passes = 0, evaluations = 0, swaps = 0, candidates = 0;
  for (const GreedyCall& c : traced->greedy) {
    rank.push_back(c.call_ms - c.elapsed_ms);
    pre_pass.push_back(c.elapsed_ms - c.pass_sum_ms);
    overshoot.push_back(c.elapsed_ms - c.limit_ms);
    deadline_hit.push_back(c.deadline_hit ? 1 : 0);
    pass_ms += c.pass_sum_ms;
    passes += static_cast<double>(c.passes);
    evaluations += static_cast<double>(c.evaluations);
    swaps += static_cast<double>(c.swaps);
    candidates += static_cast<double>(c.candidates);
  }
  const double calls = static_cast<double>(traced->greedy.size());
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  add("greedy.rank_ms", "ms", Mean(rank));
  add("greedy.pre_pass_ms", "ms", Mean(pre_pass));
  add("greedy.overshoot_ms", "ms", Mean(overshoot));
  add("greedy.pass_ms", "ms", per(pass_ms, passes));
  add("greedy.evals_per_ms", "1/ms", per(evaluations, pass_ms));
  add("greedy.candidates", "count", per(candidates, calls));
  add("greedy.evaluations", "count", per(evaluations, calls));
  add("greedy.passes", "count", per(passes, calls));
  add("greedy.swaps", "count", per(swaps, calls));
  add("greedy.deadline_hit_frac", "fraction", Mean(deadline_hit));
  add("greedy.swap_yield", "fraction", per(swaps, evaluations));

  // Server execute time of each replayed request that the replay's layer
  // spans do not account for.
  std::vector<double> residual;
  for (const auto& [index, covered_ms] : traced->covered) {
    const Exchange& ex = run.exchanges[index];
    if (ex.answered) residual.push_back(ex.elapsed_ms - ex.queue_ms - covered_ms);
  }
  add("service.residual_ms", "ms", Median(residual));
  add("trace.overhead_us", "us",
      per(((traced->request_ms - traced->greedy_ms) -
           (untraced->request_ms - untraced->greedy_ms)) * 1e3,
          static_cast<double>(traced->attempted)));
  return m;
}

std::string SelfTimeTable(const SpanLog& log) {
  struct Row {
    size_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };
  const std::vector<SpanLog::Span>& spans = log.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const SpanLog::Span& s : spans) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.duration_us;
  }
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    ++r.calls;
    r.total_us += spans[i].duration_us;
    r.self_us += spans[i].duration_us - child_us[i];
  }
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-24s %10s %14s %14s %12s\n", "span",
                "calls", "total_ms", "self_ms", "self_us/call");
  out += buf;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-24s %10zu %14.3f %14.3f %12.2f\n",
                  name.c_str(), r.calls, r.total_us / 1e3, r.self_us / 1e3,
                  r.self_us / static_cast<double>(r.calls));
    out += buf;
  }
  return out;
}

}  // namespace perfbench
