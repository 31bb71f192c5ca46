// Metrics of one benchmark run: what is computed from the wire exchanges,
// the server's counters, the set-ups and the replay, and how it is printed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/tcp_server.h"
#include "record.h"
#include "replay.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
using MetricSet = std::vector<Metric>;

/// One set-up: generation, preprocessing, and serving until health is ready.
struct SetupTimes {
  double generate_s = 0;
  double preprocess_s = 0;
  double serve_ready_s = 0;
  double total_s() const { return generate_s + preprocess_s + serve_ready_s; }
};

/// Everything the wire-side metrics are computed from.
struct RunData {
  std::vector<Exchange> exchanges;
  /// Measured window: from its start to the last completion of a request
  /// sent inside it, ms since the start of the run.
  double window_start_ms = 0;
  double window_end_ms = 0;
  std::vector<SetupTimes> setups;
  size_t groups = 0;
  double peak_rss_mb = 0;
  vexus::net::TcpServerStats net;
  uint64_t overload_escalations = 0;
  uint64_t overload_shed = 0;
  uint64_t overload_degraded = 0;
};

/// Nearest-rank percentile with bench::Series::Percentile's edge rules
/// (empty → 0, p ≤ 0 or NaN → min, p ≥ 1 → max).
double Percentile(const std::vector<double>& values, double p);
double Median(const std::vector<double>& values);

/// The end-to-end metrics (the same names on every workload).
MetricSet EndToEndMetrics(const RunData& run);

/// The per-layer metrics. Replay-derived layers (protocol, session,
/// feedback, greedy, residual, tracing overhead) need the traced replay's
/// `log` and result plus the untraced replay of the same sessions; without
/// them only the wire- and counter-derived layers are reported.
/// `session.backtrack_us` is reported only when the scripts backtracked.
MetricSet PerLayerMetrics(const RunData& run, const SpanLog* log,
                          const ReplayResult* traced,
                          const ReplayResult* untraced);

/// Per span name: calls, total and self time (duration minus the time its
/// child spans cover), as printable rows.
std::string SelfTimeTable(const SpanLog& log);

}  // namespace perfbench
