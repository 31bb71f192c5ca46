// In-process replay of the scripts a run sent over TCP.
//
// The replay calls the library's public layers one by one — Request::Decode,
// SessionManager create/acquire/remove, FeedbackVector::Learn / UserWeights,
// GreedySelector::SelectInitial / SelectNext, Response::Encode — and, when a
// SpanLog is given, records one span per call under a per-request root
// whose id is the wire exchange's index. ExplorationSession::SelectGroup
// fuses Learn and SelectNext, so the replay keeps the session's history
// itself (feedback plus one snapshot per step, exactly what the session
// stores) and times the backtrack restore on that copy.
//
// The same pass checks replay identity: a screen the server computed to
// convergence (greedy_deadline_hit:false, not degraded) must equal the
// selection the replay computes for that step with no time limit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "record.h"

namespace perfbench {

/// Spans recorded by the benchmark around its calls into each layer. Kept in
/// memory; written out when the run ends.
class SpanLog {
 public:
  struct Span {
    uint64_t request = 0;
    const char* name = "";
    int32_t parent = -1;
    double start_us = 0;
    double duration_us = 0;
  };

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index.
  int32_t Open(uint64_t request, const char* name, int32_t parent);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line.
  std::string ToJsonLines() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// What one greedy call did, from the replay's side.
struct GreedyCall {
  double call_ms = 0;       // SelectNext / SelectInitial wall time
  double elapsed_ms = 0;    // GreedySelection::elapsed_ms (the Run part)
  double pass_sum_ms = 0;   // sum of pass_millis
  double limit_ms = 0;
  size_t candidates = 0;
  size_t evaluations = 0;
  size_t passes = 0;
  size_t swaps = 0;
  bool deadline_hit = false;
};

struct ReplayResult {
  size_t sessions = 0;
  size_t attempted = 0;
  size_t failed = 0;
  /// Wall time of the replayed requests, ms (excludes identity reruns).
  double request_ms = 0;
  /// Of which: inside GreedySelector calls. Deadline-bound greedy time
  /// varies run to run by far more than span recording costs, so the
  /// tracing overhead is measured on the rest.
  double greedy_ms = 0;
  std::vector<GreedyCall> greedy;
  /// Non-zero feedback tokens after each Learn.
  std::vector<double> feedback_tokens;
  /// Per replayed request: (exchange index, ms covered by its layer spans).
  std::vector<std::pair<size_t, double>> covered;
  size_t identity_compared = 0;
  std::vector<std::string> identity_failures;
};

class Replayer {
 public:
  /// `engine`, `runs` and `exchanges` must outlive the replayer.
  Replayer(const vexus::core::VexusEngine& engine,
           const std::vector<SessionRun>& runs,
           const std::vector<Exchange>& exchanges);

  /// Identity check only: feedback is replayed for every op, the greedy
  /// runs (unbounded) only for screens the server computed to convergence.
  /// Sessions are independent, so `threads` threads split them.
  ReplayResult Check(size_t threads);

  /// Every op of the first `max_sessions` sessions with the serving budget.
  /// Spans go to `log` when non-null. Stops starting sessions once
  /// `max_ms` of replay time has passed.
  ReplayResult Serve(SpanLog* log, size_t max_sessions, double max_ms);

 private:
  enum class Mode { kCheck, kServe };
  /// Replays sessions first, first + stride, ... below max_sessions.
  ReplayResult Run(Mode mode, SpanLog* log, size_t max_sessions,
                   double max_ms, size_t first = 0, size_t stride = 1);

  const vexus::core::VexusEngine& engine_;
  const std::vector<SessionRun>& runs_;
  const std::vector<Exchange>& exchanges_;
  /// Scan pool of the replayed greedy: one worker plus the calling thread,
  /// the two threads a 2-worker service gives a parallel scan.
  std::unique_ptr<vexus::ThreadPool> pool_;
};

}  // namespace perfbench
