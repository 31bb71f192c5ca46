// Workloads of the explorer benchmark and the seeded script generator that
// drives them.
//
// A script is the full list of requests one explorer session sends. Every
// request comes from the workload seed and the mined group store, never from
// a response: a click that followed screen contents would make the walk, and
// every figure after it, depend on timing, since a deadline-bound screen
// shows different groups on every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/feedback.h"
#include "data/generators/bookcrossing_gen.h"
#include "server/protocol.h"

namespace perfbench {

/// Session shapes (see Workloads() for which workload runs which).
enum class Shape {
  /// start, 8 selects along a seeded walk, get_context, end.
  kDeep,
  /// start, 2 selects, unlearn, backtrack to step 0, bookmark, get_context,
  /// end.
  kChurn,
  /// start, a seeded mix of selects / get_context / bookmark / backtrack,
  /// end.
  kMixed,
};

struct Workload {
  const char* name;
  vexus::data::BookCrossingGenerator::Config data;
  double min_support;
  /// TCP connections the single client thread drives.
  size_t connections;
  /// Sessions multiplexed on each connection, each with one request in
  /// flight (so this is also the pipeline depth of a connection).
  size_t sessions_per_connection;
  Shape shape;
  /// Clicks take size quantiles in [0, this) of the eligible groups (see
  /// ScriptStream::Walk): 1 for the whole range, 0.5 for the smaller half.
  double click_size_quantiles;
  /// Set-ups per run; setup_s is their median.
  size_t setup_repeats;
};

/// Every workload the program runs. BENCHMARK.json lists the measured ones;
/// paper_deep is run by hand (see README.md).
const std::vector<Workload>& Workloads();
/// nullptr when unknown.
const Workload* FindWorkload(std::string_view name);

/// Screen size and time budget of the reference configuration (paper P1, P3).
inline constexpr size_t kScreenK = 7;
inline constexpr double kBudgetMs = 100.0;

/// One scripted request: the op and its one argument (k, group, step,
/// token or top_k, by op). Kept this small because a run holds every script
/// it sent for the replay, and that memory counts in peak_rss_mb.
struct ScriptOp {
  vexus::server::RequestType type = vexus::server::RequestType::kHealth;
  uint32_t arg = 0;
};

/// One session's requests, in send order.
struct SessionScript {
  /// Unique within a run: the lane and the session's index on it.
  std::string session_id;
  std::vector<ScriptOp> ops;

  /// The wire request of op `i`.
  vexus::server::Request RequestAt(size_t i) const;
};

/// Deterministic stream of session scripts for one lane (one in-flight
/// session slot). The i-th script of lane l depends only on (seed, l, i)
/// and the store, so a run that completes more sessions sees the same first
/// sessions as a slower one.
class ScriptStream {
 public:
  ScriptStream(const Workload& workload, const vexus::core::VexusEngine& engine,
               uint64_t seed, size_t lane);

  SessionScript Next();

 private:
  /// A group to click after `from` (nullptr for the first click): a seeded
  /// pick among from's materialized neighbors with similarity at least the
  /// greedy's lower bound σ, avoiding groups this session already clicked;
  /// a seeded pick over the whole store when no such neighbor exists. Only
  /// groups with at least k such neighbors are clicked: the screen after a
  /// click is drawn from them, so a sparser group cannot fill k slots. The
  /// pick follows a seeded low-discrepancy sequence over the size-sorted
  /// candidates (see workload.cc).
  uint32_t Walk(const uint32_t* from, const std::vector<uint32_t>& visited);

  const Workload& workload_;
  const vexus::core::VexusEngine& engine_;
  size_t lane_;
  size_t produced_ = 0;
  size_t clicks_ = 0;
  vexus::Rng rng_;
  /// Seeded start of the lane's click-quantile sequence (see Walk).
  double phase_;
  float min_similarity_;
  vexus::core::TokenSpace tokens_;
  /// Groups with at least k neighbors of similarity ≥ σ, ascending.
  std::vector<uint32_t> clickable_;
  std::vector<bool> is_clickable_;
};

}  // namespace perfbench
