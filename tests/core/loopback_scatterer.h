// LoopbackScatterer — a test-only core::RemoteTrialScatterer that answers
// every shard in-process: no sockets, no service, no retries.
//
// The full store is cut into S word-aligned slice stores (each group's
// members ∩ the shard's user range, at full-universe width — the shape
// LoadSnapshotShard hands a shard backend), and every Scatter runs
// core::EvalCoveragePartials once per slice, exactly as a backend's
// eval_partial handler does. Every shard always answers, so a loopback run
// is the healthy-fleet case of the multi-box gather path (DESIGN.md §16)
// and must select byte-identically to the unsharded greedy.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/shard_map.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/partial_eval.h"
#include "mining/group.h"

namespace vexus::core {

/// `full` restricted to users [range.user_begin, range.user_end), same
/// universe width and group ids.
inline mining::GroupStore SliceStore(const mining::GroupStore& full,
                                     const ShardMap::Range& range) {
  mining::GroupStore slice(full.num_users());
  for (const mining::UserGroup& g : full.groups()) {
    std::vector<uint32_t> ids;
    g.members().ForEachInRange(range.word_begin, range.word_end,
                               [&](uint32_t u) { ids.push_back(u); });
    slice.Add(mining::UserGroup(
        g.description(),
        HybridBitset::FromSortedIds(full.num_users(), std::move(ids))));
  }
  return slice;
}

class LoopbackScatterer : public RemoteTrialScatterer {
 public:
  /// `pool` (optional, not owned) evaluates the slices in parallel, like a
  /// GatherCoordinator with a scatter pool; the fold is the same either way.
  LoopbackScatterer(const mining::GroupStore& full, size_t num_shards,
                    ThreadPool* pool = nullptr)
      : map_(full.num_users(), num_shards), pool_(pool) {
    for (const ShardMap::Range& r : map_.ranges()) {
      slices_.push_back(SliceStore(full, r));
    }
  }

  const ShardMap& map() const { return map_; }
  const mining::GroupStore& slice(size_t s) const { return slices_[s]; }
  size_t scatters() const { return scatters_; }

  Outcome Scatter(std::optional<uint32_t> anchor,
                  const std::vector<uint32_t>& selection,
                  const std::vector<uint32_t>& trials,
                  const Deadline&) override {
    ++scatters_;
    const PartialEvalInput in{anchor, selection, trials};
    Outcome out;
    out.partials.assign(slices_.size(), {});
    // One byte per shard: vector<bool> packs bits, so parallel writers to
    // neighbouring shards would race.
    std::vector<char> ok(slices_.size(), 0);
    auto run_shard = [&](size_t s) {
      auto partials = EvalCoveragePartials(slices_[s], in);
      if (!partials.ok()) return;
      out.partials[s] = std::move(partials).ValueOrDie();
      ok[s] = 1;
    };
    if (pool_ != nullptr) {
      pool_->ParallelForChunked(slices_.size(), 1,
                                [&](size_t, size_t begin, size_t end) {
                                  for (size_t s = begin; s < end; ++s) {
                                    run_shard(s);
                                  }
                                });
    } else {
      for (size_t s = 0; s < slices_.size(); ++s) run_shard(s);
    }
    out.shard_ok.assign(ok.begin(), ok.end());
    size_t covered_users = 0;
    for (size_t s = 0; s < slices_.size(); ++s) {
      if (ok[s]) covered_users += map_.shard(s).num_users();
    }
    out.covered_fraction =
        map_.num_users() == 0
            ? 1.0
            : static_cast<double>(covered_users) /
                  static_cast<double>(map_.num_users());
    return out;
  }

 private:
  ShardMap map_;
  ThreadPool* pool_;
  std::vector<mining::GroupStore> slices_;
  size_t scatters_ = 0;
};

}  // namespace vexus::core
