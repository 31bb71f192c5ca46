#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "core/greedy.h"

namespace perfbench {

using vexus::server::Request;
using vexus::server::RequestType;

namespace {

vexus::data::BookCrossingGenerator::Config SmallData() {
  vexus::data::BookCrossingGenerator::Config c;
  c.num_users = 2000;
  c.num_books = 2000;
  c.num_ratings = 12000;
  return c;
}

// Why each workload exists (also in BENCHMARK.json and README.md):
//  * paper_deep — the paper's E4-length session at paper scale. Greedy
//    pre-pass and feedback weights grow with depth; the net costs nothing
//    next to them. Run by hand only: its pre-pass-bound screens follow the
//    host's speed too closely for BENCHMARK.json's bounds.
//  * paper_churn — same store, short sessions with writes beside reads.
//    Session creation and the universe-wide SelectInitial dominate and the
//    feedback stays shallow, so a change tuned for deep sessions that costs
//    this path shows here. Its clicks take the smaller half of the similar
//    groups, which keeps the feedback shallow: with the whole range the
//    median request (an unlearn or backtrack over ~26,000 tokens of
//    feedback) followed the host's memory speed, and op_p50_ms spread 0.21
//    over ten seeds, screen_p90_ms 0.13; with the smaller half, 0.14 and
//    0.04.
//  * small_pipelined — greedy work is about 1 ms a screen, so net,
//    protocol, dispatcher and session-manager costs are a large share of
//    every request. 4 connections × 2 sessions in flight keeps the overload
//    ladder at rung 0 on a 2-worker service: with 4 × 4 the dispatcher
//    queue p50 sat at the ladder's 5 ms target (sized once;
//    overload.escalations reports it every run).
const std::vector<Workload> kWorkloads = {
    {"paper_deep",
     vexus::data::BookCrossingGenerator::Config::PaperScale(), 0.02, 2, 1,
     Shape::kDeep, 1.0, 3},
    {"paper_churn",
     vexus::data::BookCrossingGenerator::Config::PaperScale(), 0.02, 2, 1,
     Shape::kChurn, 0.5, 3},
    {"small_pipelined",
     SmallData(), 0.02, 4, 2, Shape::kMixed, 1.0, 21},
};

}  // namespace

const std::vector<Workload>& Workloads() { return kWorkloads; }

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ScriptStream::ScriptStream(const Workload& workload,
                           const vexus::core::VexusEngine& engine,
                           uint64_t seed, size_t lane)
    : workload_(workload),
      engine_(engine),
      lane_(lane),
      rng_(seed, /*stream=*/2 * lane + 1),
      phase_(rng_.UniformDouble()),
      min_similarity_(static_cast<float>(
          vexus::core::GreedyOptions{}.min_similarity)),
      tokens_(engine.dataset()),
      is_clickable_(engine.groups().size(), false) {
  for (uint32_t g = 0; g < engine.groups().size(); ++g) {
    size_t similar = 0;
    for (const vexus::index::Neighbor& nb : engine.index().Neighbors(g)) {
      similar += nb.similarity >= min_similarity_;
    }
    if (similar >= kScreenK) {
      clickable_.push_back(g);
      is_clickable_[g] = true;
    }
  }
  VEXUS_CHECK(!clickable_.empty())
      << "no group has " << kScreenK << " neighbors of similarity >= sigma";
}

uint32_t ScriptStream::Walk(const uint32_t* from,
                            const std::vector<uint32_t>& visited) {
  std::vector<uint32_t> eligible;
  if (from != nullptr) {
    for (const vexus::index::Neighbor& nb : engine_.index().Neighbors(*from)) {
      if (nb.similarity < min_similarity_ || !is_clickable_[nb.group]) continue;
      if (std::find(visited.begin(), visited.end(), nb.group) != visited.end()) {
        continue;
      }
      eligible.push_back(nb.group);
    }
  }
  if (eligible.empty()) eligible = clickable_;
  // Size-quantile sampling: sort by member count and pick the quantile
  // phase + i·(golden ratio) mod 1 for the lane's i-th click, with a seeded
  // phase. Screen cost grows with the clicked groups' sizes; uniform picks
  // let one seed click mostly large groups and the next mostly small ones.
  // This sequence spreads every lane's clicks evenly over the size range,
  // so each run clicks large and small groups in the same proportions while
  // the seed still decides the walks.
  const vexus::mining::GroupStore& store = engine_.groups();
  std::sort(eligible.begin(), eligible.end(), [&](uint32_t a, uint32_t b) {
    const size_t sa = store.group(a).size(), sb = store.group(b).size();
    return sa != sb ? sa < sb : a < b;
  });
  constexpr double kGolden = 0.6180339887498949;
  const double u =
      std::fmod(phase_ + static_cast<double>(clicks_++) * kGolden, 1.0) *
      workload_.click_size_quantiles;
  const size_t index = static_cast<size_t>(u * static_cast<double>(eligible.size()));
  return eligible[std::min(index, eligible.size() - 1)];
}

SessionScript ScriptStream::Next() {
  SessionScript s;
  char id[48];
  std::snprintf(id, sizeof(id), "l%zus%zu", lane_, produced_++);
  s.session_id = id;
  std::vector<ScriptOp>& out = s.ops;
  auto emit = [&out](RequestType type, uint32_t arg) { out.push_back({type, arg}); };

  emit(RequestType::kStartSession, static_cast<uint32_t>(kScreenK));
  // clicks[i] is the group clicked to reach step i + 1.
  std::vector<uint32_t> clicks;
  auto select = [&] {
    const uint32_t g = Walk(clicks.empty() ? nullptr : &clicks.back(), clicks);
    clicks.push_back(g);
    emit(RequestType::kSelectGroup, g);
  };
  auto backtrack = [&](uint32_t step) {
    emit(RequestType::kBacktrack, step);
    clicks.resize(step);
  };
  auto bookmark = [&] {
    emit(RequestType::kBookmark,
         clicks.empty()
             ? rng_.UniformU32(static_cast<uint32_t>(engine_.groups().size()))
             : clicks.back());
  };
  auto context = [&] { emit(RequestType::kGetContext, 8); };

  switch (workload_.shape) {
    case Shape::kDeep:
      for (int i = 0; i < 8; ++i) select();
      context();
      break;
    case Shape::kChurn: {
      select();
      select();
      // The token to forget is one the first click rewarded: its first
      // description conjunct, or its first member for an undescribed group.
      // Unlearn runs before the backtrack to step 0: the step-0 CONTEXT is
      // empty, so after the backtrack there is no token left to forget.
      const vexus::mining::UserGroup& first = engine_.groups().group(clicks[0]);
      emit(RequestType::kUnlearn,
           first.description().empty()
               ? tokens_.UserToken(static_cast<uint32_t>(first.members().FindFirst()))
               : tokens_.DescriptorToken(first.description().front()));
      backtrack(0);
      bookmark();
      context();
      break;
    }
    case Shape::kMixed: {
      const int ops = static_cast<int>(rng_.UniformInt(6, 10));
      for (int i = 0; i < ops; ++i) {
        const double u = rng_.UniformDouble();
        if (u < 0.45) {
          select();
        } else if (u < 0.65) {
          context();
        } else if (u < 0.85) {
          bookmark();
        } else if (!clicks.empty()) {
          backtrack(rng_.UniformU32(static_cast<uint32_t>(clicks.size())));
        } else {
          select();
        }
      }
      break;
    }
  }
  emit(RequestType::kEndSession, 0);
  return s;
}

Request SessionScript::RequestAt(size_t i) const {
  const ScriptOp& op = ops[i];
  vexus::server::Request r;
  r.type = op.type;
  r.session_id = session_id;
  switch (op.type) {
    case RequestType::kStartSession:
      r.k = op.arg;
      break;
    case RequestType::kSelectGroup:
    case RequestType::kBookmark:
      r.group = op.arg;
      break;
    case RequestType::kBacktrack:
      r.step = op.arg;
      break;
    case RequestType::kUnlearn:
      r.token = op.arg;
      break;
    case RequestType::kGetContext:
      r.top_k = op.arg;
      break;
    default:
      break;
  }
  return r;
}

}  // namespace perfbench
