#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "core/feedback.h"
#include "core/greedy.h"
#include "server/session_manager.h"

namespace perfbench {

using vexus::Stopwatch;
using vexus::core::FeedbackVector;
using vexus::core::GreedyOptions;
using vexus::core::GreedySelection;
using vexus::server::Request;
using vexus::server::RequestType;
using vexus::server::Response;

int32_t SpanLog::Open(uint64_t request, const char* name, int32_t parent) {
  Span s;
  s.request = request;
  s.name = name;
  s.parent = parent;
  s.start_us = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.duration_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count() -
                  s.start_us;
}

std::string SpanLog::ToJsonLines() const {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"request\":%llu,\"name\":\"%s\",\"parent\":%d,"
                  "\"start_us\":%.3f,\"duration_us\":%.3f}\n",
                  i, static_cast<unsigned long long>(s.request), s.name,
                  s.parent, s.start_us, s.duration_us);
    out += buf;
  }
  return out;
}

namespace {

/// The root span of one replayed request plus its direct children. With no
/// log every operation is a plain call.
class RequestTrace {
 public:
  RequestTrace(SpanLog* log, uint64_t request) : log_(log), request_(request) {
    if (log_ != nullptr) root_ = log_->Open(request_, "request", -1);
  }
  ~RequestTrace() { Close(); }
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  template <typename Fn>
  void Time(const char* name, Fn&& fn) {
    if (log_ == nullptr) {
      fn();
      return;
    }
    const int32_t span = log_->Open(request_, name, root_);
    fn();
    log_->Close(span);
    covered_us_ += log_->spans()[static_cast<size_t>(span)].duration_us;
  }

  void Close() {
    if (log_ != nullptr && root_ >= 0) log_->Close(root_);
    root_ = -1;
  }

  double covered_ms() const { return covered_us_ / 1e3; }

 private:
  SpanLog* log_;
  uint64_t request_;
  int32_t root_ = -1;
  double covered_us_ = 0;
};

/// The session state ExplorationSession keeps: feedback plus, per HISTORY
/// step, the shown groups and a feedback snapshot.
struct MirrorStep {
  FeedbackVector feedback;
  std::vector<uint32_t> shown;
};

}  // namespace

Replayer::Replayer(const vexus::core::VexusEngine& engine,
                   const std::vector<SessionRun>& runs,
                   const std::vector<Exchange>& exchanges)
    : engine_(engine),
      runs_(runs),
      exchanges_(exchanges),
      pool_(std::make_unique<vexus::ThreadPool>(1)) {}

ReplayResult Replayer::Check(size_t threads) {
  threads = std::max<size_t>(1, threads);
  std::vector<ReplayResult> parts(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, threads, &parts] {
      parts[t] = Run(Mode::kCheck, nullptr, runs_.size(), 0, t, threads);
    });
  }
  for (std::thread& w : workers) w.join();
  ReplayResult out;
  for (ReplayResult& p : parts) {
    out.sessions += p.sessions;
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.identity_compared += p.identity_compared;
    for (std::string& f : p.identity_failures) {
      out.identity_failures.push_back(std::move(f));
    }
  }
  return out;
}

ReplayResult Replayer::Serve(SpanLog* log, size_t max_sessions,
                             double max_ms) {
  return Run(Mode::kServe, log, max_sessions, max_ms);
}

ReplayResult Replayer::Run(Mode mode, SpanLog* log, size_t max_sessions,
                           double max_ms, size_t first, size_t stride) {
  ReplayResult out;
  const vexus::mining::GroupStore& store = engine_.groups();
  const vexus::data::Schema& schema = engine_.dataset().schema();
  vexus::server::SessionManager sessions(&engine_, {}, nullptr);
  const vexus::core::GreedySelector selector(&store, &engine_.index());

  vexus::core::SessionOptions base;
  base.greedy.k = kScreenK;
  base.greedy.time_limit_ms = kBudgetMs;
  base.greedy.scan_pool = pool_.get();

  Stopwatch wall;
  for (size_t s = first; s < runs_.size() && s < max_sessions; s += stride) {
    if (mode == Mode::kServe && wall.ElapsedMillis() > max_ms) break;
    ++out.sessions;
    const SessionRun& run = runs_[s];
    vexus::core::SessionOptions options = base;
    std::optional<FeedbackVector> feedback;
    std::vector<MirrorStep> history;

    for (size_t op = 0; op < run.exchanges.size(); ++op) {
      const size_t ex_index = run.exchanges[op];
      const Exchange& ex = exchanges_[ex_index];
      ++out.attempted;
      const std::string line = run.script.RequestAt(op).Encode();

      Stopwatch request_watch;
      RequestTrace trace(log, ex_index);
      bool failed = false;
      Request req;
      trace.Time("protocol.decode", [&] {
        auto decoded = Request::Decode(line);
        failed = !decoded.ok();
        if (!failed) req = std::move(decoded).ValueOrDie();
      });
      if (failed) {
        ++out.failed;
        continue;
      }

      // Runs one greedy call under the serving budget (kServe) or, in
      // kCheck, only where the identity check needs it and unbounded.
      const bool compare =
          ex.ok() && ex.degraded == 0 && !ex.deadline_hit && ex.is_screen();
      std::optional<GreedySelection> selection;
      auto run_greedy = [&](std::optional<uint32_t> anchor) {
        if (mode == Mode::kCheck && !compare) return;
        GreedyOptions go = options.greedy;
        if (mode == Mode::kCheck) {
          // Serial and parallel scans select byte-identical swaps; the
          // serial one is cheaper per call on small stores.
          go.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
          go.scan_pool = nullptr;
        }
        trace.Time("feedback.user_weights", [&] {
          if (mode == Mode::kServe) (void)feedback->UserWeights();
        });
        Stopwatch call;
        trace.Time("greedy.select", [&] {
          selection = anchor.has_value()
                          ? selector.SelectNext(*anchor, *feedback, go)
                          : selector.SelectInitial(*feedback, go);
        });
        if (mode == Mode::kServe) {
          GreedyCall c;
          c.call_ms = call.ElapsedMillis();
          out.greedy_ms += c.call_ms;
          c.elapsed_ms = selection->elapsed_ms;
          for (double p : selection->pass_millis) c.pass_sum_ms += p;
          c.limit_ms = go.time_limit_ms;
          c.candidates = selection->candidates;
          c.evaluations = selection->evaluations;
          c.passes = selection->passes;
          c.swaps = selection->swaps;
          c.deadline_hit = selection->deadline_hit;
          if (log != nullptr) out.greedy.push_back(c);
        }
      };

      Response resp;
      resp.type = req.type;
      resp.session_id = req.session_id;
      const std::vector<uint32_t>* shown = nullptr;
      std::optional<uint32_t> anchor;

      if (req.type == RequestType::kEndSession) {
        // Removing a session frees its HISTORY snapshots; the mirror's copy
        // is freed inside the same span.
        trace.Time("session.remove", [&] {
          failed = !sessions.Remove(req.session_id).ok();
          feedback.reset();
          history.clear();
        });
      } else if (req.type == RequestType::kStartSession) {
        options = base;
        if (req.k.has_value()) options.greedy.k = static_cast<size_t>(*req.k);
        trace.Time("session.create", [&] {
          failed = !sessions.Create(req.session_id, options).ok();
        });
      }
      if (!failed && req.type != RequestType::kEndSession) {
        std::optional<vexus::server::SessionManager::Lease> lease;
        trace.Time("session.lease", [&] {
          auto acquired = sessions.Acquire(req.session_id);
          if (acquired.ok()) lease.emplace(std::move(acquired).ValueOrDie());
        });
        failed = !lease.has_value() ||
                 (req.type != RequestType::kStartSession && !feedback.has_value());
        if (!failed) {
          switch (req.type) {
            case RequestType::kStartSession:
              feedback.emplace(&(*lease)->tokens());
              history.clear();
              run_greedy(std::nullopt);
              break;
            case RequestType::kSelectGroup: {
              anchor = *req.group;
              trace.Time("feedback.learn", [&] {
                feedback->Learn(store.group(*anchor), options.learning_rate);
              });
              out.feedback_tokens.push_back(
                  static_cast<double>(feedback->nonzero_count()));
              run_greedy(anchor);
              break;
            }
            case RequestType::kBacktrack: {
              const size_t step = static_cast<size_t>(*req.step);
              trace.Time("session.backtrack", [&] {
                if (step >= history.size()) {
                  failed = true;
                  return;
                }
                history.erase(history.begin() + static_cast<ptrdiff_t>(step) + 1,
                              history.end());
                *feedback = history[step].feedback;
              });
              if (!failed) shown = &history[step].shown;
              break;
            }
            case RequestType::kUnlearn:
              trace.Time("feedback.unlearn",
                         [&] { feedback->Unlearn(*req.token); });
              break;
            case RequestType::kBookmark:
              trace.Time("session.bookmark",
                         [&] { (*lease)->BookmarkGroup(*req.group); });
              break;
            case RequestType::kGetContext:
              trace.Time("feedback.top_tokens", [&] {
                for (const auto& ts :
                     feedback->TopTokens(static_cast<size_t>(*req.top_k))) {
                  vexus::server::ContextTokenView view;
                  view.token = ts.token;
                  view.score = ts.score;
                  resp.context.push_back(view);
                }
              });
              break;
            default:
              failed = true;
          }
          if (req.type == RequestType::kStartSession ||
              req.type == RequestType::kSelectGroup) {
            // The step's HISTORY entry, snapshot included, as the session
            // records it.
            trace.Time("session.record", [&] {
              MirrorStep step{*feedback, {}};
              if (selection.has_value()) {
                step.shown.assign(selection->groups.begin(),
                                  selection->groups.end());
              }
              history.push_back(std::move(step));
            });
            if (selection.has_value()) shown = &history.back().shown;
          }
        }
        if (mode == Mode::kServe && !failed) {
          trace.Time("service.fill", [&] {
            if (shown != nullptr) {
              for (uint32_t g : *shown) {
                vexus::server::GroupView view;
                view.id = g;
                view.size = store.group(g).size();
                view.description = store.group(g).DescriptionString(schema);
                resp.groups.push_back(std::move(view));
              }
            }
            if (selection.has_value()) {
              resp.coverage = selection->quality.coverage;
              resp.diversity = selection->quality.diversity;
              resp.greedy_deadline_hit = selection->deadline_hit;
            }
            for (auto& view : resp.context) {
              view.label = (*lease)->tokens().Label(view.token, engine_.dataset());
            }
            resp.num_steps = history.size();
            resp.step = history.empty() ? 0 : history.size() - 1;
            resp.memo_groups = (*lease)->memo().groups.size();
          });
        }
      }
      if (mode == Mode::kServe && !failed) {
        trace.Time("protocol.encode", [&] { (void)resp.Encode(); });
      }
      trace.Close();
      out.request_ms += request_watch.ElapsedMillis();
      if (failed) {
        ++out.failed;
        continue;
      }
      if (log != nullptr) out.covered.emplace_back(ex_index, trace.covered_ms());

      if (compare) {
        // A replay screen cut short by its own deadline says nothing about
        // the converged one: recompute it unbounded, outside the spans.
        if (selection->deadline_hit) {
          GreedyOptions go = options.greedy;
          go.time_limit_ms = GreedyOptions::kUnboundedTimeLimit;
          selection = anchor.has_value()
                          ? selector.SelectNext(*anchor, *feedback, go)
                          : selector.SelectInitial(*feedback, go);
        }
        ++out.identity_compared;
        if (selection->groups != std::vector<uint32_t>(ex.groups.begin(),
                                                       ex.groups.end())) {
          out.identity_failures.push_back(
              "request " + std::to_string(ex_index) + " (" +
              run.script.session_id + " op " + std::to_string(op) +
              "): converged screen differs from the in-process replay");
        }
      }
    }
  }
  return out;
}

}  // namespace perfbench
