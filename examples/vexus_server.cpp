// vexus_server: the real network daemon — engine + service + TCP front-end.
//
// Serves the line-JSON exploration protocol over a listening socket
// (DESIGN.md §13). Each connection may pipeline requests; responses come
// back in order. SIGTERM/SIGINT triggers a graceful drain: the listener
// closes, admitted requests complete and flush, then the process exits.
//
//   ./build/examples/vexus_server --port 7788
//   echo '{"op":"health"}' | nc -q1 127.0.0.1 7788
//
// Flags:
//   --host A      bind address            (default 127.0.0.1)
//   --port N      listen port, 0=ephemeral (default 7788)
//   --loops N     event-loop threads (SO_REUSEPORT listener group);
//                 0 = min(4, hw threads)  (default 0)
//   --users N     synthetic dataset size   (default 1500)
//   --help        print usage and exit.
//
// Multi-box scatter-gather (DESIGN.md §16) is the one sharded evaluation
// path; it adds three shapes:
//
//   bootstrap:    vexus_server --users 800 --shards 2 --save-snapshot f.snap
//                 writes the generated store as a v3 snapshot with one
//                 section per shard and exits. --shards (default 1, at most
//                 64) only sets this section count; the universe clamps it
//                 to its bitset-word count, and the line printed names the
//                 count actually written. Without --save-snapshot it is a
//                 usage error.
//   backend:      vexus_server --shard-backend --shard-index 0/2
//                     --snapshot store.snap --generation 7 --port 7801
//                 cold-starts from ONE v3 snapshot section and serves
//                 eval_partial / shard_info / health / get_stats.
//   coordinator:  vexus_server --backends 127.0.0.1:7801,127.0.0.1:7802
//                     --generation 7
//                 full engine + gather client: every session's greedy
//                 refinement scatters trial batches across the backends.
//                 Each --backends entry is parsed and resolved before the
//                 dataset is generated, so a typo fails fast.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/shard_map.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "data/generators/bookcrossing_gen.h"
#include "net/shard_client.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "server/gather.h"
#include "server/service.h"

using vexus::ThreadPool;
using vexus::core::VexusEngine;
using vexus::data::BookCrossingGenerator;
using vexus::net::HostPort;
using vexus::net::ShardClient;
using vexus::net::TcpServer;
using vexus::net::TcpServerOptions;
using vexus::server::ExplorationService;
using vexus::server::GatherCoordinator;
using vexus::server::ServiceOptions;
using vexus::server::ShardTransport;

namespace {

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "usage: vexus_server [flags]\n"
      "  --host A    bind address (default 127.0.0.1)\n"
      "  --port N    listen port, 0 = ephemeral (default 7788)\n"
      "  --loops N   event-loop threads; each owns a SO_REUSEPORT listener,\n"
      "              an epoll instance, and its own connections, and the\n"
      "              kernel steers each connect to one of them.\n"
      "              0 = min(4, hw threads) (default 0)\n"
      "  --users N   synthetic dataset size (default 1500)\n"
      "  --shard-backend     serve one snapshot shard section (needs\n"
      "                      --shard-index and --snapshot)\n"
      "  --shard-index i/S   this backend's shard id and fleet width\n"
      "  --snapshot PATH     v3 snapshot to cold-start the shard from\n"
      "  --save-snapshot PATH  write the generated store as a snapshot\n"
      "                      (one section per --shards shard) and exit —\n"
      "                      the file shard backends cold-start from\n"
      "  --shards N          snapshot sections for --save-snapshot\n"
      "                      (default 1, max 64; clamps to the universe's\n"
      "                      64-user word count); only valid with it\n"
      "  --generation N      store generation fenced by eval_partial\n"
      "                      (default 1)\n"
      "  --backends H:P,...  coordinator mode: scatter greedy trial\n"
      "                      batches across these shard backends\n"
      "  --help      this message\n");
}

// The SIGTERM handler's entire world: RequestDrain() is one atomic store
// plus one eventfd write, both async-signal-safe.
std::atomic<TcpServer*> g_server{nullptr};

void HandleSignal(int /*sig*/) {
  TcpServer* server = g_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestDrain();
}

/// Binds `svc` on host:port and parks until SIGTERM/SIGINT drains — the
/// shared serve loop of the standalone, coordinator, and backend shapes.
int ServeForever(ExplorationService& svc, const std::string& host,
                 uint16_t port, uint64_t loops, const char* banner) {
  TcpServerOptions net_opts;
  net_opts.host = host;
  net_opts.port = port;
  net_opts.num_loops = loops;
  TcpServer server(&svc, net_opts);
  auto status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("%s listening on %s:%u (%zu loops; SIGTERM drains)\n", banner,
              host.c_str(), server.port(), server.num_loops());
  std::fflush(stdout);
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  server.Drain();
  auto stats = server.Stats();
  std::printf("drained: accepted=%llu submitted=%llu routed=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.requests_submitted),
              static_cast<unsigned long long>(stats.responses_routed));
  std::printf("%s\n", svc.Stats().ToString().c_str());
  g_server.store(nullptr, std::memory_order_relaxed);
  return 0;
}

int RunShardBackend(const std::string& snapshot_path, uint64_t shard_index,
                    uint64_t fleet_width, uint64_t generation,
                    const std::string& host, uint16_t port, uint64_t loops) {
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "--shard-backend needs --snapshot PATH\n");
    return 2;
  }
  auto shard = vexus::core::LoadSnapshotShard(snapshot_path, shard_index);
  if (!shard.ok()) {
    std::fprintf(stderr, "shard load failed: %s\n",
                 shard.status().ToString().c_str());
    return 1;
  }
  if (shard->num_shards != fleet_width) {
    std::fprintf(stderr,
                 "snapshot %s holds %zu shard sections, --shard-index "
                 "declared a fleet of %llu\n",
                 snapshot_path.c_str(), shard->num_shards,
                 static_cast<unsigned long long>(fleet_width));
    return 1;
  }
  std::printf("shard backend %zu/%zu: users [%u, %u) of %zu groups\n",
              shard->shard, shard->num_shards, shard->user_begin,
              shard->user_end, shard->groups.size());
  ServiceOptions options;
  options.num_workers = 4;
  ExplorationService svc(std::move(shard).ValueOrDie(), generation, options);
  return ServeForever(svc, host, port, loops, "vexus shard backend");
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7788;
  uint64_t users = 1500;
  uint64_t loops = 0;  // 0 = auto (min(4, hw threads))
  uint64_t shards = 1;
  bool shards_given = false;
  bool shard_backend = false;
  uint64_t shard_index = 0;
  uint64_t fleet_width = 0;
  uint64_t generation = 1;
  std::string snapshot_path;
  std::string save_snapshot_path;
  std::string backends_list;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    // Numeric flag values are validated (decimal digits only, in range);
    // a missing or bad value is a usage error, never an uncaught throw or
    // a silent uint16_t truncation.
    auto parse_uint = [&](const std::string& flag, uint64_t max,
                          uint64_t* out) -> bool {
      std::string value = next();
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "%s needs a numeric value, got '%s'\n",
                     flag.c_str(), value.c_str());
        return false;
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0' || v > max) {
        std::fprintf(stderr, "%s value '%s' out of range (max %llu)\n",
                     flag.c_str(), value.c_str(),
                     static_cast<unsigned long long>(max));
        return false;
      }
      *out = v;
      return true;
    };
    uint64_t value = 0;
    if (arg == "--host") {
      host = next();
      if (host.empty()) {
        std::fprintf(stderr, "--host needs a value\n");
        return 2;
      }
    } else if (arg == "--port") {
      if (!parse_uint(arg, 65535, &value)) return 2;
      port = static_cast<uint16_t>(value);
    } else if (arg == "--loops") {
      // 64 is far past any sane single-box loop count; catching a fat-
      // fingered "--loops 6000" here beats spawning it.
      if (!parse_uint(arg, 64, &value)) return 2;
      loops = value;
    } else if (arg == "--users") {
      if (!parse_uint(arg, 100'000'000, &value)) return 2;
      users = value;
    } else if (arg == "--shards") {
      // Bounded like the fleet width of --shard-index: a section count no
      // backend could be started for is a typo, not a deployment.
      if (!parse_uint(arg, 64, &value)) return 2;
      shards = value;
      shards_given = true;
    } else if (arg == "--shard-backend") {
      shard_backend = true;
    } else if (arg == "--shard-index") {
      std::string value = next();
      size_t slash = value.find('/');
      // "i/S": both parts decimal, S > i, S bounded like --shards.
      bool ok = slash != std::string::npos && slash > 0 &&
                slash + 1 < value.size() &&
                value.find_first_not_of("0123456789/") == std::string::npos &&
                value.find('/', slash + 1) == std::string::npos;
      if (ok) {
        shard_index = std::strtoull(value.substr(0, slash).c_str(), nullptr, 10);
        fleet_width = std::strtoull(value.substr(slash + 1).c_str(), nullptr, 10);
        ok = fleet_width > 0 && fleet_width <= 64 && shard_index < fleet_width;
      }
      if (!ok) {
        std::fprintf(stderr, "--shard-index wants i/S (i < S <= 64), got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--snapshot") {
      snapshot_path = next();
      if (snapshot_path.empty()) {
        std::fprintf(stderr, "--snapshot needs a path\n");
        return 2;
      }
    } else if (arg == "--save-snapshot") {
      save_snapshot_path = next();
      if (save_snapshot_path.empty()) {
        std::fprintf(stderr, "--save-snapshot needs a path\n");
        return 2;
      }
    } else if (arg == "--generation") {
      if (!parse_uint(arg, UINT64_MAX, &value)) return 2;
      generation = value;
    } else if (arg == "--backends") {
      backends_list = next();
      if (backends_list.empty()) {
        std::fprintf(stderr, "--backends needs host:port[,host:port...]\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (users == 0) {
    std::fprintf(stderr, "--users must be positive\n");
    return 2;
  }
  if (shards_given && save_snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--shards sets the section count of --save-snapshot and "
                 "needs it; a sharded fleet serves through --backends\n");
    return 2;
  }
  if (shard_backend) {
    if (fleet_width == 0) {
      std::fprintf(stderr, "--shard-backend needs --shard-index i/S\n");
      return 2;
    }
    return RunShardBackend(snapshot_path, shard_index, fleet_width, generation,
                           host, port, loops);
  }
  // Parse and resolve every --backends entry before the dataset is
  // generated: a typo must not cost a full preprocess first.
  std::vector<HostPort> backends;
  if (!backends_list.empty()) {
    for (const std::string& entry : vexus::Split(backends_list, ',')) {
      auto target = vexus::net::ParseHostPort(entry);
      if (!target.ok()) {
        std::fprintf(stderr, "--backends entry '%s' is not host:port\n",
                     entry.c_str());
        return 2;
      }
      auto addr = vexus::net::ResolveHost(target->host, target->port);
      if (!addr.ok()) {
        std::fprintf(stderr, "--backends: %s\n",
                     addr.status().ToString().c_str());
        return 2;
      }
      backends.push_back(std::move(target).ValueOrDie());
    }
  }

  BookCrossingGenerator::Config data_cfg;
  data_cfg.num_users = users;
  data_cfg.num_books = users * 4 / 3;
  data_cfg.num_ratings = users * 7;
  vexus::mining::DiscoveryOptions discovery;
  discovery.min_support_fraction = 0.02;
  auto engine_result = VexusEngine::Preprocess(
      BookCrossingGenerator::Generate(data_cfg), discovery, {});
  if (!engine_result.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  VexusEngine engine = std::move(engine_result).ValueOrDie();
  std::printf("%s\n", engine.Summary().c_str());

  // Fleet bootstrap: write the generated store as a snapshot (v3 with one
  // section per --shards shard) and exit — the file a --shard-backend
  // cold-starts from. The same --users invocation with --backends then
  // serves as the coordinator over those backends.
  if (!save_snapshot_path.empty()) {
    vexus::core::SnapshotSaveOptions save;
    save.num_shards = shards;
    auto saved = vexus::core::SaveSnapshot(engine.groups(), engine.index(),
                                           save_snapshot_path, save);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    // The writer splits by ShardMap, which clamps the request to the
    // universe's word count: report what the backends will find, so the
    // --shard-index i/S an operator copies from here always loads.
    const size_t sections =
        vexus::ShardMap(engine.groups().num_users(), shards).num_shards();
    std::printf("saved snapshot (%zu shard section%s) to %s\n", sections,
                sections == 1 ? "" : "s", save_snapshot_path.c_str());
    return 0;
  }

  ServiceOptions options;
  options.session_template.greedy.k = 5;
  options.session_template.greedy.time_limit_ms = 80;
  options.num_workers = 4;
  // Declared before the service: the coordinator (owned by the service)
  // borrows this pool, so it must be destroyed after the service drains.
  std::unique_ptr<ThreadPool> gather_pool;
  ExplorationService svc(&engine, options);

  // Coordinator mode: scatter every session's greedy refinement across the
  // backend fleet. Must be wired before the first session is created.
  if (!backends.empty()) {
    std::vector<std::unique_ptr<ShardTransport>> transports;
    for (const HostPort& backend : backends) {
      transports.push_back(
          std::make_unique<ShardClient>(backend.host, backend.port));
    }
    gather_pool = std::make_unique<ThreadPool>(backends.size());
    GatherCoordinator::Options gopts;
    gopts.num_users = engine.groups().num_users();
    gopts.generation = generation;
    gopts.pool = gather_pool.get();
    svc.ConfigureGather(
        std::make_unique<GatherCoordinator>(std::move(transports), gopts));
    std::printf("gather coordinator over %zu backends (generation %llu)\n",
                backends.size(),
                static_cast<unsigned long long>(generation));
  }

  return ServeForever(svc, host, port, loops, "vexus_server");
}
