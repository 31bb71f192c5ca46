// bench_snapshot_coldstart — the cold-start story behind the snapshot.
//
// Fig. 1 splits VEXUS into an offline pipeline and interactive modules; a
// deployment mines once, snapshots, and brings serving processes up from the
// snapshot. This harness measures every leg of that story at BOOKCROSSING
// scale (278,858 users; --smoke shrinks to 8,000 for CI):
//
//   1. preprocess   serial vs parallel DiscoverGroups + InvertedIndex::Build
//                   (the fold discipline promises byte-identical output — the
//                   harness hashes both worlds and asserts it)
//   2. save         one group section (format v2) vs 4 per-shard sections
//                   (v3) of the same store: bytes, bytes/group, ms
//   3. load         full-file load of each (median of N trials); both must
//                   give back the saved store, digest for digest
//   4. warm-up      VexusEngine::FromSnapshot end-to-end (load + catalog
//                   rebuild + graph), the number an operator actually waits
//
// Gates: parallel preprocess is byte-identical to serial, and both loads
// reproduce the saved store (smoke and full scale); at full scale the
// 4-section load also takes at most 2x the one-section load, since both run
// the same decoder. Emits BENCH_snapshot_coldstart.json (path overridable
// via the first non-flag arg) so the numbers are a committed artifact.
//
// Run:  ./build/bench/bench_snapshot_coldstart [--smoke] [out.json]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "core/snapshot.h"
#include "server/json.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

/// Order-sensitive digest of everything a snapshot persists: group
/// descriptions, member bitsets, posting lists. Equal digests mean
/// byte-identical discovery + index builds, or a lossless round trip.
uint64_t Digest(const mining::GroupStore& store,
                const index::InvertedIndex& idx) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, store.size());
  for (mining::GroupId g = 0; g < store.size(); ++g) {
    const mining::UserGroup& grp = store.group(g);
    h = HashCombine(h, grp.description().size());
    for (const mining::Descriptor& d : grp.description()) {
      h = HashCombine(h, (static_cast<uint64_t>(d.attribute) << 32) | d.value);
    }
    // Form-independent member digest (HybridBitset::Hash equals the dense
    // word hash whichever representation the group is stored in).
    h = HashCombine(h, grp.members().Hash());
  }
  h = HashCombine(h, idx.num_groups());
  for (mining::GroupId g = 0; g < idx.num_groups(); ++g) {
    for (const index::Neighbor& n : idx.Neighbors(g)) {
      uint32_t sim_bits;
      static_assert(sizeof(sim_bits) == sizeof(n.similarity));
      std::memcpy(&sim_bits, &n.similarity, sizeof(sim_bits));
      h = HashCombine(h, (static_cast<uint64_t>(n.group) << 32) | sim_bits);
    }
  }
  return h;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

double MedianMs(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

core::VexusEngine Build(data::Dataset dataset, size_t threads) {
  mining::DiscoveryOptions dopt;
  // The serving tier keeps the top of the group lattice resident — the
  // broad, dense groups every exploration step touches first. That profile
  // (member mass concentrated in groups above ~1/8 density, where the raw
  // bitset block is smaller than any per-member list) is where the raw
  // member blocks carry the load; the long sparse tail is mined on demand,
  // not served from the snapshot.
  dopt.min_support_fraction = 0.12;
  dopt.num_threads = threads;
  index::InvertedIndex::Options iopt;
  iopt.num_threads = threads;
  auto r = core::VexusEngine::Preprocess(std::move(dataset), dopt, iopt);
  VEXUS_CHECK(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_snapshot_coldstart.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const uint32_t users = smoke ? 8000 : 278858;  // paper's BOOKCROSSING |U|
  const int trials = smoke ? 3 : 5;
  constexpr size_t kSections = 4;

  Banner("bench_snapshot_coldstart",
         "a 4-section snapshot loads the same store as the one-section file, "
         "in at most 2x its load time; parallel preprocess is byte-identical "
         "to serial");
  std::printf("scale: %u users (%s)\n\n", users, smoke ? "smoke" : "full");

  // --- 1. Preprocess: serial vs parallel, identical output.
  Stopwatch sw;
  core::VexusEngine serial =
      Build(data::BookCrossingGenerator::Generate(BxConfig(users)), 1);
  double preprocess_serial_ms = sw.ElapsedMillis();

  Stopwatch sw2;
  core::VexusEngine parallel =
      Build(data::BookCrossingGenerator::Generate(BxConfig(users)), 0);
  double preprocess_parallel_ms = sw2.ElapsedMillis();

  const uint64_t serial_digest = Digest(serial.groups(), serial.index());
  const bool identical =
      serial_digest == Digest(parallel.groups(), parallel.index());
  std::printf("preprocess: serial %.0f ms | parallel %.0f ms (%.2fx) | "
              "digests %s\n",
              preprocess_serial_ms, preprocess_parallel_ms,
              preprocess_serial_ms / std::max(1.0, preprocess_parallel_ms),
              identical ? "IDENTICAL" : "DIFFER (BUG)");
  std::printf("%s\n\n", serial.Summary().c_str());
  const uint64_t num_groups = serial.groups().size();
  const double groups_div =
      static_cast<double>(std::max<uint64_t>(1, num_groups));

  // --- 2./3. Save + load: one group section vs kSections.
  const std::string one_path = "bench_coldstart_one_section.snapshot";
  const std::string sec_path = "bench_coldstart_sectioned.snapshot";

  // sync = false: the durability fsyncs would time the disk, not the codec.
  core::SnapshotSaveOptions save_one;  // num_shards = 1: format v2
  save_one.sync = false;
  sw = Stopwatch();
  Status st =
      core::SaveSnapshot(serial.groups(), serial.index(), one_path, save_one);
  double save_one_ms = sw.ElapsedMillis();
  VEXUS_CHECK(st.ok()) << st.ToString();

  core::SnapshotSaveOptions save_sec = save_one;
  save_sec.num_shards = kSections;
  sw = Stopwatch();
  st = core::SaveSnapshot(serial.groups(), serial.index(), sec_path, save_sec);
  double save_sec_ms = sw.ElapsedMillis();
  VEXUS_CHECK(st.ok()) << st.ToString();

  uint64_t one_bytes = FileBytes(one_path);
  uint64_t sec_bytes = FileBytes(sec_path);

  std::vector<double> one_load, sec_load;
  bool round_trip = true;
  for (int t = 0; t < trials; ++t) {
    sw = Stopwatch();
    auto one = core::LoadSnapshot(one_path);
    one_load.push_back(sw.ElapsedMillis());
    VEXUS_CHECK(one.ok()) << one.status().ToString();

    sw = Stopwatch();
    auto sec = core::LoadSnapshot(sec_path);
    sec_load.push_back(sw.ElapsedMillis());
    VEXUS_CHECK(sec.ok()) << sec.status().ToString();
    if (t == 0) {
      round_trip = Digest(one->groups, one->index) == serial_digest &&
                   Digest(sec->groups, sec->index) == serial_digest;
    }
  }
  double one_load_ms = MedianMs(one_load);
  double sec_load_ms = MedianMs(sec_load);
  double load_ratio = one_load_ms <= 0 ? 0 : sec_load_ms / one_load_ms;

  std::printf("save: 1 section %8llu bytes (%.1f B/group, %.1f ms) | "
              "%zu sections %8llu bytes (%.1f B/group, %.1f ms)\n",
              static_cast<unsigned long long>(one_bytes),
              static_cast<double>(one_bytes) / groups_div, save_one_ms,
              kSections, static_cast<unsigned long long>(sec_bytes),
              static_cast<double>(sec_bytes) / groups_div, save_sec_ms);
  std::printf("load: 1 section %.3f ms | %zu sections %.3f ms | ratio %.2fx "
              "(median of %d) | round trip %s\n\n",
              one_load_ms, kSections, sec_load_ms, load_ratio, trials,
              round_trip ? "IDENTICAL" : "DIFFERS (BUG)");

  // --- 4. End-to-end warm-up: dataset + snapshot -> serving engine.
  data::Dataset fresh = data::BookCrossingGenerator::Generate(BxConfig(users));
  sw = Stopwatch();
  auto warmed = core::VexusEngine::FromSnapshot(&fresh, one_path);
  double warm_ms = sw.ElapsedMillis();
  VEXUS_CHECK(warmed.ok()) << warmed.status().ToString();
  VEXUS_CHECK(warmed->groups().size() == num_groups);
  std::printf("FromSnapshot warm-up (load + catalog + graph): %.0f ms vs "
              "%.0f ms full preprocess (%.1fx faster cold start)\n\n",
              warm_ms, preprocess_serial_ms,
              preprocess_serial_ms / std::max(1.0, warm_ms));

  constexpr double kMaxLoadRatio = 2.0;
  // Sub-millisecond smoke loads make the ratio timing noise, so it gates at
  // full scale only; the committed artifact is the full-scale run.
  const bool pass_ratio = load_ratio <= kMaxLoadRatio;
  std::printf("acceptance: round trip identical %s | parallel identical %s | "
              "%zu-section load <=%.0fx %s%s\n",
              round_trip ? "PASS" : "FAIL", identical ? "PASS" : "FAIL",
              kSections, kMaxLoadRatio, pass_ratio ? "PASS" : "FAIL",
              smoke ? " (not gated in smoke)" : "");
  const bool pass = round_trip && identical && (smoke || pass_ratio);

  server::json::Object out;
  out.emplace_back("bench",
                   server::json::Value(std::string("snapshot_coldstart")));
  out.emplace_back("smoke", server::json::Value(smoke));
  out.emplace_back("num_users", server::json::Value(uint64_t{users}));
  out.emplace_back("num_groups", server::json::Value(num_groups));
  out.emplace_back("preprocess_serial_ms",
                   server::json::Value(preprocess_serial_ms));
  out.emplace_back("preprocess_parallel_ms",
                   server::json::Value(preprocess_parallel_ms));
  out.emplace_back("parallel_identical", server::json::Value(identical));
  out.emplace_back("sections", server::json::Value(uint64_t{kSections}));
  out.emplace_back("one_section_bytes", server::json::Value(one_bytes));
  out.emplace_back("sectioned_bytes", server::json::Value(sec_bytes));
  out.emplace_back("one_section_bytes_per_group",
                   server::json::Value(static_cast<double>(one_bytes) /
                                       groups_div));
  out.emplace_back("sectioned_bytes_per_group",
                   server::json::Value(static_cast<double>(sec_bytes) /
                                       groups_div));
  out.emplace_back("save_one_section_ms", server::json::Value(save_one_ms));
  out.emplace_back("save_sectioned_ms", server::json::Value(save_sec_ms));
  out.emplace_back("load_one_section_ms_median",
                   server::json::Value(one_load_ms));
  out.emplace_back("load_sectioned_ms_median",
                   server::json::Value(sec_load_ms));
  out.emplace_back("load_ratio_sectioned_over_one",
                   server::json::Value(load_ratio));
  out.emplace_back("round_trip_identical", server::json::Value(round_trip));
  out.emplace_back("from_snapshot_warm_ms", server::json::Value(warm_ms));
  out.emplace_back("accept_load_ratio_max",
                   server::json::Value(kMaxLoadRatio));
  out.emplace_back("pass", server::json::Value(pass));
  std::string json = server::json::Value(std::move(out)).Dump();
  std::printf("JSON %s\n", json.c_str());

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("WARN: could not open %s for writing\n", out_path);
  }
  std::remove(one_path.c_str());
  std::remove(sec_path.c_str());
  return pass ? 0 : 1;
}
