#include "common/shard_map.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace vexus {

namespace {
constexpr size_t kWordBits = 64;
size_t WordsFor(size_t bits) { return (bits + kWordBits - 1) / kWordBits; }
}  // namespace

ShardMap::ShardMap(size_t num_users, size_t num_shards)
    : num_users_(num_users) {
  // Range holds user ids as uint32_t.
  VEXUS_CHECK(num_users <= std::numeric_limits<uint32_t>::max())
      << "universe of " << num_users << " users exceeds 32-bit user ids";
  const size_t words = WordsFor(num_users);
  size_t shards = std::clamp<size_t>(num_shards, 1, std::max<size_t>(1, words));
  ranges_.resize(shards);
  const size_t base = words / shards;
  const size_t extra = words % shards;
  size_t word = 0;
  for (size_t s = 0; s < shards; ++s) {
    Range& r = ranges_[s];
    r.word_begin = word;
    word += base + (s < extra ? 1 : 0);
    r.word_end = word;
    r.user_begin = static_cast<uint32_t>(r.word_begin * kWordBits);
    r.user_end = static_cast<uint32_t>(
        std::min(r.word_end * kWordBits, num_users));
  }
  VEXUS_CHECK(word == words);
}

}  // namespace vexus
