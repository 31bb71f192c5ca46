#include "core/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/bitset_kernels.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/hybrid_bitset.h"
#include "common/logging.h"
#include "common/shard_map.h"

namespace vexus::core {

namespace {

constexpr char kMagic[4] = {'V', 'X', 'S', 'N'};
constexpr char kTrailerMagic[4] = {'V', 'X', 'T', 'R'};
constexpr uint32_t kVersionV2 = 2;  // one group section, fixed trailer
constexpr uint32_t kVersionV3 = 3;  // S > 1 group sections, variable trailer
constexpr size_t kHeaderSize = 4 + 4 + 8;  // magic, version, num_users

// Both trailers end in u32 trailer_crc | magic; the CRC covers the rest.
constexpr size_t kV2TrailerSize = 4 * 8 + 3 * 4 + 4;  // offsets, crcs, magic
constexpr size_t kV3SectionEntrySize = 4 * 8 + 4;  // offset, len, range, crc
constexpr size_t kV3PostingsEntrySize = 2 * 8 + 4;
constexpr size_t kV3TrailerTailSize = 8 + 4 + 4;  // num_shards, crc, magic

size_t V3TrailerSize(size_t num_sections) {
  return num_sections * kV3SectionEntrySize + kV3PostingsEntrySize +
         kV3TrailerTailSize;
}

// Group member-block encodings.
constexpr uint8_t kEncodingSparse = 0;  // uvarint deltas, strictly ascending
constexpr uint8_t kEncodingRaw = 1;     // the section's u64 bitset words

std::atomic<uint64_t> g_fsync_count{0};

Status Truncated() { return Status::Corruption("snapshot truncated"); }

/// Where one section of the file lives, and its checksum.
struct Section {
  uint64_t offset = 0, len = 0;
  uint32_t crc = 0;
};

/// Group section `s`'s checksum. Section 0's CRC starts at byte 0, not at the
/// section: the header fields (magic, version, num_users) would otherwise be
/// the one unprotected spot — a bit flip in num_users could parse into a
/// store with the wrong universe size and only fail much later, far from the
/// corruption. Later sections cover their own bytes.
uint32_t GroupSectionCrc(const char* file, const Section& sec, size_t s) {
  const uint64_t begin = s == 0 ? 0 : sec.offset;
  return Crc32(file + begin, sec.offset + sec.len - begin);
}

// ---- little-endian buffer writers ----

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

void AppendF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  AppendU32(out, bits);
}

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// ---- bounds-checked buffer reader ----

class Cursor {
 public:
  Cursor(const char* data, size_t len)
      : p_(reinterpret_cast<const unsigned char*>(data)), end_(p_ + len) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = *p_++;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(v, p_, 4);
#else
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[i]) << (8 * i);
#endif
    p_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(v, p_, 8);
#else
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[i]) << (8 * i);
#endif
    p_ += 8;
    return true;
  }

  bool ReadF32(float* v) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(v, &bits, 4);
    return true;
  }

  /// Reads `n` u64 words into `out[0, n)`.
  bool ReadWords(size_t n, uint64_t* out) {
    if (remaining() / 8 < n) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The raw member-block fast path: this is a single memcpy at memory
    // bandwidth, which is the whole point of encoding dense groups as LE
    // bitset words instead of one int per member.
    std::memcpy(out, p_, n * 8);
#else
    for (size_t w = 0; w < n; ++w) {
      uint64_t v = 0;
      for (int i = 0; i < 8; ++i) {
        v |= static_cast<uint64_t>(p_[w * 8 + i]) << (8 * i);
      }
      out[w] = v;
    }
#endif
    p_ += n * 8;
    return true;
  }

  /// Raw view for hand-rolled hot loops (sparse member decode). The caller
  /// must hand the advanced pointer back via AdvanceTo; `pos() <= q <= end`.
  const unsigned char* pos() const { return p_; }
  const unsigned char* end() const { return end_; }
  void AdvanceTo(const unsigned char* q) {
    VEXUS_CHECK(q >= p_ && q <= end_);
    p_ = q;
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// One group section: every group's descriptors plus its members inside the
/// range `r`, each member block in whichever encoding is smaller (raw blocks
/// span only the range's words). Run over the whole universe this is the v2
/// GROUPS section. Descriptors repeat per section on purpose — that is what
/// makes a v3 section loadable without touching any other.
void EncodeGroupSection(const mining::GroupStore& groups,
                        const ShardMap::Range& r, std::string* out) {
  AppendU64(out, groups.size());
  std::string sparse;  // reused scratch across groups
  for (mining::GroupId g = 0; g < groups.size(); ++g) {
    const mining::UserGroup& grp = groups.group(g);
    AppendU32(out, static_cast<uint32_t>(grp.description().size()));
    for (const mining::Descriptor& d : grp.description()) {
      AppendU32(out, d.attribute);
      AppendU32(out, d.value);
    }
    const HybridBitset& members = grp.members();
    sparse.clear();
    uint64_t count = 0;
    uint32_t prev = 0;
    members.ForEachInRange(r.word_begin, r.word_end, [&](uint32_t u) {
      AppendVarint(&sparse, count == 0 ? u : u - prev);
      prev = u;
      ++count;
    });
    AppendU64(out, count);
    if (sparse.size() <= r.num_words() * 8) {
      AppendU8(out, kEncodingSparse);
      out->append(sparse);
    } else {
      AppendU8(out, kEncodingRaw);
      // Raw wins above ~1/8 density within the range. A set that is sparse
      // over the whole universe can still be that dense inside one
      // section's range; its words are materialized for this group.
      const Bitset materialized =
          members.is_sparse() ? members.ToBitset() : Bitset();
      const Bitset& bits =
          members.is_sparse() ? materialized : members.dense_form();
      for (size_t w = r.word_begin; w < r.word_end; ++w) {
        AppendU64(out, bits.words()[w]);
      }
    }
  }
}

void EncodePostings(const index::InvertedIndex& index, std::string* out) {
  AppendU64(out, index.num_groups());
  for (mining::GroupId g = 0; g < index.num_groups(); ++g) {
    const auto& list = index.Neighbors(g);
    AppendU32(out, static_cast<uint32_t>(list.size()));
    for (const index::Neighbor& nb : list) {
      AppendU32(out, nb.group);
      AppendF32(out, nb.similarity);
    }
  }
}

/// Header, one group section per shard, postings, trailer. Only the trailer
/// depends on the section count: one section is v2, more are v3.
std::string EncodeSnapshot(const mining::GroupStore& groups,
                           const index::InvertedIndex& index,
                           const ShardMap& shards) {
  const size_t S = shards.num_shards();
  std::string payload;
  payload.append(kMagic, 4);
  AppendU32(&payload, S == 1 ? kVersionV2 : kVersionV3);
  AppendU64(&payload, groups.num_users());

  std::vector<Section> sections(S);
  for (size_t s = 0; s < S; ++s) {
    Section& sec = sections[s];
    sec.offset = payload.size();
    EncodeGroupSection(groups, shards.shard(s), &payload);
    sec.len = payload.size() - sec.offset;
    sec.crc = GroupSectionCrc(payload.data(), sec, s);
  }
  Section postings;
  postings.offset = payload.size();
  EncodePostings(index, &payload);
  postings.len = payload.size() - postings.offset;
  postings.crc = Crc32(payload.data() + postings.offset, postings.len);

  std::string trailer;
  if (S == 1) {
    AppendU64(&trailer, sections[0].offset);
    AppendU64(&trailer, sections[0].len);
    AppendU64(&trailer, postings.offset);
    AppendU64(&trailer, postings.len);
    AppendU32(&trailer, sections[0].crc);
    AppendU32(&trailer, postings.crc);
  } else {
    for (size_t s = 0; s < S; ++s) {
      AppendU64(&trailer, sections[s].offset);
      AppendU64(&trailer, sections[s].len);
      AppendU64(&trailer, shards.shard(s).user_begin);
      AppendU64(&trailer, shards.shard(s).user_end);
      AppendU32(&trailer, sections[s].crc);
    }
    AppendU64(&trailer, postings.offset);
    AppendU64(&trailer, postings.len);
    AppendU32(&trailer, postings.crc);
    AppendU64(&trailer, S);
  }
  AppendU32(&trailer, Crc32(trailer.data(), trailer.size()));
  trailer.append(kTrailerMagic, 4);
  VEXUS_DCHECK(trailer.size() == (S == 1 ? kV2TrailerSize : V3TrailerSize(S)));
  payload.append(trailer);
  return payload;
}

// ---------------------------------------------------------------------------
// Durable write: tmp + fsync + rename + directory fsync
// ---------------------------------------------------------------------------

Status SyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    // EINVAL: the filesystem does not support fsync on this object (some
    // network/fuse mounts for directories). Nothing further we can do.
    if (errno == EINVAL) return Status::OK();
    return Status::IOError("fsync failed on " + what);
  }
  g_fsync_count.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WriteFileAtomically(const std::string& path, const std::string& payload,
                           bool sync) {
  // Simulates EMFILE / a missing or read-only snapshot directory.
  VEXUS_FAILPOINT("snapshot.save.open");
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError("cannot open '" + tmp + "' for writing");

  // Simulates ENOSPC mid-payload: the disk accepts a prefix of the payload
  // and then the next write() fails. The save must abandon the tmp file and
  // report the error — the previous good snapshot at `path` is untouched
  // because the rename below never runs. (A *silent* tear — prefix written,
  // no error — is only reachable via a crash, and then the rename doesn't
  // run either; the chaos harness asserts both halves of that contract.)
  const size_t fail_after = VEXUS_FAILPOINT_FIRES("snapshot.save.short_write")
                                ? payload.size() / 2
                                : std::string::npos;

  size_t off = 0;
  while (off < payload.size()) {
    if (off >= fail_after) {
      ::close(fd);
      ::remove(tmp.c_str());
      return Status::IOError("write failed on '" + tmp +
                             "' (injected ENOSPC after " +
                             std::to_string(off) + " bytes)");
    }
    size_t want = std::min(payload.size(), fail_after) - off;
    ssize_t n = ::write(fd, payload.data() + off, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::remove(tmp.c_str());
      return Status::IOError("write failed on '" + tmp + "'");
    }
    off += static_cast<size_t>(n);
  }

  // Durability step 1: the tmp file's *contents* must be on disk before the
  // rename makes it visible — otherwise a crash after the rename can leave a
  // truncated/empty file at `path` that passed std::rename just fine.
  if (sync) {
    // Simulates fsync returning EIO — the kernel dropped dirty pages.
    Status s = failpoint::Fires("snapshot.save.fsync")
                   ? Status::IOError("injected fsync failure on '" + tmp + "'")
                   : SyncFd(fd, "'" + tmp + "'");
    if (!s.ok()) {
      ::close(fd);
      ::remove(tmp.c_str());
      return s;
    }
  }
  if (::close(fd) != 0) {
    ::remove(tmp.c_str());
    return Status::IOError("close failed on '" + tmp + "'");
  }

  // Simulates rename failing (target directory deleted, EXDEV after a
  // mount change). The tmp file is cleaned up either way.
  if (failpoint::Fires("snapshot.save.rename") ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::remove(tmp.c_str());
    return Status::IOError("cannot rename snapshot into '" + path + "'");
  }

  // Durability step 2: the rename itself is a directory mutation; fsync the
  // parent directory so the new directory entry survives a crash.
  if (sync) {
    size_t slash = path.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, std::max<size_t>(slash, 1));
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0) {
      return Status::IOError("cannot open directory '" + dir +
                             "' to sync the rename");
    }
    Status s = SyncFd(dfd, "directory '" + dir + "'");
    ::close(dfd);
    VEXUS_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

Result<std::string> ReadFileFully(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  std::string buf;
  buf.resize(static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::read(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::IOError("read failed on '" + path + "'");
    }
    if (n == 0) break;  // file shrank under us; parse will flag truncation
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  buf.resize(off);
  return buf;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Where everything lives in a snapshot file, after the header and trailer
/// checks. Both format versions parse into this: v2's fixed trailer names
/// one group section, which covers shard 0 of 1, v3's variable trailer
/// names one per shard.
struct Layout {
  uint64_t num_users = 0;
  ShardMap map;                 // the user range of each group section
  std::vector<Section> groups;  // in shard order
  Section postings;
};

/// The one header + trailer check both loaders share: magic, version, a
/// universe that fits 32-bit user ids, the trailer's magic and CRC, v3
/// section ranges that match ShardMap(num_users, S), and sections that tile
/// the file exactly. ShardMap(num_users, S) is the same partition the
/// preprocessing and serving layers compute, so a shard server and the
/// snapshot can never disagree about who owns which users. Section CRCs are
/// NOT checked here — LoadSnapshotShard verifies only its own section.
Result<Layout> ReadLayout(const std::string& buf) {
  if (buf.size() < kHeaderSize) return Truncated();
  if (std::memcmp(buf.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  Layout l;
  Cursor hcur(buf.data() + 4, kHeaderSize - 4);
  uint32_t version;
  (void)hcur.ReadU32(&version);
  (void)hcur.ReadU64(&l.num_users);
  if (version != kVersionV2 && version != kVersionV3) {
    return Status::NotSupported("snapshot version " + std::to_string(version) +
                                " (expected " + std::to_string(kVersionV2) +
                                ".." + std::to_string(kVersionV3) + ")");
  }
  // ShardMap ranges and SnapshotShard hold user ids as uint32_t.
  if (l.num_users > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("user universe exceeds 32-bit user ids");
  }

  const bool v2 = version == kVersionV2;
  if (buf.size() < kHeaderSize + (v2 ? kV2TrailerSize : V3TrailerSize(1))) {
    return Truncated();
  }
  if (std::memcmp(buf.data() + buf.size() - 4, kTrailerMagic, 4) != 0) {
    return Status::Corruption("bad snapshot trailer magic");
  }
  uint64_t num_sections = 1;
  if (!v2) {
    Cursor tail(buf.data() + buf.size() - kV3TrailerTailSize, 8);
    (void)tail.ReadU64(&num_sections);
    // Bomb guard: each section costs a trailer entry, so a corrupt count
    // cannot force a giant allocation before the size check below fails.
    if (num_sections == 0 || num_sections > buf.size() / kV3SectionEntrySize) {
      return Status::Corruption("shard count exceeds file size");
    }
  }
  const size_t trailer_size = v2 ? kV2TrailerSize : V3TrailerSize(num_sections);
  if (buf.size() < kHeaderSize + trailer_size) return Truncated();
  const char* tstart = buf.data() + buf.size() - trailer_size;
  uint32_t trailer_crc;
  Cursor crc_cur(buf.data() + buf.size() - 8, 4);
  (void)crc_cur.ReadU32(&trailer_crc);
  if (Crc32(tstart, trailer_size - 8) != trailer_crc) {
    return Status::Corruption("trailer checksum mismatch");
  }

  l.map = ShardMap(l.num_users, num_sections);
  if (l.map.num_shards() != num_sections) {
    return Status::Corruption("shard count impossible for universe size");
  }
  Cursor cur(tstart, trailer_size - 8);
  l.groups.resize(num_sections);
  if (v2) {
    Section& g = l.groups[0];
    (void)cur.ReadU64(&g.offset);
    (void)cur.ReadU64(&g.len);
    (void)cur.ReadU64(&l.postings.offset);
    (void)cur.ReadU64(&l.postings.len);
    (void)cur.ReadU32(&g.crc);
    (void)cur.ReadU32(&l.postings.crc);
  } else {
    for (size_t s = 0; s < num_sections; ++s) {
      Section& g = l.groups[s];
      uint64_t user_begin, user_end;
      (void)cur.ReadU64(&g.offset);
      (void)cur.ReadU64(&g.len);
      (void)cur.ReadU64(&user_begin);
      (void)cur.ReadU64(&user_end);
      (void)cur.ReadU32(&g.crc);
      if (user_begin != l.map.shard(s).user_begin ||
          user_end != l.map.shard(s).user_end) {
        return Status::Corruption("shard ranges disagree with the shard map");
      }
    }
    (void)cur.ReadU64(&l.postings.offset);
    (void)cur.ReadU64(&l.postings.len);
    (void)cur.ReadU32(&l.postings.crc);
  }

  // Header, group sections in shard order, postings, and trailer must tile
  // the file exactly — trailing garbage or overlapping sections fail here.
  // The per-section length bound stops a huge u64 from wrapping the sum.
  uint64_t expect = kHeaderSize;
  for (size_t s = 0; s <= num_sections; ++s) {
    const Section& sec = s < num_sections ? l.groups[s] : l.postings;
    if (sec.len < 8 || sec.len > buf.size() || sec.offset != expect) {
      return Status::Corruption("snapshot sections do not tile the file");
    }
    expect += sec.len;
  }
  if (expect + trailer_size != buf.size()) {
    return Status::Corruption("snapshot sections do not tile the file");
  }
  return l;
}

Status VerifyGroupChecksums(const std::string& buf, const Layout& l,
                            size_t begin, size_t end) {
  for (size_t s = begin; s < end; ++s) {
    if (GroupSectionCrc(buf.data(), l.groups[s], s) != l.groups[s].crc) {
      return Status::Corruption("group section " + std::to_string(s) +
                                " checksum mismatch");
    }
  }
  return Status::OK();
}

/// One group's members as its blocks fold in, section by section. Sections
/// cover disjoint, ascending user ranges, so members arrive in increasing
/// order: they collect as sorted ids while the running count stays at or
/// below the hybrid sparse threshold, and as full-universe words above it.
/// With one section this is exactly the form the finished HybridBitset
/// takes.
struct GroupAccumulator {
  std::vector<mining::Descriptor> desc;
  std::vector<uint32_t> ids;
  std::vector<uint64_t> words;
  bool dense = false;

  void ToWords(size_t num_words) {
    words.assign(num_words, 0);
    for (uint32_t u : ids) words[u >> 6] |= uint64_t{1} << (u & 63);
    ids = {};
    dense = true;
  }
};

/// Descriptor list + member count of one group in one section.
Status ParseGroupHeader(Cursor* cur, uint64_t max_members,
                        std::vector<mining::Descriptor>* desc,
                        uint64_t* member_count) {
  uint32_t desc_len;
  if (!cur->ReadU32(&desc_len)) return Truncated();
  if (static_cast<uint64_t>(desc_len) * 8 > cur->remaining()) {
    return Truncated();
  }
  desc->clear();
  desc->reserve(desc_len);
  for (uint32_t i = 0; i < desc_len; ++i) {
    mining::Descriptor d;
    if (!cur->ReadU32(&d.attribute) || !cur->ReadU32(&d.value)) {
      return Truncated();
    }
    desc->push_back(d);
  }
  if (!cur->ReadU64(member_count)) return Truncated();
  if (*member_count > max_members) {
    return Status::Corruption("group claims more members than its users");
  }
  return Status::OK();
}

/// Decodes one group's block from the section over `r` into `acc`. The
/// first section's block sets the descriptors; later sections must repeat
/// them (their CRCs already passed, so a mismatch means the writer was
/// broken, not the media).
Status DecodeGroupBlock(Cursor* cur, uint64_t num_users,
                        const ShardMap::Range& r, bool first,
                        std::vector<mining::Descriptor>* scratch,
                        GroupAccumulator* acc) {
  uint64_t member_count;
  VEXUS_RETURN_NOT_OK(ParseGroupHeader(cur, r.num_users(),
                                       first ? &acc->desc : scratch,
                                       &member_count));
  if (!first && *scratch != acc->desc) {
    return Status::Corruption("shard sections disagree on group descriptors");
  }
  uint8_t encoding;
  if (!cur->ReadU8(&encoding)) return Truncated();

  const size_t universe_words = (num_users + 63) / 64;
  if (encoding == kEncodingSparse) {
    // Every member costs at least one byte, so a corrupt count fails here
    // before it can size an allocation.
    if (member_count > cur->remaining()) return Truncated();
    if (!acc->dense && acc->ids.size() + member_count >
                           HybridBitset::SparseThresholdFor(num_users)) {
      acc->ToWords(universe_words);
    }
    if (!acc->dense) acc->ids.reserve(acc->ids.size() + member_count);
    // Hand-rolled LEB128 delta decode: this loop runs once per member
    // across the whole snapshot, so it works on raw pointers (one bounds
    // check per byte consumed, no per-call function overhead). Sparse groups
    // decode straight into the ascending id array that IS the hybrid sparse
    // form; denser ones write bits into the word array. Strictly ascending
    // ids mean every id is fresh, so the count equals member_count by
    // construction — no verification pass is needed.
    const unsigned char* p = cur->pos();
    const unsigned char* const end = cur->end();
    // Deltas between neighbouring members of a non-degenerate group are
    // almost always < 128, so the common case is one load, one test.
    // Encodings longer than 10 bytes (64 payload bits) are rejected.
    const auto read_delta = [&p, end](uint64_t* delta) -> bool {
      if (p == end) return false;
      uint64_t v = *p++;
      if ((v & 0x80) != 0) {
        v &= 0x7f;
        int shift = 7;
        for (;;) {
          if (p == end || shift >= 64) return false;
          const uint8_t byte = *p++;
          v |= static_cast<uint64_t>(byte & 0x7f) << shift;
          if ((byte & 0x80) == 0) break;
          shift += 7;
        }
      }
      *delta = v;
      return true;
    };
    const bool to_words = acc->dense;
    uint64_t* const words = acc->words.data();
    std::vector<uint32_t>& ids = acc->ids;
    const auto add = [to_words, words, &ids](uint64_t id) {
      if (to_words) {
        words[id >> 6] |= uint64_t{1} << (id & 63);
      } else {
        ids.push_back(static_cast<uint32_t>(id));
      }
    };
    // First member peeled: it is an absolute id (delta 0 is legal there),
    // so the loop body only handles the strictly-positive-delta case.
    uint64_t id = 0;
    if (member_count > 0) {
      if (!read_delta(&id)) return Truncated();
      if (id < r.user_begin || id >= r.user_end) {
        return Status::Corruption("member id out of range");
      }
      add(id);
    }
    for (uint64_t i = 1; i < member_count; ++i) {
      uint64_t delta;
      if (!read_delta(&delta)) return Truncated();
      if (delta == 0) {
        return Status::Corruption("duplicate member id in group");
      }
      // Compared against the room left rather than after the add, so a
      // delta near 2^64 cannot wrap the id back into range.
      if (delta >= r.user_end - id) {
        return Status::Corruption("member id out of range");
      }
      id += delta;
      add(id);
    }
    cur->AdvanceTo(p);
  } else if (encoding == kEncodingRaw) {
    if (cur->remaining() / 8 < r.num_words()) return Truncated();
    if (!acc->dense) acc->ToWords(universe_words);
    // Sections own disjoint words, so the block lands in words nothing else
    // has written. Bits past the universe's end are caught when the words
    // become a Bitset.
    uint64_t* block = acc->words.data() + r.word_begin;
    (void)cur->ReadWords(r.num_words(), block);
    if (bitset_kernels::Count(block, r.num_words()) != member_count) {
      return Status::Corruption(
          "raw member block popcount disagrees with member_count");
    }
  } else {
    return Status::Corruption("unknown member-block encoding");
  }
  return Status::OK();
}

/// The one group-section decoder: decodes group sections [begin, end) into
/// one store over the full universe (a single shard's section gives that
/// shard's slice store). Group-major — each group's blocks are read from
/// every section, then the group is finished while its words are still in
/// cache.
Result<mining::GroupStore> DecodeGroups(const std::string& buf,
                                        const Layout& l, size_t begin,
                                        size_t end) {
  std::vector<Cursor> sections;
  uint64_t num_groups = 0;
  for (size_t s = begin; s < end; ++s) {
    Cursor& cur =
        sections.emplace_back(buf.data() + l.groups[s].offset, l.groups[s].len);
    uint64_t n;
    if (!cur.ReadU64(&n)) return Truncated();
    if (n > l.groups[s].len / 13) {  // ≥ 13 bytes per group
      return Status::Corruption("group count exceeds section size");
    }
    if (s == begin) {
      num_groups = n;
    } else if (n != num_groups) {
      return Status::Corruption("shard sections disagree on group count");
    }
  }

  mining::GroupStore store(l.num_users);
  std::vector<mining::Descriptor> scratch;
  for (uint64_t g = 0; g < num_groups; ++g) {
    GroupAccumulator acc;
    for (size_t s = begin; s < end; ++s) {
      VEXUS_RETURN_NOT_OK(DecodeGroupBlock(&sections[s - begin], l.num_users,
                                           l.map.shard(s), s == begin, &scratch,
                                           &acc));
    }
    HybridBitset members;
    if (acc.dense) {
      Bitset dense;
      if (!dense.AdoptWords(l.num_users, std::move(acc.words))) {
        return Status::Corruption("raw member block has bits beyond universe");
      }
      // FromBitset normalizes: a small raw-encoded group still lands in the
      // canonical sparse form.
      members = HybridBitset::FromBitset(std::move(dense));
    } else {
      members = HybridBitset::FromSortedIds(l.num_users, std::move(acc.ids));
    }
    if (store.Add(mining::UserGroup(std::move(acc.desc),
                                    std::move(members))) != g) {
      // Stores never hold duplicate (description, extent) pairs, so a dedup
      // hit here means the file repeats a group — ids would shift and the
      // posting lists would dangle.
      return Status::Corruption("duplicate group in snapshot");
    }
  }
  for (const Cursor& cur : sections) {
    if (cur.remaining() != 0) {
      return Status::Corruption("trailing bytes in groups section");
    }
  }
  return store;
}

Status ParsePostings(Cursor* cur, uint64_t num_groups,
                     std::vector<std::vector<index::Neighbor>>* lists) {
  uint64_t num_lists;
  if (!cur->ReadU64(&num_lists)) return Truncated();
  if (num_lists != num_groups) {
    return Status::Corruption("posting-list count mismatch");
  }
  lists->resize(num_lists);
  for (uint64_t g = 0; g < num_lists; ++g) {
    uint32_t len;
    if (!cur->ReadU32(&len)) return Truncated();
    if (static_cast<uint64_t>(len) * 8 > cur->remaining()) return Truncated();
    (*lists)[g].reserve(len);
    for (uint32_t i = 0; i < len; ++i) {
      index::Neighbor nb;
      if (!cur->ReadU32(&nb.group) || !cur->ReadF32(&nb.similarity)) {
        return Truncated();
      }
      if (nb.group >= num_groups) {
        return Status::Corruption("posting references unknown group");
      }
      (*lists)[g].push_back(nb);
    }
  }
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const mining::GroupStore& groups,
                    const index::InvertedIndex& index, const std::string& path,
                    const SnapshotSaveOptions& options, const TraceSpan* span) {
  if (index.num_groups() != groups.size()) {
    return Status::InvalidArgument(
        "index and group store cover different group sets");
  }
  TraceSpan save = span != nullptr ? span->Child("save") : TraceSpan();
  // A universe too small to split clamps back to one section, which is plain
  // v2, so small deployments never pay the multi-section trailer.
  const ShardMap shards(groups.num_users(),
                        std::max<size_t>(1, options.num_shards));
  std::string payload = EncodeSnapshot(groups, index, shards);
  save.AddCount(payload.size());
  // Simulates silent media corruption between encode and persist: one payload
  // byte is flipped, the write itself "succeeds", and the damage is only
  // discoverable by LoadSnapshot's checksums.
  if (VEXUS_FAILPOINT_FIRES("snapshot.save.corrupt") && !payload.empty()) {
    payload[payload.size() / 2] ^= 0x40;
  }
  return WriteFileAtomically(path, payload, options.sync);
}

Result<Snapshot> LoadSnapshot(const std::string& path, const TraceSpan* span) {
  TraceSpan load = span != nullptr ? span->Child("load") : TraceSpan();
  // Simulates an unreadable snapshot file (EIO, NFS server gone).
  VEXUS_FAILPOINT("snapshot.load.read");
  VEXUS_ASSIGN_OR_RETURN(std::string buf, ReadFileFully(path));
  load.AddCount(buf.size());
  // Simulates bit rot on the read path: the file on disk is fine but the
  // bytes we parsed are not. Checksums must catch it.
  if (VEXUS_FAILPOINT_FIRES("snapshot.load.corrupt") && !buf.empty()) {
    buf[buf.size() / 2] ^= 0x40;
  }

  VEXUS_ASSIGN_OR_RETURN(Layout l, ReadLayout(buf));
  // Checksum every section before parsing any.
  VEXUS_RETURN_NOT_OK(VerifyGroupChecksums(buf, l, 0, l.groups.size()));
  if (Crc32(buf.data() + l.postings.offset, l.postings.len) !=
      l.postings.crc) {
    return Status::Corruption("postings section checksum mismatch");
  }
  VEXUS_ASSIGN_OR_RETURN(mining::GroupStore store,
                         DecodeGroups(buf, l, 0, l.groups.size()));

  Cursor pcur(buf.data() + l.postings.offset, l.postings.len);
  std::vector<std::vector<index::Neighbor>> lists;
  VEXUS_RETURN_NOT_OK(ParsePostings(&pcur, store.size(), &lists));
  if (pcur.remaining() != 0) {
    return Status::Corruption("trailing bytes in postings section");
  }
  return Snapshot{std::move(store),
                  index::InvertedIndex::FromPostings(std::move(lists))};
}

Result<SnapshotShard> LoadSnapshotShard(const std::string& path, size_t shard,
                                        const TraceSpan* span) {
  TraceSpan load = span != nullptr ? span->Child("load_shard") : TraceSpan();
  VEXUS_FAILPOINT("snapshot.load.read");
  VEXUS_ASSIGN_OR_RETURN(std::string buf, ReadFileFully(path));
  load.AddCount(buf.size());

  VEXUS_ASSIGN_OR_RETURN(Layout l, ReadLayout(buf));
  const size_t num_shards = l.groups.size();
  if (shard >= num_shards) {
    return Status::InvalidArgument(
        "shard index " + std::to_string(shard) + " out of range (snapshot has " +
        std::to_string(num_shards) + " shards)");
  }
  // Only this shard's section is checksummed — a flipped bit in another
  // shard's section must not block this shard's cold start (tested).
  VEXUS_RETURN_NOT_OK(VerifyGroupChecksums(buf, l, shard, shard + 1));
  VEXUS_ASSIGN_OR_RETURN(mining::GroupStore store,
                         DecodeGroups(buf, l, shard, shard + 1));
  return SnapshotShard{shard, num_shards, l.map.shard(shard).user_begin,
                       l.map.shard(shard).user_end, std::move(store)};
}

namespace internal {

uint64_t SnapshotFsyncCountForTesting() {
  return g_fsync_count.load(std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace vexus::core
