// Record-addressed container reads and the sparse container cache.
//
// FramedBackend reads a range of a clean Container stream by fetching
// only the records that cover it; the whole-stream verify (extract_stream
// over every physical byte) is the oracle it must agree with on every
// byte, and it must refuse — never misread — a flipped bit in a fetched
// record, a stream that was torn or corrupt when the repository was
// opened, and a stream an append tore. ContainerBackend's cache keeps
// only the verified ranges fetched so far; its counters must say exactly
// how many bytes each read pulled from below.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mhd/store/container_store.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

using framing::kHeaderBytes;

/// Forwards to a MemoryBackend and counts the reads that reach it.
class CountingBackend final : public StorageBackend {
 public:
  void put(Ns ns, const std::string& name, ByteSpan data) override {
    mem.put(ns, name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    mem.append(ns, name, data);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    ++whole_gets;
    return mem.get(ns, name);
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    ++range_gets;
    auto out = mem.get_range(ns, name, offset, length);
    if (out) range_bytes += out->size();
    return out;
  }
  bool exists(Ns ns, const std::string& name) const override {
    return mem.exists(ns, name);
  }
  bool remove(Ns ns, const std::string& name) override {
    return mem.remove(ns, name);
  }
  std::uint64_t object_count(Ns ns) const override {
    return mem.object_count(ns);
  }
  std::uint64_t content_bytes(Ns ns) const override {
    return mem.content_bytes(ns);
  }
  std::vector<std::string> list(Ns ns) const override { return mem.list(ns); }

  void reset() { whole_gets = range_gets = range_bytes = 0; }

  MemoryBackend mem;
  mutable std::uint64_t whole_gets = 0;
  mutable std::uint64_t range_gets = 0;
  mutable std::uint64_t range_bytes = 0;
};

/// Appends one record per length (payload bytes drawn from `rng`), seals,
/// and returns the concatenated payload.
ByteVec write_stream(StorageBackend& b, const std::string& name,
                     const std::vector<std::size_t>& lengths,
                     Xoshiro256& rng) {
  ByteVec all;
  for (const std::size_t n : lengths) {
    ByteVec rec(n);
    for (auto& byte : rec) byte = static_cast<Byte>(rng());
    b.append(Ns::kContainer, name, rec);
    append(all, rec);
  }
  b.seal(Ns::kContainer, name);
  return all;
}

/// The oracle: whole-stream verify of the physical bytes.
ByteVec oracle_payload(const StorageBackend& raw, const std::string& name) {
  const auto phys = raw.get(Ns::kContainer, name);
  EXPECT_TRUE(phys.has_value());
  const auto payload = framing::extract_stream(*phys);
  EXPECT_TRUE(payload.has_value());
  return payload.value_or(ByteVec());
}

ByteVec slice(const ByteVec& v, std::uint64_t offset, std::uint64_t length) {
  return ByteVec(v.begin() + static_cast<std::ptrdiff_t>(offset),
                 v.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

/// Every sub-range of a small stream, sealed in this process and adopted
/// by a reopen.
void expect_every_range_matches(const std::vector<std::size_t>& lengths) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  Xoshiro256 rng(lengths.size());
  const ByteVec payload = write_stream(framed, "c00000000", lengths, rng);
  ASSERT_EQ(oracle_payload(raw, "c00000000"), payload);
  FramedBackend reopened(raw);
  const std::uint64_t total = payload.size();
  for (const FramedBackend* fb : {&framed, &reopened}) {
    for (std::uint64_t off = 0; off <= total; ++off) {
      for (std::uint64_t len = 0; off + len <= total; ++len) {
        const auto got = fb->get_range(Ns::kContainer, "c00000000", off, len);
        ASSERT_TRUE(got.has_value()) << off << "+" << len;
        ASSERT_EQ(*got, slice(payload, off, len)) << off << "+" << len;
      }
      EXPECT_EQ(fb->get_range(Ns::kContainer, "c00000000", off,
                              total - off + 1),
                std::nullopt);
    }
  }
}

TEST(RecordRead, EverySubRangeOfSmallStreams) {
  expect_every_range_matches({5});
  expect_every_range_matches({3, 0, 5, 1, 0, 0, 7});
  expect_every_range_matches({0, 0, 4, 4, 0});
  expect_every_range_matches({1, 1, 1, 1, 1, 1, 1, 1});
  expect_every_range_matches({0});
  expect_every_range_matches({});
}

TEST(RecordRead, RandomContainersAgreeWithWholeStreamVerify) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    // 0..2000 records; a quarter of them empty.
    const std::size_t records = static_cast<std::size_t>(rng.below(2001));
    std::vector<std::size_t> lengths(records);
    for (auto& n : lengths) {
      n = rng.chance(0.25) ? 0 : static_cast<std::size_t>(1 + rng.below(300));
    }
    CountingBackend raw;
    FramedBackend framed(raw);
    const ByteVec payload = write_stream(framed, "c00000001", lengths, rng);
    ASSERT_EQ(oracle_payload(raw.mem, "c00000001"), payload);
    FramedBackend reopened(raw);

    // Logical and physical start of each record, for the fetch check.
    std::vector<std::uint64_t> starts;
    std::uint64_t at = 0;
    for (const std::size_t n : lengths) {
      starts.push_back(at);
      at += n;
    }
    const std::uint64_t total = payload.size();
    for (int i = 0; i < 200 && total > 0; ++i) {
      const std::uint64_t off = rng.below(total);
      const std::uint64_t len = 1 + rng.below(std::min<std::uint64_t>(
                                        total - off, 1 + rng.below(4096)));
      for (const FramedBackend* fb : {&framed, &reopened}) {
        raw.reset();
        const auto got = fb->get_range(Ns::kContainer, "c00000001", off, len);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(*got, slice(payload, off, len)) << "seed " << seed;
        // One fetch of exactly the covering records' physical bytes.
        const std::size_t first = static_cast<std::size_t>(
            std::upper_bound(starts.begin(), starts.end(), off) -
            starts.begin() - 1);
        const std::size_t last = static_cast<std::size_t>(
            std::upper_bound(starts.begin(), starts.end(), off + len - 1) -
            starts.begin() - 1);
        const std::uint64_t end_logical =
            last + 1 < starts.size() ? starts[last + 1] : total;
        EXPECT_EQ(raw.whole_gets, 0u);
        EXPECT_EQ(raw.range_gets, 1u);
        EXPECT_EQ(raw.range_bytes, end_logical - starts[first] +
                                       (last + 1 - first) * kHeaderBytes);
      }
    }
    EXPECT_EQ(framed.get_range(Ns::kContainer, "c00000001", total, 1),
              std::nullopt);
    EXPECT_EQ(framed.get_range(Ns::kContainer, "c00000001", total, 0),
              ByteVec());
  }
}

TEST(RecordRead, BitFlipInsideAFetchedRecordThrows) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  Xoshiro256 rng(3);
  const ByteVec payload = write_stream(framed, "c00000000", {100, 50, 80}, rng);
  const ByteVec clean = *raw.get(Ns::kContainer, "c00000000");
  // Record 1 is physically [112, 174): its magic, length, CRC and payload.
  for (const std::size_t at : {112u, 112u + 4u, 112u + 8u, 112u + 12u + 30u}) {
    ByteVec phys = clean;
    phys[at] ^= 0x10;
    raw.put(Ns::kContainer, "c00000000", phys);
    EXPECT_THROW(framed.get_range(Ns::kContainer, "c00000000", 100, 50),
                 CorruptObjectError)
        << "flip at " << at;
    EXPECT_THROW(framed.get_range(Ns::kContainer, "c00000000", 90, 20),
                 CorruptObjectError)
        << "flip at " << at;
    // Rot outside the fetched records is not read (fsck and scrub find it).
    EXPECT_EQ(framed.get_range(Ns::kContainer, "c00000000", 0, 100),
              slice(payload, 0, 100));
  }
  // A stream cut short under a live table is torn, never misread.
  ByteVec cut = clean;
  cut.resize(150);
  raw.put(Ns::kContainer, "c00000000", cut);
  EXPECT_THROW(framed.get_range(Ns::kContainer, "c00000000", 150, 10),
               CorruptObjectError);
}

TEST(RecordRead, StreamTornOrCorruptAtOpenThrowsForEveryRange) {
  for (const bool tear : {true, false}) {
    MemoryBackend raw;
    Xoshiro256 rng(5);
    ByteVec payload;
    {
      FramedBackend framed(raw);
      payload = write_stream(framed, "c00000000", {40, 0, 60, 30}, rng);
    }
    ByteVec phys = *raw.get(Ns::kContainer, "c00000000");
    if (tear) {
      phys.resize(phys.size() - 5);  // cut into the seal
    } else {
      phys[kHeaderBytes + 40 + kHeaderBytes + kHeaderBytes + 7] ^= 0x01;
    }
    raw.put(Ns::kContainer, "c00000000", phys);

    FramedBackend reopened(raw);
    for (std::uint64_t off = 0; off < payload.size(); off += 7) {
      EXPECT_THROW(reopened.get_range(Ns::kContainer, "c00000000", off, 1),
                   CorruptObjectError)
          << (tear ? "torn" : "corrupt") << " at " << off;
    }
  }
}

TEST(RecordRead, StreamPoisonedByTornAppendThrowsForEveryRange) {
  MemoryBackend raw;
  // Mutations: appends 1..4 are records, 5 the seal; the 3rd lands half.
  FaultInjectingBackend faulty(raw, FaultPlan::parse("torn@3:0.5"));
  FramedBackend framed(faulty);
  Xoshiro256 rng(9);
  const ByteVec payload =
      write_stream(framed, "c00000000", {64, 64, 64, 64}, rng);
  for (std::uint64_t off = 0; off < payload.size(); off += 16) {
    EXPECT_THROW(framed.get_range(Ns::kContainer, "c00000000", off, 16),
                 CorruptObjectError)
        << off;
  }
}

// --- ContainerBackend: sparse cache entries --------------------------------

ByteVec pattern_bytes(std::size_t n, Byte seed) {
  ByteVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<Byte>((seed + i * 131) & 0xff);
  }
  return v;
}

ByteVec write_chunk(StorageBackend& b, const std::string& name, std::size_t n,
                    Byte seed) {
  const ByteVec data = pattern_bytes(n, seed);
  b.append(Ns::kDiskChunk, name, data);
  b.seal(Ns::kDiskChunk, name);
  return data;
}

TEST(ContainerCache, ReadsFetchOnlyTheBytesTheyLack) {
  CountingBackend raw;
  FramedBackend framed(raw);
  ContainerConfig cc;
  cc.container_bytes = 64 << 10;
  cc.cache_bytes = 1 << 20;
  ContainerBackend cb(framed, cc);
  const ByteVec a = write_chunk(cb, "aa01", 1000, 1);
  const ByteVec b = write_chunk(cb, "bb02", 2000, 2);
  const ByteVec c = write_chunk(cb, "cc03", 3000, 3);
  cb.flush();

  // A freshly sealed container is resident whole: read-after-write hits.
  ContainerStats base = cb.stats();
  EXPECT_EQ(cb.get(Ns::kDiskChunk, "cc03"), c);
  EXPECT_EQ(cb.stats().cache_hits - base.cache_hits, 1u);
  EXPECT_EQ(cb.stats().container_read_bytes, base.container_read_bytes);

  cb.drop_cache();
  base = cb.stats();
  raw.reset();
  // Cold read of one chunk: exactly its bytes, one record from the device.
  EXPECT_EQ(cb.get(Ns::kDiskChunk, "bb02"), b);
  EXPECT_EQ(cb.stats().container_reads - base.container_reads, 1u);
  EXPECT_EQ(cb.stats().container_read_bytes - base.container_read_bytes,
            2000u);
  EXPECT_EQ(raw.range_bytes, 2000u + kHeaderBytes);
  EXPECT_EQ(raw.whole_gets, 0u);

  // A second chunk of the same container adds bytes, not a container read.
  EXPECT_EQ(cb.get(Ns::kDiskChunk, "aa01"), a);
  EXPECT_EQ(cb.stats().container_reads - base.container_reads, 1u);
  EXPECT_EQ(cb.stats().container_read_bytes - base.container_read_bytes,
            3000u);
  EXPECT_EQ(cb.stats().cache_hits, base.cache_hits);

  // Re-reads are hits with no fetch.
  raw.reset();
  EXPECT_EQ(cb.get(Ns::kDiskChunk, "bb02"), b);
  EXPECT_EQ(cb.get_range(Ns::kDiskChunk, "aa01", 10, 20),
            slice(a, 10, 20));
  EXPECT_EQ(cb.stats().cache_hits - base.cache_hits, 2u);
  EXPECT_EQ(raw.range_gets, 0u);

  // A range straddling resident bytes fetches only its gap: c's first
  // 1000 bytes, then [500, 2500) needs just [1000, 2500).
  EXPECT_EQ(cb.get_range(Ns::kDiskChunk, "cc03", 0, 1000), slice(c, 0, 1000));
  const std::uint64_t before = cb.stats().container_read_bytes;
  EXPECT_EQ(cb.get_range(Ns::kDiskChunk, "cc03", 500, 2000),
            slice(c, 500, 2000));
  EXPECT_EQ(cb.stats().container_read_bytes - before, 1500u);
  // And a range spanning a gap between two resident ranges fills only it.
  EXPECT_EQ(cb.get(Ns::kDiskChunk, "cc03"), c);
  EXPECT_EQ(cb.stats().container_read_bytes - before, 2000u);
  EXPECT_EQ(cb.stats().container_reads - base.container_reads, 1u);
}

TEST(ContainerCache, EvictionIsByFetchedBytes) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  ContainerConfig cc;
  cc.container_bytes = 4096;  // four 1 KiB chunks per container
  cc.cache_bytes = 2500;      // not even one whole container
  ContainerBackend cb(framed, cc);
  for (int i = 0; i < 12; ++i) {
    write_chunk(cb, "ch" + std::to_string(i), 1024, static_cast<Byte>(i));
  }
  cb.flush();
  cb.drop_cache();
  const ContainerStats base = cb.stats();
  const auto reads = [&] {
    return cb.stats().container_reads - base.container_reads;
  };

  cb.get(Ns::kDiskChunk, "ch0");  // container 0: 1024 resident
  cb.get(Ns::kDiskChunk, "ch4");  // container 1: 2048 resident
  EXPECT_EQ(reads(), 2u);
  EXPECT_EQ(cb.stats().cache_evictions, base.cache_evictions);
  cb.get(Ns::kDiskChunk, "ch0");  // both fit the budget: a hit
  EXPECT_EQ(cb.stats().cache_hits - base.cache_hits, 1u);

  cb.get(Ns::kDiskChunk, "ch8");  // 3072 > 2500: evicts container 1 (LRU)
  EXPECT_EQ(cb.stats().cache_evictions - base.cache_evictions, 1u);
  EXPECT_EQ(reads(), 3u);
  cb.get(Ns::kDiskChunk, "ch1");  // container 0 grows to 2048: evicts 2
  EXPECT_EQ(cb.stats().cache_evictions - base.cache_evictions, 2u);
  EXPECT_EQ(reads(), 3u);
  cb.get(Ns::kDiskChunk, "ch4");  // evicted above: a new residency
  EXPECT_EQ(reads(), 4u);
  EXPECT_EQ(cb.stats().container_read_bytes - base.container_read_bytes,
            5u * 1024u);

  // An entry that would outgrow the whole budget is dropped, not kept.
  cb.drop_cache();
  for (const char* name : {"ch8", "ch9", "ch10"}) {
    EXPECT_EQ(cb.get(Ns::kDiskChunk, name),
              pattern_bytes(1024, static_cast<Byte>(std::stoi(name + 2))));
  }
  const ContainerStats mid = cb.stats();
  cb.get(Ns::kDiskChunk, "ch8");
  EXPECT_EQ(cb.stats().container_reads - mid.container_reads, 1u);
}

}  // namespace
}  // namespace mhd
