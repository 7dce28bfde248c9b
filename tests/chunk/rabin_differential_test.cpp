// Differential harness for the Rabin and TTTD scan loops.
//
// RabinChunker::scan and TttdChunker::scan roll a whole span with the
// fingerprint state in registers. They are checked against the original
// byte-at-a-time loops over RabinFingerprint::push(), kept here as the
// oracle, on the same corpora as the gear differential suite: >= 1000
// seeded buffers, two-piece splits at every offset, piece sizes modulo
// primes, all-zero and periodic buffers and min/expected/max adversarial
// lengths, across ECS {512, 1024, 4096, 8192} x window {16, 48, 64}.
// A golden SHA-1 of the chunk lengths pins both code and oracle, and the
// shared fingerprint tables are checked against a from-scratch build,
// including when many threads build the first chunker at once.
#include <algorithm>
#include <cmath>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"
#include "mhd/chunk/tttd_chunker.h"
#include "mhd/hash/digest.h"
#include "mhd/hash/sha1.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

constexpr std::uint64_t kMagic = 0x4D5A3B7F9E2C6A1ULL;

std::uint64_t mask_bits(double target) {
  const int bits = std::max(
      1, static_cast<int>(std::lround(std::log2(std::max(2.0, target)))));
  return (bits >= 63) ? ~0ULL : ((1ULL << bits) - 1);
}

std::uint64_t main_mask(const ChunkerConfig& c) {
  return mask_bits(static_cast<double>(c.expected_size) -
                   static_cast<double>(c.min_size));
}

std::size_t hash_start(const ChunkerConfig& c) {
  return c.min_size > c.window ? c.min_size - c.window : 0;
}

/// The original RabinChunker::scan: one push() and two max tests per byte.
class OracleRabin final : public Chunker {
 public:
  explicit OracleRabin(const ChunkerConfig& c)
      : config_(c),
        fp_(c.window),
        mask_(main_mask(c)),
        magic_(kMagic & mask_),
        hash_start_(hash_start(c)) {}

  void reset() override {
    fp_.reset();
    pos_ = 0;
  }

  ScanResult scan(ByteSpan data) override {
    std::size_t i = 0;
    const std::size_t n = data.size();
    if (pos_ < hash_start_) {
      const std::size_t skip = std::min(n, hash_start_ - pos_);
      pos_ += skip;
      i += skip;
    }
    while (i < n) {
      if (pos_ >= config_.max_size) {
        reset();
        return {i, true};
      }
      const std::uint64_t f = fp_.push(data[i]);
      ++i;
      ++pos_;
      if (pos_ >= config_.min_size && (f & mask_) == magic_) {
        reset();
        return {i, true};
      }
      if (pos_ >= config_.max_size) {
        reset();
        return {i, true};
      }
    }
    return {i, false};
  }

 private:
  ChunkerConfig config_;
  RabinFingerprint fp_;
  std::uint64_t mask_;
  std::uint64_t magic_;
  std::size_t hash_start_;
  std::size_t pos_ = 0;
};

/// The original TttdChunker::scan, one push() per byte.
class OracleTttd final : public Chunker {
 public:
  explicit OracleTttd(const ChunkerConfig& c)
      : config_(c),
        fp_(c.window),
        main_mask_(main_mask(c)),
        backup_mask_(main_mask_ >> 1),
        hash_start_(hash_start(c)) {}

  void reset() override {
    fp_.reset();
    pos_ = 0;
    backup_pos_ = 0;
    cut_back_ = 0;
  }

  std::size_t cut_back() const override { return cut_back_; }

  ScanResult scan(ByteSpan data) override {
    std::size_t i = 0;
    const std::size_t n = data.size();
    cut_back_ = 0;
    if (pos_ < hash_start_) {
      const std::size_t skip = std::min(n, hash_start_ - pos_);
      pos_ += skip;
      i += skip;
    }
    while (i < n) {
      const std::uint64_t f = fp_.push(data[i]);
      ++i;
      ++pos_;
      if (pos_ >= config_.min_size) {
        if ((f & main_mask_) == (kMagic & main_mask_)) {
          reset();
          return {i, true};
        }
        if ((f & backup_mask_) == (kMagic & backup_mask_)) {
          backup_pos_ = pos_;
        }
      }
      if (pos_ >= config_.max_size) {
        const std::size_t back =
            (backup_pos_ >= config_.min_size) ? pos_ - backup_pos_ : 0;
        reset();
        cut_back_ = back;
        return {i, true};
      }
    }
    return {i, false};
  }

 private:
  ChunkerConfig config_;
  RabinFingerprint fp_;
  std::uint64_t main_mask_;
  std::uint64_t backup_mask_;
  std::size_t hash_start_;
  std::size_t pos_ = 0;
  std::size_t backup_pos_ = 0;
  std::size_t cut_back_ = 0;
};

enum class Kind { kRabin, kTttd };

const char* kind_name(Kind k) { return k == Kind::kRabin ? "rabin" : "tttd"; }

std::unique_ptr<Chunker> make_fast(Kind k, const ChunkerConfig& c) {
  if (k == Kind::kRabin) return std::make_unique<RabinChunker>(c);
  return std::make_unique<TttdChunker>(c);
}

std::unique_ptr<Chunker> make_oracle(Kind k, const ChunkerConfig& c) {
  if (k == Kind::kRabin) return std::make_unique<OracleRabin>(c);
  return std::make_unique<OracleTttd>(c);
}

/// Absolute offsets of every cut, feeding scan() consecutive pieces that
/// end at the sorted offsets in `splits`. A TTTD backup cut moves the
/// offset back by cut_back(), and those bytes are fed again.
std::vector<std::size_t> cut_points(Chunker& chunker, ByteSpan data,
                                    const std::vector<std::size_t>& splits) {
  std::vector<std::size_t> cuts;
  std::size_t off = 0;
  std::size_t split_index = 0;
  while (off < data.size()) {
    while (split_index < splits.size() && splits[split_index] <= off) {
      ++split_index;
    }
    const std::size_t piece_end = split_index < splits.size()
                                      ? splits[split_index]
                                      : data.size();
    const auto r = chunker.scan(data.subspan(off, piece_end - off));
    off += r.consumed;
    if (r.cut) {
      off -= chunker.cut_back();
      cuts.push_back(off);
    }
  }
  return cuts;
}

ByteVec random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

ByteVec periodic_bytes(std::size_t n, std::size_t period, std::uint64_t seed) {
  const ByteVec pattern = random_bytes(period, seed);
  ByteVec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern[i % period];
  return out;
}

std::vector<std::size_t> every(std::size_t step, std::size_t n) {
  std::vector<std::size_t> splits;
  for (std::size_t off = step; off < n; off += step) splits.push_back(off);
  return splits;
}

ChunkerConfig geometry(std::uint64_t ecs, std::uint32_t window) {
  ChunkerConfig c = ChunkerConfig::from_expected(ecs);
  c.window = window;
  return c;
}

/// Every (ECS, window) pair the suite covers.
std::vector<ChunkerConfig> geometries() {
  std::vector<ChunkerConfig> out;
  for (const std::uint64_t ecs : {512u, 1024u, 4096u, 8192u}) {
    for (const std::uint32_t window : {16u, 48u, 64u}) {
      out.push_back(geometry(ecs, window));
    }
  }
  return out;
}

/// The oracle's whole-buffer cuts; the fast chunker must match them under
/// the given split schedule.
void expect_matches_oracle(Kind kind, const ChunkerConfig& cfg, ByteSpan data,
                           const std::vector<std::size_t>& splits) {
  const auto oracle = make_oracle(kind, cfg);
  const auto fast = make_fast(kind, cfg);
  const auto ref = cut_points(*oracle, data, {});
  ASSERT_EQ(cut_points(*fast, data, splits), ref)
      << kind_name(kind) << " ecs=" << cfg.expected_size
      << " window=" << cfg.window << " splits=" << splits.size();
}

class RabinDifferential : public testing::TestWithParam<Kind> {};

INSTANTIATE_TEST_SUITE_P(Chunkers, RabinDifferential,
                         testing::Values(Kind::kRabin, Kind::kTttd),
                         [](const testing::TestParamInfo<Kind>& info) {
                           return std::string(kind_name(info.param));
                         });

TEST_P(RabinDifferential, ThousandRandomBuffers) {
  const auto configs = geometries();
  std::size_t buffers = 0;
  for (std::uint64_t seed = 1; seed <= 1008; ++seed) {
    const ChunkerConfig& cfg = configs[seed % configs.size()];
    Xoshiro256 rng(seed * 7919);
    // Up to two max-size chunks, so forced cuts occur at every ECS.
    const std::size_t n = 1 + rng() % (2 * cfg.max_size);
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
    expect_matches_oracle(GetParam(), cfg, random_bytes(n, seed), {});
    ++buffers;
  }
  EXPECT_GE(buffers, 1000u);
}

TEST_P(RabinDifferential, TwoPieceSplitAtEveryOffset) {
  for (const std::uint32_t window : {16u, 48u, 64u}) {
    const ChunkerConfig cfg = geometry(512, window);
    const ByteVec data = random_bytes(cfg.max_size + 333, window);
    const auto oracle = make_oracle(GetParam(), cfg);
    const auto ref = cut_points(*oracle, data, {});
    ASSERT_GT(ref.size(), 2u);
    for (std::size_t split = 1; split < data.size(); ++split) {
      const auto fast = make_fast(GetParam(), cfg);
      ASSERT_EQ(cut_points(*fast, data, {split}), ref)
          << "window=" << window << " split=" << split;
    }
  }
}

TEST_P(RabinDifferential, PieceSizesModPrimes) {
  for (const ChunkerConfig& cfg : geometries()) {
    const ByteVec data = random_bytes(6 * cfg.max_size, cfg.expected_size);
    for (const std::size_t prime : {3u, 61u, 257u, 1021u, 4099u}) {
      SCOPED_TRACE(testing::Message() << "prime=" << prime);
      expect_matches_oracle(GetParam(), cfg, data, every(prime, data.size()));
    }
  }
}

// Zero bytes never match the nonzero magic, so every chunk is forced at
// max_size: the case the per-span forced-cut limit must get right.
TEST_P(RabinDifferential, AllZeroBufferForcedCuts) {
  for (const ChunkerConfig& cfg : geometries()) {
    const ByteVec data(3 * cfg.max_size + 17, 0);
    expect_matches_oracle(GetParam(), cfg, data, {});
    expect_matches_oracle(GetParam(), cfg, data, every(1021, data.size()));
    const auto fast = make_fast(GetParam(), cfg);
    const auto cuts = cut_points(*fast, data, {});
    ASSERT_EQ(cuts.size(), 3u);
    EXPECT_EQ(cuts.front(), cfg.max_size);
  }
}

// Periods around the window widths: the window content repeats, so a cut
// either fires every period or never.
TEST_P(RabinDifferential, PeriodicBuffers) {
  for (const ChunkerConfig& cfg : geometries()) {
    for (const std::size_t period : {1u, 3u, 16u, 47u, 48u, 49u, 64u, 255u}) {
      SCOPED_TRACE(testing::Message() << "period=" << period);
      const ByteVec data = periodic_bytes(3 * cfg.max_size, period, period);
      expect_matches_oracle(GetParam(), cfg, data, {});
    }
  }
}

// Pieces and buffer lengths landing exactly on the skip prefix and on the
// min/expected/max transitions, give or take a window.
TEST_P(RabinDifferential, BoundaryAdversarialLengthsAndSplits) {
  for (const ChunkerConfig& cfg : geometries()) {
    std::vector<std::size_t> interesting;
    for (const std::size_t base :
         {static_cast<std::size_t>(hash_start(cfg)),
          static_cast<std::size_t>(cfg.min_size),
          static_cast<std::size_t>(cfg.expected_size),
          static_cast<std::size_t>(cfg.max_size)}) {
      for (const std::size_t delta : {0u, 1u, cfg.window - 1, cfg.window}) {
        interesting.push_back(base + delta);
        if (base > delta) interesting.push_back(base - delta);
      }
    }
    std::sort(interesting.begin(), interesting.end());
    interesting.erase(std::unique(interesting.begin(), interesting.end()),
                      interesting.end());
    interesting.erase(std::remove(interesting.begin(), interesting.end(), 0u),
                      interesting.end());

    const ByteVec data = random_bytes(2 * cfg.max_size + 1, cfg.window);
    expect_matches_oracle(GetParam(), cfg, data, interesting);
    for (const std::size_t n : interesting) {
      SCOPED_TRACE(testing::Message() << "length=" << n);
      expect_matches_oracle(GetParam(), cfg, ByteSpan(data).first(n), {});
    }
  }
}

/// SHA-1 over the chunk lengths (8-byte little-endian each) that
/// ChunkStream emits for `data`.
std::string chunk_length_digest(Chunker& chunker, ByteSpan data) {
  MemorySource src(data);
  ChunkStream stream(src, chunker);
  ByteVec chunk;
  ByteVec lengths;
  while (stream.next(chunk)) {
    const std::uint64_t len = chunk.size();
    for (int i = 0; i < 8; ++i) {
      lengths.push_back(static_cast<Byte>(len >> (8 * i)));
    }
  }
  return Sha1::hash(lengths).hex();
}

// Captured from the original byte-at-a-time loops: an 8 MiB Xoshiro256
// buffer (seed 4096) at ECS 4096, window 48. Code and oracle cannot drift
// together past this.
TEST_P(RabinDifferential, GoldenChunkLengthsAtEcs4096) {
  const ByteVec data = random_bytes(8u << 20, 4096);
  const ChunkerConfig cfg = ChunkerConfig::from_expected(4096);
  const std::string want = GetParam() == Kind::kRabin
                               ? "c98bb41151f0c9629ed60a1d91be324e0f102bd5"
                               : "97df8684824df6347ee7715f7bd0d7bcd9ad8419";
  EXPECT_EQ(chunk_length_digest(*make_fast(GetParam(), cfg), data), want);
  EXPECT_EQ(chunk_length_digest(*make_oracle(GetParam(), cfg), data), want);
}

// Eight threads build their first chunker for a (window, poly) no other
// test uses at the same moment, so they race on the shared-table build;
// every thread must cut the buffer the same way.
TEST_P(RabinDifferential, ConcurrentFirstConstructionAgrees) {
  constexpr int kThreads = 8;
  const Kind kind = GetParam();
  const ChunkerConfig cfg = geometry(1024, kind == Kind::kRabin ? 37 : 41);
  const ByteVec data = random_bytes(1u << 20, 8);
  std::vector<std::vector<std::size_t>> cuts(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const auto chunker = make_fast(kind, cfg);
      cuts[static_cast<std::size_t>(t)] = cut_points(*chunker, data, {});
    });
  }
  for (auto& th : threads) th.join();
  const auto oracle = make_oracle(kind, cfg);
  const auto ref = cut_points(*oracle, data, {});
  ASSERT_FALSE(ref.empty());
  for (std::size_t t = 0; t < cuts.size(); ++t) {
    EXPECT_EQ(cuts[t], ref) << "thread " << t;
  }
}

bool same_tables(const RabinTables& a, const RabinTables& b) {
  return a.poly == b.poly && a.degree == b.degree && a.append == b.append &&
         a.remove == b.remove;
}

// The cache keys on both window and poly: each pair gets its own tables,
// equal to a from-scratch build, and asking again returns the same ones.
TEST(RabinTables, SharedEqualsFreshBuildForWindowAndPoly) {
  constexpr std::uint64_t kOtherPoly = 0xB2D06A3F4C1E8957ULL;
  const std::size_t w = RabinFingerprint::kDefaultWindow;
  const std::uint64_t p = RabinFingerprint::kDefaultPoly;
  const RabinTables& def = RabinTables::shared(w, p);
  const RabinTables& other_window = RabinTables::shared(31, p);
  const RabinTables& other_poly = RabinTables::shared(w, kOtherPoly);

  EXPECT_TRUE(same_tables(def, RabinTables::build(w, p)));
  EXPECT_TRUE(same_tables(other_window, RabinTables::build(31, p)));
  EXPECT_TRUE(same_tables(other_poly, RabinTables::build(w, kOtherPoly)));
  EXPECT_NE(other_window.remove, def.remove);
  EXPECT_EQ(other_window.append, def.append);  // append ignores the window
  EXPECT_NE(other_poly.append, def.append);
  EXPECT_EQ(&RabinTables::shared(31, p), &other_window);
  EXPECT_EQ(&RabinFingerprint(31).tables(), &other_window);
  EXPECT_EQ(&RabinFingerprint(w, kOtherPoly).tables(), &other_poly);
}

}  // namespace
}  // namespace mhd
