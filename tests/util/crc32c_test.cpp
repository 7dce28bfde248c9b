// CRC32C kernel correctness and differential lockdown: known vectors,
// chaining, and bit-identical output from every compiled-in kernel across
// lengths, alignments and contents. The framing layer's corruption
// detection is only as good as these invariants.
#include "mhd/util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>

#include "mhd/util/random.h"

namespace mhd {
namespace {

std::uint32_t crc_of(const std::string& s) {
  return crc32c(0, as_bytes(s));
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / common test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xC1D04330u);
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
  // 32 bytes of zeros (iSCSI test pattern).
  const ByteVec zeros(32, 0);
  EXPECT_EQ(crc32c(0, zeros), 0x8A9136AAu);
  const ByteVec ones(32, 0xFF);
  EXPECT_EQ(crc32c(0, ones), 0x62A8AB43u);
}

TEST(Crc32c, ChainingMatchesOneShot) {
  Xoshiro256 rng(7);
  ByteVec data(4096);
  for (auto& b : data) b = static_cast<Byte>(rng());
  const std::uint32_t whole = crc32c(0, data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}, data.size()}) {
    const std::uint32_t a = crc32c(0, {data.data(), split});
    const std::uint32_t b =
        crc32c(a, {data.data() + split, data.size() - split});
    EXPECT_EQ(b, whole) << "split=" << split;
  }
}

TEST(Crc32c, KernelsAreBitIdentical) {
  // Up to 1 MiB + 5 so the sse42 kernel's 3 × 8 KiB, 3 × 256 B and
  // 3 × 64 B lanes, their merges and the single-chain tail are all reached.
  constexpr std::size_t kMaxLen = (std::size_t{1} << 20) + 5;
  Xoshiro256 rng(11);
  ByteVec buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<Byte>(rng());

  int exercised = 0;
  for (const auto& k : crc32c_kernels()) {
    if (!k.supported) continue;
    ++exercised;
    // Sweep lengths around word boundaries and each lane threshold, at all
    // 8 alignments, from a fresh and from chained (nonzero) seeds.
    for (std::size_t align = 0; align < 8; ++align) {
      for (const std::size_t len :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
            std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16},
            std::size_t{63}, std::size_t{64}, std::size_t{65},
            std::size_t{255}, std::size_t{1024}, std::size_t{8191},
            std::size_t{3 * 64 - 1}, std::size_t{3 * 64},
            std::size_t{3 * 64 + 1}, std::size_t{512},
            std::size_t{3 * 256 - 1}, std::size_t{3 * 256},
            std::size_t{3 * 256 + 1}, std::size_t{2 * 3 * 256 + 9},
            std::size_t{3 * 8192 - 1}, std::size_t{3 * 8192},
            std::size_t{3 * 8192 + 1}, std::size_t{3 * 8192 + 3 * 256 + 13},
            kMaxLen}) {
        for (const std::uint32_t seed :
             {0u, 0xDEADBEEFu, 0xFFFFFFFFu, 0x00000001u}) {
          EXPECT_EQ(k.fn(seed, buf.data() + align, len),
                    crc32c_portable(seed, buf.data() + align, len))
              << k.name << " align=" << align << " len=" << len
              << " seed=" << seed;
        }
      }
    }
  }
  EXPECT_GE(exercised, 1);
  SCOPED_TRACE(std::string("dispatch resolves to ") + crc32c_impl_name());
}

TEST(Crc32c, RandomBuffersAcrossKernels) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 200; ++i) {
    const std::size_t len = rng.below(2048);
    ByteVec buf(len);
    for (auto& b : buf) b = static_cast<Byte>(rng());
    const std::uint32_t want = crc32c_portable(0, buf.data(), buf.size());
    EXPECT_EQ(crc32c(0, buf), want) << "i=" << i;
    for (const auto& k : crc32c_kernels()) {
      if (!k.supported) continue;
      EXPECT_EQ(k.fn(0, buf.data(), buf.size()), want)
          << k.name << " i=" << i;
    }
  }
  // Long buffers at random alignments and seeds, past several lane blocks.
  for (int i = 0; i < 60; ++i) {
    const std::size_t len = rng.below(4 * 3 * 8192);
    const std::size_t align = rng.below(8);
    const auto seed = static_cast<std::uint32_t>(rng());
    ByteVec buf(len + align);
    for (auto& b : buf) b = static_cast<Byte>(rng());
    const Byte* data = buf.data() + align;
    const std::uint32_t want = crc32c_portable(seed, data, len);
    EXPECT_EQ(crc32c(seed, {data, len}), want) << "long i=" << i;
    for (const auto& k : crc32c_kernels()) {
      if (!k.supported) continue;
      EXPECT_EQ(k.fn(seed, data, len), want)
          << k.name << " long i=" << i << " len=" << len;
    }
  }
}

TEST(Crc32c, EveryBitFlipChangesChecksum) {
  // The property framing relies on: CRC32C detects any single-bit error.
  ByteVec buf(64, 0x5A);
  const std::uint32_t clean = crc32c(0, buf);
  for (std::size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<Byte>(1u << bit);
      EXPECT_NE(crc32c(0, buf), clean) << "byte=" << byte << " bit=" << bit;
      buf[byte] ^= static_cast<Byte>(1u << bit);
    }
  }
}

}  // namespace
}  // namespace mhd
