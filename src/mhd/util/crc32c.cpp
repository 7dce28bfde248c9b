#include "mhd/util/crc32c.h"

#include <array>

#include "mhd/util/cpufeatures.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define MHD_CRC32C_X86_KERNEL 1
#endif

namespace mhd {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

/// Slice-by-8 lookup tables, built once at first use. Table 0 is the
/// classic byte-at-a-time table; tables 1..7 fold 8 input bytes per
/// iteration into a single combined update.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint32_t crc32c_portable(std::uint32_t crc, const Byte* data,
                              std::size_t len) {
  const auto& t = tables().t;
  std::uint32_t c = ~crc;
  // Align to 8 bytes so the sliced loop reads whole words.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7) != 0) {
    c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
    --len;
  }
  while (len >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, data, 8);
    word ^= c;  // little-endian fold of the running CRC into the low half
    c = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
        t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
        t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
        t[1][(word >> 48) & 0xFF] ^ t[0][(word >> 56) & 0xFF];
    data += 8;
    len -= 8;
  }
  while (len-- > 0) c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
  return ~c;
}

#ifdef MHD_CRC32C_X86_KERNEL

namespace {

/// A GF(2) 32×32 matrix acting on a raw (uninverted) CRC register; entry i
/// is the image of register bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;

std::uint32_t gf2_times(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) sum ^= m[i];
  }
  return sum;
}

/// Byte-wise tables for the operator that feeds `len` zero bytes (a power
/// of two) through a raw CRC register, after Mark Adler's crc32c.c.
/// Because the register update is linear, the register after A ++ B is
/// shift_|B|(register after A) ^ (register after B from zero): that is how
/// independently computed lanes merge.
struct ZeroShift {
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  explicit ZeroShift(std::size_t len) {
    Gf2Matrix op{};  // one zero bit: bit 0 folds in the polynomial
    op[0] = kPoly;
    for (std::size_t i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
    for (std::size_t bits = 1; bits < 8 * len; bits *= 2) {
      Gf2Matrix sq{};  // squaring doubles the number of zero bits
      for (std::size_t i = 0; i < 32; ++i) sq[i] = gf2_times(op, op[i]);
      op = sq;
    }
    for (std::uint32_t b = 0; b < 256; ++b) {
      for (std::size_t k = 0; k < 4; ++k) t[k][b] = gf2_times(op, b << (8 * k));
    }
  }

  std::uint32_t operator()(std::uint64_t c) const {
    return t[0][c & 0xFF] ^ t[1][(c >> 8) & 0xFF] ^ t[2][(c >> 16) & 0xFF] ^
           t[3][(c >> 24) & 0xFF];
  }
};

/// Lane block sizes: 3 × 8 KiB while the input lasts, then 3 × 256 B,
/// then 3 × 64 B. Each merge costs two table shifts, so long blocks
/// amortize it; the short tiers keep a 4 KiB record's tail and a 512 B
/// input off the single chain.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;
constexpr std::size_t kTinyBlock = 64;

struct LaneShifts {
  ZeroShift long_block{kLongBlock};
  ZeroShift short_block{kShortBlock};
  ZeroShift tiny_block{kTinyBlock};
};

const LaneShifts& lane_shifts() {
  static const LaneShifts s;
  return s;
}

/// Runs three independent crc32 chains over each run of three adjacent
/// kBlock-byte blocks and merges them into `c`: the instruction issues one
/// per cycle but takes three to finish, so a single chain runs at a third
/// of its throughput.
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) inline std::uint64_t crc_three_lanes(
    std::uint64_t c, const Byte*& data, std::size_t& len,
    const ZeroShift& shift) {
  while (len >= 3 * kBlock) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (const Byte* end = data + kBlock; data < end; data += 8) {
      std::uint64_t w0 = 0;
      std::uint64_t w1 = 0;
      std::uint64_t w2 = 0;
      __builtin_memcpy(&w0, data, 8);
      __builtin_memcpy(&w1, data + kBlock, 8);
      __builtin_memcpy(&w2, data + 2 * kBlock, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = shift(c) ^ c1;
    c = shift(c) ^ c2;
    data += 2 * kBlock;
    len -= 3 * kBlock;
  }
  return c;
}

/// Every whole lane round of the input, longest blocks first. Out of line
/// so that short inputs do not pay for its stack frame.
__attribute__((target("sse4.2"), noinline)) std::uint64_t crc_lane_rounds(
    std::uint64_t c, const Byte*& data, std::size_t& len) {
  const LaneShifts& shifts = lane_shifts();
  c = crc_three_lanes<kLongBlock>(c, data, len, shifts.long_block);
  c = crc_three_lanes<kShortBlock>(c, data, len, shifts.short_block);
  return crc_three_lanes<kTinyBlock>(c, data, len, shifts.tiny_block);
}

}  // namespace

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const Byte* data, std::size_t len) {
  std::uint32_t c32 = ~crc;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(data) & 7) != 0) {
    c32 = _mm_crc32_u8(c32, *data++);
    --len;
  }
  std::uint64_t c = c32;
  if (len >= 3 * kTinyBlock) c = crc_lane_rounds(c, data, len);
  // What is left (under 192 bytes) runs as one chain, 8 bytes per issue.
  while (len >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, data, 8);
    c = _mm_crc32_u64(c, word);
    data += 8;
    len -= 8;
  }
  c32 = static_cast<std::uint32_t>(c);
  while (len-- > 0) c32 = _mm_crc32_u8(c32, *data++);
  return ~c32;
}

#endif  // MHD_CRC32C_X86_KERNEL

std::span<const Crc32cKernelInfo> crc32c_kernels() {
  static const std::array<Crc32cKernelInfo,
#ifdef MHD_CRC32C_X86_KERNEL
                          2
#else
                          1
#endif
                          >
      kernels = {{
          {"portable", &crc32c_portable, true},
#ifdef MHD_CRC32C_X86_KERNEL
          {"sse42", &crc32c_sse42, cpu_features().sse42},
#endif
      }};
  return {kernels.data(), kernels.size()};
}

namespace {

const Crc32cKernelInfo& dispatch() {
  static const Crc32cKernelInfo& best = [] {
    const auto kernels = crc32c_kernels();
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it) {
      if (it->supported) return *it;
    }
    return kernels.front();
  }();
  return best;
}

}  // namespace

std::uint32_t crc32c(std::uint32_t crc, ByteSpan data) {
  return dispatch().fn(crc, data.data(), data.size());
}

const char* crc32c_impl_name() { return dispatch().name; }

}  // namespace mhd
