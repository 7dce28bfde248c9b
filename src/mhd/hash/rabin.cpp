#include "mhd/hash/rabin.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace mhd {

int poly_degree(std::uint64_t p) { return std::bit_width(p) - 1; }

std::uint64_t poly_mod_shifted(std::uint64_t value, int shift, std::uint64_t p) {
  const int dp = poly_degree(p);
  // Work on a 128-bit register so value << shift never overflows for the
  // shifts used here (shift <= 8*(w-1) is reduced iteratively instead).
  unsigned __int128 v = value;
  int deg = poly_degree(value);
  if (deg < 0) return 0;
  deg += shift;
  v <<= shift;
  while (deg >= dp) {
    if ((v >> deg) & 1) {
      v ^= static_cast<unsigned __int128>(p) << (deg - dp);
    }
    --deg;
  }
  return static_cast<std::uint64_t>(v);
}

RabinTables RabinTables::build(std::size_t window, std::uint64_t poly) {
  RabinTables t;
  t.poly = poly;
  t.degree = poly_degree(poly);
  // append: reduction of the 8 bits that overflow past deg(P) when the
  // fingerprint is multiplied by x^8.
  for (int i = 0; i < 256; ++i) {
    t.append[static_cast<std::size_t>(i)] =
        poly_mod_shifted(static_cast<std::uint64_t>(i), t.degree, poly);
  }
  // remove: contribution of a byte that is w-1 byte-positions old. Built
  // incrementally: start with b and raise by x^8 per window step, reducing
  // as we go (avoids shifts beyond 128 bits).
  for (int b = 0; b < 256; ++b) {
    std::uint64_t f = static_cast<std::uint64_t>(b);
    for (std::size_t step = 1; step < window; ++step) {
      f = poly_mod_shifted(f, 8, poly);
    }
    t.remove[static_cast<std::size_t>(b)] = f;
  }
  return t;
}

const RabinTables& RabinTables::shared(std::size_t window, std::uint64_t poly) {
  // Chunkers are built per file and per re-chunked big chunk, from several
  // threads at once; a lookup is one uncontended lock, a build happens
  // once per (window, poly) for the life of the process.
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::uint64_t>,
                  std::unique_ptr<const RabinTables>>
      cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[{window, poly}];
  if (!slot) slot = std::make_unique<const RabinTables>(build(window, poly));
  return *slot;
}

RabinFingerprint::RabinFingerprint(std::size_t window, std::uint64_t poly)
    : tables_(&RabinTables::shared(window, poly)), window_(window, 0) {}

void RabinFingerprint::reset() {
  std::fill(window_.begin(), window_.end(), Byte{0});
  pos_ = 0;
  fp_ = 0;
}

std::uint64_t RabinFingerprint::fingerprint(ByteSpan data) const {
  // remove[0] == 0, so rolling with a zero outgoing byte is a pure append.
  const RabinRoll roll(*tables_);
  std::uint64_t f = 0;
  for (Byte b : data) f = roll(f, 0, b);
  return f;
}

}  // namespace mhd
