// Rabin fingerprinting by random polynomials (Rabin, 1981), the rolling
// hash used by the content-defined chunkers.
//
// The fingerprint of a byte window is the residue of its polynomial over
// GF(2) modulo a fixed irreducible polynomial P. Rolling a byte in/out is
// O(1) via two precomputed 256-entry tables:
//   append[o] = (o * x^deg(P))       mod P   (reduces the 8 overflow bits
//                                             of f*x^8)
//   remove[b] = (b * x^(8*(w-1)))    mod P   (cancels the outgoing byte's
//                                             contribution)
// The tables depend only on (w, P): they are built once per process for
// each pair and shared read-only by every RabinFingerprint.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd {

/// The two roll tables for one (window, poly) pair.
struct RabinTables {
  std::uint64_t poly = 0;
  int degree = 0;
  std::array<std::uint64_t, 256> append{};
  std::array<std::uint64_t, 256> remove{};

  /// Builds the tables from scratch (what shared() caches).
  static RabinTables build(std::size_t window, std::uint64_t poly);

  /// The process-wide tables for (window, poly), built on first use.
  /// Thread-safe; the reference stays valid for the life of the process.
  static const RabinTables& shared(std::size_t window, std::uint64_t poly);
};

/// One step of the Rabin recurrence, the only place it is written. Holds
/// the table pointers and degree constants by value so a scan loop that
/// keeps a RabinRoll in a local keeps them in registers.
struct RabinRoll {
  const std::uint64_t* append;
  const std::uint64_t* remove;
  int top_shift;            ///< deg(P) - 8: where the overflow byte starts
  std::uint64_t low_mask;   ///< x^deg(P) - 1

  explicit RabinRoll(const RabinTables& t)
      : append(t.append.data()),
        remove(t.remove.data()),
        top_shift(t.degree - 8),
        low_mask((1ULL << t.degree) - 1) {}

  /// Drops `out` (the byte leaving the window) from `f` and appends `in`.
  std::uint64_t operator()(std::uint64_t f, Byte out, Byte in) const {
    f ^= remove[out];
    return ((f << 8) & low_mask) ^ append[f >> top_shift] ^ in;
  }
};

class RabinFingerprint {
 public:
  /// Degree-63 irreducible polynomial (LBFS lineage); fingerprints < 2^63.
  static constexpr std::uint64_t kDefaultPoly = 0xBFE6B8A5BF378D83ULL;
  static constexpr std::size_t kDefaultWindow = 48;

  explicit RabinFingerprint(std::size_t window = kDefaultWindow,
                            std::uint64_t poly = kDefaultPoly);

  /// Clears the window and fingerprint.
  void reset();

  /// Rolls `b` into the window (and the byte `window` positions back out).
  /// Returns the new fingerprint.
  std::uint64_t push(Byte b) {
    roll_until(ByteSpan(&b, 1),
               [](std::uint64_t, std::size_t) { return false; });
    return fp_;
  }

  struct RollResult {
    std::size_t rolled = 0;  ///< bytes of the span pushed
    bool stopped = false;    ///< `stop` returned true on the last of them
  };

  /// Pushes the bytes of `data` in order and stops after the first byte
  /// for which `stop(fingerprint, k)` is true, k being the number of bytes
  /// pushed so far (1-based). The fingerprint, ring index and table
  /// pointers stay in locals for the whole span.
  template <typename Stop>
  RollResult roll_until(ByteSpan data, Stop&& stop) {
    const RabinRoll roll(*tables_);
    Byte* const ring = window_.data();
    const std::size_t w = window_.size();
    const Byte* const in = data.data();
    const std::size_t n = data.size();
    std::uint64_t f = fp_;
    std::size_t r = pos_;
    RollResult res;
    std::size_t k = 0;
    while (k < n) {
      const Byte b = in[k];
      const Byte out = ring[r];
      ring[r] = b;
      r = (r + 1 == w) ? 0 : r + 1;
      f = roll(f, out, b);
      ++k;
      if (stop(f, k)) {
        res.stopped = true;
        break;
      }
    }
    fp_ = f;
    pos_ = r;
    res.rolled = k;
    return res;
  }

  std::uint64_t value() const { return fp_; }
  std::size_t window_size() const { return window_.size(); }
  std::uint64_t poly() const { return tables_->poly; }
  const RabinTables& tables() const { return *tables_; }

  /// Non-rolling fingerprint of an entire buffer (for tests: rolling over a
  /// buffer must agree with the direct fingerprint of its last w bytes).
  std::uint64_t fingerprint(ByteSpan data) const;

 private:
  const RabinTables* tables_;
  std::vector<Byte> window_;
  std::size_t pos_ = 0;
  std::uint64_t fp_ = 0;
};

/// Degree of a GF(2) polynomial (position of the highest set bit), -1 for 0.
int poly_degree(std::uint64_t p);

/// (value << shift) mod p over GF(2); deg(p) must be <= 63.
std::uint64_t poly_mod_shifted(std::uint64_t value, int shift, std::uint64_t p);

}  // namespace mhd
