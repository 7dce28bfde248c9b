// Differential lockdown of the fused verify-and-unframe walk. The
// original two-pass reader (a verifying scan, then a second walk that
// copies payloads out) is kept here as the oracle; scan_records with and
// without an output buffer, extract_stream and the FramedBackend reads
// must agree with it on every RecordScan field and every payload byte,
// over clean, torn, bit-flipped and over-long streams.
#include <gtest/gtest.h>

#include <string>

#include "mhd/store/framed_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/crc32c.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

using framing::kHeaderBytes;
using framing::RecordScan;

// --- Oracle: the two-pass reader -----------------------------------------

RecordScan oracle_scan(ByteSpan framed) {
  RecordScan scan;
  std::size_t pos = 0;
  while (pos + kHeaderBytes <= framed.size()) {
    const Byte* h = framed.data() + pos;
    const std::uint32_t magic = load_le<std::uint32_t>(h);
    if (magic != framing::kRecordMagic && magic != framing::kSealMagic) {
      scan.corrupt = true;
      return scan;
    }
    const std::uint32_t len = load_le<std::uint32_t>(h + 4);
    if (pos + kHeaderBytes + len > framed.size()) {
      scan.torn = true;
      return scan;
    }
    const ByteSpan payload = framed.subspan(pos + kHeaderBytes, len);
    if (load_le<std::uint32_t>(h + 8) != crc32c(0, payload)) {
      scan.corrupt = true;
      return scan;
    }
    if (magic == framing::kSealMagic) {
      if (len != 8 ||
          load_le<std::uint64_t>(payload.data()) != scan.logical_bytes) {
        scan.corrupt = true;
        return scan;
      }
      scan.sealed = true;
      pos += kHeaderBytes + len;
      scan.valid_prefix = pos;
      if (pos != framed.size()) scan.corrupt = true;
      return scan;
    }
    pos += kHeaderBytes + len;
    scan.logical_bytes += len;
    scan.valid_prefix = pos;
    ++scan.records;
  }
  scan.torn = true;
  return scan;
}

std::optional<ByteVec> oracle_extract(ByteSpan framed) {
  const RecordScan scan = oracle_scan(framed);
  if (!scan.sealed || scan.corrupt || scan.torn) return std::nullopt;
  ByteVec out;
  std::size_t pos = 0;
  while (pos + kHeaderBytes <= framed.size()) {
    const Byte* h = framed.data() + pos;
    const std::uint32_t magic = load_le<std::uint32_t>(h);
    const std::uint32_t len = load_le<std::uint32_t>(h + 4);
    if (magic == framing::kSealMagic) break;
    append(out, framed.subspan(pos + kHeaderBytes, len));
    pos += kHeaderBytes + len;
  }
  return out;
}

// --- Helpers ---------------------------------------------------------------

struct Stream {
  ByteVec framed;
  std::vector<std::size_t> record_starts;  ///< physical offset of each record
};

/// `records` data records of seeded lengths (about one in eight empty),
/// then the seal.
Stream make_stream(Xoshiro256& rng, std::size_t records,
                   std::size_t max_len) {
  Stream s;
  std::uint64_t logical = 0;
  for (std::size_t r = 0; r < records; ++r) {
    const std::size_t len = rng.below(8) == 0 ? 0 : rng.below(max_len + 1);
    ByteVec payload(len);
    for (auto& b : payload) b = static_cast<Byte>(rng());
    s.record_starts.push_back(s.framed.size());
    append(s.framed, framing::frame_record(payload));
    logical += len;
  }
  s.record_starts.push_back(s.framed.size());
  append(s.framed, framing::seal_record(logical));
  return s;
}

void expect_same_scan(const RecordScan& got, const RecordScan& want,
                      const std::string& what) {
  EXPECT_EQ(got.logical_bytes, want.logical_bytes) << what;
  EXPECT_EQ(got.valid_prefix, want.valid_prefix) << what;
  EXPECT_EQ(got.records, want.records) << what;
  EXPECT_EQ(got.sealed, want.sealed) << what;
  EXPECT_EQ(got.corrupt, want.corrupt) << what;
  EXPECT_EQ(got.torn, want.torn) << what;
}

/// Every reader of `framed` agrees with the oracle; the fused walk's
/// buffer never outgrows the framed bytes.
void expect_matches_oracle(ByteSpan framed, const std::string& what) {
  const RecordScan want = oracle_scan(framed);
  const std::optional<ByteVec> want_payload = oracle_extract(framed);

  expect_same_scan(framing::scan_records(framed), want, what + " (scan)");
  ByteVec out;
  const RecordScan fused = framing::scan_records(framed, &out);
  expect_same_scan(fused, want, what + " (fused)");
  EXPECT_EQ(fused.clean(), want_payload.has_value()) << what;
  if (want_payload) {
    EXPECT_EQ(out, *want_payload) << what;
  }
  EXPECT_LE(out.capacity(), framed.size()) << what;
  EXPECT_EQ(framing::extract_stream(framed), want_payload) << what;
}

/// FramedBackend over the same bytes: clean streams read back the oracle's
/// payload whole and by range, anything else throws a typed error.
void expect_backend_matches_oracle(const ByteVec& framed, Xoshiro256& rng,
                                   const std::string& what) {
  MemoryBackend raw;
  raw.put(Ns::kContainer, "c", framed);
  FramedBackend backend(raw);
  const std::optional<ByteVec> want = oracle_extract(framed);
  if (!want) {
    EXPECT_THROW(backend.get(Ns::kContainer, "c"), CorruptObjectError) << what;
    EXPECT_THROW(backend.get_range(Ns::kContainer, "c", 0, 0),
                 CorruptObjectError)
        << what;
    return;
  }
  EXPECT_EQ(backend.get(Ns::kContainer, "c"), want) << what;
  for (int i = 0; i < 8; ++i) {
    const std::size_t off = rng.below(want->size() + 1);
    const std::size_t len = rng.below(want->size() - off + 1);
    EXPECT_EQ(backend.get_range(Ns::kContainer, "c", off, len),
              ByteVec(want->begin() + static_cast<std::ptrdiff_t>(off),
                      want->begin() + static_cast<std::ptrdiff_t>(off + len)))
        << what << " off " << off << " len " << len;
  }
  EXPECT_EQ(backend.get_range(Ns::kContainer, "c", 0, want->size() + 1),
            std::nullopt)
      << what;
}

// --- Cases -------------------------------------------------------------------

TEST(FramingDifferential, CleanStreams) {
  Xoshiro256 rng(101);
  for (const std::size_t records :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{17}, std::size_t{256}, std::size_t{2000}}) {
    for (const std::size_t max_len :
         {std::size_t{0}, std::size_t{1}, std::size_t{64}, std::size_t{9000}}) {
      if (records * max_len > (4u << 20)) continue;
      const Stream s = make_stream(rng, records, max_len);
      const std::string what = "records " + std::to_string(records) +
                               " max_len " + std::to_string(max_len);
      expect_matches_oracle(s.framed, what);
      EXPECT_TRUE(framing::scan_records(s.framed).clean()) << what;
      expect_backend_matches_oracle(s.framed, rng, what);
    }
  }
}

TEST(FramingDifferential, ZeroLengthRecordsOnly) {
  ByteVec framed;
  for (int i = 0; i < 5; ++i) append(framed, framing::frame_record({}));
  append(framed, framing::seal_record(0));
  expect_matches_oracle(framed, "five empty records");
  Xoshiro256 rng(5);
  expect_backend_matches_oracle(framed, rng, "five empty records");
}

TEST(FramingDifferential, TornAtEveryByteOfTheLastTwoRecords) {
  Xoshiro256 rng(202);
  for (int trial = 0; trial < 6; ++trial) {
    const Stream s = make_stream(rng, 1 + rng.below(40), 300);
    // The last data record and the seal; with one data record, the whole
    // stream.
    const std::size_t from = s.record_starts[s.record_starts.size() - 2];
    for (std::size_t keep = from; keep < s.framed.size(); ++keep) {
      const ByteSpan torn = ByteSpan(s.framed).first(keep);
      expect_matches_oracle(torn, "trial " + std::to_string(trial) +
                                      " keep " + std::to_string(keep));
    }
  }
}

TEST(FramingDifferential, SingleBitFlipsInEveryField) {
  Xoshiro256 rng(303);
  for (int trial = 0; trial < 4; ++trial) {
    const Stream s = make_stream(rng, 2 + rng.below(12), 200);
    // Every header bit (magic, length, CRC) of the first, a middle and the
    // last data record, every bit of the seal, and sampled payload bits.
    std::vector<std::size_t> bits;
    const std::size_t seal = s.record_starts.back();
    for (const std::size_t r :
         {std::size_t{0}, (s.record_starts.size() - 1) / 2,
          s.record_starts.size() - 2}) {
      const std::size_t start = s.record_starts[r];
      for (std::size_t b = 0; b < 8 * kHeaderBytes; ++b) {
        bits.push_back(8 * start + b);
      }
      const std::size_t payload = s.record_starts[r + 1] - start - kHeaderBytes;
      for (int i = 0; i < 16 && payload > 0; ++i) {
        bits.push_back(8 * (start + kHeaderBytes) + rng.below(8 * payload));
      }
    }
    for (std::size_t b = 8 * seal; b < 8 * s.framed.size(); ++b) {
      bits.push_back(b);
    }
    for (const std::size_t bit : bits) {
      ByteVec bad = s.framed;
      bad[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
      const std::string what =
          "trial " + std::to_string(trial) + " bit " + std::to_string(bit);
      expect_matches_oracle(bad, what);
      EXPECT_FALSE(framing::scan_records(bad).clean()) << what;
    }
    ByteVec bad = s.framed;
    bad[seal + kHeaderBytes] ^= 0x01;  // seal payload: the claimed length
    expect_backend_matches_oracle(bad, rng, "seal claim flip");
  }
}

TEST(FramingDifferential, BytesAfterTheSeal) {
  Xoshiro256 rng(404);
  const Stream s = make_stream(rng, 9, 500);
  const ByteVec tails[] = {
      ByteVec{0x00},
      framing::frame_record(as_bytes("late append")),
      framing::seal_record(0),
      ByteVec(kHeaderBytes - 1, 0xAB),
  };
  for (const ByteVec& tail : tails) {
    ByteVec bad = s.framed;
    append(bad, tail);
    const std::string what = "tail " + std::to_string(tail.size());
    expect_matches_oracle(bad, what);
    EXPECT_TRUE(framing::scan_records(bad).corrupt) << what;
    expect_backend_matches_oracle(bad, rng, what);
  }
}

}  // namespace
}  // namespace mhd
