// Framing formats and the FramedBackend decorator: sealed objects, record
// streams, torn/corrupt classification, logical accounting, and the
// absent-vs-corrupt error split the whole recovery path depends on.
#include "mhd/store/framing.h"

#include <gtest/gtest.h>

#include <limits>

#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

ByteVec bytes_of(const std::string& s) { return to_vec(as_bytes(s)); }

TEST(Framing, SealedObjectRoundTrip) {
  const ByteVec payload = bytes_of("hello manifest");
  const ByteVec framed = framing::seal_object(payload);
  EXPECT_EQ(framed.size(), payload.size() + framing::kTrailerBytes);
  const auto back = framing::unseal_object(framed);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);

  // Empty payload is a valid sealed object.
  const ByteVec empty = framing::seal_object({});
  EXPECT_EQ(empty.size(), framing::kTrailerBytes);
  ASSERT_TRUE(framing::unseal_object(empty).has_value());
  EXPECT_TRUE(framing::unseal_object(empty)->empty());
}

TEST(Framing, SealedObjectDetectsEveryByteFlip) {
  const ByteVec framed = framing::seal_object(bytes_of("sensitive"));
  for (std::size_t i = 0; i < framed.size(); ++i) {
    ByteVec bad = framed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(framing::unseal_object(bad).has_value()) << "byte " << i;
  }
}

TEST(Framing, SealedObjectDetectsTruncationAndGarbage) {
  const ByteVec framed = framing::seal_object(bytes_of("0123456789"));
  for (std::size_t keep = 0; keep < framed.size(); ++keep) {
    const ByteVec torn(framed.begin(),
                       framed.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(framing::unseal_object(torn).has_value()) << "keep " << keep;
  }
  EXPECT_FALSE(framing::unseal_object(bytes_of("raw unframed")).has_value());
}

TEST(Framing, RecordStreamRoundTrip) {
  ByteVec stream;
  ByteVec logical;
  for (const std::string part : {"first", "", "second-longer-part", "x"}) {
    mhd::append(stream, framing::frame_record(as_bytes(part)));
    mhd::append(logical, as_bytes(part));
  }
  mhd::append(stream, framing::seal_record(logical.size()));

  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.sealed);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records, 4u);
  EXPECT_EQ(scan.logical_bytes, logical.size());
  EXPECT_EQ(scan.valid_prefix, stream.size());

  const auto payload = framing::extract_stream(stream);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, logical);
}

TEST(Framing, UnsealedStreamIsTorn) {
  // A stream cut exactly at a record boundary, seal never written: the
  // whole point of the seal record is that this is still detectable.
  ByteVec stream = framing::frame_record(as_bytes("complete record"));
  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.torn);
  EXPECT_FALSE(scan.sealed);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_EQ(scan.logical_bytes, 15u);
  EXPECT_EQ(scan.valid_prefix, stream.size());
  EXPECT_FALSE(framing::extract_stream(stream).has_value());
}

TEST(Framing, TornTailKeepsValidPrefix) {
  ByteVec stream = framing::frame_record(as_bytes("keep me"));
  const std::size_t prefix = stream.size();
  mhd::append(stream, framing::frame_record(as_bytes("torn away")));
  mhd::append(stream, framing::seal_record(7 + 9));
  // Tear at every length inside the second record + seal.
  for (std::size_t keep = prefix + 1; keep < stream.size(); ++keep) {
    const ByteVec torn(stream.begin(),
                       stream.begin() + static_cast<std::ptrdiff_t>(keep));
    const auto scan = framing::scan_records(torn);
    EXPECT_FALSE(scan.sealed) << "keep " << keep;
    EXPECT_TRUE(scan.torn || scan.corrupt) << "keep " << keep;
    // The salvageable prefix never shrinks below the first record and
    // never claims bytes from the torn tail.
    EXPECT_GE(scan.valid_prefix, prefix) << "keep " << keep;
    EXPECT_GE(scan.logical_bytes, 7u) << "keep " << keep;
  }
}

TEST(Framing, CorruptRecordPayloadDetected) {
  ByteVec stream = framing::frame_record(as_bytes("aaaa"));
  mhd::append(stream, framing::frame_record(as_bytes("bbbb")));
  mhd::append(stream, framing::seal_record(8));
  // Flip one payload byte in the second record.
  stream[framing::kHeaderBytes + 4 + framing::kHeaderBytes + 2] ^= 0x80;
  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.sealed);
  EXPECT_EQ(scan.logical_bytes, 4u);  // first record still salvageable
  EXPECT_EQ(scan.valid_prefix, framing::kHeaderBytes + 4);
}

TEST(Framing, SealLengthMismatchIsCorrupt) {
  ByteVec stream = framing::frame_record(as_bytes("data"));
  mhd::append(stream, framing::seal_record(99));  // lies about the length
  const auto scan = framing::scan_records(stream);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.sealed);
}

TEST(Framing, BytesAfterSealAreCorrupt) {
  ByteVec stream = framing::frame_record(as_bytes("data"));
  mhd::append(stream, framing::seal_record(4));
  mhd::append(stream, framing::frame_record(as_bytes("late append")));
  EXPECT_TRUE(framing::scan_records(stream).corrupt);
}

TEST(Framing, FusedWalkUnframesCleanStream) {
  ByteVec stream;
  ByteVec logical;
  for (const std::string part : {"alpha", "", "beta-gamma", "d"}) {
    mhd::append(stream, framing::frame_record(as_bytes(part)));
    mhd::append(logical, as_bytes(part));
  }
  mhd::append(stream, framing::seal_record(logical.size()));

  ByteVec out;
  const auto scan = framing::scan_records(stream, &out);
  EXPECT_TRUE(scan.clean());
  EXPECT_EQ(out, logical);
  EXPECT_EQ(out.capacity(), logical.size());  // one exact reservation

  // Every sub-range, across record boundaries, copies just those bytes.
  for (std::size_t off = 0; off <= logical.size(); ++off) {
    for (std::size_t len = 0; off + len <= logical.size(); ++len) {
      ByteVec part;
      EXPECT_TRUE(framing::scan_records(stream, &part, {off, len}).clean());
      const auto from = logical.begin() + static_cast<std::ptrdiff_t>(off);
      EXPECT_EQ(part, ByteVec(from, from + static_cast<std::ptrdiff_t>(len)))
          << "off " << off << " len " << len;
      EXPECT_EQ(part.capacity(), len);
    }
  }
}

TEST(Framing, HostileSealClaimIsCorruptWithoutOverAllocation) {
  ByteVec records = framing::frame_record(as_bytes("aaaa"));
  mhd::append(records, framing::frame_record(as_bytes("bbbb")));

  // Each seal carries a valid CRC, so only its claim gives it away: 2^63
  // bytes, and a claim larger than the records hold that still fits the
  // framed size.
  for (const std::uint64_t claim :
       {std::uint64_t{1} << 63, std::uint64_t{8 + 9}}) {
    ByteVec stream = records;
    mhd::append(stream, framing::seal_record(claim));

    ByteVec out;
    const auto scan = framing::scan_records(stream, &out);
    EXPECT_TRUE(scan.corrupt) << claim;
    EXPECT_FALSE(scan.sealed) << claim;
    EXPECT_EQ(scan.records, 2u) << claim;
    EXPECT_LE(out.capacity(), stream.size()) << claim;
    EXPECT_FALSE(framing::extract_stream(stream).has_value()) << claim;

    MemoryBackend raw;
    raw.put(Ns::kContainer, "c0", stream);
    FramedBackend framed(raw);
    EXPECT_THROW(framed.get(Ns::kContainer, "c0"), CorruptObjectError);
    EXPECT_THROW(framed.get_range(Ns::kContainer, "c0", 0, 4),
                 CorruptObjectError);
  }
}

// --- FramedBackend -------------------------------------------------------

TEST(FramedBackend, LogicalViewMatchesBareBackend) {
  MemoryBackend raw;
  FramedBackend framed(raw);

  const ByteVec a = bytes_of("chunk-part-one");
  const ByteVec b = bytes_of("chunk-part-two!");
  framed.append(Ns::kDiskChunk, "c0", a);
  framed.append(Ns::kDiskChunk, "c0", b);
  framed.seal(Ns::kDiskChunk, "c0");
  framed.put(Ns::kHook, "h0", bytes_of("hookdata"));

  // Logical view: exactly the payload bytes.
  EXPECT_EQ(framed.content_bytes(Ns::kDiskChunk), a.size() + b.size());
  EXPECT_EQ(framed.content_bytes(Ns::kHook), 8u);
  ByteVec whole = a;
  mhd::append(whole, b);
  EXPECT_EQ(framed.get(Ns::kDiskChunk, "c0"), whole);
  const auto range = framed.get_range(Ns::kDiskChunk, "c0", a.size(), 4);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range, bytes_of("chun"));

  // Physical view: framing overhead on top.
  EXPECT_EQ(framed.physical_bytes(Ns::kDiskChunk),
            a.size() + b.size() + 2 * framing::kHeaderBytes +
                framing::kSealBytes);
  EXPECT_GT(framed.physical_bytes(Ns::kHook),
            framed.content_bytes(Ns::kHook));
}

TEST(FramedBackend, AbsentIsNulloptCorruptThrows) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  EXPECT_EQ(framed.get(Ns::kManifest, "missing"), std::nullopt);
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "missing", 0, 1), std::nullopt);

  framed.put(Ns::kManifest, "m0", bytes_of("manifest body"));
  // Flip one stored byte underneath the framing: the exact bit-rot the
  // acceptance criteria require to be caught on read, never returned.
  for (std::size_t i = 0; i < raw.get(Ns::kManifest, "m0")->size(); ++i) {
    ByteVec bad = *raw.get(Ns::kManifest, "m0");
    bad[i] ^= 0x40;
    MemoryBackend raw2;
    raw2.put(Ns::kManifest, "m0", bad);
    FramedBackend framed2(raw2);
    EXPECT_THROW(framed2.get(Ns::kManifest, "m0"), CorruptObjectError);
  }
}

TEST(FramedBackend, CorruptErrorCarriesNamespaceAndName) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.put(Ns::kHook, "deadbeef", bytes_of("payload"));
  (*raw.get(Ns::kHook, "deadbeef"));
  ByteVec bad = *raw.get(Ns::kHook, "deadbeef");
  bad[0] ^= 0xFF;
  raw.put(Ns::kHook, "deadbeef", bad);
  try {
    framed.get(Ns::kHook, "deadbeef");
    FAIL() << "expected CorruptObjectError";
  } catch (const CorruptObjectError& e) {
    EXPECT_EQ(e.ns(), Ns::kHook);
    EXPECT_EQ(e.object_name(), "deadbeef");
    EXPECT_NE(std::string(e.what()).find("hooks/deadbeef"), std::string::npos);
  }
}

TEST(FramedBackend, TornChunkThrowsOnRead) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.append(Ns::kDiskChunk, "c0", bytes_of("0123456789abcdef"));
  framed.seal(Ns::kDiskChunk, "c0");
  // Simulate a torn write: drop the last 5 physical bytes.
  ByteVec phys = *raw.get(Ns::kDiskChunk, "c0");
  phys.resize(phys.size() - 5);
  raw.put(Ns::kDiskChunk, "c0", phys);
  EXPECT_THROW(framed.get(Ns::kDiskChunk, "c0"), CorruptObjectError);
  EXPECT_THROW(framed.get_range(Ns::kDiskChunk, "c0", 0, 4),
               CorruptObjectError);
}

TEST(FramedBackend, StreamRangeReadChecksEveryRecord) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  for (const std::string part : {"0123", "4567", "89ab"}) {
    framed.append(Ns::kDiskChunk, "c0", as_bytes(part));
  }
  framed.seal(Ns::kDiskChunk, "c0");
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 3, 6), bytes_of("345678"));

  // Rot in the last record still fails a range that ends before it.
  ByteVec phys = *raw.get(Ns::kDiskChunk, "c0");
  phys[3 * framing::kHeaderBytes + 8 + 1] ^= 0x04;
  raw.put(Ns::kDiskChunk, "c0", phys);
  EXPECT_THROW(framed.get_range(Ns::kDiskChunk, "c0", 0, 2),
               CorruptObjectError);
}

TEST(FramedBackend, RangeBeyondLogicalSizeIsNullopt) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.put(Ns::kDiskChunk, "c0", bytes_of("0123456789"));
  EXPECT_TRUE(framed.get_range(Ns::kDiskChunk, "c0", 0, 10).has_value());
  EXPECT_TRUE(framed.get_range(Ns::kDiskChunk, "c0", 10, 0).has_value());
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 0, 11), std::nullopt);
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 11, 0), std::nullopt);
  // Overflow-crafted range must not wrap into success.
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, "c0", 1,
                             std::numeric_limits<std::uint64_t>::max()),
            std::nullopt);
}

TEST(FramedBackend, ReopenAdoptsLogicalAccounting) {
  MemoryBackend raw;
  {
    FramedBackend framed(raw);
    framed.append(Ns::kDiskChunk, "c0", bytes_of("0123456789"));
    framed.seal(Ns::kDiskChunk, "c0");
    framed.put(Ns::kManifest, "m0", bytes_of("manifest"));
    framed.put(Ns::kHook, "h0", bytes_of("hook"));
    framed.put(Ns::kHook, "h1", bytes_of("hook2"));
    framed.remove(Ns::kHook, "h0");
  }
  FramedBackend reopened(raw);
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 10u);
  EXPECT_EQ(reopened.content_bytes(Ns::kManifest), 8u);
  EXPECT_EQ(reopened.content_bytes(Ns::kHook), 5u);
  EXPECT_EQ(reopened.object_count(Ns::kHook), 1u);
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c0"), bytes_of("0123456789"));
  // Appending more after reopen continues the stream correctly.
  reopened.append(Ns::kDiskChunk, "c1", bytes_of("more"));
  reopened.seal(Ns::kDiskChunk, "c1");
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c1"), bytes_of("more"));
}

TEST(FramedBackend, PutReplaceAndRemoveKeepAccountingExact) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  framed.put(Ns::kManifest, "m", bytes_of("short"));
  framed.put(Ns::kManifest, "m", bytes_of("a much longer manifest body"));
  EXPECT_EQ(framed.content_bytes(Ns::kManifest), 27u);
  framed.put(Ns::kManifest, "m", bytes_of("tiny"));
  EXPECT_EQ(framed.content_bytes(Ns::kManifest), 4u);
  EXPECT_TRUE(framed.remove(Ns::kManifest, "m"));
  EXPECT_EQ(framed.content_bytes(Ns::kManifest), 0u);
  EXPECT_EQ(framed.physical_bytes(Ns::kManifest), 0u);
  EXPECT_FALSE(framed.remove(Ns::kManifest, "m"));
}

}  // namespace
}  // namespace mhd
