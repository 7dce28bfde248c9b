// Self-verifying object framing — the byte-level formats that make every
// stored object checkable after a crash or bit flip.
//
// Two formats, chosen per namespace:
//
//  * Sealed objects (Hooks, Manifests, FileManifests — written atomically
//    via put): the payload followed by a 12-byte trailer
//        [magic "MTR1"][payload len u32][crc32c(payload) u32]
//    A whole-object read re-checks the CRC; any flipped bit or truncation
//    is detected. The trailer sits at the *end* so a torn write (prefix
//    persisted) never leaves a valid trailer behind.
//
//  * Record streams (DiskChunks, Containers — grown by append): each
//    append becomes
//        [magic "MRC1"][payload len u32][crc32c(payload) u32] payload
//    and close() appends a seal record
//        [magic "MSL1"][8][crc32c(len_le64)] len_le64
//    whose payload is the total logical length. A torn tail (partial last
//    record, or a clean cut at a record boundary before the seal) is
//    detectable and *truncatable*: every valid record before the tear is
//    still usable, which is what fsck --repair exploits.
//
// All integers little-endian. CRC32C is the hardware-accelerated kernel
// family in util/crc32c.h.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd::framing {

constexpr std::uint32_t kRecordMagic = 0x3143524Du;   // "MRC1"
constexpr std::uint32_t kSealMagic = 0x314C534Du;     // "MSL1"
constexpr std::uint32_t kTrailerMagic = 0x3152544Du;  // "MTR1"

/// [magic u32][len u32][crc u32]
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kTrailerBytes = 12;
/// Physical size of a seal record (header + le64 logical length).
constexpr std::size_t kSealBytes = kHeaderBytes + 8;

// --- Sealed objects ------------------------------------------------------

/// payload + trailer. Payloads are metadata objects; sizes must fit u32.
ByteVec seal_object(ByteSpan payload);

/// Verifies the trailer; nullopt when the framing is missing, torn, or the
/// CRC mismatches (the caller decides which typed error to raise).
std::optional<ByteVec> unseal_object(ByteSpan framed);

// --- Record streams ------------------------------------------------------

/// One framed append: header + payload.
ByteVec frame_record(ByteSpan payload);

/// The end-of-stream seal carrying the total logical length.
ByteVec seal_record(std::uint64_t logical_length);

/// Result of walking a record stream front to back, verifying every CRC.
struct RecordScan {
  std::uint64_t logical_bytes = 0;  ///< payload bytes across valid records
  std::uint64_t valid_prefix = 0;   ///< physical bytes of intact records
  std::size_t records = 0;          ///< valid data records seen
  bool sealed = false;  ///< a valid, length-matching seal terminates it
  bool corrupt = false;  ///< bad magic / CRC mismatch / bytes after seal
  bool torn = false;     ///< ends mid-record or without a seal

  bool clean() const { return sealed && !corrupt && !torn; }
};

/// A span of logical (payload) bytes, clamped to the stream's length.
struct LogicalRange {
  std::uint64_t offset = 0;
  std::uint64_t length = std::numeric_limits<std::uint64_t>::max();
};

/// Walks `framed`, stopping at the first defect. A clean stream has
/// sealed && !corrupt && !torn. `valid_prefix`/`logical_bytes` describe
/// the salvageable prefix even when the tail is torn — fsck truncates to
/// valid_prefix and appends seal_record(logical_bytes) to repair.
///
/// With `out` set, the same walk also unframes: each record's share of
/// `range` is appended to *out right after its CRC checks out, so a read
/// touches every payload byte once for the CRC and once for the copy.
/// *out is reserved once, exactly, from the length the tail seal claims,
/// capped at the framed size because that claim is not yet verified.
/// *out holds the range only when the scan comes back clean(); otherwise
/// its contents are unspecified (nothing is copied when the tail holds no
/// believable seal, and never more than the seal claims).
RecordScan scan_records(ByteSpan framed, ByteVec* out = nullptr,
                        LogicalRange range = {});

/// Concatenated payload of a clean, sealed stream; nullopt otherwise.
std::optional<ByteVec> extract_stream(ByteSpan framed);

// --- Record-addressed reads ----------------------------------------------
//
// Record i of a stream starts at physical offset starts[i] + i *
// kHeaderBytes, where starts[i] is its logical start, so a table of
// logical starts addresses every record without storing physical offsets.

/// Logical start of every data record, in order — the record table of a
/// stream scan_records() found clean (walks headers only, no CRC).
std::vector<std::uint64_t> record_starts(ByteSpan framed);

/// Verifies and unframes consecutive data records fetched as one physical
/// span. Record j of the span covers logical [starts[j], starts[j + 1]),
/// the last one [starts.back(), end). Each record's magic, its length
/// (against the table) and its CRC are checked before its share of `range`
/// is appended to `out`, and the span must end exactly after the last
/// record. False on any mismatch; `out` is then unspecified.
bool unframe_records(ByteSpan framed, std::span<const std::uint64_t> starts,
                     std::uint64_t end, LogicalRange range, ByteVec& out);

}  // namespace mhd::framing
