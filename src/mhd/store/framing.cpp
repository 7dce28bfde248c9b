#include "mhd/store/framing.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "mhd/util/crc32c.h"

namespace mhd::framing {

namespace {

void append_header(ByteVec& out, std::uint32_t magic, ByteSpan payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("framing: payload exceeds u32 length field");
  }
  append_le(out, magic);
  append_le(out, static_cast<std::uint32_t>(payload.size()));
  append_le(out, crc32c(0, payload));
}

}  // namespace

ByteVec seal_object(ByteSpan payload) {
  ByteVec out = to_vec(payload);
  append_header(out, kTrailerMagic, payload);  // trailer shares the layout
  return out;
}

std::optional<ByteVec> unseal_object(ByteSpan framed) {
  if (framed.size() < kTrailerBytes) return std::nullopt;
  const Byte* t = framed.data() + framed.size() - kTrailerBytes;
  if (load_le<std::uint32_t>(t) != kTrailerMagic) return std::nullopt;
  const std::uint32_t len = load_le<std::uint32_t>(t + 4);
  if (len != framed.size() - kTrailerBytes) return std::nullopt;
  const ByteSpan payload = framed.first(len);
  if (load_le<std::uint32_t>(t + 8) != crc32c(0, payload)) return std::nullopt;
  return to_vec(payload);
}

ByteVec frame_record(ByteSpan payload) {
  ByteVec out;
  out.reserve(kHeaderBytes + payload.size());
  append_header(out, kRecordMagic, payload);
  append(out, payload);
  return out;
}

ByteVec seal_record(std::uint64_t logical_length) {
  ByteVec len_le;
  append_le(len_le, logical_length);
  ByteVec out;
  out.reserve(kSealBytes);
  append_header(out, kSealMagic, len_le);
  append(out, len_le);
  return out;
}

namespace {

/// The logical length the tail seal claims, when the stream ends in
/// something shaped like a seal record; nullopt otherwise, and then the
/// stream cannot be clean. Unverified: the walk checks the seal's CRC and
/// its agreement with the records when it reaches it.
std::optional<std::uint64_t> claimed_length(ByteSpan framed) {
  if (framed.size() < kSealBytes) return std::nullopt;
  const Byte* s = framed.data() + framed.size() - kSealBytes;
  if (load_le<std::uint32_t>(s) != kSealMagic ||
      load_le<std::uint32_t>(s + 4) != 8) {
    return std::nullopt;
  }
  return load_le<std::uint64_t>(s + kHeaderBytes);
}

}  // namespace

RecordScan scan_records(ByteSpan framed, ByteVec* out, LogicalRange range) {
  // Logical bytes [copy_from, copy_to) are copied to *out. Records of a
  // clean stream never reach past the seal's claim, and a claim beyond the
  // framed size is a lie, so *out never outgrows its one reservation.
  std::uint64_t copy_from = 0;
  std::uint64_t copy_to = 0;
  if (out != nullptr) {
    out->clear();
    const auto claim = claimed_length(framed);
    if (claim && *claim <= framed.size() && range.offset < *claim) {
      copy_from = range.offset;
      copy_to = copy_from + std::min(range.length, *claim - copy_from);
      out->reserve(static_cast<std::size_t>(copy_to - copy_from));
    }
  }

  RecordScan scan;
  std::size_t pos = 0;
  while (pos + kHeaderBytes <= framed.size()) {
    const Byte* h = framed.data() + pos;
    const std::uint32_t magic = load_le<std::uint32_t>(h);
    if (magic != kRecordMagic && magic != kSealMagic) {
      scan.corrupt = true;
      return scan;
    }
    const std::uint32_t len = load_le<std::uint32_t>(h + 4);
    if (pos + kHeaderBytes + len > framed.size()) {
      // Header intact but the payload runs off the end: a torn last write.
      scan.torn = true;
      return scan;
    }
    const ByteSpan payload = framed.subspan(pos + kHeaderBytes, len);
    if (load_le<std::uint32_t>(h + 8) != crc32c(0, payload)) {
      scan.corrupt = true;
      return scan;
    }
    if (magic == kSealMagic) {
      if (len != 8 ||
          load_le<std::uint64_t>(payload.data()) != scan.logical_bytes) {
        scan.corrupt = true;  // seal disagrees with the records before it
        return scan;
      }
      scan.sealed = true;
      pos += kHeaderBytes + len;
      scan.valid_prefix = pos;
      if (pos != framed.size()) scan.corrupt = true;  // bytes after the seal
      return scan;
    }
    const std::uint64_t first = std::max(scan.logical_bytes, copy_from);
    const std::uint64_t last = std::min(scan.logical_bytes + len, copy_to);
    if (first < last) {
      mhd::append(*out, payload.subspan(first - scan.logical_bytes,
                                        last - first));
    }
    pos += kHeaderBytes + len;
    scan.logical_bytes += len;
    scan.valid_prefix = pos;
    ++scan.records;
  }
  // Ran out of bytes without a seal: a cut mid-header, or a clean cut at a
  // record boundary (which the seal record exists to catch).
  scan.torn = true;
  return scan;
}

std::optional<ByteVec> extract_stream(ByteSpan framed) {
  ByteVec out;
  if (!scan_records(framed, &out).clean()) return std::nullopt;
  return out;
}

std::vector<std::uint64_t> record_starts(ByteSpan framed) {
  std::vector<std::uint64_t> starts;
  std::uint64_t logical = 0;
  std::size_t pos = 0;
  while (pos + kHeaderBytes <= framed.size() &&
         load_le<std::uint32_t>(framed.data() + pos) == kRecordMagic) {
    const std::uint32_t len = load_le<std::uint32_t>(framed.data() + pos + 4);
    starts.push_back(logical);
    logical += len;
    pos += kHeaderBytes + len;
  }
  return starts;
}

bool unframe_records(ByteSpan framed, std::span<const std::uint64_t> starts,
                     std::uint64_t end, LogicalRange range, ByteVec& out) {
  const std::uint64_t copy_from = range.offset;
  const std::uint64_t copy_to =
      range.offset + std::min(range.length, end - std::min(end, range.offset));
  std::size_t pos = 0;
  for (std::size_t j = 0; j < starts.size(); ++j) {
    const std::uint64_t first = starts[j];
    const std::uint64_t last = j + 1 < starts.size() ? starts[j + 1] : end;
    if (framed.size() - pos < kHeaderBytes) return false;
    const Byte* h = framed.data() + pos;
    const std::uint32_t len = load_le<std::uint32_t>(h + 4);
    if (load_le<std::uint32_t>(h) != kRecordMagic || len != last - first ||
        framed.size() - pos - kHeaderBytes < len) {
      return false;
    }
    const ByteSpan payload = framed.subspan(pos + kHeaderBytes, len);
    if (load_le<std::uint32_t>(h + 8) != crc32c(0, payload)) return false;
    const std::uint64_t from = std::max(first, copy_from);
    const std::uint64_t to = std::min(last, copy_to);
    if (from < to) mhd::append(out, payload.subspan(from - first, to - from));
    pos += kHeaderBytes + len;
  }
  return pos == framed.size();
}

}  // namespace mhd::framing
