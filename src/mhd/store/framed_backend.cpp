#include "mhd/store/framed_backend.h"

#include <algorithm>
#include <utility>

#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

bool is_stream(Ns ns) {
  return ns == Ns::kDiskChunk || ns == Ns::kContainer;
}

CorruptObjectError stream_error(Ns ns, const std::string& name,
                                const framing::RecordScan& scan) {
  return CorruptObjectError(ns, name,
                            scan.corrupt ? "record CRC/structure mismatch"
                                         : "torn or unsealed record stream");
}

}  // namespace

FramedBackend::FramedBackend(StorageBackend& inner) : inner_(inner) {
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    for (const auto& name : inner_.list(ns)) {
      const auto framed = inner_.get(ns, name);
      if (!framed) continue;
      std::uint64_t logical = 0;
      if (is_stream(ns)) {
        const auto scan = framing::scan_records(*framed);
        logical = scan.logical_bytes;
        if (ns == Ns::kContainer && scan.clean()) {
          tables_[name] = {framing::record_starts(*framed),
                           RecordTable::State::kSealed};
        }
      } else if (const auto payload = framing::unseal_object(*framed)) {
        logical = payload->size();
      }
      sizes(ns)[name] = logical;
      bytes_[i] += logical;
    }
  }
}

void FramedBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  ByteVec framed;
  if (is_stream(ns)) {
    framed = framing::frame_record(data);
    mhd::append(framed, framing::seal_record(data.size()));
  } else {
    framed = framing::seal_object(data);
  }
  // A put Container stream is read by whole-stream verify.
  if (ns == Ns::kContainer) {
    tables_[name] = {{}, RecordTable::State::kPoisoned};
  }
  inner_.put(ns, name, framed);
  auto& size = sizes(ns)[name];
  bytes_[static_cast<int>(ns)] += data.size() - size;
  size = data.size();
}

void FramedBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  if (is_stream(ns)) {
    RecordTable* table = ns == Ns::kContainer ? open_table(name) : nullptr;
    std::uint64_t& size = sizes(ns)[name];
    if (append_below(ns, name, framing::frame_record(data), table)) {
      table->starts.push_back(size);
    }
    size += data.size();
    bytes_[static_cast<int>(ns)] += data.size();
    return;
  }
  // Sealed namespaces have no incremental framing; read-modify-write keeps
  // the (rare, test-only) append path correct.
  ByteVec combined;
  if (const auto framed = inner_.get(ns, name)) {
    combined = verified_get(ns, name, *framed);
  }
  mhd::append(combined, data);
  put(ns, name, combined);
}

FramedBackend::RecordTable* FramedBackend::open_table(
    const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    // A stream present without a table was adopted torn or corrupt.
    if (sizes(Ns::kContainer).count(name) > 0) return nullptr;
    it = tables_.emplace(name, RecordTable{}).first;
  }
  RecordTable& table = it->second;
  if (table.state == RecordTable::State::kOpen) return &table;
  table.state = RecordTable::State::kPoisoned;  // bytes after a seal
  return nullptr;
}

bool FramedBackend::append_below(Ns ns, const std::string& name,
                                 ByteSpan framed, RecordTable* table) {
  if (table == nullptr) {
    inner_.append(ns, name, framed);
    return false;
  }
  const std::uint64_t before = inner_.content_bytes(ns);
  try {
    inner_.append(ns, name, framed);
  } catch (...) {
    table->state = RecordTable::State::kPoisoned;
    throw;
  }
  if (inner_.content_bytes(ns) - before == framed.size()) return true;
  table->state = RecordTable::State::kPoisoned;
  return false;
}

ByteVec FramedBackend::verified_get(Ns ns, const std::string& name,
                                    const ByteVec& framed) const {
  if (is_stream(ns)) {
    ByteVec payload;
    const auto scan = framing::scan_records(framed, &payload);
    if (!scan.clean()) throw stream_error(ns, name, scan);
    return payload;
  }
  if (auto payload = framing::unseal_object(framed)) return std::move(*payload);
  throw CorruptObjectError(ns, name, "trailer CRC/structure mismatch");
}

std::optional<ByteVec> FramedBackend::get(Ns ns,
                                          const std::string& name) const {
  const auto framed = inner_.get(ns, name);
  if (!framed) return std::nullopt;
  return verified_get(ns, name, *framed);
}

std::optional<ByteVec> FramedBackend::read_records(const std::string& name,
                                                   const RecordTable& table,
                                                   std::uint64_t offset,
                                                   std::uint64_t length) const {
  const auto size = sizes(Ns::kContainer).find(name);
  const std::uint64_t total =
      size == sizes(Ns::kContainer).end() ? 0 : size->second;
  if (offset > total || length > total - offset) return std::nullopt;
  if (length == 0) return ByteVec();
  // Records [first, last] cover the range; upper_bound skips the
  // zero-length records that share a start with the one holding a byte.
  const auto& starts = table.starts;
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(starts.begin(), starts.end(), offset) - starts.begin() - 1);
  const std::size_t last = static_cast<std::size_t>(
      std::upper_bound(starts.begin(), starts.end(), offset + length - 1) -
      starts.begin() - 1);
  const std::uint64_t end = last + 1 < starts.size() ? starts[last + 1] : total;
  const std::uint64_t phys_first = starts[first] + first * framing::kHeaderBytes;
  const std::uint64_t phys_end = end + (last + 1) * framing::kHeaderBytes;
  const auto framed = inner_.get_range(Ns::kContainer, name, phys_first,
                                       phys_end - phys_first);
  if (!framed) {
    if (!inner_.exists(Ns::kContainer, name)) return std::nullopt;
    throw CorruptObjectError(Ns::kContainer, name,
                             "record stream shorter than its record table");
  }
  ByteVec out;
  out.reserve(static_cast<std::size_t>(length));
  if (!framing::unframe_records(
          *framed,
          std::span<const std::uint64_t>(starts).subspan(first, last - first + 1),
          end, {offset, length}, out)) {
    throw CorruptObjectError(Ns::kContainer, name,
                             "record CRC/structure mismatch");
  }
  return out;
}

std::optional<ByteVec> FramedBackend::get_range(Ns ns, const std::string& name,
                                                std::uint64_t offset,
                                                std::uint64_t length) const {
  if (ns == Ns::kContainer) {
    const auto it = tables_.find(name);
    if (it != tables_.end() &&
        it->second.state == RecordTable::State::kSealed) {
      return read_records(name, it->second, offset, length);
    }
  }
  // Everything else re-verifies the whole object. A stream's walk checks
  // every record's CRC but copies out only the requested bytes.
  const auto framed = inner_.get(ns, name);
  if (!framed) return std::nullopt;
  if (is_stream(ns)) {
    ByteVec out;
    const auto scan = framing::scan_records(*framed, &out, {offset, length});
    if (!scan.clean()) throw stream_error(ns, name, scan);
    if (offset > scan.logical_bytes || length > scan.logical_bytes - offset) {
      return std::nullopt;
    }
    return out;
  }
  const ByteVec payload = verified_get(ns, name, *framed);
  if (offset > payload.size() || length > payload.size() - offset) {
    return std::nullopt;
  }
  return ByteVec(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                 payload.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

bool FramedBackend::exists(Ns ns, const std::string& name) const {
  return inner_.exists(ns, name);
}

bool FramedBackend::remove(Ns ns, const std::string& name) {
  if (!inner_.remove(ns, name)) return false;
  if (ns == Ns::kContainer) tables_.erase(name);
  auto& map = sizes(ns);
  if (const auto it = map.find(name); it != map.end()) {
    bytes_[static_cast<int>(ns)] -= it->second;
    map.erase(it);
  }
  return true;
}

std::uint64_t FramedBackend::object_count(Ns ns) const {
  return inner_.object_count(ns);
}

std::uint64_t FramedBackend::content_bytes(Ns ns) const {
  return bytes_[static_cast<int>(ns)];
}

std::vector<std::string> FramedBackend::list(Ns ns) const {
  return inner_.list(ns);
}

void FramedBackend::seal(Ns ns, const std::string& name) {
  if (!is_stream(ns)) return;  // sealed namespaces are sealed at put
  const auto& map = sizes(ns);
  const auto it = map.find(name);
  const std::uint64_t logical = it == map.end() ? 0 : it->second;
  RecordTable* table = ns == Ns::kContainer ? open_table(name) : nullptr;
  if (append_below(ns, name, framing::seal_record(logical), table)) {
    table->state = RecordTable::State::kSealed;
  }
}

}  // namespace mhd
