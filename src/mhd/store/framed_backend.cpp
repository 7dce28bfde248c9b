#include "mhd/store/framed_backend.h"

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
        logical = framing::scan_records(*framed).logical_bytes;
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
  inner_.put(ns, name, framed);
  auto& size = sizes(ns)[name];
  bytes_[static_cast<int>(ns)] += data.size() - size;
  size = data.size();
}

void FramedBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  if (is_stream(ns)) {
    inner_.append(ns, name, framing::frame_record(data));
    sizes(ns)[name] += data.size();
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

std::optional<ByteVec> FramedBackend::get_range(Ns ns, const std::string& name,
                                                std::uint64_t offset,
                                                std::uint64_t length) const {
  // Every range read re-verifies the whole object: the framing exists to
  // guarantee no silently-wrong byte ever leaves the store. A stream's walk
  // checks every record's CRC but copies out only the requested bytes.
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
  inner_.append(ns, name, framing::seal_record(logical));
}

}  // namespace mhd
