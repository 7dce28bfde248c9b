#include "mhd/store/container_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

constexpr std::uint32_t kExtentMagic = 0x314D5843u;  // "CXM1"
constexpr std::size_t kExtentBytes = 24;             // 3 x u64

}  // namespace

std::string ContainerBackend::container_name(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "c%08llx",
                static_cast<unsigned long long>(id));
  return buf;
}

std::optional<std::uint64_t> ContainerBackend::parse_container_name(
    const std::string& name) {
  if (name.size() < 2 || name[0] != 'c') return std::nullopt;
  char* end = nullptr;
  const unsigned long long id = std::strtoull(name.c_str() + 1, &end, 16);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return id;
}

ByteVec ContainerBackend::serialize_extents(const std::vector<Extent>& extents) {
  ByteVec out;
  out.reserve(8 + extents.size() * kExtentBytes);
  append_le<std::uint32_t>(out, kExtentMagic);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(extents.size()));
  for (const Extent& e : extents) {
    append_le<std::uint64_t>(out, e.container);
    append_le<std::uint64_t>(out, e.offset);
    append_le<std::uint64_t>(out, e.length);
  }
  return out;
}

std::optional<std::vector<ContainerBackend::Extent>>
ContainerBackend::parse_extents(ByteSpan bytes) {
  if (bytes.size() < 8) return std::nullopt;
  if (load_le<std::uint32_t>(bytes.data()) != kExtentMagic) return std::nullopt;
  const std::uint32_t count = load_le<std::uint32_t>(bytes.data() + 4);
  if (bytes.size() != 8 + static_cast<std::size_t>(count) * kExtentBytes) {
    return std::nullopt;
  }
  std::vector<Extent> out;
  out.reserve(count);
  const Byte* p = bytes.data() + 8;
  for (std::uint32_t i = 0; i < count; ++i, p += kExtentBytes) {
    out.push_back({load_le<std::uint64_t>(p), load_le<std::uint64_t>(p + 8),
                   load_le<std::uint64_t>(p + 16)});
  }
  return out;
}

ContainerBackend::ContainerBackend(StorageBackend& inner, ContainerConfig config)
    : inner_(inner),
      cfg_(config),
      // LruCache reads a weight budget of 0 as "unbounded"; 1 keeps a zero
      // budget meaning "cache nothing".
      cache_(std::numeric_limits<std::size_t>::max(),
             [this](const std::uint64_t&, Resident&) {
               ++stats_.cache_evictions;
             },
             std::max<std::uint64_t>(config.cache_bytes, 1),
             [](const Resident& r) { return r.bytes; }) {
  if (cfg_.container_bytes == 0) cfg_.container_bytes = 4ull << 20;
  // Sealed container streams are immutable: reopening always starts the
  // next fresh id after anything already present (clean, torn, or not).
  for (const auto& name : inner_.list(Ns::kContainer)) {
    if (const auto id = parse_container_name(name)) {
      open_id_ = std::max(open_id_, *id + 1);
    }
  }
  // Adopt committed extent maps so the logical chunk namespace (exists,
  // list, content_bytes) is complete from the start. Maps that fail CRC
  // verification are skipped here — fsck owns quarantining them.
  for (const auto& name : inner_.list(Ns::kChunkMap)) {
    try {
      const auto raw = inner_.get(Ns::kChunkMap, name);
      if (!raw) continue;
      auto extents = parse_extents(*raw);
      if (!extents) continue;
      for (const Extent& e : *extents) chunk_logical_bytes_ += e.length;
      committed_.emplace(name, std::move(*extents));
    } catch (const CorruptObjectError&) {
    }
  }
}

ContainerBackend::~ContainerBackend() {
  // The seal write may throw (crash-stop plans, dead device); destruction
  // during unwind must not double-throw. The open container is then torn
  // below — exactly what fsck repairs.
  try {
    flush();
  } catch (...) {
  }
}

void ContainerBackend::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_fill_ > 0) roll_container();
}

void ContainerBackend::roll_container() {
  inner_.seal(Ns::kContainer, container_name(open_id_));
  container_fill_[open_id_] = open_fill_;
  // The whole image enters the cache, so reads right after the write hit;
  // an image over the whole budget would only evict everything else.
  if (open_image_.size() <= cfg_.cache_bytes) {
    Resident whole;
    whole.bytes = open_image_.size();
    whole.ranges.emplace(0, std::move(open_image_));
    cache_.put(open_id_, std::move(whole));
  }
  ++stats_.containers_sealed;
  ++open_id_;
  open_fill_ = 0;
  open_image_ = ByteVec();
}

void ContainerBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  if (ns != Ns::kDiskChunk) {
    inner_.append(ns, name, data);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ExtentMap& extents = pending_[name];
  while (!data.empty()) {
    if (open_fill_ >= cfg_.container_bytes) roll_container();
    const std::uint64_t room = cfg_.container_bytes - open_fill_;
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(room, data.size()));
    const ByteSpan piece = data.first(take);
    inner_.append(Ns::kContainer, container_name(open_id_), piece);
    mhd::append(open_image_, piece);
    if (!extents.empty() && extents.back().container == open_id_ &&
        extents.back().offset + extents.back().length == open_fill_) {
      extents.back().length += take;
    } else {
      extents.push_back({open_id_, open_fill_, take});
    }
    open_fill_ += take;
    stats_.packed_bytes += take;
    chunk_logical_bytes_ += take;
    data = data.subspan(take);
  }
}

void ContainerBackend::seal(Ns ns, const std::string& name) {
  if (ns != Ns::kDiskChunk) {
    inner_.seal(ns, name);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(name);
  if (it == pending_.end()) return;  // already committed or never written
  // The commit point: every extent below was appended by an earlier
  // mutation, so the map never names bytes that might not be durable.
  inner_.put(Ns::kChunkMap, name, serialize_extents(it->second));
  committed_[name] = std::move(it->second);
  pending_.erase(it);
}

void ContainerBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  if (ns != Ns::kDiskChunk) {
    inner_.put(ns, name, data);
    return;
  }
  // Whole-object chunk put = replace: drop any prior mapping, pack, commit.
  remove(Ns::kDiskChunk, name);
  append(Ns::kDiskChunk, name, data);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.find(name) == pending_.end()) pending_[name] = {};
  }
  seal(Ns::kDiskChunk, name);
}

const ContainerBackend::ExtentMap* ContainerBackend::extents_for(
    const std::string& name) const {
  if (const auto it = committed_.find(name); it != committed_.end()) {
    return &it->second;
  }
  if (const auto it = pending_.find(name); it != pending_.end()) {
    return &it->second;
  }
  // Fallback for maps that appeared below after construction (tests, fsck
  // repairs): verify-read and adopt. Corruption propagates to the caller.
  const auto raw = inner_.get(Ns::kChunkMap, name);
  if (!raw) return nullptr;
  auto extents = parse_extents(*raw);
  if (!extents) {
    throw CorruptObjectError(Ns::kChunkMap, name, "unparseable extent map");
  }
  return &committed_.emplace(name, std::move(*extents)).first->second;
}

std::optional<ByteVec> ContainerBackend::read_container_range(
    std::uint64_t id, std::uint64_t offset, std::uint64_t length) const {
  if (id == open_id_) {
    if (offset > open_image_.size() || length > open_image_.size() - offset) {
      return std::nullopt;
    }
    ++stats_.open_hits;
    return ByteVec(open_image_.begin() + static_cast<std::ptrdiff_t>(offset),
                   open_image_.begin() +
                       static_cast<std::ptrdiff_t>(offset + length));
  }
  if (length == 0) return ByteVec();
  const std::uint64_t end = offset + length;
  Resident* entry = cache_.get(id);

  // The gaps of [offset, end) the entry does not hold, fetched from below
  // before anything is cached, so a failed fetch leaves the entry as it was.
  struct Gap {
    std::uint64_t from, to;
    ByteVec bytes;
  };
  std::vector<Gap> gaps;
  std::uint64_t pos = offset;
  if (entry != nullptr) {
    auto it = entry->ranges.upper_bound(offset);
    if (it != entry->ranges.begin()) --it;  // the range at or before offset
    for (; it != entry->ranges.end() && it->first < end; ++it) {
      if (it->first > pos) gaps.push_back({pos, it->first, {}});
      pos = std::max<std::uint64_t>(pos, it->first + it->second.size());
    }
  }
  if (pos < end) gaps.push_back({pos, end, {}});
  const std::string name = container_name(id);
  for (Gap& gap : gaps) {
    auto bytes = inner_.get_range(Ns::kContainer, name, gap.from,
                                  gap.to - gap.from);
    if (!bytes) return std::nullopt;
    gap.bytes = std::move(*bytes);
    stats_.container_read_bytes += gap.bytes.size();
  }

  if (gaps.empty()) {
    ++stats_.cache_hits;
  } else if (entry == nullptr) {
    ++stats_.container_reads;  // a new residency
    entry = &cache_.put(id, Resident{});
  }
  const std::uint64_t old_weight = entry->bytes;
  for (Gap& gap : gaps) {
    entry->bytes += gap.bytes.size();
    entry->ranges.emplace(gap.from, std::move(gap.bytes));
  }

  ByteVec out;
  out.reserve(static_cast<std::size_t>(length));
  auto it = entry->ranges.upper_bound(offset);
  --it;  // the range holding offset
  for (; out.size() < length; ++it) {
    const ByteVec& r = it->second;
    const std::uint64_t skip = offset + out.size() - it->first;
    const std::uint64_t take = std::min<std::uint64_t>(
        r.size() - skip, length - out.size());
    mhd::append(out, ByteSpan(r).subspan(skip, take));
  }

  if (!gaps.empty()) {
    // An entry grown past the whole budget would only evict everything
    // else; it is dropped instead, as an oversized image is never cached.
    if (entry->bytes > cfg_.cache_bytes) {
      cache_.erase(id);
    } else {
      cache_.reweigh(id, old_weight);
    }
  }
  return out;
}

std::optional<ByteVec> ContainerBackend::read_extents(const ExtentMap& extents,
                                                      std::uint64_t offset,
                                                      std::uint64_t length) const {
  std::uint64_t total = 0;
  for (const Extent& e : extents) total += e.length;
  if (offset > total || length > total - offset) return std::nullopt;
  ByteVec out;
  out.reserve(static_cast<std::size_t>(length));
  std::uint64_t pos = 0;       // logical position of the current extent
  std::uint64_t need = length;
  for (const Extent& e : extents) {
    if (need == 0) break;
    if (offset >= pos + e.length) {
      pos += e.length;
      continue;
    }
    const std::uint64_t skip = offset > pos ? offset - pos : 0;
    const std::uint64_t take = std::min<std::uint64_t>(e.length - skip, need);
    auto piece = read_container_range(e.container, e.offset + skip, take);
    if (!piece) return std::nullopt;
    mhd::append(out, *piece);
    offset += take;
    need -= take;
    pos += e.length;
  }
  if (need != 0) return std::nullopt;
  return out;
}

std::optional<ByteVec> ContainerBackend::get_range(Ns ns,
                                                   const std::string& name,
                                                   std::uint64_t offset,
                                                   std::uint64_t length) const {
  if (ns != Ns::kDiskChunk) return inner_.get_range(ns, name, offset, length);
  std::lock_guard<std::mutex> lock(mu_);
  const ExtentMap* extents = extents_for(name);
  if (extents == nullptr) return std::nullopt;
  return read_extents(*extents, offset, length);
}

std::optional<ByteVec> ContainerBackend::get(Ns ns,
                                             const std::string& name) const {
  if (ns != Ns::kDiskChunk) return inner_.get(ns, name);
  std::lock_guard<std::mutex> lock(mu_);
  const ExtentMap* extents = extents_for(name);
  if (extents == nullptr) return std::nullopt;
  std::uint64_t total = 0;
  for (const Extent& e : *extents) total += e.length;
  return read_extents(*extents, 0, total);
}

bool ContainerBackend::exists(Ns ns, const std::string& name) const {
  if (ns != Ns::kDiskChunk) return inner_.exists(ns, name);
  std::lock_guard<std::mutex> lock(mu_);
  return committed_.count(name) > 0 || pending_.count(name) > 0 ||
         inner_.exists(Ns::kChunkMap, name);
}

bool ContainerBackend::remove(Ns ns, const std::string& name) {
  if (ns != Ns::kDiskChunk) return inner_.remove(ns, name);
  std::lock_guard<std::mutex> lock(mu_);
  bool existed = false;
  for (auto* map : {&committed_, &pending_}) {
    const auto it = map->find(name);
    if (it == map->end()) continue;
    for (const Extent& e : it->second) chunk_logical_bytes_ -= e.length;
    map->erase(it);
    existed = true;
  }
  return inner_.remove(Ns::kChunkMap, name) || existed;
}

std::uint64_t ContainerBackend::object_count(Ns ns) const {
  if (ns != Ns::kDiskChunk) return inner_.object_count(ns);
  std::lock_guard<std::mutex> lock(mu_);
  return committed_.size() + pending_.size();
}

std::uint64_t ContainerBackend::content_bytes(Ns ns) const {
  if (ns != Ns::kDiskChunk) return inner_.content_bytes(ns);
  std::lock_guard<std::mutex> lock(mu_);
  return chunk_logical_bytes_;
}

std::vector<std::string> ContainerBackend::list(Ns ns) const {
  if (ns != Ns::kDiskChunk) return inner_.list(ns);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(committed_.size() + pending_.size());
  for (const auto& [name, _] : committed_) names.push_back(name);
  for (const auto& [name, _] : pending_) {
    if (committed_.count(name) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::optional<std::uint64_t> ContainerBackend::locate(
    const std::string& chunk_name, std::uint64_t logical_offset) const {
  std::lock_guard<std::mutex> lock(mu_);
  const ExtentMap* extents = nullptr;
  try {
    extents = extents_for(chunk_name);
  } catch (const CorruptObjectError&) {
    return std::nullopt;  // advisory query: unknown, never an abort
  }
  if (extents == nullptr) return std::nullopt;
  std::uint64_t pos = 0;
  for (const Extent& e : *extents) {
    if (logical_offset < pos + e.length) return e.container;
    pos += e.length;
  }
  return std::nullopt;
}

std::uint64_t ContainerBackend::container_data_bytes(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == open_id_) return open_fill_;
  if (const auto it = container_fill_.find(id); it != container_fill_.end()) {
    return it->second;
  }
  try {
    if (const auto bytes = inner_.get(Ns::kContainer, container_name(id))) {
      container_fill_.emplace(id, bytes->size());
      return bytes->size();
    }
  } catch (const CorruptObjectError&) {
  }
  return 0;
}

std::pair<std::uint64_t, std::uint64_t> ContainerBackend::sweep_containers() {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, bool> live;
  for (const auto* map : {&committed_, &pending_}) {
    for (const auto& [_, extents] : *map) {
      for (const Extent& e : extents) live[e.container] = true;
    }
  }
  std::uint64_t removed = 0, reclaimed = 0;
  for (const auto& name : inner_.list(Ns::kContainer)) {
    const auto id = parse_container_name(name);
    if (!id || *id == open_id_ || live.count(*id) > 0) continue;
    std::uint64_t payload = 0;
    if (const auto it = container_fill_.find(*id);
        it != container_fill_.end()) {
      payload = it->second;
    } else {
      try {
        if (const auto bytes = inner_.get(Ns::kContainer, name)) {
          payload = bytes->size();
        }
      } catch (const CorruptObjectError&) {
        continue;  // torn/corrupt containers belong to fsck, not GC
      }
    }
    if (!inner_.remove(Ns::kContainer, name)) continue;
    container_fill_.erase(*id);
    cache_.erase(*id);
    ++removed;
    reclaimed += payload;
  }
  return {removed, reclaimed};
}

void ContainerBackend::drop_cache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

ContainerStats ContainerBackend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mhd
