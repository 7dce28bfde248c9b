// FingerprintIndex — the chunk-fingerprint → owning-manifest map behind
// every duplicate lookup (the paper's Table 3 concern: index RAM, not
// chunk data, is what limits inline deduplication at scale).
//
// Three implementations share this interface:
//
//  * MemIndex — a plain in-RAM hash map with byte accounting. This is the
//    historical behavior (ManifestCache's global map / the engines' hook
//    map) extracted behind the interface; it vanishes on process exit.
//  * PersistentIndex — sharded on-disk bucket pages + an append-only
//    CRC-framed journal under Ns::kIndex, fronted by a BloomFilter for
//    negative lookups and a weight-bounded LruCache of hot pages. It
//    survives restarts with bounded RAM (see persistent_index.h).
//  * SampledIndex — a sampled similarity tier (sparse-indexing style): an
//    exact map only for cache-resident manifests plus a sparse hook table
//    over min-hash-sampled fingerprints pointing at champion manifests.
//    Index RAM scales with the sample rate, not the corpus; the price is a
//    measured dedup-ratio loss, never a wrong restore (see sampled_index.h).
//
// The index is advisory, never authoritative: hooks and manifests remain
// the durable truth, so a lost or stale index entry can only cost a missed
// duplicate (data stored fresh — always correct), never a wrong restore.
#pragma once

#include <cstdint>
#include <optional>

#include "mhd/hash/digest.h"

namespace mhd {

/// Which FingerprintIndex implementation an engine routes through
/// (--index-impl). kMem is bit-identical to the pre-index behavior.
enum class IndexImpl { kMem, kDisk, kSampled };

/// "mem" | "disk" | "sampled" — the --index-impl spelling.
inline const char* index_impl_name(IndexImpl impl) {
  switch (impl) {
    case IndexImpl::kDisk: return "disk";
    case IndexImpl::kSampled: return "sampled";
    case IndexImpl::kMem: break;
  }
  return "mem";
}

/// What a fingerprint resolves to: the manifest that indexes the chunk,
/// plus the chunk's offset in its DiskChunk (advisory; rebuilt entries
/// carry offset 0 — engines confirm through the manifest anyway).
struct IndexEntry {
  /// Sentinel for `container`: placement unknown / legacy layout.
  static constexpr std::uint64_t kNoContainer = ~0ull;

  Digest manifest{};
  std::uint64_t offset = 0;
  /// Location record: the container holding the chunk's bytes at `offset`
  /// when the store packs containers (kNoContainer otherwise). Advisory
  /// like everything here — ContainerBackend::locate() on the extent maps
  /// is the authoritative placement query; this copy lets index-only
  /// consumers (stats, future routing) see placement without a map walk.
  std::uint64_t container = kNoContainer;
};

class FingerprintIndex {
 public:
  virtual ~FingerprintIndex() = default;

  virtual const char* impl_name() const = 0;

  /// Resolves a fingerprint; nullopt when absent. Never throws:
  /// PersistentIndex treats a CRC-failing bucket page as empty (and counts
  /// it), so a damaged index entry degrades to "not a duplicate" — stored
  /// fresh, always correct.
  virtual std::optional<IndexEntry> lookup(const Digest& fp) = 0;

  /// Inserts or replaces the entry for `fp`.
  virtual void put(const Digest& fp, const IndexEntry& entry) = 0;

  /// Removes the entry; returns false when it was absent.
  virtual bool erase(const Digest& fp) = 0;

  /// Cheap negative gate (bloom front on the persistent index, exact on
  /// MemIndex): false means lookup() would definitely miss.
  virtual bool maybe_contains(const Digest& fp) const = 0;

  /// Durably persists all buffered state (journal tail, bucket pages,
  /// bloom snapshot). No-op for MemIndex.
  virtual void flush() = 0;

  virtual std::uint64_t entry_count() const = 0;

  /// Current resident bytes of the index's in-RAM structures.
  virtual std::uint64_t ram_bytes() const = 0;
  /// High-water of ram_bytes() over the index's lifetime (TABLE III).
  virtual std::uint64_t ram_high_water() const = 0;
};

}  // namespace mhd
