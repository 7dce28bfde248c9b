#include "mhd/dedup/engine.h"

#include <algorithm>

#include "mhd/core/manifest_cache.h"
#include "mhd/format/file_manifest.h"
#include "mhd/index/mem_index.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/util/buffer_pool.h"
#include "mhd/util/hex.h"
#include "mhd/util/timer.h"

namespace mhd {

void DedupEngine::recycle_chunk(ByteVec&& bytes) {
  if (bytes.capacity() > 0) chunk_buffer_pool().release(std::move(bytes));
}

void DedupEngine::seed_bloom_from_hooks(BloomFilter& bloom,
                                        const StorageBackend& backend) {
  for (const auto& name : backend.list(Ns::kHook)) {
    const auto bytes = hex_decode(name);
    if (!bytes || bytes->size() != Digest::kSize) continue;
    Digest d;
    std::copy(bytes->begin(), bytes->end(), d.bytes.begin());
    bloom.insert(d.prefix64());
  }
}

FingerprintIndex& DedupEngine::fp_index() {
  if (!fp_index_) {
    if (cfg_.index_impl == IndexImpl::kDisk) {
      index_was_present_ = PersistentIndex::present(store_.backend());
      PersistentIndexConfig pc;
      pc.shards = cfg_.index_shards;
      pc.cache_bytes = cfg_.index_cache_bytes;
      pc.bloom_bits_per_key = cfg_.index_bloom_bits_per_key;
      pc.journal_batch = cfg_.index_journal_batch;
      pc.compact_threshold = cfg_.index_compact_threshold;
      fp_index_ = std::make_unique<PersistentIndex>(store_.backend(), pc);
    } else if (cfg_.index_impl == IndexImpl::kSampled) {
      index_was_present_ = SampledIndex::present(store_.backend());
      SampledIndexConfig sc;
      sc.sample_bits = cfg_.sample_bits;
      sc.max_champions = cfg_.max_champions;
      sc.max_manifests_per_hook = cfg_.max_manifests_per_hook;
      fp_index_ = std::make_unique<SampledIndex>(store_.backend(), sc);
    } else {
      fp_index_ = std::make_unique<MemIndex>();
    }
  }
  return *fp_index_;
}

void DedupEngine::restore_warm_state(ManifestCache& cache) {
  if (!index_was_present_) return;
  if (auto* disk = dynamic_cast<PersistentIndex*>(fp_index_.get())) {
    cache.warm_load(disk->load_warm_list());
  } else if (auto* sampled = dynamic_cast<SampledIndex*>(fp_index_.get())) {
    cache.warm_load(sampled->load_warm_list());
  }
}

void DedupEngine::persist_index_state(ManifestCache& cache) {
  if (!fp_index_) return;
  if (auto* disk = dynamic_cast<PersistentIndex*>(fp_index_.get())) {
    disk->save_warm_list(cache.resident_names());
  } else if (auto* sampled = dynamic_cast<SampledIndex*>(fp_index_.get())) {
    sampled->save_warm_list(cache.resident_names());
  }
  fp_index_->flush();
}

bool DedupEngine::load_champions(ManifestCache& cache, const Digest& hash) {
  auto* sampled = dynamic_cast<SampledIndex*>(&fp_index());
  if (sampled == nullptr) return false;
  bool loaded = false;
  for (const Digest& name : sampled->champions_for(hash)) {
    if (cache.cached(name) != nullptr) continue;
    Manifest* m = degrade_on_corruption([&] { return cache.load(name); });
    if (m == nullptr) continue;
    sampled->note_champion_load();
    loaded = true;
  }
  return loaded;
}

Digest DedupEngine::unique_store_digest(const Digest& base) const {
  Digest d = base;
  std::uint64_t salt = 0;
  while (store_.backend().exists(Ns::kDiskChunk, d.hex()) ||
         store_.backend().exists(Ns::kManifest, d.hex())) {
    ByteVec salted = to_vec(base.span());
    append_le<std::uint64_t>(salted, ++salt);
    d = Sha1::hash(salted);
  }
  return d;
}

HashedChunkStream DedupEngine::open_ingest(ByteSource& data,
                                           std::uint64_t expected_chunk_bytes) {
  return HashedChunkStream(
      data,
      make_chunker(cfg_.chunker, cfg_.chunker_config(expected_chunk_bytes)));
}

void DedupEngine::add_file(const std::string& file_name, ByteSource& data) {
  const Stopwatch watch;
  ++counters_.input_files;
  if (rewrite_) rewrite_->begin_file();
  end_dup_run();  // duplicate slices never span file boundaries
  process_file(file_name, data);
  end_dup_run();
  counters_.cpu_seconds += watch.seconds();
}

std::optional<ByteVec> DedupEngine::reconstruct(
    const std::string& file_name) const {
  // Restore never degrades: a corrupt object makes the restore fail
  // (nullopt) instead of silently returning wrong bytes.
  try {
    const StorageBackend& backend = store_.backend();
    const auto raw =
        backend.get(Ns::kFileManifest, file_digest(file_name).hex());
    if (!raw) return std::nullopt;
    const auto fm = FileManifest::deserialize(*raw);
    if (!fm) return std::nullopt;

    ByteVec out;
    out.reserve(static_cast<std::size_t>(fm->total_length()));
    for (const auto& entry : fm->entries()) {
      auto piece = backend.get_range(Ns::kDiskChunk, entry.chunk_name.hex(),
                                     entry.offset, entry.length);
      if (!piece) return std::nullopt;
      append(out, *piece);
    }
    return out;
  } catch (const CorruptObjectError&) {
    return std::nullopt;
  }
}

}  // namespace mhd
