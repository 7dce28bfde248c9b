#include "mhd/dedup/cdc_engine.h"

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"
#include "mhd/format/file_manifest.h"

namespace mhd {

CdcEngine::CdcEngine(ObjectStore& store, const EngineConfig& config)
    : DedupEngine(store, config),
      cache_(store, config.manifest_cache_capacity, /*hook_flags=*/false,
             config.manifest_cache_bytes, &fp_index()),
      bloom_(config.bloom_bytes) {
  if (cfg_.use_bloom) seed_bloom_from_hooks(bloom_, store.backend());
  restore_warm_state(cache_);
}

std::optional<CdcEngine::DupRef> CdcEngine::find_duplicate(const Digest& hash) {
  if (const auto it = current_file_.find(hash); it != current_file_.end()) {
    return it->second;
  }
  if (auto loc = cache_.lookup_hash(hash)) {
    const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
    return DupRef{loc->manifest->chunk_name(), e.offset, e.size};
  }
  if (sampled_mode()) {
    // Similarity path only: the bloom + get_hook fallback below assumes
    // every stored fingerprint is findable; the sampled tier deliberately
    // forgets, and a miss here is stored fresh (the loss meter counts it).
    if (load_champions(cache_, hash)) {
      if (auto loc = cache_.lookup_hash(hash)) {
        const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
        return DupRef{loc->manifest->chunk_name(), e.offset, e.size};
      }
    }
    return std::nullopt;
  }
  if (cfg_.use_bloom && !bloom_.maybe_contains(hash.prefix64())) {
    return std::nullopt;
  }
  const auto hook = degrade_on_corruption(
      [&] { return store_.get_hook(hash, AccessKind::kSmallChunkQuery); });
  if (!hook || hook->size() != Digest::kSize) return std::nullopt;
  Digest manifest_name;
  std::copy(hook->begin(), hook->end(), manifest_name.bytes.begin());
  if (degrade_on_corruption([&] { return cache_.load(manifest_name); }) ==
      nullptr) {
    return std::nullopt;
  }
  if (auto loc = cache_.lookup_hash(hash)) {
    const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
    return DupRef{loc->manifest->chunk_name(), e.offset, e.size};
  }
  return std::nullopt;
}

void CdcEngine::process_file(const std::string& file_name, ByteSource& data) {
  const Digest dig = unique_store_digest(file_digest(file_name));
  Manifest manifest(dig);
  FileManifest fm(file_name);
  std::optional<ChunkWriter> writer;
  std::uint64_t chunk_off = 0;
  current_file_.clear();

  auto stream = open_ingest(data, cfg_.ecs);
  ByteVec bytes;
  Digest hash;
  while (stream.next(bytes, hash)) {
    counters_.input_bytes += bytes.size();
    ++counters_.input_chunks;

    if (const auto dup = find_duplicate(hash);
        dup && admit_duplicate(dup->chunk_name, dup->offset, dup->size)) {
      note_duplicate(dup->size);
      fm.add_range(dup->chunk_name, dup->offset, dup->size,
                   /*coalesce=*/false);
      continue;
    }

    note_unique(bytes.size());
    if (!writer) writer.emplace(store_.open_chunk(dig.hex()));
    writer->write(bytes);
    manifest.add({hash, chunk_off, static_cast<std::uint32_t>(bytes.size()), 1,
                  false});
    store_.put_hook(hash, dig.span());
    if (cfg_.use_bloom) bloom_.insert(hash.prefix64());
    current_file_.emplace(
        hash, DupRef{dig, chunk_off, static_cast<std::uint32_t>(bytes.size())});
    fm.add_range(dig, chunk_off, bytes.size(), /*coalesce=*/false);
    chunk_off += bytes.size();
    ++counters_.stored_chunks;
  }

  if (writer) {
    writer->close();
    store_.put_manifest(dig.hex(), manifest.serialize(false));
    cache_.insert(dig, std::move(manifest), /*dirty=*/false);
    ++counters_.files_with_data;
  }
  store_.put_file_manifest(file_digest(file_name).hex(), fm.serialize());
  current_file_.clear();
}

void CdcEngine::finish() {
  cache_.flush();
  persist_index_state(cache_);
}

}  // namespace mhd
