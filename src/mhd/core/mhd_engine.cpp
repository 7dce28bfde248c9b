#include "mhd/core/mhd_engine.h"

#include <algorithm>
#include <stdexcept>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"
#include "mhd/format/file_manifest.h"

namespace mhd {

MhdEngine::MhdEngine(ObjectStore& store, const EngineConfig& config)
    : DedupEngine(store, config),
      cache_(store, config.manifest_cache_capacity, /*hook_flags=*/true,
             config.manifest_cache_bytes, &fp_index()),
      bloom_(config.bloom_bytes),
      extender_(store, cache_, cfg_, counters_) {
  // SD is the hook spacing: every group of SD new chunks gets one hook.
  if (cfg_.sd == 0) throw std::invalid_argument("MhdEngine: sd must be >= 1");
  if (cfg_.use_bloom) seed_bloom_from_hooks(bloom_, store.backend());
  restore_warm_state(cache_);
}

std::optional<ManifestCache::Located> MhdEngine::find_anchor(
    const Digest& hash) {
  if (auto loc = cache_.lookup_hash(hash)) return loc;
  if (sampled_mode()) {
    // Similarity path only: the bloom + get_hook fallback below assumes
    // every stored fingerprint is findable; the sampled tier deliberately
    // forgets, and a miss here is stored fresh (the loss meter counts it).
    if (load_champions(cache_, hash)) return cache_.lookup_hash(hash);
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
  return cache_.lookup_hash(hash);
}

void MhdEngine::flush_pending(FileCtx& ctx, std::size_t count) {
  count = std::min(count, ctx.pending.size());
  if (count == 0) return;
  if (!ctx.writer) ctx.writer.emplace(store_.open_chunk(ctx.dig.hex()));

  std::size_t done = 0;
  while (done < count) {
    std::size_t group = std::min<std::size_t>(cfg_.sd, count - done);
    // Paper, Section III: "SHM can be performed on the contiguous
    // non-duplicate chunks of the original input stream, to guarantee each
    // non-duplicate data slice of the input stream owns at least one
    // Hook." Cut the group at the first file-discontinuity (a duplicate
    // slice was removed between those chunks), so the next slice starts
    // with its own Hook — the anchor a later backup needs.
    for (std::size_t j = 1; j < group; ++j) {
      const StreamChunk& prev = ctx.pending[j - 1];
      if (prev.file_offset + prev.bytes.size() !=
          ctx.pending[j].file_offset) {
        group = j;
        break;
      }
    }

    // Group leader becomes a Hook: small-chunk granularity, addressable
    // from disk via a hash-named hook file pointing at this Manifest.
    {
      const StreamChunk& first = ctx.pending.front();
      ctx.manifest.add({first.hash, ctx.chunk_off,
                        static_cast<std::uint32_t>(first.bytes.size()), 1,
                        true});
      store_.put_hook(first.hash, ctx.dig.span());
      if (cfg_.use_bloom) bloom_.insert(first.hash.prefix64());
      ctx.writer->write(first.bytes);
      ctx.log.push_back({first.file_offset, ctx.dig, ctx.chunk_off,
                         first.bytes.size()});
      ctx.current.emplace(
          first.hash,
          std::make_pair(ctx.chunk_off,
                         static_cast<std::uint32_t>(first.bytes.size())));
      ctx.chunk_off += first.bytes.size();
      ++counters_.stored_chunks;
      recycle_chunk(std::move(ctx.pending.front().bytes));
      ctx.pending.pop_front();
      ++done;
    }

    const std::size_t rest = group - 1;
    if (rest == 0) continue;

    if (cfg_.enable_shm) {
      // Sampling and Hash Merging: the SD-1 chunks between hooks are
      // represented by a single hash over their concatenation.
      Sha1 merged;
      std::uint64_t merged_size = 0;
      const std::uint64_t merged_off = ctx.chunk_off;
      for (std::size_t j = 0; j < rest; ++j) {
        const StreamChunk& c = ctx.pending.front();
        merged.update(c.bytes);
        merged_size += c.bytes.size();
        ctx.writer->write(c.bytes);
        ctx.log.push_back({c.file_offset, ctx.dig, ctx.chunk_off,
                           c.bytes.size()});
        ctx.current.emplace(
            c.hash, std::make_pair(ctx.chunk_off,
                                   static_cast<std::uint32_t>(c.bytes.size())));
        ctx.chunk_off += c.bytes.size();
        ++counters_.stored_chunks;
        recycle_chunk(std::move(ctx.pending.front().bytes));
        ctx.pending.pop_front();
        ++done;
      }
      ctx.manifest.add({merged.digest(), merged_off,
                        static_cast<std::uint32_t>(merged_size),
                        static_cast<std::uint32_t>(rest), false});
      ++counters_.shm_merged_hashes;
    } else {
      // Ablation: hook sampling without hash merging — every chunk keeps
      // its own entry (metadata grows like plain CDC).
      for (std::size_t j = 0; j < rest; ++j) {
        const StreamChunk& c = ctx.pending.front();
        ctx.manifest.add({c.hash, ctx.chunk_off,
                          static_cast<std::uint32_t>(c.bytes.size()), 1,
                          false});
        ctx.writer->write(c.bytes);
        ctx.log.push_back({c.file_offset, ctx.dig, ctx.chunk_off,
                           c.bytes.size()});
        ctx.current.emplace(
            c.hash, std::make_pair(ctx.chunk_off,
                                   static_cast<std::uint32_t>(c.bytes.size())));
        ctx.chunk_off += c.bytes.size();
        ++counters_.stored_chunks;
        recycle_chunk(std::move(ctx.pending.front().bytes));
        ctx.pending.pop_front();
        ++done;
      }
    }
  }
}

void MhdEngine::process_file(const std::string& file_name, ByteSource& data) {
  FileCtx ctx;
  // The FileManifest is addressed by the file name; the DiskChunk/Manifest
  // pair gets a collision-free store name (re-ingesting a file name must
  // not touch the immutable chunks other manifests may reference).
  ctx.dig = unique_store_digest(file_digest(file_name));
  ctx.manifest = Manifest(ctx.dig);

  auto stream = open_ingest(data, cfg_.ecs);

  auto pull_chunk = [&]() -> std::optional<StreamChunk> {
    if (!ctx.inbox.empty()) {
      StreamChunk c = std::move(ctx.inbox.front());
      ctx.inbox.pop_front();
      return c;
    }
    ByteVec bytes;
    StreamChunk c;
    if (!stream.next(bytes, c.hash)) return std::nullopt;
    c.file_offset = ctx.file_offset;
    ctx.file_offset += bytes.size();
    counters_.input_bytes += bytes.size();
    ++counters_.input_chunks;
    c.bytes = std::move(bytes);
    return c;
  };

  while (auto chunk = pull_chunk()) {
    auto loc = find_anchor(chunk->hash);
    if (loc) {
      const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
      if (e.size == chunk->bytes.size() &&
          admit_duplicate(loc->manifest->chunk_name(), e.offset, e.size)) {
        // extend() may HHR-splice new entries into this manifest and
        // reallocate its entry vector, so `e` dies here — keep the size.
        const std::uint32_t anchor_size = e.size;
        end_dup_run();
        auto outcome =
            extender_.extend(*loc, *chunk, ctx.pending, pull_chunk);
        ++counters_.dup_slices;
        counters_.dup_chunks += outcome.dup_chunks;
        counters_.dup_bytes += outcome.dup_bytes;
        // The extension walked past the anchor inside the same DiskChunk;
        // the rewrite stream advances by everything the slice consumed.
        if (outcome.dup_bytes > anchor_size) {
          advance_rewrite_stream(outcome.dup_bytes - anchor_size);
        }
        for (auto& seg : outcome.dup_segments) ctx.log.push_back(seg);
        // Unmatched prefetches re-enter the pipeline in stream order.
        while (!outcome.leftover.empty()) {
          ctx.inbox.push_front(std::move(outcome.leftover.back()));
          outcome.leftover.pop_back();
        }
        // The anchor's bytes were fully consumed by the match.
        recycle_chunk(std::move(chunk->bytes));
        continue;
      }
    }
    // Intra-file duplicate: a chunk identical to one already flushed to
    // this file's own DiskChunk (the manifest is not anchorable until file
    // end, so this side map covers e.g. repeated zero pages).
    if (const auto it = ctx.current.find(chunk->hash);
        it != ctx.current.end() &&
        it->second.second == chunk->bytes.size() &&
        admit_duplicate(ctx.dig, it->second.first, it->second.second)) {
      note_duplicate(chunk->bytes.size());
      ctx.log.push_back({chunk->file_offset, ctx.dig, it->second.first,
                         it->second.second});
      recycle_chunk(std::move(chunk->bytes));
      continue;
    }
    note_unique(chunk->bytes.size());
    ctx.pending.push_back(std::move(*chunk));
    if (ctx.pending.size() >= 2 * static_cast<std::size_t>(cfg_.sd)) {
      flush_pending(ctx, cfg_.sd);
    }
  }
  flush_pending(ctx, ctx.pending.size());

  if (ctx.writer) {
    ctx.writer->close();
    store_.put_manifest(ctx.dig.hex(), ctx.manifest.serialize(true));
    cache_.insert(ctx.dig, std::move(ctx.manifest), /*dirty=*/false);
    ++counters_.files_with_data;
  }

  // Build the run-length FileManifest from the segment log.
  std::sort(ctx.log.begin(), ctx.log.end(),
            [](const FileSegment& a, const FileSegment& b) {
              return a.file_offset < b.file_offset;
            });
  // Invariant: the segments tile the file exactly — every byte resolved
  // once, no gaps, no overlaps. A violation means a match-extension bug.
  std::uint64_t cursor = 0;
  for (const auto& seg : ctx.log) {
    if (seg.file_offset != cursor) {
      throw std::logic_error("MhdEngine: segment log does not tile " +
                             file_name);
    }
    cursor += seg.length;
  }
  if (cursor != ctx.file_offset) {
    throw std::logic_error("MhdEngine: segment log length mismatch for " +
                           file_name);
  }
  FileManifest fm(file_name);
  for (const auto& seg : ctx.log) {
    fm.add_range(seg.chunk_name, seg.chunk_offset, seg.length,
                 /*coalesce=*/true);
  }
  store_.put_file_manifest(file_digest(file_name).hex(), fm.serialize());
}

void MhdEngine::finish() {
  cache_.flush();
  persist_index_state(cache_);
}

bool MhdEngine::flush_session() {
  if (rewrite_controller() != nullptr) {
    finish();
    return false;
  }
  if (cfg_.index_impl == IndexImpl::kDisk ||
      cfg_.index_impl == IndexImpl::kSampled) {
    // Keep the cache resident: the fresh-engine baseline warm-loads the
    // persisted residency list anyway, so staying warm IS the baseline.
    // The sampled tier additionally persists its hook table + loss meter
    // here, making the session boundary a commit point for the tier.
    cache_.flush();
    persist_index_state(cache_);
  } else {
    // A fresh mem-index engine starts with an empty cache and index;
    // evict-all reproduces that exactly (the mirror invariant drains the
    // MemIndex with the cache).
    cache_.reset();
  }
  return true;
}

}  // namespace mhd
