// DedupEngine — the common interface of all deduplication algorithms
// (CDC, Bimodal, SubChunk, SparseIndexing, FBC, ExtremeBinning, MHD).
//
// An engine consumes a backup stream file-by-file, writes DiskChunks /
// Hooks / Manifests / FileManifests through an ObjectStore (which counts
// categorized disk accesses), and exposes the counters the paper's
// analysis uses: N (stored chunks), D (duplicate chunks), L (duplicate
// data slices), F (files not completely duplicate), duplicate bytes, HHR
// statistics and CPU time. reconstruct() restores any file byte-exactly
// from the store — the correctness invariant every test suite leans on.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mhd/chunk/byte_source.h"
#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/make_chunker.h"
#include "mhd/container/bloom_filter.h"
#include "mhd/dedup/rewrite.h"
#include "mhd/hash/sha1.h"
#include "mhd/index/fingerprint_index.h"
#include "mhd/store/object_store.h"
#include "mhd/store/store_errors.h"

namespace mhd {

class ManifestCache;

// Kept only for perfbench's pipeline.* layers; engines ingest serially.
struct StageStats {
  std::string stage;
  double busy_seconds = 0;
  double idle_seconds = 0;
};
// Kept only for perfbench's pipeline.* layers; always empty.
struct PipelineStats {
  std::vector<StageStats> stages;
};

struct EngineConfig {
  std::uint32_t ecs = 4096;  ///< expected (small) chunk size, bytes
  std::uint32_t sd = 1000;   ///< sample distance, in hashes
  ChunkerKind chunker = ChunkerKind::kRabin;  ///< cut-point algorithm
  /// Scan-loop implementation (--chunker-impl). Purely a speed knob: every
  /// implementation yields bit-identical cut points, so dedup results do
  /// not depend on it.
  ChunkerImpl chunker_impl = ChunkerImpl::kAuto;
  /// SHA-1 kernel selection (--hash-impl). Like chunker_impl a pure speed
  /// knob: every kernel produces bit-identical digests. Applied
  /// process-wide at engine construction (the fingerprint kernel is global
  /// state, like the allocator).
  Sha1Impl hash_impl = Sha1Impl::kAuto;

  /// ChunkerConfig for this engine at the given expected chunk size, with
  /// the engine's scan-implementation choice applied. Engines must build
  /// their chunkers through this so --chunker-impl reaches the hot loop.
  ChunkerConfig chunker_config(std::uint64_t expected_bytes) const {
    ChunkerConfig cc = ChunkerConfig::from_expected(expected_bytes);
    cc.impl = chunker_impl;
    return cc;
  }

  /// Kept only for perfbench's provenance record; ingest is always serial.
  static constexpr std::uint32_t ingest_threads = 0;

  bool use_bloom = true;
  std::size_t bloom_bytes = 4 << 20;  ///< paper: 100 MB; scaled for corpus
  std::size_t manifest_cache_capacity = 64;
  /// RAM budget for cached manifests in bytes (0 = count-limited only).
  /// Giving every algorithm the same budget makes the comparison fair:
  /// metadata-heavy algorithms fit fewer manifests and lose locality.
  std::uint64_t manifest_cache_bytes = 0;

  // SparseIndexing parameters (Section V: segment = ECS*SD*5, <=10
  // champions, a hook maps to <=5 manifests).
  std::uint32_t segment_factor = 5;
  std::uint32_t max_champions = 10;
  std::uint32_t max_manifests_per_hook = 5;

  // MHD ablation switches (DESIGN.md section 6).
  bool enable_edge_hash = true;
  bool enable_backward_extension = true;
  bool enable_shm = true;

  // Fingerprint-index routing (DESIGN.md "Fingerprint index"). kMem keeps
  // the historical always-resident map; kDisk stores the index under
  // Ns::kIndex with bounded RAM and warm restart (--index-impl). The two
  // make bit-identical dedup decisions — kDisk additionally survives
  // process restarts. kSampled is the similarity tier (DESIGN.md "Sampled
  // similarity index"): index RAM scales with the sample rate, dedup
  // decisions may miss duplicates (measured, never hidden), restores stay
  // byte-exact.
  IndexImpl index_impl = IndexImpl::kMem;
  /// Sampled tier: a fingerprint whose low `sample_bits` bits (of its
  /// prefix64) are zero is a hook — expected one hook per 2^bits chunks
  /// (--sample-bits). Champion fan-out reuses max_champions (--champions)
  /// and max_manifests_per_hook caps each hook's champion list.
  std::uint32_t sample_bits = 6;
  /// Weight budget of the disk index's hot bucket-page cache
  /// (--index-cache-mb).
  std::uint64_t index_cache_bytes = 8ull << 20;
  /// Bloom sizing for the disk index's negative-lookup front
  /// (--index-bloom-bits-per-key).
  std::uint32_t index_bloom_bits_per_key = 10;
  // Disk-index geometry knobs (programmatic; tests shrink them to force
  // many journal segments and compactions on tiny corpora).
  std::uint32_t index_shards = 64;
  std::uint32_t index_journal_batch = 64;
  std::uint64_t index_compact_threshold = 4096;

  // Durability stack (DESIGN.md "Durability model"). With `framed` the
  // simulation runner layers FramedBackend (CRC32C self-verifying objects,
  // typed corrupt-vs-absent errors) over the repository; `fault_plan` adds
  // a FaultInjectingBackend *below* the framing speaking the plan
  // mini-language in store/fault_backend.h (--fault-plan). Dedup results
  // are bit-identical with framing on; only physical bytes differ.
  bool framed = false;
  std::string fault_plan;

  // Container packing + rewrite (DESIGN.md "Container store and restore
  // path"). 0 keeps the legacy per-chunk layout; with a size the runner
  // layers a ContainerBackend of that container size over the stack
  // (--container-mb) and `rewrite` selects the fragmentation-control
  // algorithm applied at dedup time (--rewrite).
  std::uint64_t container_bytes = 0;
  /// RAM budget of the restore path's container cache, in fetched bytes
  /// (--restore-cache-mb).
  std::uint64_t restore_cache_bytes = 32ull << 20;
  RewriteMode rewrite = RewriteMode::kNone;
  std::uint64_t cbr_segment_bytes = 4ull << 20;
  std::uint32_t cbr_cap = 16;
  double har_utilization = 0.5;
};

struct EngineCounters {
  std::uint64_t input_bytes = 0;
  std::uint64_t input_files = 0;
  std::uint64_t input_chunks = 0;   ///< small chunks hashed from the stream
  std::uint64_t dup_chunks = 0;     ///< D
  std::uint64_t dup_bytes = 0;
  std::uint64_t dup_slices = 0;     ///< L
  std::uint64_t stored_chunks = 0;  ///< N: chunks written as new data
  std::uint64_t files_with_data = 0;  ///< F: files not completely duplicate

  // MHD-specific (zero for baselines).
  std::uint64_t hhr_operations = 0;
  std::uint64_t hhr_chunk_reloads = 0;  ///< Fig. 10(b) "HHR Cost"
  std::uint64_t shm_merged_hashes = 0;

  /// Graceful degradation: reads that failed CRC verification and were
  /// treated as non-duplicate (hook/manifest lookups, HHR chunk reloads)
  /// instead of aborting the ingest. Data is still stored correctly —
  /// only the dedup ratio suffers. Always zero on a healthy store.
  std::uint64_t corruption_fallbacks = 0;

  /// Duplicates declined by the rewrite controller and stored fresh for
  /// restore locality (always zero with --rewrite=none).
  std::uint64_t rewritten_chunks = 0;
  std::uint64_t rewritten_bytes = 0;

  double cpu_seconds = 0;

  double dad() const {
    return dup_slices == 0
               ? 0.0
               : static_cast<double>(dup_bytes) / static_cast<double>(dup_slices);
  }
};

class DedupEngine {
 public:
  DedupEngine(ObjectStore& store, const EngineConfig& config)
      : store_(store), cfg_(config) {
    set_sha1_impl(config.hash_impl);
    if (cfg_.rewrite != RewriteMode::kNone) {
      RewriteConfig rc;
      rc.mode = cfg_.rewrite;
      rc.segment_bytes = cfg_.cbr_segment_bytes;
      rc.cap = cfg_.cbr_cap;
      rc.har_utilization = cfg_.har_utilization;
      rewrite_ = std::make_unique<RewriteController>(
          rc, dynamic_cast<const ContainerBackend*>(&store.backend()));
    }
  }
  virtual ~DedupEngine() = default;

  virtual std::string name() const = 0;

  /// Deduplicates one file of the backup stream (CPU time is accumulated
  /// into counters().cpu_seconds).
  void add_file(const std::string& file_name, ByteSource& data);

  /// Flushes buffered state: dirty manifests, open chunk writers, indexes.
  /// Must be called once after the last add_file.
  virtual void finish() = 0;

  /// Session flush boundary for long-lived engines (the daemon's warm
  /// per-tenant sessions): makes every byte of this session durable and
  /// brings the engine into a state where continuing with the SAME engine
  /// object is bit-identical — on disk and in dedup decisions — to
  /// destroying it and constructing a fresh engine over the same store.
  /// Returns true when the engine may be reused after the flush; false
  /// means the caller must discard it (the engine carries cross-session
  /// state a fresh engine would not reconstruct, e.g. a rewrite
  /// controller's segment history). The default is the conservative
  /// finish()-and-discard.
  virtual bool flush_session() {
    finish();
    return false;
  }

  /// Restores a previously added file byte-exactly from the store.
  /// Reads bypass access accounting (restore is not deduplication work).
  std::optional<ByteVec> reconstruct(const std::string& file_name) const;

  /// Closes a snapshot generation for the rewrite controller (HAR folds
  /// this generation's container utilization into its sparse set). The
  /// simulation runner calls this at every corpus snapshot boundary,
  /// including before finish(). No-op without --rewrite.
  void end_snapshot() {
    if (rewrite_) rewrite_->end_snapshot();
  }

  /// The engine's rewrite controller, nullptr with --rewrite=none.
  const RewriteController* rewrite_controller() const {
    return rewrite_.get();
  }

  const EngineCounters& counters() const { return counters_; }
  const EngineConfig& config() const { return cfg_; }

  /// Kept only for perfbench's pipeline.* layers; always empty.
  PipelineStats pipeline_stats() const { return {}; }

  /// Manifests loaded from disk into the cache (the paper's TABLE V).
  virtual std::uint64_t manifest_loads() const { return 0; }

  /// Bytes of auxiliary in-RAM index structures beyond the manifest cache
  /// (the fingerprint index's RAM high-water; SparseIndexing's sparse
  /// index; the paper's TABLE III).
  virtual std::uint64_t index_ram_bytes() const {
    return fp_index_ ? fp_index_->ram_high_water() : 0;
  }

  /// The engine's fingerprint index, if it routes through one (nullptr
  /// for engines with private similarity indexes, e.g. SparseIndexing).
  const FingerprintIndex* fingerprint_index() const { return fp_index_.get(); }
  /// Resolved index implementation name for reports
  /// ("mem" | "disk" | "sampled").
  const char* index_impl_name() const {
    return fp_index_ ? fp_index_->impl_name()
                     : mhd::index_impl_name(cfg_.index_impl);
  }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Name digest used for a file's DiskChunk / Manifest / FileManifest.
  static Digest file_digest(const std::string& file_name) {
    return Sha1::hash(as_bytes(file_name));
  }

  /// Rebuilds a bloom filter from the hooks already persisted in the
  /// backend, so an engine opened on an existing repository (e.g. the
  /// dedup_cli resuming a backup store) still detects duplicates. Hook
  /// file names are the hex of the hook's chunk hash.
  static void seed_bloom_from_hooks(BloomFilter& bloom,
                                    const StorageBackend& backend);

 protected:
  virtual void process_file(const std::string& file_name, ByteSource& data) = 0;

  /// Opens the top-level ingest stream over `data` with a chunker of the
  /// engine's configured kind at `expected_chunk_bytes`.
  HashedChunkStream open_ingest(ByteSource& data,
                                std::uint64_t expected_chunk_bytes);

  /// Lazily creates the configured FingerprintIndex (MemIndex or
  /// PersistentIndex over the store's backend). Callable from derived
  /// constructors' member-init lists so the index can be handed to a
  /// ManifestCache. Whether an on-disk index already existed (a reopen)
  /// is captured at creation for restore_warm_state().
  FingerprintIndex& fp_index();

  /// Warm restart: when the disk index was reopened, reload the manifest
  /// cache's previous residency (saved by persist_index_state) so the
  /// reopened engine resumes with the exact working set it closed with.
  /// No-op for MemIndex or a freshly created disk index.
  void restore_warm_state(ManifestCache& cache);

  /// End-of-run persistence: saves the cache residency list into the disk
  /// index and flushes it (journal tail, bloom snapshot, meta). Call from
  /// finish() after the cache flush. No-op for MemIndex.
  void persist_index_state(ManifestCache& cache);

  /// True when this engine routes through the sampled similarity tier —
  /// anchor lookups must then use similarity_anchor() instead of the
  /// exact bloom + get_hook fallback (which assumes every stored
  /// fingerprint is findable; the sampled tier deliberately forgets).
  bool sampled_mode() const { return cfg_.index_impl == IndexImpl::kSampled; }

  /// Sampled-tier anchor path: when `hash` is a sampled hook, loads its
  /// champion manifests (up to cfg_.max_champions, skipping already-cached
  /// ones) into `cache`. Returns true when at least one new champion was
  /// loaded — the caller then retries its cache lookup. When nothing
  /// loads, the chunk is stored fresh; if it actually was a duplicate the
  /// loss meter counts it (sampled_missed_dup_bytes), never hides it.
  bool load_champions(ManifestCache& cache, const Digest& hash);

  /// Returns `base`, salted until no DiskChunk/Manifest with that name
  /// exists. DiskChunks are immutable and may be referenced by other
  /// files' manifests, so re-ingesting a file name (or a colliding
  /// container id) must never append to an existing object.
  Digest unique_store_digest(const Digest& base) const;

  /// Returns a consumed chunk buffer's storage to the process-wide pool
  /// (see util/buffer_pool.h). Engines call this wherever a chunk's bytes
  /// leave the pending window for good — after the store write, a
  /// duplicate drop, or match extension consuming the buffer — closing the
  /// acquire/release cycle that makes steady-state ingest allocation-free.
  static void recycle_chunk(ByteVec&& bytes);

  /// Graceful degradation: runs a dedup-index lookup (hook/manifest read)
  /// and maps CorruptObjectError to the lookup's "not found" value — the
  /// region is simply treated as non-duplicate and stored fresh, which is
  /// always correct, and the event is counted as a corruption_fallback.
  /// Restore paths must NOT use this: there, corruption is a hard error.
  template <typename Fn>
  auto degrade_on_corruption(Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const CorruptObjectError&) {
      ++counters_.corruption_fallbacks;
      return decltype(fn()){};
    }
  }

  /// Tracks the L counter: call per chunk decision in stream order.
  void note_duplicate(std::uint64_t bytes) {
    if (!in_dup_run_) {
      ++counters_.dup_slices;
      in_dup_run_ = true;
    }
    ++counters_.dup_chunks;
    counters_.dup_bytes += bytes;
  }
  /// `bytes` advances the rewrite controller's segment position (CBR
  /// segments are measured over the whole stream, not just duplicates).
  void note_unique(std::uint64_t bytes = 0) {
    in_dup_run_ = false;
    if (rewrite_ && bytes > 0) rewrite_->on_stream_bytes(bytes);
  }
  void end_dup_run() { in_dup_run_ = false; }

  /// The rewrite decision for one detected duplicate: true admits the
  /// in-place reference, false directs the engine to store the bytes
  /// fresh (counted as a rewritten chunk). Engines call this at every
  /// duplicate-decision site before emitting the reference.
  bool admit_duplicate(const Digest& chunk_name, std::uint64_t offset,
                       std::uint64_t size) {
    if (!rewrite_) return true;
    if (rewrite_->admit(chunk_name, offset, size)) return true;
    ++counters_.rewritten_chunks;
    counters_.rewritten_bytes += size;
    return false;
  }

  /// Segment-position advance for bulk paths that consume stream bytes
  /// without per-chunk decisions (MHD's match extension).
  void advance_rewrite_stream(std::uint64_t bytes) {
    if (rewrite_ && bytes > 0) rewrite_->on_stream_bytes(bytes);
  }

  ObjectStore& store_;
  EngineConfig cfg_;
  EngineCounters counters_;

 private:
  bool in_dup_run_ = false;
  std::unique_ptr<FingerprintIndex> fp_index_;
  std::unique_ptr<RewriteController> rewrite_;
  bool index_was_present_ = false;  ///< disk index existed before open
};

}  // namespace mhd
