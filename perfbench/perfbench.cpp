// mhd_perfbench — the repository benchmark: three workloads driven through
// the public library and daemon APIs at one pinned engine configuration,
// measured end to end (untraced) or layer by layer (traced).
//
//   mhd_perfbench --workload backup-ingest|restore-aged|daemon-mixed|all
//                 --seed N --seconds S --trace 0|1 [--smoke]
//                 [--work-dir DIR] [--git-rev REV] [--source-digest HEX]
//
// See README.md in this directory for the workloads, why each exists, and
// which end-to-end metric each per-layer metric should move. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics};
// the lines before it are the human-readable report and provenance. The
// exit code is non-zero on any failed operation, byte mismatch or
// determinism break.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/make_chunker.h"
#include "mhd/hash/sha1.h"
#include "mhd/metrics/metrics.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/sim/runner.h"
#include "mhd/store/container_store.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/restore_reader.h"
#include "mhd/util/buffer_pool.h"
#include "mhd/util/cpufeatures.h"
#include "mhd/workload/corpus.h"
#include "mhd/workload/presets.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace mhd;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kEngine = "bf-mhd";

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
  std::string cpus = "all";  ///< CPUs the process runs on (provenance)
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad argument: " + key);
    key = key.substr(2);
    if (key == "smoke") {
      o.smoke = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for --" + key);
      value = argv[++i];
    }
    if (key == "workload") o.workload = value;
    else if (key == "seed") o.seed = std::stoull(value);
    else if (key == "seconds") o.seconds = std::stod(value);
    else if (key == "trace") o.trace = std::stoi(value) != 0;
    else if (key == "work-dir") o.work_dir = value;
    else if (key == "git-rev") o.git_rev = value;
    else if (key == "source-digest") o.source_digest = value;
    else throw std::invalid_argument("unknown option --" + key);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// Confines the process to the last two CPUs it may run on and returns
/// them. Threads started later inherit the mask. Each daemon-mixed client
/// hands requests to its session thread through a socket; spread over four
/// virtual CPUs those wake-ups crossed CPUs and made latencies swing up to
/// 2x between runs, while on two CPUs they repeat within about 10%. The
/// library workloads are single-threaded and measure the same either way.
std::string use_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "all";
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() > 2) cpus.erase(cpus.begin(), cpus.end() - 2);
  cpu_set_t use;
  CPU_ZERO(&use);
  std::string names;
  for (const int c : cpus) {
    CPU_SET(c, &use);
    names += (names.empty() ? "" : ",") + std::to_string(c);
  }
  if (sched_setaffinity(0, sizeof(use), &use) != 0) return "all";
  return names;
}

// ---------------------------------------------------- pinned configuration

/// The one engine configuration every workload runs. Settings that change
/// the stored bytes are pinned; pure speed settings (chunker_impl,
/// hash_impl, ingest_threads) stay at the library defaults so a change of
/// default is measured.
EngineConfig engine_config() {
  EngineConfig c;
  c.ecs = 4096;
  c.sd = 64;
  c.chunker = ChunkerKind::kRabin;
  c.framed = true;
  c.container_bytes = 4ull << 20;
  c.restore_cache_bytes = 32ull << 20;
  c.rewrite = RewriteMode::kNone;
  c.index_impl = IndexImpl::kMem;
  return c;
}

/// Per-workload sizes. The corpus keeps the icpp13 shape (14 machines x 14
/// daily snapshots, fed snapshot-major); only the image size differs.
struct Sizes {
  std::uint64_t image_bytes = 0;
  int setups = 3;               ///< set-up repetitions (median reported)
  int min_passes = 2;           ///< measured passes, at least
  std::uint32_t restore_generations = 0;  ///< restore-aged: newest N
};

Sizes sizes_for(const std::string& workload, bool smoke) {
  Sizes s;
  if (smoke) {
    s.image_bytes = 64 << 10;
    s.setups = 1;
    s.min_passes = 2;
    s.restore_generations = 2;
    return s;
  }
  if (workload == "restore-aged") {
    // ~110 MB stored: several times the 32 MiB container cache.
    s.image_bytes = 1536 << 10;
    s.restore_generations = 4;
  } else if (workload == "daemon-mixed") {
    // ~25 MB stored: the whole store fits the container cache, so GETs
    // are served from it except for each container's first read.
    s.image_bytes = 256 << 10;
  } else {
    s.image_bytes = 512 << 10;
  }
  return s;
}

/// Seed of the corpus's change pattern: which extents each daily snapshot
/// replaces, inserts or deletes, and which days are quiet.
constexpr std::uint64_t kShapeSeed = 1;

CorpusConfig corpus_config(const Sizes& s) {
  CorpusConfig c = icpp13_preset(1, kShapeSeed);
  c.image_bytes = s.image_bytes;
  return c;
}

/// The workload's input files. The change pattern is the fixed icpp13
/// plan of kShapeSeed; --seed draws every content byte. With 14 x 14 images
/// the pattern's own randomness (a few hundred quiet-or-busy days) would
/// move the dedup ratio and the restore layout by several percent from
/// seed to seed; fixing it makes seeds differ in data, not in shape.
class Inputs {
 public:
  Inputs(const CorpusConfig& shape, std::uint64_t seed)
      : shape_(shape), blocks_(seed) {}

  const std::vector<CorpusFile>& files() const { return shape_.files(); }
  const CorpusConfig& config() const { return shape_.config(); }
  std::unique_ptr<ByteSource> open(std::size_t index) const {
    return std::make_unique<ImageSource>(shape_.plan(index), blocks_);
  }

 private:
  Corpus shape_;
  BlockSource blocks_;
};

// ------------------------------------------------------------ the stack

/// One repository's storage stack, innermost first:
///   raw → [bottom] → FramedBackend → [mid] → ContainerBackend → [top]
/// The bracketed TimedBackend decorators exist only in traced passes, so
/// untraced passes run exactly the stack a library user builds.
class Stack {
 public:
  Stack(std::unique_ptr<StorageBackend> raw, bool traced)
      : raw_(std::move(raw)) {
    StorageBackend* lower = raw_.get();
    if (traced) lower = &bottom_.emplace(*lower, Layer::kStoreBottom);
    framed_.emplace(*lower);
    lower = &*framed_;
    if (traced) lower = &mid_.emplace(*lower, Layer::kStoreMid);
    const EngineConfig cfg = engine_config();
    ContainerConfig cc;
    cc.container_bytes = cfg.container_bytes;
    cc.cache_bytes = cfg.restore_cache_bytes;
    containers_.emplace(*lower, cc);
    if (traced) top_.emplace(*containers_, Layer::kStoreTop);
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// What the engine, restore reader or daemon is handed.
  StorageBackend& active() {
    return top_ ? static_cast<StorageBackend&>(*top_) : *containers_;
  }
  StorageBackend& raw() { return *raw_; }
  ContainerBackend& containers() { return *containers_; }

  /// Seals the open container; in traced passes its work is charged to
  /// the container layer like any other call through the top decorator.
  void flush() {
    Span span(Layer::kStoreTop);
    containers_->flush();
  }

  IoCounters top() const { return top_ ? top_->counters() : IoCounters{}; }
  void reset_counters() {
    for (auto* t : {&top_, &mid_, &bottom_}) {
      if (*t) (*t)->reset_counters();
    }
  }
  IoCounters bottom() const {
    return bottom_ ? bottom_->counters() : IoCounters{};
  }

 private:
  std::unique_ptr<StorageBackend> raw_;
  std::optional<TimedBackend> bottom_;
  std::optional<FramedBackend> framed_;
  std::optional<TimedBackend> mid_;
  std::optional<ContainerBackend> containers_;
  std::optional<TimedBackend> top_;
};

// -------------------------------------------------------------- corpus

/// Materializes corpus file `index` (outside the program: traced as the
/// workload layer, never counted in an operation's latency).
ByteVec generate(const Inputs& corpus, std::size_t index) {
  Span span(Layer::kGenerate);
  ByteVec out(corpus.files()[index].bytes);
  auto src = corpus.open(index);
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t n = src->read({out.data() + pos, out.size() - pos});
    if (n == 0) break;
    pos += n;
  }
  out.resize(pos);
  return out;
}

bool same_bytes(const ByteVec& a, const ByteVec& b) {
  Span span(Layer::kVerify);
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Index into corpus.files() by (machine, snapshot); the corpus is
/// snapshot-major.
std::size_t file_index(const Inputs& corpus, std::uint32_t machine,
                       std::uint32_t snapshot) {
  const std::size_t i =
      static_cast<std::size_t>(snapshot) * corpus.config().machines + machine;
  const CorpusFile& f = corpus.files().at(i);
  if (f.machine != machine || f.snapshot != snapshot) {
    throw std::logic_error("corpus is not snapshot-major");
  }
  return i;
}

// ------------------------------------------------------------ samples

double percentile(std::vector<double> v, double q, std::size_t* beyond) {
  if (v.empty()) {
    if (beyond) *beyond = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (beyond) *beyond = v.size() - idx - 1;
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Dedup decisions of one library ingest; must repeat exactly.
struct DedupSignature {
  std::uint64_t input_chunks = 0;
  std::uint64_t stored_chunks = 0;
  std::uint64_t dup_chunks = 0;
  std::uint64_t dup_bytes = 0;
  std::uint64_t stored_data_bytes = 0;  ///< logical DiskChunk bytes
  std::uint64_t physical_bytes = 0;     ///< every byte at the bottom
  bool operator==(const DedupSignature&) const = default;
};

/// Side replay of the chunk and hash layers over one file's bytes, through
/// the public make_chunker/ChunkStream and Sha1::digest_of.
struct Replay {
  std::uint64_t cuts = 0;
  std::uint64_t hash_bytes = 0;
  double seconds = 0;  ///< replay wall time, excluded from the pass wall
  std::uint8_t sink = 0;

  void run(const ByteVec& data) {
    const std::uint64_t t0 = now_ns();
    const EngineConfig cfg = engine_config();
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    {
      Span span(Layer::kChunkReplay);
      auto chunker = make_chunker(cfg.chunker, cfg.chunker_config(cfg.ecs));
      MemorySource src(ByteSpan{data});
      ChunkStream stream(src, *chunker);
      ByteVec chunk;
      std::size_t off = 0;
      while (stream.next(chunk)) {
        chunks.emplace_back(off, chunk.size());
        off += chunk.size();
      }
    }
    {
      Span span(Layer::kHashReplay);
      for (const auto& [off, len] : chunks) {
        sink ^= Sha1::digest_of(ByteSpan{data}.subspan(off, len)).bytes[0];
        hash_bytes += len;
      }
    }
    cuts += chunks.size();
    seconds += static_cast<double>(now_ns() - t0) * 1e-9;
  }
};

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// One timed ingest (add_file or PUT) or restore (RestoreReader or GET).
struct Sample {
  std::size_t file = 0;  ///< corpus index
  std::uint64_t bytes = 0;
  double ms = 0;
};

/// Everything one measured pass produced.
struct Pass {
  bool traced = false;
  double wall_s = 0;  ///< pass wall (thread-seconds for daemon-mixed)
  double finish_s = 0;  ///< library engine finish + flush
  std::uint64_t ingest_bytes = 0, restore_bytes = 0;
  std::vector<Sample> puts, gets;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::optional<DedupSignature> signature;
  double stored_per_input = 0, metadata_per_mb = 0;
  MetricMap layers;  ///< traced passes only
};

/// Fills the pass's space metrics for a repository of `input_bytes`.
void record_space(Pass& p, Stack& st, std::uint64_t input_bytes) {
  if (input_bytes == 0) return;
  p.stored_per_input = static_cast<double>(st.raw().total_content_bytes()) /
                       static_cast<double>(input_bytes);
  const MetadataBreakdown md = MetadataBreakdown::from(st.containers());
  p.metadata_per_mb = static_cast<double>(md.total_bytes()) /
                      (static_cast<double>(input_bytes) / kMiB);
}

DedupSignature signature_of(const DedupEngine& engine, Stack& st) {
  DedupSignature s;
  const EngineCounters& c = engine.counters();
  s.input_chunks = c.input_chunks;
  s.stored_chunks = c.stored_chunks;
  s.dup_chunks = c.dup_chunks;
  s.dup_bytes = c.dup_bytes;
  s.stored_data_bytes = st.containers().content_bytes(Ns::kDiskChunk);
  s.physical_bytes = st.raw().total_content_bytes();
  return s;
}

/// Counters read before and after a traced pass.
struct PassProbe {
  ContainerStats containers;
  BufferPool::Stats pool;

  static PassProbe take(Stack& st) {
    return {st.containers().stats(), chunk_buffer_pool().stats()};
  }
};

/// Restore-phase container traffic for CFL and read amplification.
struct RestoreTraffic {
  std::uint64_t loads = 0;
  std::uint64_t load_bytes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
};

void add_layer(MetricMap& m, const std::string& name, double value,
               const char* unit) {
  m[name] = {value, unit};
}

/// Fills the per-layer metrics of a traced pass. `engine` is null when the
/// pass ran no library engine (restore-aged's timed part, daemon-mixed).
void fill_layers(Pass& p, Stack& st, const PassProbe& before,
                 const LayerTimes& lt, const Replay& replay,
                 const DedupEngine* engine, const RestoreTraffic& restore,
                 bool daemon, double busy_rejections, double retries) {
  MetricMap& m = p.layers;
  const auto total = [&](Layer l) { return lt.total_of(l); };
  const auto self = [&](Layer l) { return lt.self_of(l); };

  add_layer(m, "workload.generate_s", total(Layer::kGenerate), "s");
  add_layer(m, "workload.verify_s", total(Layer::kVerify), "s");

  const double dedup_self = self(Layer::kAddFile) + self(Layer::kFinish);
  add_layer(m, "dedup.add_file_s", total(Layer::kAddFile), "s");
  add_layer(m, "dedup.finish_s", total(Layer::kFinish), "s");
  add_layer(m, "dedup.self_s", dedup_self, "s");
  const EngineCounters c = engine ? engine->counters() : EngineCounters{};
  add_layer(m, "dedup.input_chunks", static_cast<double>(c.input_chunks), "count");
  add_layer(m, "dedup.dup_byte_ratio",
            c.input_bytes == 0 ? 0.0
                               : static_cast<double>(c.dup_bytes) /
                                     static_cast<double>(c.input_bytes),
            "ratio");

  add_layer(m, "chunk.s", total(Layer::kChunkReplay), "s");
  add_layer(m, "chunk.cuts", static_cast<double>(replay.cuts), "count");
  add_layer(m, "hash.s", total(Layer::kHashReplay), "s");
  add_layer(m, "hash.bytes", static_cast<double>(replay.hash_bytes), "bytes");

  // Estimate: the engine's self time not explained by the side replays.
  add_layer(m, "core.est_s",
            engine ? dedup_self - total(Layer::kChunkReplay) -
                         total(Layer::kHashReplay)
                   : 0.0,
            "s");
  add_layer(m, "core.hhr_operations", static_cast<double>(c.hhr_operations), "count");
  add_layer(m, "core.hhr_chunk_reloads", static_cast<double>(c.hhr_chunk_reloads),
            "count");
  add_layer(m, "core.shm_merged_hashes", static_cast<double>(c.shm_merged_hashes),
            "count");
  add_layer(m, "core.manifest_loads",
            engine ? static_cast<double>(engine->manifest_loads()) : 0.0, "count");

  const FingerprintIndex* fp = engine ? engine->fingerprint_index() : nullptr;
  add_layer(m, "index.entries", fp ? static_cast<double>(fp->entry_count()) : 0.0,
            "count");
  add_layer(m, "index.ram_bytes",
            engine ? static_cast<double>(engine->index_ram_bytes()) : 0.0, "bytes");

  const IoCounters top = st.top();
  add_layer(m, "store.calls", static_cast<double>(top.calls), "count");
  add_layer(m, "store.s", total(Layer::kStoreTop), "s");
  add_layer(m, "store.read_bytes", static_cast<double>(top.read_bytes), "bytes");
  add_layer(m, "store.write_bytes", static_cast<double>(top.write_bytes), "bytes");
  // The namespaces a caller of the stack can address; kContainer and
  // kChunkMap exist only beneath ContainerBackend.
  for (const Ns ns : {Ns::kDiskChunk, Ns::kHook, Ns::kManifest,
                      Ns::kFileManifest, Ns::kIndex}) {
    const std::string base = std::string("store.ns.") + ns_name(ns);
    add_layer(m, base + ".s", top.ns_seconds[static_cast<int>(ns)], "s");
    add_layer(m, base + ".calls",
              static_cast<double>(top.ns_calls[static_cast<int>(ns)]), "count");
  }

  const ContainerStats cs = st.containers().stats();
  const double loads = static_cast<double>(cs.container_reads -
                                           before.containers.container_reads);
  const double hits =
      static_cast<double>(cs.cache_hits - before.containers.cache_hits);
  add_layer(m, "container.loads", loads, "count");
  add_layer(m, "container.load_bytes",
            static_cast<double>(cs.container_read_bytes -
                                before.containers.container_read_bytes),
            "bytes");
  add_layer(m, "container.cache_hits", hits, "count");
  add_layer(m, "container.cache_evictions",
            static_cast<double>(cs.cache_evictions -
                                before.containers.cache_evictions),
            "count");
  add_layer(m, "container.cache_hit_ratio",
            hits + loads == 0 ? 0.0 : hits / (hits + loads), "ratio");
  add_layer(m, "container.read_amp",
            restore.bytes == 0 ? 0.0
                               : static_cast<double>(restore.load_bytes) /
                                     static_cast<double>(restore.bytes),
            "ratio");
  add_layer(m, "container.self_s", self(Layer::kStoreTop), "s");
  add_layer(m, "framing.self_s", self(Layer::kStoreMid), "s");

  const IoCounters dev = st.bottom();
  add_layer(m, "device.s", total(Layer::kStoreBottom), "s");
  add_layer(m, "device.calls", static_cast<double>(dev.calls), "count");
  add_layer(m, "device.read_bytes", static_cast<double>(dev.read_bytes), "bytes");
  add_layer(m, "device.write_bytes", static_cast<double>(dev.write_bytes), "bytes");
  add_layer(m, "device.write_amp",
            p.ingest_bytes == 0 ? 0.0
                                : static_cast<double>(dev.write_bytes) /
                                      static_cast<double>(p.ingest_bytes),
            "ratio");

  add_layer(m, "restore.open_s", total(Layer::kRestoreOpen), "s");
  add_layer(m, "restore.read_s", total(Layer::kRestoreRead), "s");
  add_layer(m, "restore.self_s",
            self(Layer::kRestoreOpen) + self(Layer::kRestoreRead), "s");
  double cfl = 0;
  if (restore.bytes > 0) {
    const std::uint64_t cbytes = st.containers().config().container_bytes;
    const double optimal = std::ceil(static_cast<double>(restore.bytes) /
                                     static_cast<double>(cbytes));
    // As measure_restore: capped at 1, and 1 when the open container's
    // RAM image served everything.
    cfl = restore.loads == 0
              ? 1.0
              : std::min(1.0, optimal / static_cast<double>(restore.loads));
  }
  add_layer(m, "restore.cfl", cfl, "ratio");
  add_layer(m, "restore.containers_per_mb",
            restore.bytes == 0 ? 0.0
                               : static_cast<double>(restore.loads) /
                                     (static_cast<double>(restore.bytes) / kMiB),
            "count/MB");
  add_layer(m, "restore.transient_retries", static_cast<double>(restore.retries),
            "count");

  const double client_s = total(Layer::kClientPut) + total(Layer::kClientGet);
  add_layer(m, "client.put_s", total(Layer::kClientPut), "s");
  add_layer(m, "client.get_s", total(Layer::kClientGet), "s");
  add_layer(m, "server.store_s", daemon ? total(Layer::kStoreTop) : 0.0, "s");
  add_layer(m, "server.est_transport_core_s",
            daemon ? client_s - total(Layer::kStoreTop) : 0.0, "s");
  const server::TransportStats ts = server::transport_stats();
  const std::uint64_t syscalls = ts.read_calls + ts.write_calls;
  add_layer(m, "transport.syscalls", static_cast<double>(syscalls), "count");
  add_layer(m, "transport.bytes_per_syscall",
            syscalls == 0 ? 0.0
                          : static_cast<double>(ts.read_bytes + ts.write_bytes) /
                                static_cast<double>(syscalls),
            "bytes");
  const BufferPool::Stats pool = chunk_buffer_pool().stats();
  const double fresh = static_cast<double>((pool.acquires - before.pool.acquires) -
                                           (pool.reuses - before.pool.reuses));
  add_layer(m, "pool.allocs_per_mb",
            p.ingest_bytes == 0
                ? 0.0
                : fresh / (static_cast<double>(p.ingest_bytes) / kMiB),
            "count/MB");
  add_layer(m, "server.busy_rejections", busy_rejections, "count");
  add_layer(m, "server.retries", retries, "count");

  const PipelineStats ps = engine ? engine->pipeline_stats() : PipelineStats{};
  for (const char* stage : {"read", "chunk", "hash", "dedup"}) {
    double busy = 0, idle = 0;
    for (const auto& s : ps.stages) {
      if (s.stage == stage) {
        busy = s.busy_seconds;
        idle = s.idle_seconds;
      }
    }
    add_layer(m, std::string("pipeline.") + stage + ".busy_s", busy, "s");
    add_layer(m, std::string("pipeline.") + stage + ".idle_s", idle, "s");
  }

  // Reconciliation: the layers' self times, the workload's own time and
  // the unattributed remainder add up to the pass wall. In daemon-mixed
  // the wall is client thread-seconds and the store spans run on daemon
  // threads inside the client spans, so they split client time instead of
  // adding to it.
  double attributed = 0;
  for (const Layer l :
       {Layer::kAddFile, Layer::kFinish, Layer::kRestoreOpen,
        Layer::kRestoreRead, Layer::kClientPut, Layer::kClientGet,
        Layer::kStoreTop, Layer::kStoreMid, Layer::kStoreBottom,
        Layer::kGenerate, Layer::kVerify}) {
    attributed += self(l);
  }
  if (daemon) attributed -= total(Layer::kStoreTop);
  add_layer(m, "trace.wall_s", p.wall_s, "s");
  add_layer(m, "trace.unattributed_s", p.wall_s - attributed, "s");
}

// ---------------------------------------------------- library operations

/// Times one add_file; records the sample and any failure into `p`.
void ingest_file(DedupEngine& engine, const Inputs& corpus, std::size_t i,
                 Pass& p, Replay* replay) {
  const ByteVec bytes = generate(corpus, i);
  ++p.attempted;
  const std::uint64_t t0 = now_ns();
  try {
    Span span(Layer::kAddFile);
    MemorySource src(ByteSpan{bytes});
    engine.add_file(corpus.files()[i].name, src);
  } catch (const std::exception& e) {
    ++p.failed;
    p.errors.push_back("add_file " + corpus.files()[i].name + ": " + e.what());
  }
  p.ingest_bytes += bytes.size();
  p.puts.push_back({i, bytes.size(), static_cast<double>(now_ns() - t0) * 1e-6});
  if (replay != nullptr) replay->run(bytes);
}

void finish_engine(DedupEngine& engine, Stack& st, Pass& p) {
  const std::uint64_t t0 = now_ns();
  {
    Span span(Layer::kFinish);
    engine.end_snapshot();
    engine.finish();
  }
  st.flush();
  p.finish_s += static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Streams one file back through RestoreReader (timed: open to last
/// byte), then byte-compares it against the generator (untimed).
void restore_file(StorageBackend& backend, const Inputs& corpus, std::size_t i,
                  Pass& p, RestoreTraffic& traffic) {
  const ByteVec expected = generate(corpus, i);
  const std::string& name = corpus.files()[i].name;
  ByteVec got(expected.size());
  ++p.attempted;
  bool ok = false;
  std::string why = "missing";
  const std::uint64_t t0 = now_ns();
  try {
    std::optional<RestoreReader> reader;
    {
      Span span(Layer::kRestoreOpen);
      reader = RestoreReader::open(backend, name);
    }
    if (reader) {
      std::size_t pos = 0;
      while (pos < got.size()) {
        Span span(Layer::kRestoreRead);
        const std::size_t want = std::min<std::size_t>(1 << 20, got.size() - pos);
        const std::size_t n = reader->read({got.data() + pos, want});
        if (n == 0) break;
        pos += n;
      }
      traffic.retries += reader->transient_retries();
      ok = reader->ok() && pos == got.size() &&
           reader->total_length() == expected.size();
      why = "short or damaged stream";
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
  if (ok && !same_bytes(got, expected)) {
    ok = false;
    why = "byte mismatch";
  }
  if (!ok) {
    ++p.failed;
    p.errors.push_back("restore " + name + ": " + why);
  }
  p.restore_bytes += expected.size();
  traffic.bytes += expected.size();
  p.gets.push_back({i, expected.size(), dt * 1e3});
}

/// Restores `files` starting from a cold container cache; with
/// `cold_each` the cache is also dropped before every file, so each file's
/// latency is that of a cold single-image restore.
void restore_files(Stack& st, const Inputs& corpus,
                   const std::vector<std::size_t>& files, bool cold_each,
                   Pass& p, RestoreTraffic& traffic) {
  st.containers().drop_cache();
  const ContainerStats before = st.containers().stats();
  for (const std::size_t i : files) {
    if (cold_each) st.containers().drop_cache();
    restore_file(st.active(), corpus, i, p, traffic);
  }
  const ContainerStats after = st.containers().stats();
  traffic.loads += after.container_reads - before.container_reads;
  traffic.load_bytes += after.container_read_bytes - before.container_read_bytes;
}

void begin_traced(Stack& st, bool traced) {
  st.reset_counters();
  Tracer::reset();
  server::reset_transport_stats();
  Tracer::set_enabled(traced);
}

// ---------------------------------------------------------- workloads

/// backup-ingest: the whole corpus through make_engine → add_file/finish
/// over a framed in-memory store with containers, then a cold restore of
/// the newest generation, byte-checked.
Pass backup_ingest_pass(const Inputs& corpus, bool traced) {
  Pass p;
  p.traced = traced;
  Stack st(std::make_unique<MemoryBackend>(), traced);
  ObjectStore store(st.active());
  auto engine = make_engine(kEngine, store, engine_config());
  const PassProbe before = PassProbe::take(st);
  Replay replay;
  begin_traced(st, traced);
  const std::uint64_t t0 = now_ns();
  const auto& files = corpus.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i > 0 && files[i].snapshot != files[i - 1].snapshot) engine->end_snapshot();
    ingest_file(*engine, corpus, i, p, traced ? &replay : nullptr);
  }
  finish_engine(*engine, st, p);

  std::vector<std::size_t> newest;
  for (std::uint32_t m = 0; m < corpus.config().machines; ++m) {
    newest.push_back(file_index(corpus, m, corpus.config().snapshots - 1));
  }
  RestoreTraffic traffic;
  restore_files(st, corpus, newest, true, p, traffic);
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9 - replay.seconds;
  Tracer::set_enabled(false);

  const LayerTimes lt = Tracer::snapshot();
  p.signature = signature_of(*engine, st);
  record_space(p, st, p.ingest_bytes);
  if (traced) {
    fill_layers(p, st, before, lt, replay, engine.get(), traffic, false, 0, 0);
    if (replay.cuts != engine->counters().input_chunks) {
      ++p.failed;
      p.errors.push_back("side replay cut " + std::to_string(replay.cuts) +
                         " chunks, engine counted " +
                         std::to_string(engine->counters().input_chunks));
    }
  }
  return p;
}

/// A restore-aged repository: built once into a FileBackend during set-up,
/// then reopened the way a restore process opens it.
struct AgedRepo {
  fs::path dir;
  Pass ingest;  ///< the set-up ingest (latencies, signature)
  std::unique_ptr<Stack> plain;
  std::unique_ptr<Stack> traced;
};

/// Ingests the corpus into memory, then writes every physical object into
/// a FileBackend at `dir`: the same files a direct FileBackend ingest
/// leaves. Ingesting straight into files timed ext4's journal on a shared
/// virtual disk: the same ingest ran at 47 MB/s in some minutes and 73 in
/// others while in-memory ingests held steady, which moved restore-aged's
/// ingest figures by more than their bound between runs.
void ingest_aged_repo(const Inputs& corpus, const fs::path& dir, Pass& p) {
  Stack st(std::make_unique<MemoryBackend>(), false);
  ObjectStore store(st.active());
  auto engine = make_engine(kEngine, store, engine_config());
  const auto& files = corpus.files();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i > 0 && files[i].snapshot != files[i - 1].snapshot) engine->end_snapshot();
    ingest_file(*engine, corpus, i, p, nullptr);
  }
  finish_engine(*engine, st, p);
  p.signature = signature_of(*engine, st);
  record_space(p, st, p.ingest_bytes);
  fs::remove_all(dir);
  fs::create_directories(dir);
  FileBackend out(dir);
  for (int n = 0; n < static_cast<int>(Ns::kCount); ++n) {
    const Ns ns = static_cast<Ns>(n);
    for (const std::string& name : st.raw().list(ns)) {
      out.put(ns, name, *st.raw().get(ns, name));
    }
  }
}

/// restore-aged: every machine's image from the newest generations,
/// through RestoreReader over real files, from a cold container cache.
Pass restore_aged_pass(const Inputs& corpus, AgedRepo& repo, bool traced,
                       std::uint32_t generations) {
  Pass p;
  p.traced = traced;
  Stack& st = traced ? *repo.traced : *repo.plain;
  const PassProbe before = PassProbe::take(st);
  std::vector<std::size_t> files;
  const std::uint32_t snaps = corpus.config().snapshots;
  for (std::uint32_t g = snaps - std::min(generations, snaps); g < snaps; ++g) {
    for (std::uint32_t m = 0; m < corpus.config().machines; ++m) {
      files.push_back(file_index(corpus, m, g));
    }
  }
  begin_traced(st, traced);
  const std::uint64_t t0 = now_ns();
  RestoreTraffic traffic;
  restore_files(st, corpus, files, false, p, traffic);
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  Tracer::set_enabled(false);
  p.stored_per_input = repo.ingest.stored_per_input;
  p.metadata_per_mb = repo.ingest.metadata_per_mb;
  if (traced) {
    fill_layers(p, st, before, Tracer::snapshot(), Replay{}, nullptr, traffic,
                false, 0, 0);
  }
  return p;
}

/// Per-client-thread results of one daemon-mixed phase.
struct ClientLog {
  Pass part;
  Replay replay;
  double wall_s = 0;
};

/// Times one PUT of `bytes` as the tenant's file `i`.
void put_file(server::DedupClient& client, const std::string& tenant,
              const Inputs& corpus, std::size_t i, const ByteVec& bytes,
              Pass& p) {
  ++p.attempted;
  const std::uint64_t s0 = now_ns();
  server::DedupClient::Result put;
  {
    Span span(Layer::kClientPut);
    MemorySource src(ByteSpan{bytes});
    put = client.put(tenant, corpus.files()[i].name, src);
  }
  p.ingest_bytes += bytes.size();
  p.puts.push_back({i, bytes.size(), static_cast<double>(now_ns() - s0) * 1e-6});
  if (!put.ok) {
    ++p.failed;
    p.errors.push_back("put " + corpus.files()[i].name + ": " + put.message);
  }
}

/// Times one GET of the tenant's file `i`, then byte-checks it against
/// `expected` (untimed).
void get_file(server::DedupClient& client, const std::string& tenant,
              const Inputs& corpus, std::size_t i, const ByteVec& expected,
              Pass& p) {
  ByteVec got(expected.size());
  std::size_t pos = 0;
  bool overflow = false;
  ++p.attempted;
  const std::uint64_t s0 = now_ns();
  server::DedupClient::GetResult get;
  {
    Span span(Layer::kClientGet);
    get = client.get(tenant, corpus.files()[i].name, [&](ByteSpan b) {
      if (pos + b.size() > got.size()) {
        overflow = true;
      } else {
        std::memcpy(got.data() + pos, b.data(), b.size());
      }
      pos += b.size();
    });
  }
  p.restore_bytes += expected.size();
  p.gets.push_back({i, expected.size(), static_cast<double>(now_ns() - s0) * 1e-6});
  const bool ok = get.ok && get.stream_ok && !overflow &&
                  pos == expected.size() && same_bytes(got, expected);
  if (!ok) {
    ++p.failed;
    p.errors.push_back("get " + corpus.files()[i].name + ": " +
                       (get.ok ? "short stream or byte mismatch" : get.message));
  }
}

/// One client's closed loop over days [first_day, last_day]. A day opens
/// with the client generating that day's images of its machines (so
/// generation never competes with another client's requests); then all
/// clients PUT the day's images, and after every PUT of the day has
/// finished, GET and byte-check the previous day's images (kept from the
/// day before). `day_step` aligns the clients at both points.
void client_loop(server::DedupClient& client, const std::string& tenant,
                 const Inputs& corpus, std::uint32_t first_day,
                 std::uint32_t last_day, std::uint32_t clients,
                 std::uint32_t self_index, bool traced,
                 std::barrier<>& day_step, ClientLog& log) {
  Pass& p = log.part;
  std::vector<std::uint32_t> machines;
  for (std::uint32_t m = self_index; m < corpus.config().machines; m += clients) {
    machines.push_back(m);
  }
  std::vector<ByteVec> today(machines.size()), previous(machines.size());
  if (first_day > 0) {
    for (std::size_t k = 0; k < machines.size(); ++k) {
      previous[k] = generate(corpus, file_index(corpus, machines[k], first_day - 1));
    }
  }
  std::uint64_t t0 = 0;
  for (std::uint32_t day = first_day; day <= last_day; ++day) {
    for (std::size_t k = 0; k < machines.size(); ++k) {
      today[k] = generate(corpus, file_index(corpus, machines[k], day));
    }
    day_step.arrive_and_wait();
    if (day == first_day) t0 = now_ns();
    for (std::size_t k = 0; k < machines.size(); ++k) {
      put_file(client, tenant, corpus, file_index(corpus, machines[k], day),
               today[k], p);
      if (traced) log.replay.run(today[k]);
    }
    day_step.arrive_and_wait();
    if (day > 0) {
      for (std::size_t k = 0; k < machines.size(); ++k) {
        get_file(client, tenant, corpus,
                 file_index(corpus, machines[k], day - 1), previous[k], p);
      }
    }
    std::swap(today, previous);
  }
  log.wall_s = static_cast<double>(now_ns() - t0) * 1e-9 - log.replay.seconds;
}

constexpr std::uint32_t kDaemonClients = 2;

/// daemon-mixed: an in-process daemon on a Unix socket; two clients on
/// their own threads, disjoint tenants. Set-up PUTs the base generation;
/// the timed part runs the daily PUT + previous-day GET loop.
Pass daemon_mixed_pass(const Inputs& corpus, const Options& o, bool traced,
                       double& setup_s) {
  const std::uint64_t setup0 = now_ns();
  Stack st(std::make_unique<MemoryBackend>(), traced);
  server::DaemonConfig dc;
  const fs::path sock = fs::path(o.work_dir) / "daemon.sock";
  fs::remove(sock);
  dc.listen = "unix:" + sock.string();
  dc.max_sessions = kDaemonClients + 2;
  dc.engine = engine_config();
  server::DedupDaemon daemon(st.active(), st.raw(), dc);
  daemon.start();
  std::vector<std::unique_ptr<server::DedupClient>> clients;
  for (std::uint32_t c = 0; c < kDaemonClients; ++c) {
    auto conn = server::DedupClient::connect(daemon.listen_spec());
    if (!conn) throw std::runtime_error("cannot connect to the daemon");
    clients.push_back(std::make_unique<server::DedupClient>(std::move(*conn)));
  }
  const auto run_phase = [&](std::uint32_t first, std::uint32_t last,
                             bool trace_phase) {
    std::vector<ClientLog> logs(kDaemonClients);
    std::barrier<> day_step(kDaemonClients);
    std::vector<std::thread> threads;
    for (std::uint32_t c = 0; c < kDaemonClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(*clients[c], "t" + std::to_string(c), corpus, first, last,
                      kDaemonClients, c, trace_phase, day_step, logs[c]);
        } catch (const std::exception& e) {
          // Leave the day barrier so the other clients cannot wait forever.
          day_step.arrive_and_drop();
          ++logs[c].part.failed;
          logs[c].part.errors.push_back(std::string("client: ") + e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
    return logs;
  };

  const std::vector<ClientLog> base = run_phase(0, 0, false);
  setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

  Pass p;
  p.traced = traced;
  const PassProbe before = PassProbe::take(st);
  begin_traced(st, traced);
  const std::vector<ClientLog> logs =
      run_phase(1, corpus.config().snapshots - 1, traced);
  Tracer::set_enabled(false);
  const LayerTimes lt = Tracer::snapshot();

  Replay replay;
  std::uint64_t base_bytes = 0;
  for (const auto& log : base) {
    p.attempted += log.part.attempted;
    p.failed += log.part.failed;
    p.errors.insert(p.errors.end(), log.part.errors.begin(), log.part.errors.end());
    base_bytes += log.part.ingest_bytes;
  }
  for (const auto& log : logs) {
    const Pass& q = log.part;
    p.wall_s += log.wall_s;
    p.ingest_bytes += q.ingest_bytes;
    p.restore_bytes += q.restore_bytes;
    p.puts.insert(p.puts.end(), q.puts.begin(), q.puts.end());
    p.gets.insert(p.gets.end(), q.gets.begin(), q.gets.end());
    p.attempted += q.attempted;
    p.failed += q.failed;
    p.errors.insert(p.errors.end(), q.errors.begin(), q.errors.end());
    replay.cuts += log.replay.cuts;
    replay.hash_bytes += log.replay.hash_bytes;
  }
  double retries = 0;
  for (const auto& c : clients) retries += static_cast<double>(c->retries());
  retries += static_cast<double>(daemon.retryable_errors());
  const double busy = static_cast<double>(daemon.busy_rejections());
  if (traced) {
    RestoreTraffic traffic;
    const ContainerStats cs = st.containers().stats();
    traffic.loads = cs.container_reads - before.containers.container_reads;
    traffic.load_bytes =
        cs.container_read_bytes - before.containers.container_read_bytes;
    traffic.bytes = p.restore_bytes;
    fill_layers(p, st, before, lt, replay, nullptr, traffic, true, busy, retries);
  }
  clients.clear();
  daemon.stop();
  fs::remove(sock);
  st.flush();
  record_space(p, st, p.ingest_bytes + base_bytes);
  return p;
}

// ------------------------------------------------------------- report

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_provenance(const Options& o, const CorpusConfig& cc, const Sizes& s) {
  const EngineConfig e = engine_config();
  const CpuFeatures& f = cpu_features();
  std::printf(
      "provenance {\"host_cpus\": %u, \"cpus_used\": \"%s\", \"isa\": {\"sse42\": %s, \"avx2\": %s, "
      "\"sha_ni\": %s, \"simd\": \"%s\"}, \"chunker_impl\": \"%s\", "
      "\"hash_impl\": \"%s\", \"build_type\": \"%s\", \"git_rev\": \"%s\", "
      "\"source_digest\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"smoke\": %s, \"engine\": {\"algo\": "
      "\"%s\", \"chunker\": \"%s\", \"ecs\": %u, \"sd\": %u, \"framed\": %s, "
      "\"container_bytes\": %llu, \"restore_cache_bytes\": %llu, "
      "\"rewrite\": \"%s\", \"index_impl\": \"mem\", \"chunker_impl\": "
      "\"%s\", \"hash_impl\": \"%s\", \"ingest_threads\": %u, "
      "\"bloom_bytes\": %llu, \"manifest_cache_capacity\": %llu}, "
      "\"corpus\": {\"machines\": %u, \"snapshots\": %u, \"image_bytes\": "
      "%llu, \"shape_seed\": %llu, \"order\": \"snapshot-major\"}, "
      "\"setups\": %d, "
      "\"restore_generations\": %u}\n",
      std::thread::hardware_concurrency(), o.cpus.c_str(),
      f.sse42 ? "true" : "false",
      f.avx2 ? "true" : "false", f.sha_ni ? "true" : "false",
      simd_level_name(best_simd_level()),
      resolved_chunker_impl_name(e.chunker, e.chunker_config(e.ecs)),
      resolved_sha1_impl_name(e.hash_impl), PERFBENCH_BUILD_TYPE,
      json_escape(o.git_rev).c_str(), json_escape(o.source_digest).c_str(),
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), o.trace ? 1 : 0, o.smoke ? "true" : "false",
      kEngine, chunker_kind_name(e.chunker), e.ecs, e.sd,
      e.framed ? "true" : "false",
      static_cast<unsigned long long>(e.container_bytes),
      static_cast<unsigned long long>(e.restore_cache_bytes),
      rewrite_mode_name(e.rewrite), chunker_impl_name(e.chunker_impl),
      sha1_impl_name(e.hash_impl), e.ingest_threads,
      static_cast<unsigned long long>(e.bloom_bytes),
      static_cast<unsigned long long>(e.manifest_cache_capacity), cc.machines,
      cc.snapshots, static_cast<unsigned long long>(cc.image_bytes),
      static_cast<unsigned long long>(kShapeSeed), s.setups,
      s.restore_generations);
}

/// Result of one workload run, printed as the final JSON line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  std::vector<std::string> errors;
};

void absorb(Outcome& out, const Pass& p) {
  out.attempted += p.attempted;
  out.failed += p.failed;
  for (const auto& e : p.errors) {
    if (out.errors.size() < 20) out.errors.push_back(e);
  }
}

void print_outcome(const Outcome& out) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : out.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + num(vu.first) + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Each distinct file's median time over the run's repetitions of one
/// kind of operation.
struct PerFile {
  std::vector<double> ms;      ///< one median per file
  std::vector<double> pooled;  ///< every sample of the run
  double bytes = 0;            ///< bytes of one repetition
  double total_s = 0;          ///< sum of the medians
};

PerFile per_file(const std::vector<Pass>& passes,
                 std::vector<Sample> Pass::*kind) {
  std::map<std::size_t, std::vector<double>> ms;
  std::map<std::size_t, std::uint64_t> bytes;
  PerFile out;
  for (const Pass& p : passes) {
    for (const Sample& x : p.*kind) {
      ms[x.file].push_back(x.ms);
      bytes[x.file] = x.bytes;
      out.pooled.push_back(x.ms);
    }
  }
  for (const auto& [file, v] : ms) {
    out.ms.push_back(median(v));
    out.total_s += out.ms.back() * 1e-3;
    out.bytes += static_cast<double>(bytes[file]);
  }
  return out;
}

/// End-to-end metrics from the untraced passes (and set-ups).
///
/// Every operation (one file's ingest or restore) repeats once per pass or
/// set-up. On a shared host the same operation varies by up to 3x between
/// repetitions, and a figure over every repetition follows that scatter
/// more than the program's cost: a PUT p90 pooled over the run moved by a
/// quarter from run to run. So each operation counts at its median time
/// over the run's repetitions: a throughput is one repetition's bytes over
/// the sum of those medians (plus the median engine finish), and the
/// latency percentiles are taken over them where there are enough files
/// (every ingest, and daemon-mixed's 182 GETs). The library workloads
/// restore only 14 or 56 distinct files, too few for a p90 with ten beyond
/// it, so their GET percentiles pool every restore of the run.
void end_to_end(const std::string& workload, const std::vector<Pass>& passes,
                const std::vector<Pass>& ingest_passes,
                const std::vector<double>& setup_times, Outcome& out) {
  const PerFile in = per_file(ingest_passes, &Pass::puts);
  const PerFile re = per_file(passes, &Pass::gets);
  std::vector<double> finish_s, stored, meta;
  for (const Pass& p : ingest_passes) finish_s.push_back(p.finish_s);
  for (const Pass& p : passes) {
    stored.push_back(p.stored_per_input);
    meta.push_back(p.metadata_per_mb);
  }
  const auto put = [&](const char* name, double v, const char* unit,
                       const std::string& note) {
    out.metrics[name] = {v, unit};
    std::printf("  %-30s %14.4f %-6s %s\n", name, v, unit, note.c_str());
  };
  const auto per_file_note = [](const PerFile& f, const char* ops) {
    return std::to_string(f.ms.size()) + " files at their median over " +
           std::to_string(f.pooled.size()) + " " + ops;
  };
  const auto note = [](const std::string& what, std::size_t beyond) {
    return "(n=" + what + ", " + std::to_string(beyond) +
           " beyond" + (beyond < 10 ? "; FEWER THAN 10 BEYOND)" : ")");
  };
  // Over per-file medians only with at least 100 files, so that a p90 has
  // ten beyond it; otherwise over every repetition.
  const auto pct = [&](const char* name, const PerFile& f, double q,
                       const char* ops) {
    const bool by_file = f.ms.size() >= 100;
    std::size_t beyond = 0;
    const double v = percentile(by_file ? f.ms : f.pooled, q, &beyond);
    put(name, v, "ms",
        note(by_file ? per_file_note(f, ops)
                     : std::to_string(f.pooled.size()) + " " + ops,
             beyond));
  };
  std::printf("end-to-end %s (untraced)\n", workload.c_str());
  const auto list = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) out += (out.empty() ? "" : " ") + num(x);
    return out;
  };
  for (const auto& [what, v] : {std::pair{"put_ms", &in.pooled}, {"get_ms", &re.pooled}}) {
    std::vector<double> qs;
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
      qs.push_back(percentile(*v, q, nullptr));
    }
    std::printf("  %s pooled p10 p25 p50 p75 p90 p95 p99: %s\n", what, list(qs).c_str());
  }
  const double ingest_s = in.total_s + median(finish_s);
  put("ingest_mb_s", ingest_s > 0 ? in.bytes / kMiB / ingest_s : 0, "MB/s",
      "(" + per_file_note(in, "ingests") + ", plus median finish " +
          num(median(finish_s)) + " s)");
  put("restore_mb_s", re.total_s > 0 ? re.bytes / kMiB / re.total_s : 0, "MB/s",
      "(" + per_file_note(re, "restores") + ")");
  pct("put_p50_ms", in, 0.5, "ingests");
  pct("put_p90_ms", in, 0.9, "ingests");
  pct("get_p50_ms", re, 0.5, "restores");
  pct("get_p90_ms", re, 0.9, "restores");
  put("stored_bytes_per_input_byte", median(stored), "ratio", "");
  put("metadata_bytes_per_input_mb", median(meta), "bytes/MB", "");
  put("peak_rss_mb", peak_rss_mb(), "MB", "(whole process)");
  put("setup_s", median(setup_times), "s",
      "(median of " + std::to_string(setup_times.size()) + " set-ups)");
  std::printf("  %-30s %14.6f %-6s (%llu failed / %llu attempted)\n",
              "failed_ops_ratio",
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted),
              "ratio", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
}

/// Per-layer metrics from the traced pass with the median wall time, so
/// the reconciliation holds exactly within one measured pass.
void per_layer(const std::vector<Pass>& passes, Outcome& out) {
  std::vector<const Pass*> traced;
  std::vector<double> traced_wall, plain_wall;
  for (const Pass& p : passes) {
    if (p.traced) {
      traced.push_back(&p);
      traced_wall.push_back(p.wall_s);
    } else {
      plain_wall.push_back(p.wall_s);
    }
  }
  if (traced.empty()) throw std::runtime_error("no traced pass ran");
  std::sort(traced.begin(), traced.end(),
            [](const Pass* a, const Pass* b) { return a->wall_s < b->wall_s; });
  const Pass& rep = *traced[(traced.size() - 1) / 2];
  out.metrics = rep.layers;
  const double plain = median(plain_wall);
  out.metrics["trace.overhead_pct"] = {
      plain <= 0 ? 0.0 : (median(traced_wall) - plain) / plain * 100.0, "%"};
  std::printf("per-layer (traced pass of median wall; %zu traced, %zu untraced "
              "passes)\n",
              traced.size(), plain_wall.size());
  for (const auto& [name, vu] : out.metrics) {
    std::printf("  %-40s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  const auto get = [&](const char* n) { return out.metrics.at(n).first; };
  const double wall = get("trace.wall_s");
  const double unattributed = get("trace.unattributed_s");
  std::printf("reconciliation: wall %.6f s = layer self times %.6f s + "
              "workload %.6f s + unattributed %.6f s\n",
              wall, wall - unattributed - get("workload.generate_s") -
                        get("workload.verify_s"),
              get("workload.generate_s") + get("workload.verify_s"),
              unattributed);
  if (unattributed < -0.01 * wall) {
    out.correct = false;
    out.errors.push_back("trace reconciliation: layer self times exceed the wall");
  }
}

/// Dedup counters must repeat exactly across repetitions and between
/// traced and untraced passes.
void check_determinism(const std::vector<const Pass*>& runs, Outcome& out) {
  const DedupSignature* first = nullptr;
  for (const Pass* p : runs) {
    if (!p->signature) continue;
    if (first == nullptr) {
      first = &*p->signature;
    } else if (!(*first == *p->signature)) {
      out.correct = false;
      out.errors.push_back(
          "determinism break: stored_chunks " + std::to_string(first->stored_chunks) +
          " vs " + std::to_string(p->signature->stored_chunks) + ", dup_bytes " +
          std::to_string(first->dup_bytes) + " vs " +
          std::to_string(p->signature->dup_bytes) + ", physical bytes " +
          std::to_string(first->physical_bytes) + " vs " +
          std::to_string(p->signature->physical_bytes));
    }
  }
}

bool more_passes(const std::vector<Pass>& passes, const Options& o,
                 const Sizes& s, std::uint64_t start_ns) {
  const double elapsed = static_cast<double>(now_ns() - start_ns) * 1e-9;
  int traced = 0, plain = 0;
  for (const Pass& p : passes) (p.traced ? traced : plain)++;
  const int need = s.min_passes;
  if (o.trace && (traced < need || plain < need)) return true;
  if (!o.trace && plain < need) return true;
  return elapsed < o.seconds;
}

Outcome run_workload(const Options& o) {
  const Sizes s = sizes_for(o.workload, o.smoke);
  const CorpusConfig cc = corpus_config(s);
  print_provenance(o, cc, s);
  fs::create_directories(o.work_dir);

  std::vector<Pass> passes;
  std::vector<Pass> ingests;  ///< passes that measured ingest
  std::vector<double> setup_times;
  std::optional<Inputs> corpus;
  const bool library = o.workload != "daemon-mixed";
  AgedRepo repo;

  if (o.workload == "backup-ingest") {
    // Set-up: build the corpus plan, then warm the allocator, buffer pool
    // and SHA-1 kernel selection with the base generation through a
    // throwaway stack.
    for (int k = 0; k < s.setups; ++k) {
      const std::uint64_t t0 = now_ns();
      corpus.emplace(cc, o.seed);
      Stack st(std::make_unique<MemoryBackend>(), false);
      ObjectStore store(st.active());
      auto engine = make_engine(kEngine, store, engine_config());
      Pass warm;
      for (std::uint32_t m = 0; m < cc.machines; ++m) {
        ingest_file(*engine, *corpus, file_index(*corpus, m, 0), warm, nullptr);
      }
      finish_engine(*engine, st, warm);
      if (warm.failed > 0) throw std::runtime_error("warm-up ingest failed");
      setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  } else if (o.workload == "restore-aged") {
    // Set-up: ingest the corpus into real files, close, reopen as a fresh
    // restore process would. Repeated; every repetition must store the
    // same bytes.
    for (int k = 0; k < s.setups; ++k) {
      const std::uint64_t t0 = now_ns();
      corpus.emplace(cc, o.seed);
      repo.plain.reset();
      repo.ingest = Pass{};
      repo.dir = fs::path(o.work_dir) / ("aged-repo-" + std::to_string(k));
      ingest_aged_repo(*corpus, repo.dir, repo.ingest);
      repo.plain = std::make_unique<Stack>(std::make_unique<FileBackend>(repo.dir),
                                           false);
      setup_times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      ingests.push_back(repo.ingest);
      if (k > 0) {
        fs::remove_all(fs::path(o.work_dir) / ("aged-repo-" + std::to_string(k - 1)));
      }
    }
    if (o.trace) {
      repo.traced = std::make_unique<Stack>(std::make_unique<FileBackend>(repo.dir),
                                            true);
    }
  } else if (o.workload == "daemon-mixed") {
    corpus.emplace(cc, o.seed);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }

  const std::uint64_t start = now_ns();
  while (more_passes(passes, o, s, start)) {
    // Hand freed memory back between passes, so peak RSS measures one pass
    // and not the allocator's leftovers from the passes before it.
    malloc_trim(0);
    // Traced runs alternate untraced and traced passes: the untraced ones
    // give the overhead baseline and the determinism reference.
    const bool traced = o.trace && passes.size() % 2 == 1;
    if (o.workload == "backup-ingest") {
      passes.push_back(backup_ingest_pass(*corpus, traced));
      if (!traced) ingests.push_back(passes.back());
    } else if (o.workload == "restore-aged") {
      passes.push_back(restore_aged_pass(*corpus, repo, traced,
                                         s.restore_generations));
    } else {
      double setup_s = 0;
      passes.push_back(daemon_mixed_pass(*corpus, o, traced, setup_s));
      setup_times.push_back(setup_s);
      if (!traced) ingests.push_back(passes.back());
    }
  }

  Outcome out;
  // restore-aged's set-up ingests are operations of their own; the other
  // workloads' ingest list repeats their passes.
  if (o.workload == "restore-aged") {
    for (const Pass& p : ingests) absorb(out, p);
  }
  for (const Pass& p : passes) absorb(out, p);
  if (library) {
    std::vector<const Pass*> runs;
    for (const Pass& p : ingests) runs.push_back(&p);
    for (const Pass& p : passes) runs.push_back(&p);
    check_determinism(runs, out);
  }
  if (o.trace) {
    per_layer(passes, out);
  } else {
    end_to_end(o.workload, passes, ingests, setup_times, out);
  }
  repo.plain.reset();
  repo.traced.reset();
  if (!repo.dir.empty()) fs::remove_all(repo.dir);
  if (out.failed > 0) out.correct = false;
  for (const auto& e : out.errors) std::printf("ERROR %s\n", e.c_str());
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mhd_perfbench: %s\n", e.what());
    return 2;
  }
  o.cpus = use_two_cpus();
  const std::vector<std::string> workloads =
      o.workload == "all"
          ? std::vector<std::string>{"backup-ingest", "restore-aged", "daemon-mixed"}
          : std::vector<std::string>{o.workload};
  bool all_ok = true;
  for (const auto& w : workloads) {
    Options wo = o;
    wo.workload = w;
    try {
      const Outcome out = run_workload(wo);
      std::fflush(stdout);
      print_outcome(out);
      all_ok = all_ok && out.correct;
    } catch (const std::exception& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "mhd_perfbench: %s: %s\n", w.c_str(), e.what());
      all_ok = false;
    }
    std::fflush(stdout);
  }
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  return all_ok ? 0 : 1;
}
