// pipeline_throughput — end-to-end ingest MB/s, serial vs. the staged
// concurrent pipeline, across hash-pool sizes:
//
//   ./pipeline_throughput [--size_mb=96] [--ecs=4096] [--reps=3]
//                         [--workers=0,1,2,4,8] [--engine=cdc]
//                         [--chunker=gear] [--chunker-impl=auto]
//                         [--hash-impl=auto] [--seed=1]
//                         [--json=BENCH_pipeline.json]
//
// Each row drives the full corpus through a fresh engine + in-memory
// store with the given hash-pool size (0 = the serial reference path) and
// reports best-of-reps throughput. The determinism contract is enforced
// on every run: any divergence from the serial counters or stored bytes
// aborts the bench with a non-zero exit — a pipeline that is fast but
// wrong never produces a number. Per-stage busy/idle/queue stats for the
// largest pool are printed so a regression is attributable to a stage.
//
// A final serial run repeats the ingest through the CRC32C FramedBackend:
// its dedup counters must match the bare serial reference bit for bit
// (framing is invisible to the engine), and the physical − logical byte
// delta is reported as the framing overhead — in the table and in the
// JSON baseline.
//
// BENCH_pipeline.json at the repo root is the recorded baseline from this
// harness (see --json).
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mhd/sim/engine_flags.h"
#include "mhd/sim/runner.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/flags.h"
#include "mhd/util/table.h"
#include "mhd/util/timer.h"
#include "mhd/workload/presets.h"

namespace {

using namespace mhd;

struct Row {
  std::uint32_t workers = 0;
  double mb_per_s = 0;
  EngineCounters counters;
  std::uint64_t stored_bytes = 0;    // logical chunk payload bytes
  std::uint64_t physical_bytes = 0;  // framed runs: bytes on the raw store
  bool framed = false;
  PipelineStats stats;
};

struct RunConfig {
  std::string engine_name;
  EngineConfig engine;
  int reps = 3;
};

/// The corpus pre-materialized in RAM: ingest throughput is measured in
/// the page-cache regime (bytes already resident), so the number reflects
/// the dedup pipeline itself, not the synthetic generator's speed.
struct ResidentCorpus {
  std::vector<std::string> names;
  std::vector<ByteVec> data;
  std::uint64_t total_bytes = 0;

  explicit ResidentCorpus(const Corpus& corpus) {
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      ByteVec file(corpus.files()[i].bytes);
      std::size_t off = 0;
      while (off < file.size()) {
        const std::size_t n =
            src->read({file.data() + off, file.size() - off});
        if (n == 0) break;
        off += n;
      }
      file.resize(off);
      total_bytes += off;
      names.push_back(corpus.files()[i].name);
      data.push_back(std::move(file));
    }
  }
};

Row measure(const RunConfig& rc, const ResidentCorpus& corpus,
            std::uint32_t workers, bool framed = false) {
  Row row;
  row.workers = workers;
  row.framed = framed;
  double best = 0;
  for (int rep = 0; rep < rc.reps; ++rep) {
    MemoryBackend backend;
    std::optional<FramedBackend> framing;
    if (framed) framing.emplace(backend);
    StorageBackend& active = framed ? static_cast<StorageBackend&>(*framing)
                                    : backend;
    ObjectStore store(active);
    EngineConfig cfg = rc.engine;
    cfg.ingest_threads = workers;
    auto engine = make_engine(rc.engine_name, store, cfg);
    Stopwatch watch;
    for (std::size_t i = 0; i < corpus.data.size(); ++i) {
      MemorySource src(corpus.data[i]);
      engine->add_file(corpus.names[i], src);
    }
    const double secs = watch.seconds();
    best = std::max(best, corpus.total_bytes / 1048576.0 / secs);
    row.counters = engine->counters();
    row.stored_bytes = active.content_bytes(Ns::kDiskChunk);
    row.physical_bytes =
        framed ? framing->physical_bytes(Ns::kDiskChunk) : row.stored_bytes;
    row.stats = engine->pipeline_stats();
  }
  row.mb_per_s = best;
  return row;
}

/// Any mismatch vs. the serial reference is a correctness bug, not noise.
bool diverges(const Row& serial, const Row& row, std::string& why) {
  const auto& a = serial.counters;
  const auto& b = row.counters;
  auto check = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x == y) return false;
    why = std::string(name) + ": serial=" + std::to_string(x) +
          " workers=" + std::to_string(row.workers) + " -> " +
          std::to_string(y);
    return true;
  };
  return check("input_chunks", a.input_chunks, b.input_chunks) ||
         check("dup_chunks", a.dup_chunks, b.dup_chunks) ||
         check("dup_bytes", a.dup_bytes, b.dup_bytes) ||
         check("stored_chunks", a.stored_chunks, b.stored_chunks) ||
         check("stored_bytes", serial.stored_bytes, row.stored_bytes);
}

void write_json(const std::string& path, const RunConfig& rc,
                const ResidentCorpus& corpus, const std::vector<Row>& rows,
                double serial_mb_s, const Row& framed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"pipeline_throughput\",\n"
               "  \"engine\": \"%s\",\n  \"ecs\": %u,\n"
               "  \"hash_impl\": \"%s\",\n"
               "  \"corpus_mb\": %.1f,\n  \"host_cpus\": %u,\n"
               "  \"rows\": [\n",
               rc.engine_name.c_str(), rc.engine.ecs,
               resolved_sha1_impl_name(rc.engine.hash_impl),
               corpus.total_bytes / 1048576.0,
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"workers\": %u, \"mb_per_s\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 r.workers, r.mb_per_s, r.mb_per_s / serial_mb_s,
                 i + 1 < rows.size() ? "," : "");
  }
  const std::uint64_t overhead = framed.physical_bytes - framed.stored_bytes;
  std::fprintf(f,
               "  ],\n  \"framed\": {\n"
               "    \"mb_per_s\": %.1f,\n    \"vs_serial\": %.2f,\n"
               "    \"stored_data_bytes\": %llu,\n"
               "    \"physical_data_bytes\": %llu,\n"
               "    \"framing_overhead_bytes\": %llu,\n"
               "    \"framing_overhead_pct\": %.3f\n  }\n}\n",
               framed.mb_per_s, framed.mb_per_s / serial_mb_s,
               static_cast<unsigned long long>(framed.stored_bytes),
               static_cast<unsigned long long>(framed.physical_bytes),
               static_cast<unsigned long long>(overhead),
               framed.stored_bytes == 0
                   ? 0.0
                   : 100.0 * overhead / framed.stored_bytes);
  std::fclose(f);
  std::printf("\nbaseline written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  RunConfig rc;
  rc.engine_name = flags.get("engine", "cdc");
  rc.reps = static_cast<int>(flags.get_uint("reps", 3, 1, 100));
  EngineConfig defaults;
  defaults.ecs = 4096;
  defaults.sd = 32;
  // Gear (SIMD scan) by default so chunking is cheap and SHA-1 dominates —
  // the regime the hash pool is built for; override to study others.
  defaults.chunker = ChunkerKind::kGear;
  rc.engine = bind_engine_flags(flags, defaults);

  std::vector<std::uint32_t> workers;
  for (const auto w : flags.get_int_list("workers", {0, 1, 2, 4, 8})) {
    workers.push_back(static_cast<std::uint32_t>(w));
  }
  if (workers.empty() || workers.front() != 0) {
    workers.insert(workers.begin(), 0);  // the serial reference is mandatory
  }

  const auto size_mb = flags.get_uint("size_mb", 96, 1, 1 << 20);
  const auto seed = flags.get_uint("seed", 1);
  const ResidentCorpus corpus{Corpus(icpp13_preset(size_mb, seed))};

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== ingest pipeline throughput ===\n");
  std::printf(
      "engine=%s ecs=%u chunker=%s sha1=%s corpus=%lluMB (%zu files, in "
      "RAM), best of %d, host cpus=%u\n\n",
      rc.engine_name.c_str(), rc.engine.ecs,
      chunker_kind_name(rc.engine.chunker),
      resolved_sha1_impl_name(rc.engine.hash_impl),
      static_cast<unsigned long long>(size_mb), corpus.data.size(), rc.reps,
      cpus);
  if (cpus <= 1) {
    std::printf(
        "NOTE: single-CPU host — hash workers time-slice one core, so no\n"
        "speedup is possible here; the table measures pipeline overhead\n"
        "(and the divergence check still proves determinism).\n\n");
  }

  std::vector<Row> rows;
  for (const auto w : workers) rows.push_back(measure(rc, corpus, w));

  const double serial_mb_s = rows.front().mb_per_s;
  TextTable t({"hash workers", "MB/s", "speedup"});
  for (const auto& row : rows) {
    std::string why;
    if (diverges(rows.front(), row, why)) {
      std::fprintf(stderr,
                   "FATAL: pipelined result diverges from serial — %s\n",
                   why.c_str());
      return 1;
    }
    t.add_row({row.workers == 0 ? "serial" : std::to_string(row.workers),
               TextTable::num(row.mb_per_s, 1),
               TextTable::num(row.mb_per_s / serial_mb_s, 2) + "x"});
  }
  std::printf("%s", t.to_string().c_str());

  // Framed reference run: the CRC32C framing must be invisible to the
  // dedup engine (identical counters and logical bytes) and costs only
  // the header/trailer bytes it adds on the raw store.
  const Row framed = measure(rc, corpus, 0, /*framed=*/true);
  {
    std::string why;
    if (diverges(rows.front(), framed, why)) {
      std::fprintf(stderr,
                   "FATAL: framed result diverges from bare serial — %s\n",
                   why.c_str());
      return 1;
    }
  }
  const std::uint64_t overhead = framed.physical_bytes - framed.stored_bytes;
  std::printf(
      "\nCRC32C framing (serial): %.1f MB/s (%.2fx of bare), overhead "
      "%llu bytes = %.3f%% of %.1f MB stored\n",
      framed.mb_per_s, framed.mb_per_s / serial_mb_s,
      static_cast<unsigned long long>(overhead),
      framed.stored_bytes == 0 ? 0.0
                               : 100.0 * overhead / framed.stored_bytes,
      framed.stored_bytes / 1048576.0);

  const auto& widest = rows.back();
  if (!widest.stats.empty()) {
    std::printf("\nstage breakdown at %u workers:\n", widest.workers);
    TextTable p({"Stage", "Busy s", "Idle s", "Util", "Queue HWM"});
    for (const auto& s : widest.stats.stages) {
      p.add_row({s.stage, TextTable::num(s.busy_seconds, 3),
                 TextTable::num(s.idle_seconds, 3),
                 TextTable::num(s.utilization() * 100, 1) + "%",
                 TextTable::num(s.queue_high_water)});
    }
    std::printf("%s", p.to_string().c_str());
  }

  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    write_json(json, rc, corpus, rows, serial_mb_s, framed);
  }
  return 0;
}
