// run_experiment — the researcher's CLI: run any engine over a synthetic
// corpus with full parameter control and get every metric of the paper as
// a table and as JSON (for plotting pipelines).
//
//   ./run_experiment --algo=bf-mhd --size_mb=48 --ecs=1024 --sd=32
//                    [--chunker=rabin|tttd|gear]
//                    [--chunker-impl=auto|scalar|simd]
//                    [--hash-impl=auto|shani|simd|portable] [--cache_kb=256]
//                    [--index-impl=mem|disk|sampled] [--index-cache-mb=8]
//                    [--index-bloom-bits-per-key=10]
//                    [--sample-bits=6] [--champions=10]
//                    [--framed] [--fault-plan=SPEC]
//                    [--container-mb=N] [--rewrite=none|cbr|har]
//                    [--cbr-segment-mb=4] [--cbr-cap=16] [--har-util=0.5]
//                    [--restore-cache-mb=32] [--measure-restore]
//                    [--verify] [--json]
//
// Engine flags are bound by sim/engine_flags.h (defaults here: ECS 1024,
// SD 32); --cache_kb and the --cbr-*/--har-util tuning knobs are this
// harness's own. Any other flag is an error (exit 2, naming the flag).
// --index-impl=disk routes the fingerprint index through the persistent
// sharded on-disk index (bounded RAM, warm restart); --index-cache-mb
// bounds its hot bucket-page cache (accepts K/M/G suffixes, bare number =
// MB) and --index-bloom-bits-per-key sizes its negative-lookup bloom.
// --index-impl=sampled keeps only a sparse similarity hook table resident
// (fingerprints whose low --sample-bits bits are zero); a hook hit loads
// up to --champions similar segments for full-segment dedup, and
// duplicates the sample misses are stored again — the loss is reported as
// sampled missed-dup MB, never hidden.
// --framed stores every object with CRC32C self-verification framing
// (dedup results stay bit-identical; the framing overhead is reported);
// --fault-plan injects deterministic storage faults below the framing,
// e.g. --fault-plan=torn@120:0.5,readerr@3x2,seed:7 (see
// store/fault_backend.h for the mini-language).
// --container-mb packs chunk data into fixed-size containers (the
// fragmentation-aware layout; 0 = legacy per-chunk objects) and
// --rewrite selects the dedup-time fragmentation control: cbr caps the
// distinct old containers a segment may reference, har rewrites
// duplicates into containers that went sparse across generations.
// --restore-cache-mb budgets the restore path's container cache;
// --measure-restore times a full streaming restore of the corpus after
// ingest and reports restore MB/s, containers-read-per-MB, CFL and the
// container read amplification.
#include <cstdio>

#include "mhd/metrics/json_export.h"
#include "mhd/sim/engine_flags.h"
#include "mhd/sim/runner.h"
#include "mhd/util/flags.h"
#include "mhd/util/table.h"
#include "mhd/workload/presets.h"

int main(int argc, char** argv) {
  using namespace mhd;
  const Flags flags(argc, argv);

  RunSpec spec;
  try {
    reject_unknown_flags(
        flags, {"algo", "size_mb", "seed", "cache_kb", "cbr-segment-mb",
                "cbr-cap", "har-util", "verify", "measure-restore", "json"});
    // This harness's own knobs shape the base the engine flags bind over.
    EngineConfig base;
    base.ecs = 1024;
    base.sd = 32;
    base.manifest_cache_bytes =
        static_cast<std::uint64_t>(flags.get_int("cache_kb", 256)) << 10;
    base.manifest_cache_capacity = 4096;
    base.cbr_segment_bytes =
        flags.get_size("cbr-segment-mb", base.cbr_segment_bytes,
                       64ull << 10, 1ull << 40, /*unit=*/1ull << 20);
    base.cbr_cap = static_cast<std::uint32_t>(
        flags.get_uint("cbr-cap", base.cbr_cap, 1, 65536));
    base.har_utilization =
        flags.get_double("har-util", base.har_utilization);
    spec.engine = bind_engine_flags(flags, base);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad flag: %s\n", e.what());
    return 2;
  }
  spec.algorithm = flags.get("algo", "bf-mhd");
  spec.verify = flags.get_bool("verify", false);
  spec.measure_restore = flags.get_bool("measure-restore", false);

  const auto size_mb = static_cast<std::uint64_t>(flags.get_int("size_mb", 48));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const Corpus corpus(icpp13_preset(size_mb, seed));

  ExperimentResult r;
  try {
    r = run_experiment(spec, corpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }

  if (flags.get_bool("json", false)) {
    std::printf("%s\n", to_json(r).c_str());
    return 0;
  }

  std::printf("%s on %.1f MB (ECS=%u, SD=%u, chunker=%s/%s, sha1=%s)%s\n\n",
              r.algorithm.c_str(), r.input_bytes / 1048576.0, r.ecs, r.sd,
              r.chunker.c_str(), r.chunker_impl.c_str(), r.hash_impl.c_str(),
              spec.verify ? " [restores verified byte-exactly]" : "");
  TextTable t({"Metric", "Value"});
  t.add_row({"data-only DER", TextTable::num(r.data_only_der(), 3)});
  t.add_row({"real DER", TextTable::num(r.real_der(), 3)});
  t.add_row({"MetaDataRatio", TextTable::num(r.metadata_ratio() * 100, 4) + "%"});
  t.add_row({"ThroughputRatio", TextTable::num(r.throughput_ratio(), 3)});
  t.add_row({"stored data MB", TextTable::num(r.stored_data_bytes / 1048576.0, 2)});
  t.add_row({"metadata KB", TextTable::num(r.metadata.total_bytes() / 1024)});
  t.add_row({"inodes", TextTable::num(r.metadata.total_inodes())});
  t.add_row({"duplicate slices (L)", TextTable::num(r.counters.dup_slices)});
  t.add_row({"DAD KB", TextTable::num(r.dad_bytes() / 1024.0, 1)});
  t.add_row({"stored chunks (N)", TextTable::num(r.counters.stored_chunks)});
  t.add_row({"duplicate chunks (D)", TextTable::num(r.counters.dup_chunks)});
  t.add_row({"HHR operations", TextTable::num(r.counters.hhr_operations)});
  t.add_row({"HHR chunk reloads", TextTable::num(r.counters.hhr_chunk_reloads)});
  t.add_row({"manifest loads", TextTable::num(r.manifest_loads)});
  t.add_row({"disk accesses", TextTable::num(r.stats.total_accesses())});
  t.add_row({"index RAM KB", TextTable::num(r.index_ram_bytes / 1024)});
  t.add_row({"index impl", r.index_impl});
  t.add_row({"index entries", TextTable::num(r.index_entries)});
  if (r.index_impl == "sampled") {
    t.add_row({"sampled hook entries", TextTable::num(r.sampled_hook_entries)});
    t.add_row({"champion loads", TextTable::num(r.champion_loads)});
    t.add_row({"sampled missed-dup MB",
               TextTable::num(r.sampled_missed_dup_bytes / 1048576.0, 2)});
  }
  if (r.framed) {
    t.add_row({"framing overhead KB",
               TextTable::num(r.framing_overhead_bytes() / 1024.0, 1)});
  }
  if (r.container_bytes != 0) {
    t.add_row({"container MB", TextTable::num(r.container_bytes / 1048576.0, 1)});
    t.add_row({"containers sealed", TextTable::num(r.containers_sealed)});
    t.add_row({"container packed MB",
               TextTable::num(r.container_packed_bytes / 1048576.0, 2)});
    t.add_row({"rewrite mode", r.rewrite_mode});
    if (r.rewrite_mode != "none") {
      t.add_row({"rewritten chunks", TextTable::num(r.counters.rewritten_chunks)});
      t.add_row({"rewritten MB",
                 TextTable::num(r.counters.rewritten_bytes / 1048576.0, 2)});
      t.add_row({"rewrite ratio",
                 TextTable::num(r.rewrite_ratio() * 100, 2) + "%"});
    }
  }
  if (r.restore.bytes != 0) {
    t.add_row({"restore MB/s", TextTable::num(r.restore.mb_per_s(), 1)});
    t.add_row({"containers read / MB",
               TextTable::num(r.restore.containers_read_per_mb(), 3)});
    t.add_row({"CFL", TextTable::num(r.restore.cfl, 3)});
    t.add_row({"container read amp",
               TextTable::num(r.restore.read_amp(), 3)});
  }
  if (r.stats.transient_retries != 0) {
    t.add_row({"transient retries", TextTable::num(r.stats.transient_retries)});
  }
  if (r.counters.corruption_fallbacks != 0) {
    t.add_row({"corruption fallbacks",
               TextTable::num(r.counters.corruption_fallbacks)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}
