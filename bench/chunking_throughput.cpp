// chunking_throughput — MB/s of the raw Chunker::scan hot loop, per
// implementation per chunker. This is the harness behind the SIMD gear
// numbers quoted in README.md:
//
//   ./chunking_throughput [--size_mb=256] [--reps=3] [--ecs=1024,4096,8192]
//                         [--seed=1]
//
// Each row scans the same random buffer end to end (no I/O, no hashing,
// no store — chunking only) and reports throughput plus the cut count, so
// a kernel that "wins" by finding different boundaries is caught on the
// spot (the differential test suite proves equivalence exhaustively; the
// bench cross-checks it on every run).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "mhd/chunk/gear_chunker.h"
#include "mhd/chunk/make_chunker.h"
#include "mhd/util/cpufeatures.h"
#include "mhd/util/flags.h"
#include "mhd/util/random.h"
#include "mhd/util/table.h"
#include "mhd/util/timer.h"

namespace {

using namespace mhd;

std::uint64_t count_cuts(Chunker& chunker, ByteSpan data) {
  std::uint64_t cuts = 0;
  std::size_t off = 0;
  while (off < data.size()) {
    const auto r = chunker.scan({data.data() + off, data.size() - off});
    off += r.consumed;
    cuts += r.cut;
  }
  return cuts;
}

struct Row {
  std::string name;
  std::uint64_t cuts = 0;
  double mb_per_s = 0;
};

Row measure(const std::string& name, Chunker& chunker, ByteSpan data,
            int reps) {
  Row row;
  row.name = name;
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    chunker.reset();  // drop the trailing partial chunk of the previous rep
    Stopwatch watch;
    const std::uint64_t cuts = count_cuts(chunker, data);
    const double secs = watch.seconds();
    if (rep == 0) {
      row.cuts = cuts;
    } else if (cuts != row.cuts) {
      std::fprintf(stderr, "%s: cut count varies across reps!\n",
                   name.c_str());
    }
    best = std::max(best, data.size() / 1048576.0 / secs);
  }
  row.mb_per_s = best;
  return row;
}

/// The buffer cut as consecutive 512 KiB files with a new chunker each,
/// as DedupEngine::open_ingest builds one per file, so the row carries the
/// per-file construction cost that measure() amortizes away.
Row measure_per_file(ChunkerKind kind, const ChunkerConfig& cfg,
                     ByteSpan data, int reps) {
  constexpr std::size_t kFileBytes = 512 << 10;
  Row row;
  row.name = std::string(chunker_kind_name(kind)) + "/per-file";
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    std::uint64_t cuts = 0;
    for (std::size_t off = 0; off < data.size(); off += kFileBytes) {
      auto chunker = make_chunker(kind, cfg);
      cuts += count_cuts(
          *chunker, data.subspan(off, std::min(kFileBytes, data.size() - off)));
    }
    const double secs = watch.seconds();
    row.cuts = cuts;
    best = std::max(best, data.size() / 1048576.0 / secs);
  }
  row.mb_per_s = best;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto size_mb =
      static_cast<std::size_t>(flags.get_int("size_mb", 256));
  const int reps = static_cast<int>(flags.get_int("reps", 3));
  const auto ecs_list = flags.get_int_list("ecs", {1024, 4096, 8192});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  std::printf("=== chunking throughput (scan loop only) ===\n");
  std::printf("cpu: sse2=%d avx2=%d -> best simd level: %s\n",
              cpu_features().sse2, cpu_features().avx2,
              simd_level_name(best_simd_level()));
  std::printf("buffer: %zu MB random, best of %d reps\n\n", size_mb, reps);

  ByteVec data(size_mb << 20);
  {
    Xoshiro256 rng(seed);
    for (auto& b : data) b = static_cast<Byte>(rng());
  }

  TextTable t({"ECS", "chunker", "impl", "cuts", "MB/s", "speedup"});
  for (const auto ecs : ecs_list) {
    const ChunkerConfig base =
        ChunkerConfig::from_expected(static_cast<std::uint64_t>(ecs));

    // Scalar baselines of the paper's chunkers, for context.
    std::vector<Row> rows;
    for (const ChunkerKind kind : {ChunkerKind::kRabin, ChunkerKind::kTttd}) {
      auto chunker = make_chunker(kind, base);
      rows.push_back(
          measure(chunker_kind_name(kind), *chunker, data, reps));
      rows.push_back(measure_per_file(kind, base, data, reps));
    }

    ChunkerConfig scalar_cfg = base;
    scalar_cfg.impl = ChunkerImpl::kScalar;
    GearChunker scalar(scalar_cfg);
    const Row scalar_row = measure("gear/scalar", scalar, data, reps);
    rows.push_back(scalar_row);

    ChunkerConfig simd_cfg = base;
    simd_cfg.impl = ChunkerImpl::kSimd;
    GearChunker simd(simd_cfg);
    Row simd_row =
        measure(std::string("gear/") + simd.impl_name(), simd, data, reps);
    if (simd_row.cuts != scalar_row.cuts) {
      std::fprintf(stderr,
                   "FATAL: gear cut points differ between impls "
                   "(%llu vs %llu) — determinism invariant broken\n",
                   static_cast<unsigned long long>(scalar_row.cuts),
                   static_cast<unsigned long long>(simd_row.cuts));
      return 1;
    }
    rows.push_back(simd_row);

    for (const auto& row : rows) {
      const bool gear = row.name.rfind("gear/", 0) == 0;
      const std::size_t slash = row.name.find('/');
      const bool per_file = !gear && slash != std::string::npos;
      t.add_row({std::to_string(ecs),
                 gear ? "gear" : row.name.substr(0, slash),
                 gear       ? row.name.substr(5)
                 : per_file ? "scalar, 512K files"
                            : "scalar",
                 std::to_string(row.cuts), TextTable::num(row.mb_per_s, 1),
                 gear ? TextTable::num(row.mb_per_s / scalar_row.mb_per_s, 2) +
                            "x"
                      : "-"});
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nspeedup is vs gear/scalar at the same ECS; rabin/tttd rows show\n"
      "what the paper's chunkers cost on the same buffer, and with a new\n"
      "chunker per 512 KiB file as the dedup engines build them.\n");
  return 0;
}
