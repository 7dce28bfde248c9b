// Micro-benchmarks (google-benchmark) for the substrate primitives:
// SHA-1 hashing, CRC32C and the framed-stream read, Rabin fingerprint
// rolling, the chunkers, the bloom filter, and the synthetic content
// generator. These set the CPU-cost context for the ThroughputRatio
// results.
#include <benchmark/benchmark.h>

#include <string>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/fixed_chunker.h"
#include "mhd/chunk/rabin_chunker.h"
#include "mhd/chunk/tttd_chunker.h"
#include "mhd/container/bloom_filter.h"
#include "mhd/hash/sha1.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/crc32c.h"
#include "mhd/util/random.h"
#include "mhd/workload/block_source.h"

namespace mhd {
namespace {

ByteVec make_data(std::size_t n) {
  BlockSource src(42);
  ByteVec data(n);
  src.fill(7, 0, data);
  return data;
}

void BM_Sha1(benchmark::State& state) {
  const ByteVec data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(512)->Arg(4096)->Arg(65536)->Arg(1 << 20);

/// Per-kernel SHA-1 MB/s (the BENCH_sha1.json section). One benchmark per
/// compiled-in kernel the host supports, pinned via sha1_digest_with so
/// the numbers are dispatch-independent; registered dynamically in main()
/// because the kernel list is a runtime CPUID question.
void BM_Sha1Kernel(benchmark::State& state, Sha1CompressFn fn) {
  const ByteVec data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha1_digest_with(fn, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void register_sha1_throughput() {
  for (const Sha1KernelInfo& k : sha1_kernels()) {
    if (!k.supported) continue;
    const std::string name = std::string("sha1_throughput/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [fn = k.fn](benchmark::State& s) { BM_Sha1Kernel(s, fn); });
    bench->Arg(1024)->Arg(4096)->Arg(65536)->Arg(1 << 20);
  }
}

/// Per-kernel CRC32C GB/s at a small record, a typical chunk record and a
/// whole container; registered in main() for the kernels the host runs.
void BM_Crc32cKernel(benchmark::State& state, Crc32cFn fn) {
  const ByteVec data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void register_crc32c_kernels() {
  for (const Crc32cKernelInfo& k : crc32c_kernels()) {
    if (!k.supported) continue;
    const std::string name = std::string("BM_Crc32cKernel/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [fn = k.fn](benchmark::State& s) { BM_Crc32cKernel(s, fn); });
    bench->Arg(512)->Arg(4096)->Arg(4 << 20);
  }
}

/// One verified read of a sealed 4 MiB container stream of 4 KiB records,
/// the unit of work of a cold restore's container load.
void BM_FramedStreamGet(benchmark::State& state) {
  constexpr std::size_t kRecord = 4096;
  const ByteVec data = make_data(4 << 20);
  MemoryBackend raw;
  FramedBackend framed(raw);
  for (std::size_t off = 0; off < data.size(); off += kRecord) {
    framed.append(Ns::kContainer, "c",
                  ByteSpan(data).subspan(off, kRecord));
  }
  framed.seal(Ns::kContainer, "c");
  for (auto _ : state) {
    benchmark::DoNotOptimize(framed.get(Ns::kContainer, "c"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FramedStreamGet);

void BM_RabinRoll(benchmark::State& state) {
  const ByteVec data = make_data(1 << 16);
  RabinFingerprint fp(48);
  for (auto _ : state) {
    for (Byte b : data) benchmark::DoNotOptimize(fp.push(b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinRoll);

template <typename ChunkerT>
void chunker_bench(benchmark::State& state, std::uint32_t ecs) {
  const ByteVec data = make_data(4 << 20);
  for (auto _ : state) {
    ChunkerT chunker{ChunkerConfig::from_expected(ecs)};
    MemorySource src(data);
    ChunkStream stream(src, chunker);
    ByteVec chunk;
    std::size_t chunks = 0;
    while (stream.next(chunk)) ++chunks;
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

/// The same 4 MiB cut as eight 512 KiB files with a new chunker each, as
/// DedupEngine::open_ingest builds one per file: adds the per-file
/// construction cost that chunker_bench amortizes away.
template <typename ChunkerT>
void chunker_per_file_bench(benchmark::State& state, std::uint32_t ecs) {
  constexpr std::size_t kFileBytes = 512 << 10;
  const ByteVec data = make_data(4 << 20);
  for (auto _ : state) {
    std::size_t chunks = 0;
    for (std::size_t off = 0; off < data.size(); off += kFileBytes) {
      ChunkerT chunker{ChunkerConfig::from_expected(ecs)};
      MemorySource src(ByteSpan(data).subspan(off, kFileBytes));
      ChunkStream stream(src, chunker);
      ByteVec chunk;
      while (stream.next(chunk)) ++chunks;
    }
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void BM_RabinChunker(benchmark::State& state) {
  chunker_bench<RabinChunker>(state, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_RabinChunker)->Arg(512)->Arg(4096)->Arg(8192);

void BM_TttdChunker(benchmark::State& state) {
  chunker_bench<TttdChunker>(state, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_TttdChunker)->Arg(4096);

void BM_RabinChunkerPerFile(benchmark::State& state) {
  chunker_per_file_bench<RabinChunker>(
      state, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_RabinChunkerPerFile)->Arg(4096);

void BM_TttdChunkerPerFile(benchmark::State& state) {
  chunker_per_file_bench<TttdChunker>(
      state, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_TttdChunkerPerFile)->Arg(4096);

void BM_BloomFilter(benchmark::State& state) {
  BloomFilter bf(4 << 20);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100000; ++i) bf.insert(rng());
  Xoshiro256 probe(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.maybe_contains(probe()));
  }
}
BENCHMARK(BM_BloomFilter);

void BM_BlockSourceFill(benchmark::State& state) {
  BlockSource src(1);
  ByteVec buf(1 << 20);
  std::uint64_t id = 0;
  for (auto _ : state) {
    src.fill(id++, 0, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_BlockSourceFill);

}  // namespace
}  // namespace mhd

int main(int argc, char** argv) {
  mhd::register_sha1_throughput();
  mhd::register_crc32c_kernels();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
