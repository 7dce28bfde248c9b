// Framing is invisible to deduplication: for every engine and chunker,
// ingesting through FramedBackend (CRC32C self-verifying objects) over a
// MemoryBackend must make exactly the decisions of a bare MemoryBackend —
// identical counters, stored data and metadata bytes, manifest loads, and
// every logical object byte for byte — while the framed physical bytes
// exceed the logical ones by the framing overhead.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mhd/sim/runner.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

struct ChunkerCase {
  const char* label;
  ChunkerKind kind;
  ChunkerImpl impl;
};

// Kinds × scan kernels: rabin/tttd are scalar-only; gear is the SIMD
// dispatch case, covered with both the forced-scalar and the auto
// (SIMD-when-available) kernel.
const std::vector<ChunkerCase>& chunker_cases() {
  static const std::vector<ChunkerCase> cases = {
      {"rabin", ChunkerKind::kRabin, ChunkerImpl::kScalar},
      {"tttd", ChunkerKind::kTttd, ChunkerImpl::kScalar},
      {"gear-scalar", ChunkerKind::kGear, ChunkerImpl::kScalar},
      {"gear-auto", ChunkerKind::kGear, ChunkerImpl::kAuto},
  };
  return cases;
}

std::vector<std::string> all_engines() {
  std::vector<std::string> names = engine_names();
  for (const auto& n : extension_engine_names()) names.push_back(n);
  return names;
}

/// Full logical repository image: every object of every namespace, byte
/// for byte, as read through `backend`.
using Snapshot = std::map<std::pair<int, std::string>, ByteVec>;

Snapshot snapshot(const StorageBackend& backend) {
  Snapshot s;
  for (int ns = 0; ns < static_cast<int>(Ns::kCount); ++ns) {
    for (const auto& name : backend.list(static_cast<Ns>(ns))) {
      auto data = backend.get(static_cast<Ns>(ns), name);
      if (!data.has_value()) {
        ADD_FAILURE() << "listed object has no content: " << name;
        continue;
      }
      s.emplace(std::make_pair(ns, name), std::move(*data));
    }
  }
  return s;
}

RunSpec make_spec(const std::string& algo, const ChunkerCase& cc) {
  RunSpec spec;
  spec.algorithm = algo;
  spec.engine.ecs = 1024;
  spec.engine.sd = 8;
  spec.engine.chunker = cc.kind;
  spec.engine.chunker_impl = cc.impl;
  return spec;
}

void expect_equal_counters(const EngineCounters& a, const EngineCounters& b,
                           const std::string& what) {
  EXPECT_EQ(a.input_bytes, b.input_bytes) << what;
  EXPECT_EQ(a.input_files, b.input_files) << what;
  EXPECT_EQ(a.input_chunks, b.input_chunks) << what;
  EXPECT_EQ(a.dup_chunks, b.dup_chunks) << what;
  EXPECT_EQ(a.dup_bytes, b.dup_bytes) << what;
  EXPECT_EQ(a.dup_slices, b.dup_slices) << what;
  EXPECT_EQ(a.stored_chunks, b.stored_chunks) << what;
  EXPECT_EQ(a.files_with_data, b.files_with_data) << what;
  EXPECT_EQ(a.hhr_operations, b.hhr_operations) << what;
  EXPECT_EQ(a.hhr_chunk_reloads, b.hhr_chunk_reloads) << what;
  EXPECT_EQ(a.shm_merged_hashes, b.shm_merged_hashes) << what;
}

void expect_equal_snapshots(const Snapshot& a, const Snapshot& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what << ": object count differs";
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first)
        << what << ": object name mismatch in "
        << ns_name(static_cast<Ns>(ia->first.first));
    ASSERT_TRUE(equal(ia->second, ib->second))
        << what << ": content differs for "
        << ns_name(static_cast<Ns>(ia->first.first)) << "/"
        << ia->first.second;
  }
}

TEST(FramedEquivalence, EveryEngineEveryChunker) {
  const Corpus corpus(test_preset(91));
  for (const auto& algo : all_engines()) {
    for (const auto& cc : chunker_cases()) {
      const std::string what = algo + "/" + cc.label;
      SCOPED_TRACE(what);
      const RunSpec spec = make_spec(algo, cc);

      MemoryBackend bare_backend;
      const auto bare = run_experiment(spec, corpus, bare_backend);
      const Snapshot bare_snap = snapshot(bare_backend);
      ASSERT_FALSE(bare_snap.empty());
      EXPECT_FALSE(bare.framed);
      EXPECT_EQ(bare.physical_data_bytes, bare.stored_data_bytes);

      MemoryBackend raw;
      FramedBackend framed_backend(raw);
      const auto framed = run_experiment(spec, corpus, framed_backend);
      EXPECT_TRUE(framed.framed);

      expect_equal_counters(bare.counters, framed.counters, what);
      EXPECT_EQ(bare.stored_data_bytes, framed.stored_data_bytes);
      EXPECT_EQ(bare.metadata.total_bytes(), framed.metadata.total_bytes());
      EXPECT_EQ(bare.manifest_loads, framed.manifest_loads);
      EXPECT_GT(framed.physical_data_bytes, framed.stored_data_bytes);
      expect_equal_snapshots(bare_snap, snapshot(framed_backend), what);
    }
  }
}

// A source that fails mid-file: the exception surfaces from add_file on
// the ingesting thread as the original exception.
class ExplodingSource final : public ByteSource {
 public:
  std::size_t read(MutByteSpan out) override {
    if (calls_++ >= 2) throw std::runtime_error("disk on fire");
    std::fill(out.begin(), out.end(), Byte{0x5a});
    return out.size();
  }

 private:
  int calls_ = 0;
};

TEST(FramedEquivalence, SourceFailurePropagatesToCaller) {
  for (const auto& algo : all_engines()) {
    SCOPED_TRACE(algo);
    MemoryBackend raw;
    FramedBackend framed(raw);
    ObjectStore store(framed);
    const auto engine = make_engine(algo, store, EngineConfig{});
    ExplodingSource src;
    EXPECT_THROW(engine->add_file("doomed.img", src), std::runtime_error);
  }
}

}  // namespace
}  // namespace mhd
