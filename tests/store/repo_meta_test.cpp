// repo.meta — the repository descriptor: its sealed codec, legacy
// adoption from the pre-descriptor markers and index objects, and the
// reconciliation that turns a contradicting flag into an error.
#include "mhd/store/repo_meta.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "../dedup/engine_test_util.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/sim/engine_flags.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("mhd_repo_meta_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

Flags make_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

RepoMeta sample_meta() {
  RepoMeta m;
  m.chunker = ChunkerKind::kGear;
  m.ecs = 1024;
  m.sd = 16;
  m.framed = true;
  m.container_bytes = 1ull << 20;
  m.index_impl = IndexImpl::kSampled;
  m.sample_bits = 4;
  return m;
}

EngineConfig cli_defaults() {
  EngineConfig d;
  d.ecs = 4096;
  d.sd = 64;
  return d;
}

void plant(const fs::path& p, const std::string& contents) {
  std::ofstream(p, std::ios::binary) << contents;
}

/// Stores one small file through MhdEngine with `cfg` over a FileBackend
/// at `root` — a repository exactly as an older build left it (no
/// repo.meta).
void store_legacy(const fs::path& root, EngineConfig cfg) {
  FileBackend backend(root);
  ObjectStore store(backend);
  cfg.bloom_bytes = 64 * 1024;
  MhdEngine engine(store, cfg);
  testutil::run_files(engine, {{"a.img", testutil::random_bytes(200000, 3)}});
}

TEST(RepoMeta, RoundTripsEveryFieldValue) {
  for (const auto chunker : {ChunkerKind::kRabin, ChunkerKind::kTttd,
                             ChunkerKind::kGear, ChunkerKind::kFixed}) {
    for (const auto tier :
         {IndexImpl::kMem, IndexImpl::kDisk, IndexImpl::kSampled}) {
      RepoMeta m = sample_meta();
      m.chunker = chunker;
      m.index_impl = tier;
      m.framed = tier != IndexImpl::kDisk;
      m.container_bytes = tier == IndexImpl::kMem ? 0 : (5ull << 40) + 7;
      EXPECT_EQ(decode_repo_meta(encode_repo_meta(m)), m);
    }
  }
  TempDir tmp;
  EXPECT_FALSE(load_repo_meta(tmp.path()).has_value());
  write_repo_meta(tmp.path(), sample_meta());
  EXPECT_EQ(load_repo_meta(tmp.path()), sample_meta());
  // Atomic replace leaves no temp file behind.
  EXPECT_EQ(std::distance(fs::directory_iterator(tmp.path()),
                          fs::directory_iterator()),
            1);
}

TEST(RepoMeta, RejectsEverySingleBitFlip) {
  const ByteVec good = encode_repo_meta(sample_meta());
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    ByteVec bad = good;
    bad[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
    EXPECT_THROW(decode_repo_meta(bad), StoreError) << "bit " << bit;
  }
}

TEST(RepoMeta, RejectsEveryTruncation) {
  const ByteVec good = encode_repo_meta(sample_meta());
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    const ByteVec torn(good.begin(),
                       good.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_repo_meta(torn), StoreError) << "keep " << keep;
  }
}

TEST(RepoMeta, RejectsUnknownVersionAndOutOfRangeFields) {
  const ByteVec good = encode_repo_meta(sample_meta());
  const ByteVec payload = *framing::unseal_object(good);
  // Correctly sealed, but carrying values no encoder writes: offsets of
  // version, chunker, framed and index_impl.
  for (const std::size_t offset : {0u, 4u, 16u, 28u}) {
    ByteVec p = payload;
    store_le<std::uint32_t>(p.data() + offset, 9);
    EXPECT_THROW(decode_repo_meta(framing::seal_object(p)), StoreError)
        << "offset " << offset;
  }
  ByteVec longer = payload;
  longer.push_back(0);
  EXPECT_THROW(decode_repo_meta(framing::seal_object(longer)), StoreError);
}

TEST(RepoMeta, DamagedFileIsAHardErrorNotDefaults) {
  TempDir tmp;
  write_repo_meta(tmp.path(), sample_meta());
  const fs::path file = tmp.path() / RepoMeta::kFileName;
  fs::resize_file(file, fs::file_size(file) - 1);
  EXPECT_THROW(load_repo_meta(tmp.path()), StoreError);
  EXPECT_THROW(resolve_repo_config(tmp.path(), make_flags({}), cli_defaults(),
                                   /*writer=*/true),
               StoreError);
}

TEST(RepoMetaAdoption, EmptyOrMissingRootIsAFreshRepository) {
  TempDir tmp;
  const RepoMeta invocation = sample_meta();
  EXPECT_FALSE(adopt_legacy_repo(tmp.path() / "absent", invocation));
  EXPECT_FALSE(fs::exists(tmp.path() / "absent"));
  plant(tmp.path() / "store.lock", "123\n");
  EXPECT_FALSE(adopt_legacy_repo(tmp.path(), invocation));
}

TEST(RepoMetaAdoption, FramedAndContainerSizeComeFromTheMarkers) {
  TempDir tmp;
  plant(tmp.path() / "framed", "");
  plant(tmp.path() / "container-size", "1048576\n");
  RepoMeta invocation;
  invocation.chunker = ChunkerKind::kTttd;
  invocation.ecs = 2048;
  invocation.sd = 48;
  invocation.sample_bits = 6;
  invocation.index_impl = IndexImpl::kDisk;
  const auto m = adopt_legacy_repo(tmp.path(), invocation);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->framed);
  EXPECT_EQ(m->container_bytes, 1ull << 20);
  EXPECT_EQ(m->index_impl, IndexImpl::kMem);  // no index objects planted
  // Never recorded by the old markers: taken from the invocation.
  EXPECT_EQ(m->chunker, ChunkerKind::kTttd);
  EXPECT_EQ(m->ecs, 2048u);
  EXPECT_EQ(m->sd, 48u);
}

TEST(RepoMetaAdoption, DiskIndexObjectsSelectTheDiskTier) {
  TempDir tmp;
  EngineConfig cfg = cli_defaults();
  cfg.ecs = 512;
  cfg.index_impl = IndexImpl::kDisk;
  store_legacy(tmp.path(), cfg);
  const auto m = adopt_legacy_repo(tmp.path(), RepoMeta{});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->index_impl, IndexImpl::kDisk);
  EXPECT_FALSE(m->framed);
  EXPECT_EQ(m->container_bytes, 0u);
}

TEST(RepoMetaAdoption, SampledTierKeepsItsOwnSampleRate) {
  TempDir tmp;
  EngineConfig cfg = cli_defaults();
  cfg.ecs = 512;
  cfg.index_impl = IndexImpl::kSampled;
  cfg.sample_bits = 3;
  store_legacy(tmp.path(), cfg);
  RepoMeta invocation;
  invocation.sample_bits = 6;
  const auto m = adopt_legacy_repo(tmp.path(), invocation);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->index_impl, IndexImpl::kSampled);
  EXPECT_EQ(m->sample_bits, 3u);
}

TEST(RepoMetaAdoption, WriterRecordsOnceAndDropsTheMarkers) {
  TempDir tmp;
  EngineConfig cfg = cli_defaults();
  cfg.ecs = 512;
  store_legacy(tmp.path(), cfg);
  plant(tmp.path() / "container-size", "2097152\n");

  // A reader adopts in memory only.
  const Flags flags = make_flags({"--ecs=512"});
  const EngineConfig read =
      resolve_repo_config(tmp.path(), flags, cli_defaults(), false);
  EXPECT_EQ(read.container_bytes, 2ull << 20);
  EXPECT_FALSE(fs::exists(tmp.path() / RepoMeta::kFileName));
  EXPECT_TRUE(fs::exists(tmp.path() / "container-size"));

  const EngineConfig wrote =
      resolve_repo_config(tmp.path(), flags, cli_defaults(), true);
  EXPECT_EQ(wrote.container_bytes, 2ull << 20);
  EXPECT_EQ(wrote.ecs, 512u);
  EXPECT_FALSE(fs::exists(tmp.path() / "container-size"));
  const auto meta = load_repo_meta(tmp.path());
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->container_bytes, 2ull << 20);
  EXPECT_EQ(meta->ecs, 512u);

  // From now on the record, not the markers or the flags, decides.
  const EngineConfig later =
      resolve_repo_config(tmp.path(), make_flags({}), cli_defaults(), true);
  EXPECT_EQ(later.ecs, 512u);
  EXPECT_EQ(later.container_bytes, 2ull << 20);
}

TEST(RepoMetaAdoption, LegacyMarkerContradictedByAFlagIsAnError) {
  TempDir tmp;
  plant(tmp.path() / "container-size", "1048576\n");
  EXPECT_THROW(resolve_repo_config(tmp.path(), make_flags({"--container-mb=2"}),
                                   cli_defaults(), true),
               std::invalid_argument);
  EXPECT_FALSE(fs::exists(tmp.path() / RepoMeta::kFileName));
  EXPECT_TRUE(fs::exists(tmp.path() / "container-size"));
}

class RepoMetaConflict : public ::testing::Test {
 protected:
  void SetUp() override {
    created_ = resolve_repo_config(
        tmp_.path(),
        make_flags({"--chunker=gear", "--ecs=1024", "--sd=16", "--framed",
                    "--container-mb=1", "--index-impl=sampled",
                    "--sample-bits=4"}),
        cli_defaults(), /*writer=*/true);
    sealed_ = encode_repo_meta(*load_repo_meta(tmp_.path()));
  }

  /// `flag` contradicts the record: the error names the field, the
  /// recorded and the given value, and repo.meta is untouched.
  void expect_conflict(const std::string& flag, const std::string& recorded,
                       const std::string& given) {
    try {
      resolve_repo_config(tmp_.path(), make_flags({flag}), cli_defaults(),
                          /*writer=*/true);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      const std::string field = flag.substr(0, flag.find('='));
      EXPECT_NE(what.find(field), std::string::npos) << what;
      EXPECT_NE(what.find("records " + recorded), std::string::npos) << what;
      EXPECT_NE(what.find("gives " + given), std::string::npos) << what;
    }
    EXPECT_EQ(encode_repo_meta(*load_repo_meta(tmp_.path())), sealed_);
  }

  TempDir tmp_;
  EngineConfig created_;
  ByteVec sealed_;
};

TEST_F(RepoMetaConflict, RecordedValuesApplyWithoutFlags) {
  const EngineConfig cfg = resolve_repo_config(tmp_.path(), make_flags({}),
                                               cli_defaults(), false);
  EXPECT_EQ(cfg.chunker, ChunkerKind::kGear);
  EXPECT_EQ(cfg.ecs, 1024u);
  EXPECT_EQ(cfg.sd, 16u);
  EXPECT_TRUE(cfg.framed);
  EXPECT_EQ(cfg.container_bytes, 1ull << 20);
  EXPECT_EQ(cfg.index_impl, IndexImpl::kSampled);
  EXPECT_EQ(cfg.sample_bits, 4u);
}

TEST_F(RepoMetaConflict, AgreeingFlagsAndInvocationKnobsAreAccepted) {
  const EngineConfig cfg = resolve_repo_config(
      tmp_.path(),
      make_flags({"--ecs=1024", "--framed", "--container-mb=1024K",
                  "--hash-impl=portable", "--restore-cache-mb=8"}),
      cli_defaults(), true);
  EXPECT_EQ(cfg.ecs, 1024u);
  EXPECT_EQ(cfg.hash_impl, Sha1Impl::kPortable);
  EXPECT_EQ(cfg.restore_cache_bytes, 8ull << 20);
}

TEST_F(RepoMetaConflict, Chunker) {
  expect_conflict("--chunker=rabin", "gear", "rabin");
}
TEST_F(RepoMetaConflict, Ecs) { expect_conflict("--ecs=4096", "1024", "4096"); }
TEST_F(RepoMetaConflict, Sd) { expect_conflict("--sd=64", "16", "64"); }
TEST_F(RepoMetaConflict, Framed) {
  expect_conflict("--framed=false", "true", "false");
}
TEST_F(RepoMetaConflict, ContainerSize) {
  expect_conflict("--container-mb=4", "1048576 bytes", "4194304 bytes");
}
TEST_F(RepoMetaConflict, IndexTier) {
  expect_conflict("--index-impl=disk", "sampled", "disk");
}
TEST_F(RepoMetaConflict, SampleBits) {
  expect_conflict("--sample-bits=6", "4", "6");
}

}  // namespace
}  // namespace mhd
