#include <gtest/gtest.h>

#include <filesystem>

#include "mhd/store/file_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/store_errors.h"

namespace mhd {
namespace {

// Both backends must satisfy the same contract.
class BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "memory") {
      backend_ = std::make_unique<MemoryBackend>();
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("mhd_backend_test_" + std::to_string(::getpid()));
      std::filesystem::remove_all(dir_);
      backend_ = std::make_unique<FileBackend>(dir_);
    }
  }

  void TearDown() override {
    backend_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<StorageBackend> backend_;
  std::filesystem::path dir_;
};

TEST_P(BackendTest, PutGetRoundTrip) {
  const ByteVec data = {1, 2, 3, 4, 5};
  backend_->put(Ns::kDiskChunk, "abc", data);
  const auto got = backend_->get(Ns::kDiskChunk, "abc");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST_P(BackendTest, GetMissingReturnsNullopt) {
  EXPECT_FALSE(backend_->get(Ns::kHook, "nope").has_value());
  EXPECT_FALSE(backend_->get_range(Ns::kHook, "nope", 0, 0).has_value());
}

TEST_P(BackendTest, NamespacesAreIsolated) {
  backend_->put(Ns::kHook, "x", ByteVec{1});
  EXPECT_TRUE(backend_->exists(Ns::kHook, "x"));
  EXPECT_FALSE(backend_->exists(Ns::kManifest, "x"));
  EXPECT_EQ(backend_->object_count(Ns::kHook), 1u);
  EXPECT_EQ(backend_->object_count(Ns::kManifest), 0u);
}

TEST_P(BackendTest, AppendBuildsObject) {
  backend_->append(Ns::kDiskChunk, "c", ByteVec{1, 2});
  backend_->append(Ns::kDiskChunk, "c", ByteVec{3});
  const auto got = backend_->get(Ns::kDiskChunk, "c");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (ByteVec{1, 2, 3}));
  EXPECT_EQ(backend_->object_count(Ns::kDiskChunk), 1u);
  EXPECT_EQ(backend_->content_bytes(Ns::kDiskChunk), 3u);
}

TEST_P(BackendTest, GetRange) {
  ByteVec data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<Byte>(i));
  backend_->put(Ns::kDiskChunk, "r", data);
  const auto got = backend_->get_range(Ns::kDiskChunk, "r", 10, 5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (ByteVec{10, 11, 12, 13, 14}));
  const auto at_end = backend_->get_range(Ns::kDiskChunk, "r", 100, 0);
  ASSERT_TRUE(at_end.has_value());
  EXPECT_TRUE(at_end->empty());

  backend_->put(Ns::kDiskChunk, "empty", ByteVec{});
  const auto empty = backend_->get(Ns::kDiskChunk, "empty");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST_P(BackendTest, GetRangeBeyondEndFails) {
  backend_->put(Ns::kDiskChunk, "r", ByteVec{1, 2, 3});
  EXPECT_FALSE(backend_->get_range(Ns::kDiskChunk, "r", 2, 5).has_value());
  EXPECT_FALSE(backend_->get_range(Ns::kDiskChunk, "r", 4, 0).has_value());
  EXPECT_FALSE(
      backend_->get_range(Ns::kDiskChunk, "r", 1, UINT64_MAX).has_value());
  EXPECT_FALSE(backend_->get_range(Ns::kDiskChunk, "absent", 0, 1).has_value());
}

TEST_P(BackendTest, PutReplacesAndAccountsBytes) {
  backend_->put(Ns::kManifest, "m", ByteVec(100, 7));
  backend_->put(Ns::kManifest, "m", ByteVec(40, 8));
  EXPECT_EQ(backend_->object_count(Ns::kManifest), 1u);
  EXPECT_EQ(backend_->content_bytes(Ns::kManifest), 40u);
}

TEST_P(BackendTest, RemoveUpdatesAccounting) {
  backend_->put(Ns::kHook, "h", ByteVec(20, 1));
  EXPECT_TRUE(backend_->remove(Ns::kHook, "h"));
  EXPECT_FALSE(backend_->remove(Ns::kHook, "h"));
  EXPECT_EQ(backend_->object_count(Ns::kHook), 0u);
  EXPECT_EQ(backend_->content_bytes(Ns::kHook), 0u);
}

TEST_P(BackendTest, ListReturnsSortedNames) {
  backend_->put(Ns::kHook, "bb", ByteVec{1});
  backend_->put(Ns::kHook, "aa", ByteVec{1});
  backend_->put(Ns::kHook, "cc", ByteVec{1});
  EXPECT_EQ(backend_->list(Ns::kHook),
            (std::vector<std::string>{"aa", "bb", "cc"}));
}

TEST_P(BackendTest, TotalsAndInodeAccounting) {
  backend_->put(Ns::kHook, "h", ByteVec(20, 1));
  backend_->put(Ns::kManifest, "m", ByteVec(36, 2));
  EXPECT_EQ(backend_->total_objects(), 2u);
  EXPECT_EQ(backend_->total_content_bytes(), 56u);
  EXPECT_EQ(backend_->stored_bytes_with_inodes(),
            56u + 2 * StorageBackend::kInodeBytes);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values("memory", "file"));

TEST(FileBackend, AdoptsExistingContent) {
  const auto dir = std::filesystem::temp_directory_path() / "mhd_adopt_test";
  std::filesystem::remove_all(dir);
  {
    FileBackend b(dir);
    b.put(Ns::kDiskChunk, "keep", ByteVec(10, 3));
  }
  FileBackend reopened(dir);
  EXPECT_EQ(reopened.object_count(Ns::kDiskChunk), 1u);
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 10u);
  const auto got = reopened.get(Ns::kDiskChunk, "keep");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 10u);
  std::filesystem::remove_all(dir);
}

// A directory where an object should be is damage, not absence: both
// reads throw the typed BackendIoError naming the path.
TEST(FileBackend, DirectoryAtObjectPathIsAnIoError) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mhd_planted_dir_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  FileBackend b(dir);
  const auto planted = dir / ns_name(Ns::kDiskChunk) / "planted";
  std::filesystem::create_directories(planted);
  for (const bool range : {false, true}) {
    try {
      if (range) {
        b.get_range(Ns::kDiskChunk, "planted", 0, 1);
      } else {
        b.get(Ns::kDiskChunk, "planted");
      }
      ADD_FAILURE() << "read of a directory returned, range=" << range;
    } catch (const BackendIoError& e) {
      EXPECT_NE(std::string(e.what()).find(planted.string()),
                std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mhd
