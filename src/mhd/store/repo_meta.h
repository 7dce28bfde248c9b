// RepoMeta — the one descriptor of an on-disk repository's properties.
//
// Hooks, manifests and SHM-merged entries only match across generations
// when every generation is cut (chunker, ECS) and sampled (SD) the same
// way, and a framed or container repository read through the wrong
// storage stack is unreadable. Those choices belong to the repository, not
// to the invocation: `repo.meta` in the repository root records them at
// the first mutating command, every later command loads it, and a flag
// that contradicts it is an error (see resolve_repo_config in
// sim/engine_flags.h).
//
// Format: the payload below, sealed with framing::seal_object (CRC32C
// trailer) and written atomically (temp file + rename) as a root file
// beside store.lock — outside the backend stack, so it never appears in
// object counts, fsck walks or fault-plan op numbering. Little-endian:
//   [version u32][chunker u32][ecs u32][sd u32][framed u32]
//   [container_bytes u64][index_impl u32][sample_bits u32]
// A file that fails its seal or names an unknown version or value is a
// hard error, never a fallback to defaults.
//
// Repositories written before repo.meta carry only a `framed` marker, a
// `container-size` marker and whatever index objects they hold.
// adopt_legacy_repo() derives the descriptor from those, once.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>

#include "mhd/chunk/make_chunker.h"
#include "mhd/index/fingerprint_index.h"
#include "mhd/util/bytes.h"

namespace mhd {

struct RepoMeta {
  static constexpr std::uint32_t kVersion = 1;
  static constexpr const char* kFileName = "repo.meta";

  ChunkerKind chunker = ChunkerKind::kRabin;
  std::uint32_t ecs = 0;
  std::uint32_t sd = 0;
  bool framed = false;
  std::uint64_t container_bytes = 0;  ///< 0 = per-chunk objects
  IndexImpl index_impl = IndexImpl::kMem;
  std::uint32_t sample_bits = 0;

  bool operator==(const RepoMeta&) const = default;
};

/// The sealed file image of `meta`.
ByteVec encode_repo_meta(const RepoMeta& meta);

/// Inverse of encode_repo_meta. Throws StoreError when the seal fails
/// (any flipped bit, any truncation), the version is unknown, or a field
/// holds a value no encoder writes.
RepoMeta decode_repo_meta(ByteSpan sealed);

/// The repository's descriptor; nullopt when `root` has no repo.meta.
/// Throws StoreError when the file exists but does not decode.
std::optional<RepoMeta> load_repo_meta(const std::filesystem::path& root);

/// Atomically (re)places `root`/repo.meta.
void write_repo_meta(const std::filesystem::path& root, const RepoMeta& meta);

/// Descriptor of a repository that predates repo.meta, or nullopt when
/// `root` holds no repository yet (no markers, no objects). Framed-ness
/// and container size come from the legacy markers, the index tier from
/// the index objects present (disk first, then sampled, with the sampled
/// tier's own sample rate); chunker, ECS and SD were never recorded and
/// are taken from `invocation`.
std::optional<RepoMeta> adopt_legacy_repo(const std::filesystem::path& root,
                                          const RepoMeta& invocation);

/// Deletes the legacy markers once repo.meta has superseded them.
void remove_legacy_markers(const std::filesystem::path& root);

}  // namespace mhd
