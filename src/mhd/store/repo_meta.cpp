#include "mhd/store/repo_meta.h"

#include <fstream>
#include <iterator>

#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kPayloadBytes = 7 * 4 + 8;
constexpr const char* kFramedMarker = "framed";
constexpr const char* kContainerMarker = "container-size";

[[noreturn]] void reject(const std::string& why) {
  throw StoreError(std::string(RepoMeta::kFileName) + ": " + why +
                   "; the repository's properties are unknown, refusing to "
                   "guess them");
}

}  // namespace

ByteVec encode_repo_meta(const RepoMeta& meta) {
  ByteVec out;
  append_le(out, RepoMeta::kVersion);
  append_le(out, static_cast<std::uint32_t>(meta.chunker));
  append_le(out, meta.ecs);
  append_le(out, meta.sd);
  append_le(out, static_cast<std::uint32_t>(meta.framed));
  append_le(out, meta.container_bytes);
  append_le(out, static_cast<std::uint32_t>(meta.index_impl));
  append_le(out, meta.sample_bits);
  return framing::seal_object(out);
}

RepoMeta decode_repo_meta(ByteSpan sealed) {
  const auto payload = framing::unseal_object(sealed);
  if (!payload) reject("fails its CRC32C seal (torn or corrupt)");
  if (payload->size() < 4) reject("too short");
  const Byte* p = payload->data();
  const auto version = load_le<std::uint32_t>(p);
  if (version != RepoMeta::kVersion) {
    reject("unsupported version " + std::to_string(version));
  }
  if (payload->size() != kPayloadBytes) reject("wrong size");
  const auto chunker = load_le<std::uint32_t>(p + 4);
  const auto framed = load_le<std::uint32_t>(p + 16);
  const auto index_impl = load_le<std::uint32_t>(p + 28);
  if (chunker > static_cast<std::uint32_t>(ChunkerKind::kFixed) ||
      framed > 1 ||
      index_impl > static_cast<std::uint32_t>(IndexImpl::kSampled)) {
    reject("field out of range");
  }
  RepoMeta m;
  m.chunker = static_cast<ChunkerKind>(chunker);
  m.ecs = load_le<std::uint32_t>(p + 8);
  m.sd = load_le<std::uint32_t>(p + 12);
  m.framed = framed == 1;
  m.container_bytes = load_le<std::uint64_t>(p + 20);
  m.index_impl = static_cast<IndexImpl>(index_impl);
  m.sample_bits = load_le<std::uint32_t>(p + 32);
  return m;
}

std::optional<RepoMeta> load_repo_meta(const fs::path& root) {
  const fs::path path = root / RepoMeta::kFileName;
  if (!fs::exists(path)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError("cannot read " + path.string());
  const ByteVec bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return decode_repo_meta(bytes);
}

void write_repo_meta(const fs::path& root, const RepoMeta& meta) {
  const fs::path path = root / RepoMeta::kFileName;
  const fs::path tmp = path.string() + ".tmp";
  const ByteVec bytes = encode_repo_meta(meta);
  fs::create_directories(root);
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw BackendIoError("cannot write " + tmp.string());
  }
  fs::rename(tmp, path);
}

std::optional<RepoMeta> adopt_legacy_repo(const fs::path& root,
                                          const RepoMeta& invocation) {
  if (!fs::exists(root)) return std::nullopt;
  const bool framed = fs::exists(root / kFramedMarker);
  std::uint64_t container_bytes = 0;
  if (std::ifstream in(root / kContainerMarker); in) in >> container_bytes;

  const FileBackend raw(root);
  bool has_objects = false;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    has_objects |= raw.object_count(static_cast<Ns>(i)) != 0;
  }
  if (!framed && container_bytes == 0 && !has_objects) return std::nullopt;

  RepoMeta m = invocation;
  m.framed = framed;
  m.container_bytes = container_bytes;
  if (index_present(raw)) {
    m.index_impl = IndexImpl::kDisk;
  } else if (sampled_index_present(raw)) {
    m.index_impl = IndexImpl::kSampled;
    m.sample_bits = sampled_index_sample_bits(raw).value_or(m.sample_bits);
  } else {
    m.index_impl = IndexImpl::kMem;
  }
  return m;
}

void remove_legacy_markers(const fs::path& root) {
  fs::remove(root / kFramedMarker);
  fs::remove(root / kContainerMarker);
}

}  // namespace mhd
