#include "mhd/sim/engine_flags.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mhd/store/repo_meta.h"

namespace mhd {

namespace {

std::uint32_t get_u32(const Flags& flags, const char* key, std::uint32_t def,
                      std::uint32_t min_value, std::uint32_t max_value) {
  return static_cast<std::uint32_t>(
      flags.get_uint(key, def, min_value, max_value));
}

std::uint64_t get_mb(const Flags& flags, const char* key, std::uint64_t def,
                     std::uint64_t min_bytes) {
  return flags.get_size(key, def, min_bytes, 1ull << 40, /*unit=*/1ull << 20);
}

RepoMeta repo_meta_of(const EngineConfig& cfg) {
  RepoMeta m;
  m.chunker = cfg.chunker;
  m.ecs = cfg.ecs;
  m.sd = cfg.sd;
  m.framed = cfg.framed;
  m.container_bytes = cfg.container_bytes;
  m.index_impl = cfg.index_impl;
  m.sample_bits = cfg.sample_bits;
  return m;
}

void apply(const RepoMeta& m, EngineConfig& cfg) {
  cfg.chunker = m.chunker;
  cfg.ecs = m.ecs;
  cfg.sd = m.sd;
  cfg.framed = m.framed;
  cfg.container_bytes = m.container_bytes;
  cfg.index_impl = m.index_impl;
  cfg.sample_bits = m.sample_bits;
}

/// The recorded properties as (flag, readable value) pairs.
std::vector<std::pair<const char*, std::string>> describe(const RepoMeta& m) {
  return {{"chunker", chunker_kind_name(m.chunker)},
          {"ecs", std::to_string(m.ecs)},
          {"sd", std::to_string(m.sd)},
          {"framed", m.framed ? "true" : "false"},
          {"container-mb", std::to_string(m.container_bytes) + " bytes"},
          {"index-impl", index_impl_name(m.index_impl)},
          {"sample-bits", std::to_string(m.sample_bits)}};
}

void check_conflicts(const RepoMeta& recorded, const RepoMeta& given,
                     const Flags& flags) {
  const auto was = describe(recorded);
  const auto now = describe(given);
  for (std::size_t i = 0; i < was.size(); ++i) {
    const char* flag = was[i].first;
    if (flags.has(flag) && was[i].second != now[i].second) {
      throw std::invalid_argument(
          "--" + std::string(flag) + " contradicts the repository: " +
          RepoMeta::kFileName + " records " + was[i].second +
          ", the command gives " + now[i].second +
          " (chunking, sampling and layout are fixed when a repository is "
          "created)");
    }
  }
}

}  // namespace

void reject_unknown_flags(const Flags& flags,
                          std::initializer_list<std::string_view> own_keys) {
  for (const std::string& key : flags.keys()) {
    const auto known = [&key](std::string_view k) { return k == key; };
    if (std::none_of(kEngineFlagKeys.begin(), kEngineFlagKeys.end(), known) &&
        std::none_of(own_keys.begin(), own_keys.end(), known)) {
      throw std::invalid_argument("unknown flag: --" + key);
    }
  }
}

EngineConfig bind_engine_flags(const Flags& flags, const EngineConfig& defaults,
                               bool ecs_sweep) {
  EngineConfig cfg = defaults;
  if (!ecs_sweep) cfg.ecs = get_u32(flags, "ecs", cfg.ecs, 64, 1u << 20);
  cfg.sd = get_u32(flags, "sd", cfg.sd, 1, 1u << 20);
  if (flags.has("chunker")) {
    cfg.chunker = chunker_kind_from_string(flags.get("chunker", ""));
  }
  if (flags.has("chunker-impl")) {
    cfg.chunker_impl = chunker_impl_from_string(
        flags.get_choice("chunker-impl", {"auto", "scalar", "simd"}, ""));
  }
  if (flags.has("hash-impl")) {
    cfg.hash_impl = sha1_impl_from_string(flags.get_choice(
        "hash-impl", {"auto", "shani", "simd", "portable"}, ""));
  }

  if (flags.has("index-impl")) {
    const std::string impl =
        flags.get_choice("index-impl", {"mem", "disk", "sampled"}, "");
    cfg.index_impl = impl == "disk"      ? IndexImpl::kDisk
                     : impl == "sampled" ? IndexImpl::kSampled
                                         : IndexImpl::kMem;
  }
  cfg.sample_bits = get_u32(flags, "sample-bits", cfg.sample_bits, 0, 64);
  cfg.max_champions = get_u32(flags, "champions", cfg.max_champions, 1, 1024);
  cfg.index_cache_bytes =
      get_mb(flags, "index-cache-mb", cfg.index_cache_bytes, 64ull << 10);
  cfg.index_bloom_bits_per_key = get_u32(flags, "index-bloom-bits-per-key",
                                         cfg.index_bloom_bits_per_key, 1, 64);

  cfg.framed = flags.get_bool("framed", cfg.framed);
  cfg.fault_plan = flags.get("fault-plan", cfg.fault_plan);
  cfg.container_bytes = get_mb(flags, "container-mb", cfg.container_bytes, 0);
  cfg.restore_cache_bytes =
      get_mb(flags, "restore-cache-mb", cfg.restore_cache_bytes, 64ull << 10);
  if (flags.has("rewrite")) {
    cfg.rewrite = *parse_rewrite_mode(flags.get_choice(
        "rewrite", {"none", "cbr", "capping", "har"}, ""));
  }
  return cfg;
}

EngineConfig resolve_repo_config(const std::filesystem::path& root,
                                 const Flags& flags,
                                 const EngineConfig& defaults, bool writer) {
  EngineConfig cfg = bind_engine_flags(flags, defaults);
  const RepoMeta given = repo_meta_of(cfg);
  std::optional<RepoMeta> recorded = load_repo_meta(root);
  const bool on_disk = recorded.has_value();
  if (!on_disk) recorded = adopt_legacy_repo(root, given);
  if (recorded) check_conflicts(*recorded, given, flags);
  const RepoMeta meta = recorded.value_or(given);
  if (writer && !on_disk) {
    write_repo_meta(root, meta);
    remove_legacy_markers(root);
  }
  apply(meta, cfg);
  return cfg;
}

}  // namespace mhd
