#include "mhd/metrics/json_export.h"

#include <cstdio>
#include <sstream>

namespace mhd {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}
}  // namespace

std::string to_json(const ExperimentResult& r) {
  std::ostringstream out;
  out << "{\"algorithm\":\"" << json_escape(r.algorithm) << "\""
      << ",\"ecs\":" << r.ecs << ",\"sd\":" << r.sd
      << ",\"chunker\":\"" << json_escape(r.chunker) << "\""
      << ",\"chunker_impl\":\"" << json_escape(r.chunker_impl) << "\""
      << ",\"hash_impl\":\"" << json_escape(r.hash_impl) << "\""
      << ",\"input_bytes\":" << r.input_bytes
      << ",\"stored_data_bytes\":" << r.stored_data_bytes
      << ",\"framed\":" << (r.framed ? "true" : "false")
      << ",\"physical_data_bytes\":" << r.physical_data_bytes
      << ",\"framing_overhead_bytes\":" << r.framing_overhead_bytes()
      << ",\"metadata_bytes\":" << r.metadata.total_bytes()
      << ",\"hook_manifest_bytes\":" << r.metadata.hook_manifest_bytes()
      << ",\"filemanifest_bytes\":" << r.metadata.filemanifest_bytes
      << ",\"inodes\":" << r.metadata.total_inodes()
      << ",\"data_only_der\":" << num(r.data_only_der())
      << ",\"real_der\":" << num(r.real_der())
      << ",\"metadata_ratio\":" << num(r.metadata_ratio())
      << ",\"throughput_ratio\":" << num(r.throughput_ratio())
      << ",\"dad_bytes\":" << num(r.dad_bytes())
      << ",\"dup_slices\":" << r.counters.dup_slices
      << ",\"dup_bytes\":" << r.counters.dup_bytes
      << ",\"stored_chunks\":" << r.counters.stored_chunks
      << ",\"dup_chunks\":" << r.counters.dup_chunks
      << ",\"files_with_data\":" << r.counters.files_with_data
      << ",\"hhr_operations\":" << r.counters.hhr_operations
      << ",\"hhr_chunk_reloads\":" << r.counters.hhr_chunk_reloads
      << ",\"corruption_fallbacks\":" << r.counters.corruption_fallbacks
      << ",\"transient_retries\":" << r.stats.transient_retries
      << ",\"container_bytes\":" << r.container_bytes
      << ",\"rewrite_mode\":\"" << json_escape(r.rewrite_mode) << "\""
      << ",\"containers_sealed\":" << r.containers_sealed
      << ",\"container_packed_bytes\":" << r.container_packed_bytes
      << ",\"rewritten_chunks\":" << r.counters.rewritten_chunks
      << ",\"rewritten_bytes\":" << r.counters.rewritten_bytes
      << ",\"rewrite_ratio\":" << num(r.rewrite_ratio())
      << ",\"restore_bytes\":" << r.restore.bytes
      << ",\"restore_seconds\":" << num(r.restore.seconds)
      << ",\"restore_mb_per_s\":" << num(r.restore.mb_per_s())
      << ",\"restore_container_reads\":" << r.restore.container_reads
      << ",\"restore_container_read_bytes\":" << r.restore.container_read_bytes
      << ",\"containers_read_per_mb\":" << num(r.restore.containers_read_per_mb())
      << ",\"cfl\":" << num(r.restore.cfl)
      << ",\"manifest_loads\":" << r.manifest_loads
      << ",\"index_ram_bytes\":" << r.index_ram_bytes
      << ",\"index_impl\":\"" << json_escape(r.index_impl) << "\""
      << ",\"index_entries\":" << r.index_entries
      << ",\"sample_bits\":" << r.sample_bits
      << ",\"sampled_hook_entries\":" << r.sampled_hook_entries
      << ",\"sampled_hook_table_bytes\":" << r.sampled_hook_table_bytes
      << ",\"champion_loads\":" << r.champion_loads
      << ",\"sampled_missed_dup_bytes\":" << r.sampled_missed_dup_bytes
      << ",\"sampled_missed_dup_chunks\":" << r.sampled_missed_dup_chunks
      << ",\"total_disk_accesses\":" << r.stats.total_accesses()
      << ",\"dedup_seconds\":" << num(r.dedup_seconds)
      << ",\"copy_seconds\":" << num(r.copy_seconds) << "}";
  return out.str();
}

std::string to_json(const std::vector<ExperimentResult>& results) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "  " << to_json(results[i]) << (i + 1 < results.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
  return out.str();
}

}  // namespace mhd
