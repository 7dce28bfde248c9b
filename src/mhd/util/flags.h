// Minimal --key=value command-line flag parsing for bench/example binaries.
//
// Every table/figure harness accepts overrides such as --size_mb=64 or
// --sd=500 so the paper sweeps can be rescaled without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mhd {

class Flags {
 public:
  /// Parses argv entries of the form --key=value or --key (value "true").
  /// Non-flag arguments are collected into positional(). Defining the same
  /// flag twice (e.g. "--ecs=512 --ecs=1024") throws std::invalid_argument:
  /// silently keeping one of the two has burned enough benchmark runs.
  Flags(int argc, char** argv);

  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Unsigned integer flag with range validation: returns `def` when
  /// absent; throws std::invalid_argument when the value is not a plain
  /// non-negative integer (rejecting "-1", "4x", "") or falls outside
  /// [min_value, max_value]. The go-to helper for thread/size knobs where
  /// a silently-truncated negative would mean "4 billion workers".
  std::uint64_t get_uint(const std::string& key, std::uint64_t def,
                         std::uint64_t min_value = 0,
                         std::uint64_t max_value = UINT64_MAX) const;

  /// Byte-size flag accepting K/M/G suffixes (powers of 1024): "--x=4M",
  /// "--x=128K", "--x=1G". A plain number is multiplied by `unit` (1 for
  /// flags taking bytes; 1<<20 for flags whose bare number means MB, like
  /// --index-cache-mb). Returns `def` (already in bytes) when absent;
  /// throws std::invalid_argument — get_uint conventions — on malformed
  /// values, overflow, or a scaled result outside [min_value, max_value].
  std::uint64_t get_size(const std::string& key, std::uint64_t def,
                         std::uint64_t min_value = 0,
                         std::uint64_t max_value = UINT64_MAX,
                         std::uint64_t unit = 1) const;

  /// Value of an enumerated flag, e.g. --chunker-impl={auto,scalar,simd}:
  /// returns `def` when absent, and throws std::invalid_argument naming the
  /// allowed values when the given value is not one of `allowed`.
  std::string get_choice(const std::string& key,
                         const std::vector<std::string>& allowed,
                         const std::string& def) const;

  /// Comma-separated integer list, e.g. --ecs=512,1024,2048.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> def) const;

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  /// Keys of every --flag given, sorted.
  std::vector<std::string> keys() const;
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace mhd
