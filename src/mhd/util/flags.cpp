#include "mhd/util/flags.h"

#include <cstdlib>
#include <stdexcept>

namespace mhd {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string key =
        eq == std::string::npos ? body : body.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "true" : body.substr(eq + 1);
    if (!values_.emplace(key, value).second) {
      throw std::invalid_argument("duplicate flag: --" + key);
    }
  }
}

std::vector<std::string> Flags::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& kv : values_) out.push_back(kv.first);
  return out;
}

std::string Flags::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 0);
}

double Flags::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::uint64_t Flags::get_uint(const std::string& key, std::uint64_t def,
                              std::uint64_t min_value,
                              std::uint64_t max_value) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  const std::string& s = it->second;
  std::uint64_t value = 0;
  bool ok = !s.empty();
  for (const char c : s) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {  // overflow
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!ok) {
    throw std::invalid_argument("--" + key + "=" + s +
                                " (expected a non-negative integer)");
  }
  if (value < min_value || value > max_value) {
    throw std::invalid_argument(
        "--" + key + "=" + s + " (allowed range: " +
        std::to_string(min_value) + ".." + std::to_string(max_value) + ")");
  }
  return value;
}

std::uint64_t Flags::get_size(const std::string& key, std::uint64_t def,
                              std::uint64_t min_value,
                              std::uint64_t max_value,
                              std::uint64_t unit) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  std::string digits = it->second;
  std::uint64_t multiplier = unit == 0 ? 1 : unit;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'k': case 'K': multiplier = 1ull << 10; digits.pop_back(); break;
      case 'm': case 'M': multiplier = 1ull << 20; digits.pop_back(); break;
      case 'g': case 'G': multiplier = 1ull << 30; digits.pop_back(); break;
      default: break;
    }
  }
  std::uint64_t value = 0;
  bool ok = !digits.empty();
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {  // overflow
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (ok && value != 0 && multiplier > UINT64_MAX / value) ok = false;
  if (!ok) {
    throw std::invalid_argument(
        "--" + key + "=" + it->second +
        " (expected a non-negative size, optionally suffixed K/M/G)");
  }
  value *= multiplier;
  if (value < min_value || value > max_value) {
    throw std::invalid_argument(
        "--" + key + "=" + it->second + " (allowed range: " +
        std::to_string(min_value) + ".." + std::to_string(max_value) +
        " bytes)");
  }
  return value;
}

std::string Flags::get_choice(const std::string& key,
                              const std::vector<std::string>& allowed,
                              const std::string& def) const {
  const auto it = values_.find(key);
  const std::string value = it == values_.end() ? def : it->second;
  for (const auto& a : allowed) {
    if (value == a) return value;
  }
  std::string msg = "--" + key + "=" + value + " (allowed:";
  for (const auto& a : allowed) msg += " " + a;
  msg += ")";
  throw std::invalid_argument(msg);
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& key, std::vector<std::int64_t> def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const auto comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) out.push_back(std::strtoll(tok.c_str(), nullptr, 0));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace mhd
