// FramedBackend — the self-verifying layer of the storage stack.
//
// A StorageBackend decorator that stores every object with CRC32C framing
// (see framing.h) in the inner backend while presenting the *logical*
// (unframed) view to callers: content_bytes, get, and get_range all speak
// logical bytes, so engine accounting and manifest offsets are unchanged
// whether or not the repository is framed.
//
// Layering (outermost first):
//
//     ObjectStore → FramedBackend → [FaultInjectingBackend] → File/Memory
//
// Faults are injected *below* the framing, so a torn write or bit flip
// lands in framed bytes and is detected on the next read as a typed
// CorruptObjectError — absent stays nullopt, corrupt throws. fsck operates
// on the inner (raw) backend where torn/corrupt structure is visible.
//
// DiskChunks use per-append record framing and are finished by seal();
// the other namespaces are sealed whole objects. Appending to a sealed
// stream or reading an unsealed one is a caller bug and reads as corrupt.
#pragma once

#include <array>
#include <unordered_map>

#include "mhd/store/backend.h"

namespace mhd {

class FramedBackend final : public StorageBackend {
 public:
  /// Adopts pre-existing framed content in `inner` (reopening a
  /// repository): scans every object to rebuild logical sizes. Torn or
  /// corrupt objects count their salvageable logical prefix.
  explicit FramedBackend(StorageBackend& inner);

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  std::uint64_t object_count(Ns ns) const override;
  /// Logical payload bytes (framing overhead excluded).
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;
  void seal(Ns ns, const std::string& name) override;

  StorageBackend& inner() { return inner_; }
  const StorageBackend& inner() const { return inner_; }

  /// Framed bytes actually stored below — physical − logical is the
  /// framing overhead (pinned by tests/integration/framed_equivalence_test).
  std::uint64_t physical_bytes(Ns ns) const { return inner_.content_bytes(ns); }

 private:
  using SizeMap = std::unordered_map<std::string, std::uint64_t>;
  SizeMap& sizes(Ns ns) { return sizes_[static_cast<int>(ns)]; }
  const SizeMap& sizes(Ns ns) const { return sizes_[static_cast<int>(ns)]; }

  /// Whole logical object or a typed error; never a silent wrong answer.
  ByteVec verified_get(Ns ns, const std::string& name,
                       const ByteVec& framed) const;

  StorageBackend& inner_;
  std::array<SizeMap, static_cast<int>(Ns::kCount)> sizes_;
  std::array<std::uint64_t, static_cast<int>(Ns::kCount)> bytes_{};
};

}  // namespace mhd
