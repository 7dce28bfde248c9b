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
// DiskChunks and Containers use per-append record framing and are finished
// by seal(); the other namespaces are sealed whole objects. Appending to a
// sealed stream or reading an unsealed one is a caller bug and reads as
// corrupt.
//
// Read contract. No byte leaves this layer unverified:
//   * get() of any object, and get_range() of a sealed object or a
//     DiskChunk stream, verify the whole object (every record's CRC and
//     the seal) before copying anything out.
//   * get_range() of a Container stream known to be clean is
//     record-addressed: an in-RAM table of each record's logical start
//     (framing::record_starts) locates the records that cover the range,
//     one inner get_range fetches exactly their physical bytes, and each
//     record's magic, length and CRC are checked before its share is
//     copied out. A stream is known clean when the open-time walk verified
//     its seal, or when every append and the seal landed whole in this
//     process. Rot outside the fetched records is not looked at; fsck and
//     scrub walk whole streams and find it (DESIGN.md, "Record-addressed
//     reads").
//   * Container streams torn or corrupt at open, streams where an append
//     threw or landed short, and streams written whole by put() keep the
//     whole-stream verify.
#pragma once

#include <array>
#include <unordered_map>
#include <vector>

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

  /// Logical start of each record of one Container stream. Reads use it
  /// only once kSealed; an append that throws or lands short poisons it.
  struct RecordTable {
    enum class State { kOpen, kSealed, kPoisoned };
    std::vector<std::uint64_t> starts;
    State state = State::kOpen;
  };

  /// The table the next record or seal of a Container stream extends,
  /// created for a new stream; nullptr when the stream has none (adopted
  /// torn or corrupt at open) or is sealed or poisoned (writing past a
  /// seal poisons it).
  RecordTable* open_table(const std::string& name);
  /// Appends framed bytes below; false (and the table poisoned) when the
  /// append threw — rethrown — or the namespace grew by other than
  /// `framed.size()` bytes, i.e. a silently torn write.
  bool append_below(Ns ns, const std::string& name, ByteSpan framed,
                    RecordTable* table);
  /// Record-addressed read of a sealed Container stream.
  std::optional<ByteVec> read_records(const std::string& name,
                                      const RecordTable& table,
                                      std::uint64_t offset,
                                      std::uint64_t length) const;

  StorageBackend& inner_;
  std::array<SizeMap, static_cast<int>(Ns::kCount)> sizes_;
  std::unordered_map<std::string, RecordTable> tables_;  ///< Ns::kContainer
  std::array<std::uint64_t, static_cast<int>(Ns::kCount)> bytes_{};
};

}  // namespace mhd
