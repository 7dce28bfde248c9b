// Benchmark-side tracing: spans around calls into the library's public
// functions, and a StorageBackend decorator that times every call made
// through one point of the storage stack.
//
// The program itself is not instrumented. A span measures the wall time
// of one call from outside; spans nest per thread, so a layer's self time
// is its spans' duration minus the part covered by child spans recorded
// on the same thread (e.g. engine time minus the store time beneath it).
// Totals are process-wide and lock-free, so daemon session threads and
// client threads record into the same tables.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mhd/store/backend.h"

namespace perfbench {

enum class Layer : int {
  kAddFile = 0,   ///< DedupEngine::add_file
  kFinish,        ///< DedupEngine::finish
  kRestoreOpen,   ///< RestoreReader::open
  kRestoreRead,   ///< RestoreReader::read
  kClientPut,     ///< DedupClient::put
  kClientGet,     ///< DedupClient::get
  kStoreTop,      ///< decorator under the engine / restore reader / daemon
  kStoreMid,      ///< decorator under ContainerBackend, above framing
  kStoreBottom,   ///< decorator at the physical bottom, below framing
  kGenerate,      ///< corpus generator (outside the program)
  kVerify,        ///< byte comparison against the generator (outside)
  kChunkReplay,   ///< side replay: make_chunker + ChunkStream
  kHashReplay,    ///< side replay: Sha1::digest_of per chunk
  kCount,
};

inline constexpr int kLayers = static_cast<int>(Layer::kCount);

/// Per-layer totals in seconds, as of one snapshot.
struct LayerTimes {
  std::array<double, kLayers> total{};
  std::array<double, kLayers> self{};

  double total_of(Layer l) const { return total[static_cast<int>(l)]; }
  double self_of(Layer l) const { return self[static_cast<int>(l)]; }
};

/// Process-wide switch and accumulators. Spans opened while tracing is off
/// record nothing and cost one branch.
class Tracer {
 public:
  static void set_enabled(bool on) { enabled_.store(on); }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void reset();
  static LayerTimes snapshot();
  static void record(Layer layer, std::uint64_t total_ns,
                     std::uint64_t self_ns);

 private:
  static std::atomic<bool> enabled_;
  static std::array<std::atomic<std::uint64_t>, kLayers> total_ns_;
  static std::array<std::atomic<std::uint64_t>, kLayers> self_ns_;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed call. Closing (explicitly or at scope exit) records the
/// duration into its layer and charges it to the enclosing span of the
/// same thread as child time.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span; returns its duration in ns (0 when tracing is off or
  /// the span was already closed).
  std::uint64_t close();

 private:
  Layer layer_;
  bool open_ = false;
  Span* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
};

/// Calls, bytes and time seen by one TimedBackend.
struct IoCounters {
  std::uint64_t calls = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::array<std::uint64_t, static_cast<int>(mhd::Ns::kCount)> ns_calls{};
  std::array<double, static_cast<int>(mhd::Ns::kCount)> ns_seconds{};
};

/// StorageBackend decorator that forwards every call to `inner` inside a
/// Span of `layer` and counts calls and payload bytes per namespace.
/// Thread-safe when the inner backend is (the counters are atomic).
class TimedBackend final : public mhd::StorageBackend {
 public:
  TimedBackend(mhd::StorageBackend& inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  void put(mhd::Ns ns, const std::string& name, mhd::ByteSpan data) override;
  void append(mhd::Ns ns, const std::string& name,
              mhd::ByteSpan data) override;
  std::optional<mhd::ByteVec> get(mhd::Ns ns,
                                  const std::string& name) const override;
  std::optional<mhd::ByteVec> get_range(mhd::Ns ns, const std::string& name,
                                        std::uint64_t offset,
                                        std::uint64_t length) const override;
  bool exists(mhd::Ns ns, const std::string& name) const override;
  bool remove(mhd::Ns ns, const std::string& name) override;
  void seal(mhd::Ns ns, const std::string& name) override;
  std::uint64_t object_count(mhd::Ns ns) const override;
  std::uint64_t content_bytes(mhd::Ns ns) const override;
  std::vector<std::string> list(mhd::Ns ns) const override;

  IoCounters counters() const;
  void reset_counters();

 private:
  static constexpr int kNs = static_cast<int>(mhd::Ns::kCount);
  void note(mhd::Ns ns, Span& span, std::uint64_t read,
            std::uint64_t written) const;

  mhd::StorageBackend& inner_;
  Layer layer_;
  mutable std::atomic<std::uint64_t> read_bytes_{0};
  mutable std::atomic<std::uint64_t> write_bytes_{0};
  mutable std::array<std::atomic<std::uint64_t>, kNs> ns_calls_{};
  mutable std::array<std::atomic<std::uint64_t>, kNs> ns_ns_{};
};

}  // namespace perfbench
