// StorageStack — the one builder of the durability stack an engine writes
// through, innermost first:
//
//   base -> [FaultInjectingBackend] -> [FramedBackend] -> [ContainerBackend]
//
// Faults are injected on the physical layer, below the framing that exists
// to detect them; the container layer packs logical chunks above both.
// Each layer is present only when the EngineConfig asks for it
// (fault_plan, framed, container_bytes), so a plain config's top() is the
// base itself. run_experiment stacks it over a MemoryBackend, dedup_cli
// over the repository's FileBackend.
#pragma once

#include <optional>

#include "mhd/dedup/engine.h"
#include "mhd/store/container_store.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/framed_backend.h"

namespace mhd {

class StorageStack {
 public:
  StorageStack(StorageBackend& base, const EngineConfig& config);
  StorageStack(const StorageStack&) = delete;
  StorageStack& operator=(const StorageStack&) = delete;

  /// The outermost enabled layer — what engines and readers talk to.
  StorageBackend& top() { return *top_; }
  /// The container layer, or nullptr when chunks are per-object.
  ContainerBackend* containers() {
    return containers_ ? &*containers_ : nullptr;
  }

 private:
  std::optional<FaultInjectingBackend> faulty_;
  std::optional<FramedBackend> framed_;
  std::optional<ContainerBackend> containers_;
  StorageBackend* top_;
};

}  // namespace mhd
