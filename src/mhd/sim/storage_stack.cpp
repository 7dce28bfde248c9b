#include "mhd/sim/storage_stack.h"

namespace mhd {

StorageStack::StorageStack(StorageBackend& base, const EngineConfig& config)
    : top_(&base) {
  if (!config.fault_plan.empty()) {
    faulty_.emplace(*top_, FaultPlan::parse(config.fault_plan));
    top_ = &*faulty_;
  }
  if (config.framed) {
    framed_.emplace(*top_);
    top_ = &*framed_;
  }
  if (config.container_bytes != 0) {
    ContainerConfig cc;
    cc.container_bytes = config.container_bytes;
    cc.cache_bytes = config.restore_cache_bytes;
    containers_.emplace(*top_, cc);
    top_ = &*containers_;
  }
}

}  // namespace mhd
