// The serving stack a workload runs against, built only through the
// repository's public APIs: a ShardedPprService router over in-process
// slots, or over PprServers on loopback TCP that the benchmark starts
// and joins itself.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>
#include <vector>

#include "net/ppr_server.h"
#include "perfbench/inputs.h"
#include "router/shard_backend.h"
#include "router/sharded_service.h"
#include "server/ppr_service.h"

namespace perfbench {

class Stack {
 public:
  /// One replica's layers, reachable for tracing and the oracle check.
  struct Replica {
    dppr::PprService* service = nullptr;
    dppr::net::PprServer* server = nullptr;  ///< over_tcp only
  };

  /// Builds and starts the stack over `inputs.initial`, then registers
  /// every hub and target.
  Stack(const WorkloadConfig& config, const Inputs& inputs);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Router first, then servers, then the services under them.
  /// Idempotent.
  void Stop();

  dppr::ShardedPprService& router() { return *router_; }
  /// [slot][replica]; replica 0 is the slot's initial primary.
  const std::vector<std::vector<Replica>>& slots() const { return slots_; }
  /// Slot index owning forward source or estimator target `v`.
  int SlotOf(VertexId v) const;
  /// Replicas served over TCP whose router connection has closed: the
  /// router neither reads from nor feeds them any more.
  int ReplicasLost();

 private:
  std::vector<int> slot_ids_;  ///< router shard id of each slot index
  std::vector<std::vector<Replica>> slots_;
  /// Replicas served over TCP: the benchmark owns them, not the router.
  std::vector<std::unique_ptr<dppr::LocalShardBackend>> tcp_backends_;
  std::vector<std::unique_ptr<dppr::net::PprServer>> servers_;
  std::unique_ptr<dppr::ShardedPprService> router_;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
