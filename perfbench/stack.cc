#include "perfbench/stack.h"

#include <algorithm>

#include "util/macros.h"

namespace perfbench {

namespace {

constexpr const char* kLoopback = "127.0.0.1";

dppr::ShardedServiceOptions RouterOptions(const WorkloadConfig& config) {
  dppr::ShardedServiceOptions options;
  options.num_shards = config.over_tcp ? 0 : config.slots;
  options.replicas = config.over_tcp ? 1 : config.replicas;
  options.index.ppr.eps = kEps;
  options.service.num_workers = config.service_workers;
  options.service.estimator.enabled = config.estimator;
  options.service.estimator.eps = kEstimatorEps;
  options.service.estimator.walks_per_vertex = kWalksPerVertex;
  if (config.max_epoch_lag >= 0) {
    options.read_policy = dppr::ReadPolicy::kRoundRobinLive;
    options.max_epoch_lag = config.max_epoch_lag;
  }
  return options;
}

}  // namespace

Stack::Stack(const WorkloadConfig& config, const Inputs& inputs) {
  const dppr::ShardedServiceOptions options = RouterOptions(config);

  if (!config.over_tcp) {
    router_ = std::make_unique<dppr::ShardedPprService>(
        inputs.initial, inputs.num_vertices, inputs.hubs, options);
    router_->Start();
    slot_ids_ = router_->ShardIds();
    for (const int id : slot_ids_) {
      std::vector<Replica> replicas;
      const auto n = static_cast<int>(router_->NumReplicas(id));
      for (int r = 0; r < n; ++r) {
        auto* local = dynamic_cast<dppr::LocalShardBackend*>(
            router_->ReplicaBackendForTesting(id, r));
        DPPR_CHECK(local != nullptr);
        replicas.push_back({local->service(), nullptr});
      }
      slots_.push_back(std::move(replicas));
    }
  } else {
    // A pure routing front-end: every replica is an empty PprService
    // behind a PprServer, joined over loopback, and the hubs are added
    // through the ring afterwards (joiners must own no sources).
    router_ = std::make_unique<dppr::ShardedPprService>(
        inputs.initial, inputs.num_vertices, std::vector<VertexId>{},
        options);
    router_->Start();
    dppr::net::PprServerOptions server_options;
    server_options.num_handlers = config.server_handlers;
    for (int slot = 0; slot < config.slots; ++slot) {
      std::vector<Replica> replicas;
      int id = -1;
      for (int r = 0; r < config.replicas; ++r) {
        auto backend = std::make_unique<dppr::LocalShardBackend>(
            inputs.initial, inputs.num_vertices, std::vector<VertexId>{},
            options.index, options.service);
        backend->Start();
        auto server = std::make_unique<dppr::net::PprServer>(
            backend->service(), server_options);
        DPPR_CHECK(server->Start().ok());
        if (r == 0) {
          id = router_->AddRemoteShard(kLoopback, server->port());
          DPPR_CHECK_MSG(id >= 0, "remote shard join refused");
          slot_ids_.push_back(id);
        } else {
          DPPR_CHECK_MSG(
              router_->AddRemoteReplica(id, kLoopback, server->port()) >= 0,
              "remote replica join refused");
        }
        replicas.push_back({backend->service(), server.get()});
        tcp_backends_.push_back(std::move(backend));
        servers_.push_back(std::move(server));
      }
      slots_.push_back(std::move(replicas));
    }
    for (const VertexId hub : inputs.hubs) {
      DPPR_CHECK(router_->AddSource(hub).status == dppr::RequestStatus::kOk);
    }
  }
  for (const VertexId t : inputs.targets) {
    DPPR_CHECK(router_->AddTarget(t).status == dppr::RequestStatus::kOk);
  }
}

Stack::~Stack() { Stop(); }

void Stack::Stop() {
  if (stopped_) return;
  stopped_ = true;
  router_->Stop();
  for (auto& server : servers_) server->Stop();
  for (auto& backend : tcp_backends_) backend->Stop();
}

int Stack::ReplicasLost() {
  int lost = 0;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    for (size_t r = 0; r < slots_[slot].size(); ++r) {
      const auto* remote = dynamic_cast<dppr::RemoteShardBackend*>(
          router_->ReplicaBackendForTesting(slot_ids_[slot],
                                            static_cast<int>(r)));
      if (remote != nullptr && !remote->connected()) ++lost;
    }
  }
  return lost;
}

int Stack::SlotOf(VertexId v) const {
  const int id = router_->OwnerOf(v);
  const auto it = std::find(slot_ids_.begin(), slot_ids_.end(), id);
  DPPR_CHECK(it != slot_ids_.end());
  return static_cast<int>(it - slot_ids_.begin());
}

}  // namespace perfbench
