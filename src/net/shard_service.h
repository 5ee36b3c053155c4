// Socket-facing service for one BN shard (DESIGN.md §15): hosts a
// borrowed BnServer (and optionally its PredictionServer) behind an
// RpcServer, exposing the exact server::ShardHandle contract plus
// Predict — the methods net::RemoteShardClient speaks.
//
// Writer discipline: the RPC layer runs one handler thread per
// connection, but BnServer's Ingest/DrainIngest/AdvanceTo/Checkpoint/
// Recover are single-writer operations. The service serializes them
// behind one mutex, turning "many connections" back into the one-writer
// contract the shard was built under. OfferIngest, SampleSubgraph, the
// gauges, and Predict stay lock-free exactly as in-process.
//
// Arguments a peer sends are checked before they reach the shard: where
// BnServer would CHECK (a uid out of range, a negative time, a clock
// going back, no ingest queue, no snapshot yet), the service answers
// InvalidArgument or FailedPrecondition and keeps serving.
//
// The service does not own the shard: tests and embedding processes
// construct the BnServer (with its wal_dir), start a ShardService on an
// ephemeral port, and point RemoteShardClients at endpoint().
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "net/rpc.h"
#include "server/bn_server.h"
#include "server/prediction_server.h"

namespace turbo::net {

/// Method ids of the shard RPC surface (u8 on the wire). The WAL-ship
/// sink ids live in a disjoint range (wal_stream.h) so one process can
/// serve both off a single dispatcher without collisions.
enum class ShardMethod : uint8_t {
  kIngest = 1,
  kIngestBatch = 2,
  kOfferIngest = 3,
  kDrainIngest = 4,
  kQueueDepth = 5,
  kAdvanceTo = 6,
  kCheckpoint = 7,
  kRecover = 8,
  kSampleSubgraph = 9,
  kSnapshotVersion = 10,
  kNow = 11,
  kTotalEdges = 12,
  kPredict = 13,
};

/// Metric/log label for any method id this module knows (shard and
/// WAL-sink ranges); "method<N>" for foreign ids.
std::string ShardMethodName(uint8_t method);

struct ShardServiceConfig {
  Endpoint endpoint;  // port 0 = ephemeral
  /// Durability directory Checkpoint/Recover act on; empty rejects both
  /// with FailedPrecondition (a WAL-less shard has nothing to persist).
  std::string shard_dir;
  int read_deadline_ms = 30'000;
  int write_deadline_ms = 30'000;
  FrameLimits frame_limits;
  obs::MetricsRegistry* metrics = nullptr;  // not owned; null = private
};

class ShardService {
 public:
  /// Starts serving `server` (borrowed, must outlive the service).
  /// `prediction` may be null; Predict then returns FailedPrecondition.
  static Result<std::unique_ptr<ShardService>> Start(
      ShardServiceConfig config, server::BnServer* server,
      server::PredictionServer* prediction = nullptr);
  ~ShardService();

  void Stop();
  /// Chaos hook: hard-closes every live connection (see
  /// RpcServer::CloseConnections).
  void CloseConnections();

  Endpoint endpoint() const { return rpc_->endpoint(); }
  uint16_t port() const { return rpc_->port(); }
  const obs::MetricsRegistry& metrics() const { return rpc_->metrics(); }

 private:
  ShardService(ShardServiceConfig config, server::BnServer* server,
               server::PredictionServer* prediction);

  Result<std::string> Dispatch(uint8_t method, std::string_view body);

  ShardServiceConfig config_;
  server::BnServer* server_;
  server::PredictionServer* prediction_;
  /// Serializes the shard's writer-side operations across connections.
  std::mutex writer_mu_;
  std::unique_ptr<RpcServer> rpc_;
};

}  // namespace turbo::net
