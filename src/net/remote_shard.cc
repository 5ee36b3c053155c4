#include "net/remote_shard.h"

#include <utility>

#include "net/wire.h"
#include "storage/checkpoint_io.h"
#include "util/string_util.h"

namespace turbo::net {

namespace {

RpcClientConfig MakeClientConfig(RemoteShardConfig config) {
  RpcClientConfig rpc = std::move(config.rpc);
  rpc.endpoint = config.endpoint;
  if (!rpc.method_name) rpc.method_name = ShardMethodName;
  return rpc;
}

}  // namespace

RemoteShardClient::RemoteShardClient(RemoteShardConfig config)
    : client_(MakeClientConfig(std::move(config))) {}

Result<std::string> RemoteShardClient::Call(ShardMethod method,
                                            std::string_view body,
                                            bool idempotent) {
  return client_.Call(static_cast<uint8_t>(method), body, idempotent);
}

void RemoteShardClient::Ingest(const BehaviorLog& log) {
  storage::BinaryWriter w;
  storage::EncodeBehaviorLog(log, &w);
  auto result = Call(ShardMethod::kIngest, w.data(),
                     /*idempotent=*/false);
  TURBO_CHECK_MSG(result.ok(), "remote Ingest failed: "
                                   << result.status().ToString());
}

void RemoteShardClient::IngestBatch(const BehaviorLogList& logs) {
  storage::BinaryWriter w;
  storage::EncodeLogBatch(logs, &w);
  auto result = Call(ShardMethod::kIngestBatch, w.data(),
                     /*idempotent=*/false);
  TURBO_CHECK_MSG(result.ok(), "remote IngestBatch failed: "
                                   << result.status().ToString());
}

bool RemoteShardClient::OfferIngest(const BehaviorLog& log) {
  storage::BinaryWriter w;
  storage::EncodeBehaviorLog(log, &w);
  // A transport failure sheds the log — the admission contract's
  // "reject instead of stall", extended to "reject instead of guess
  // whether the peer applied it".
  auto result = Call(ShardMethod::kOfferIngest, w.data(),
                     /*idempotent=*/false);
  if (!result.ok()) return false;
  storage::BinaryReader r(result.value());
  const bool admitted = r.U8() != 0;
  return r.ok() && r.remaining() == 0 && admitted;
}

size_t RemoteShardClient::DrainIngest(size_t max_events) {
  storage::BinaryWriter w;
  w.U64(max_events);
  auto result = Call(ShardMethod::kDrainIngest, w.data(),
                     /*idempotent=*/false);
  TURBO_CHECK_MSG(result.ok(), "remote DrainIngest failed: "
                                   << result.status().ToString());
  storage::BinaryReader r(result.value());
  const uint64_t applied = r.U64();
  TURBO_CHECK(r.ok() && r.remaining() == 0);
  return applied;
}

size_t RemoteShardClient::ingest_queue_depth() {
  auto result = Call(ShardMethod::kQueueDepth, {}, /*idempotent=*/true);
  TURBO_CHECK_MSG(result.ok(), "remote queue_depth failed: "
                                   << result.status().ToString());
  storage::BinaryReader r(result.value());
  const uint64_t depth = r.U64();
  TURBO_CHECK(r.ok() && r.remaining() == 0);
  return depth;
}

void RemoteShardClient::AdvanceTo(SimTime now) {
  storage::BinaryWriter w;
  w.I64(now);
  // AdvanceTo is idempotent in effect (advancing to the same time
  // twice is a no-op), but a retried half-applied advance would still
  // re-run window jobs; the server's writer mutex makes the call
  // all-or-nothing, so effect-level idempotence holds and retrying a
  // lost response is safe.
  auto result = Call(ShardMethod::kAdvanceTo, w.data(),
                     /*idempotent=*/true);
  TURBO_CHECK_MSG(result.ok(), "remote AdvanceTo failed: "
                                   << result.status().ToString());
}

Status RemoteShardClient::Checkpoint() {
  auto result = Call(ShardMethod::kCheckpoint, {}, /*idempotent=*/true);
  return result.status();
}

Status RemoteShardClient::Recover() {
  auto result = Call(ShardMethod::kRecover, {}, /*idempotent=*/true);
  return result.status();
}

bn::Subgraph RemoteShardClient::SampleSubgraph(UserId uid) {
  storage::BinaryWriter w;
  w.U32(uid);
  auto result = Call(ShardMethod::kSampleSubgraph, w.data(),
                     /*idempotent=*/true);
  TURBO_CHECK_MSG(result.ok(), "remote SampleSubgraph failed: "
                                   << result.status().ToString());
  bn::Subgraph sg;
  const Status s = DecodeAll(result.value(), &sg, DecodeSubgraph);
  TURBO_CHECK_MSG(s.ok(), "bad subgraph payload: " << s.ToString());
  return sg;
}

uint64_t RemoteShardClient::snapshot_version() {
  auto result =
      Call(ShardMethod::kSnapshotVersion, {}, /*idempotent=*/true);
  TURBO_CHECK_MSG(result.ok(), "remote snapshot_version failed: "
                                   << result.status().ToString());
  storage::BinaryReader r(result.value());
  const uint64_t version = r.U64();
  TURBO_CHECK(r.ok() && r.remaining() == 0);
  return version;
}

SimTime RemoteShardClient::now() {
  auto result = Call(ShardMethod::kNow, {}, /*idempotent=*/true);
  TURBO_CHECK_MSG(result.ok(),
                  "remote now failed: " << result.status().ToString());
  storage::BinaryReader r(result.value());
  const SimTime now = r.I64();
  TURBO_CHECK(r.ok() && r.remaining() == 0);
  return now;
}

uint64_t RemoteShardClient::TotalEdges() {
  auto result = Call(ShardMethod::kTotalEdges, {}, /*idempotent=*/true);
  TURBO_CHECK_MSG(result.ok(), "remote TotalEdges failed: "
                                   << result.status().ToString());
  storage::BinaryReader r(result.value());
  const uint64_t edges = r.U64();
  TURBO_CHECK(r.ok() && r.remaining() == 0);
  return edges;
}

Result<server::PredictionResponse> RemoteShardClient::Predict(
    UserId uid) {
  storage::BinaryWriter w;
  w.U32(uid);
  auto result = Call(ShardMethod::kPredict, w.data(),
                     /*idempotent=*/true);
  if (!result.ok()) return result.status();
  server::PredictionResponse resp;
  TURBO_RETURN_IF_ERROR(
      DecodeAll(result.value(), &resp, DecodePredictionResponse));
  return resp;
}

}  // namespace turbo::net
