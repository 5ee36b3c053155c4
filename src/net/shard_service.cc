#include "net/shard_service.h"

#include <utility>

#include "net/wal_stream.h"
#include "net/wire.h"
#include "storage/checkpoint_io.h"
#include "util/string_util.h"

namespace turbo::net {

std::string ShardMethodName(uint8_t method) {
  switch (static_cast<ShardMethod>(method)) {
    case ShardMethod::kIngest: return "ingest";
    case ShardMethod::kIngestBatch: return "ingest_batch";
    case ShardMethod::kOfferIngest: return "offer_ingest";
    case ShardMethod::kDrainIngest: return "drain_ingest";
    case ShardMethod::kQueueDepth: return "queue_depth";
    case ShardMethod::kAdvanceTo: return "advance_to";
    case ShardMethod::kCheckpoint: return "checkpoint";
    case ShardMethod::kRecover: return "recover";
    case ShardMethod::kSampleSubgraph: return "sample_subgraph";
    case ShardMethod::kSnapshotVersion: return "snapshot_version";
    case ShardMethod::kNow: return "now";
    case ShardMethod::kTotalEdges: return "total_edges";
    case ShardMethod::kPredict: return "predict";
  }
  switch (static_cast<WalSinkMethod>(method)) {
    case WalSinkMethod::kStat: return "wal_stat";
    case WalSinkMethod::kAppendAt: return "wal_append_at";
    case WalSinkMethod::kWriteAtomic: return "wal_write_atomic";
    case WalSinkMethod::kDelete: return "wal_delete";
    case WalSinkMethod::kListFiles: return "wal_list_files";
  }
  return StrFormat("method%u", static_cast<unsigned>(method));
}

namespace {

// In-process, BnServer CHECKs its callers' preconditions: a violation is
// a bug in the embedding program. Over the wire the same arguments come
// from a peer, so the service checks them first and a bad request fails
// alone instead of aborting the shard.
Status CheckUid(UserId uid, const server::BnServer& server) {
  if (uid >= static_cast<UserId>(server.config().num_users)) {
    return Status::InvalidArgument(
        StrFormat("uid %u out of range: the shard has %d users",
                  static_cast<unsigned>(uid), server.config().num_users));
  }
  return Status::OK();
}

Status CheckIngestQueue(const server::BnServer& server) {
  if (server.config().ingest_queue_capacity == 0) {
    return Status::FailedPrecondition("shard has no ingest queue");
  }
  return Status::OK();
}

// Sampling reads the published snapshot; there is none before the
// shard's first AdvanceTo.
Status CheckSampleable(UserId uid, const server::BnServer& server) {
  TURBO_RETURN_IF_ERROR(CheckUid(uid, server));
  if (server.snapshot_version() == 0) {
    return Status::FailedPrecondition("shard has published no snapshot");
  }
  return Status::OK();
}

}  // namespace

ShardService::ShardService(ShardServiceConfig config,
                           server::BnServer* server,
                           server::PredictionServer* prediction)
    : config_(std::move(config)), server_(server), prediction_(prediction) {}

Result<std::unique_ptr<ShardService>> ShardService::Start(
    ShardServiceConfig config, server::BnServer* server,
    server::PredictionServer* prediction) {
  std::unique_ptr<ShardService> service(
      new ShardService(std::move(config), server, prediction));
  RpcServerConfig rpc;
  rpc.endpoint = service->config_.endpoint;
  rpc.read_deadline_ms = service->config_.read_deadline_ms;
  rpc.write_deadline_ms = service->config_.write_deadline_ms;
  rpc.frame_limits = service->config_.frame_limits;
  rpc.metrics = service->config_.metrics;
  rpc.method_name = ShardMethodName;
  auto server_or = RpcServer::Start(
      std::move(rpc), [s = service.get()](uint8_t method,
                                          std::string_view body) {
        return s->Dispatch(method, body);
      });
  if (!server_or.ok()) return server_or.status();
  service->rpc_ = server_or.take();
  return service;
}

ShardService::~ShardService() { Stop(); }

void ShardService::Stop() {
  if (rpc_ != nullptr) rpc_->Stop();
}

void ShardService::CloseConnections() {
  if (rpc_ != nullptr) rpc_->CloseConnections();
}

Result<std::string> ShardService::Dispatch(uint8_t method,
                                           std::string_view body) {
  storage::BinaryWriter w;
  switch (static_cast<ShardMethod>(method)) {
    case ShardMethod::kIngest: {
      BehaviorLog log;
      TURBO_RETURN_IF_ERROR(DecodeAll(body, &log, storage::DecodeBehaviorLog));
      TURBO_RETURN_IF_ERROR(server_->CheckLog(log));
      std::lock_guard<std::mutex> lock(writer_mu_);
      server_->Ingest(log);
      return std::string();
    }
    case ShardMethod::kIngestBatch: {
      BehaviorLogList logs;
      TURBO_RETURN_IF_ERROR(DecodeAll(body, &logs, storage::DecodeLogBatch));
      // All or nothing: one bad log rejects the whole batch.
      for (const BehaviorLog& log : logs) {
        TURBO_RETURN_IF_ERROR(server_->CheckLog(log));
      }
      std::lock_guard<std::mutex> lock(writer_mu_);
      server_->IngestBatch(logs);
      return std::string();
    }
    case ShardMethod::kOfferIngest: {
      TURBO_RETURN_IF_ERROR(CheckIngestQueue(*server_));
      BehaviorLog log;
      TURBO_RETURN_IF_ERROR(DecodeAll(body, &log, storage::DecodeBehaviorLog));
      // Checked on the way in: DrainIngest would apply it through Ingest.
      TURBO_RETURN_IF_ERROR(server_->CheckLog(log));
      // Lock-free producer path by contract; no writer_mu_.
      w.U8(server_->OfferIngest(log) ? 1 : 0);
      return w.data();
    }
    case ShardMethod::kDrainIngest: {
      TURBO_RETURN_IF_ERROR(CheckIngestQueue(*server_));
      storage::BinaryReader r(body);
      const uint64_t max_events = r.U64();
      if (!r.ok() || r.remaining() != 0) {
        return Status::InvalidArgument("malformed drain request");
      }
      std::lock_guard<std::mutex> lock(writer_mu_);
      w.U64(server_->DrainIngest(max_events));
      return w.data();
    }
    case ShardMethod::kQueueDepth: {
      w.U64(server_->ingest_queue_depth());
      return w.data();
    }
    case ShardMethod::kAdvanceTo: {
      storage::BinaryReader r(body);
      const SimTime now = r.I64();
      if (!r.ok() || r.remaining() != 0) {
        return Status::InvalidArgument("malformed advance request");
      }
      std::lock_guard<std::mutex> lock(writer_mu_);
      if (now < server_->now()) {
        return Status::InvalidArgument(StrFormat(
            "advance to %lld is behind the shard clock %lld",
            static_cast<long long>(now),
            static_cast<long long>(server_->now())));
      }
      server_->AdvanceTo(now);
      return std::string();
    }
    case ShardMethod::kCheckpoint: {
      if (config_.shard_dir.empty()) {
        return Status::FailedPrecondition("shard has no durability dir");
      }
      std::lock_guard<std::mutex> lock(writer_mu_);
      TURBO_RETURN_IF_ERROR(server_->Checkpoint(config_.shard_dir));
      return std::string();
    }
    case ShardMethod::kRecover: {
      if (config_.shard_dir.empty()) {
        return Status::FailedPrecondition("shard has no durability dir");
      }
      std::lock_guard<std::mutex> lock(writer_mu_);
      TURBO_RETURN_IF_ERROR(server_->Recover(config_.shard_dir));
      return std::string();
    }
    case ShardMethod::kSampleSubgraph: {
      storage::BinaryReader r(body);
      const UserId uid = r.U32();
      if (!r.ok() || r.remaining() != 0) {
        return Status::InvalidArgument("malformed sample request");
      }
      TURBO_RETURN_IF_ERROR(CheckSampleable(uid, *server_));
      EncodeSubgraph(server_->SampleSubgraph(uid), &w);
      return w.data();
    }
    case ShardMethod::kSnapshotVersion: {
      w.U64(server_->snapshot_version());
      return w.data();
    }
    case ShardMethod::kNow: {
      w.I64(server_->now());
      return w.data();
    }
    case ShardMethod::kTotalEdges: {
      w.U64(server_->edges().TotalEdges());
      return w.data();
    }
    case ShardMethod::kPredict: {
      if (prediction_ == nullptr) {
        return Status::FailedPrecondition("shard serves no predictions");
      }
      storage::BinaryReader r(body);
      const UserId uid = r.U32();
      if (!r.ok() || r.remaining() != 0) {
        return Status::InvalidArgument("malformed predict request");
      }
      TURBO_RETURN_IF_ERROR(CheckSampleable(uid, *server_));
      EncodePredictionResponse(prediction_->Handle(uid), &w);
      return w.data();
    }
  }
  return Status::InvalidArgument(
      StrFormat("unknown shard method %u", static_cast<unsigned>(method)));
}

}  // namespace turbo::net
