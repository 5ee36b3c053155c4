#include "net/wire.h"

namespace turbo::net {

namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(
      std::string("malformed message: ") + what);
}

// Bools travel as one byte, 0 or 1. Any other byte is malformed: it
// would decode to true and re-encode as a different message.
bool ReadBool(storage::BinaryReader* r, bool* out) {
  const uint8_t b = r->U8();
  *out = b == 1;
  return b <= 1;
}

}  // namespace

void EncodeSubgraph(const bn::Subgraph& sg, storage::BinaryWriter* w) {
  w->U64(sg.nodes.size());
  for (UserId uid : sg.nodes) w->U32(uid);
  w->U64(sg.num_targets);
  w->U64(sg.snapshot_version);
  for (const auto& edges : sg.edges) {
    w->U64(edges.size());
    for (const la::Triplet& t : edges) {
      w->U32(t.row);
      w->U32(t.col);
      w->F32(t.value);
    }
  }
}

Status DecodeSubgraph(storage::BinaryReader* r, bn::Subgraph* sg) {
  const uint64_t num_nodes = r->U64();
  if (!r->ok() || num_nodes > r->remaining() / 4 + 1) {
    return Malformed("subgraph node count");
  }
  sg->nodes.clear();
  sg->nodes.reserve(num_nodes);
  sg->local.clear();
  for (uint64_t i = 0; i < num_nodes; ++i) {
    const UserId uid = r->U32();
    sg->nodes.push_back(uid);
    if (!sg->local.emplace(uid, static_cast<int>(i)).second && r->ok()) {
      return Malformed("subgraph duplicate node");
    }
  }
  sg->num_targets = r->U64();
  sg->snapshot_version = r->U64();
  if (!r->ok() || sg->num_targets > sg->nodes.size()) {
    return Malformed("subgraph targets");
  }
  for (auto& edges : sg->edges) {
    const uint64_t n = r->U64();
    if (!r->ok() || n > r->remaining() / 12 + 1) {
      return Malformed("subgraph edge count");
    }
    edges.clear();
    edges.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      la::Triplet t;
      t.row = r->U32();
      t.col = r->U32();
      t.value = r->F32();
      if (t.row >= num_nodes || t.col >= num_nodes) {
        return Malformed("subgraph edge index");
      }
      edges.push_back(t);
    }
  }
  if (!r->ok()) return Malformed("subgraph");
  return Status::OK();
}

void EncodePredictionResponse(const server::PredictionResponse& resp,
                              storage::BinaryWriter* w) {
  w->F64(resp.fraud_probability);
  w->U8(resp.blocked ? 1 : 0);
  w->U32(static_cast<uint32_t>(resp.subgraph_nodes));
  w->U64(resp.request_id);
  w->U64(resp.snapshot_version);
  w->U32(static_cast<uint32_t>(resp.batch_size));
  w->U8(resp.cache_hit ? 1 : 0);
  w->U8(resp.shed ? 1 : 0);
  w->F64(resp.sampling_ms);
  w->F64(resp.feature_ms);
  w->F64(resp.inference_ms);
  w->F64(resp.total_ms);
}

Status DecodePredictionResponse(storage::BinaryReader* r,
                                server::PredictionResponse* resp) {
  resp->fraud_probability = r->F64();
  bool bools_ok = ReadBool(r, &resp->blocked);
  resp->subgraph_nodes = static_cast<int>(r->U32());
  resp->request_id = r->U64();
  resp->snapshot_version = r->U64();
  resp->batch_size = static_cast<int>(r->U32());
  bools_ok &= ReadBool(r, &resp->cache_hit);
  bools_ok &= ReadBool(r, &resp->shed);
  resp->sampling_ms = r->F64();
  resp->feature_ms = r->F64();
  resp->inference_ms = r->F64();
  resp->total_ms = r->F64();
  if (!r->ok() || !bools_ok) return Malformed("prediction response");
  return Status::OK();
}

}  // namespace turbo::net
