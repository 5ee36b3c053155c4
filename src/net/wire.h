// Wire encodings of the domain messages the cluster RPCs carry
// (DESIGN.md §15): sampled subgraphs and prediction responses. Behavior
// logs and log batches travel in storage's codec
// (storage::EncodeBehaviorLog / EncodeLogBatch), the bytes the WAL and
// the checkpoint carry too. Built on storage::BinaryWriter/BinaryReader
// — the same fixed-width little-endian primitives as the checkpoint
// container, so every field is bit-exact across the wire (doubles
// travel as their bit patterns, which is what the bit-identity
// conformance suite relies on).
//
// Decoders return Status instead of CHECKing: a malformed body is a
// peer bug or corruption that slipped past the frame CRC, and must
// surface as an error response, not a server crash.
#pragma once

#include <string>
#include <string_view>

#include "bn/sampler.h"
#include "server/prediction_server.h"
#include "storage/checkpoint_io.h"
#include "util/status.h"

namespace turbo::net {

/// Subgraphs serialize nodes + typed triplets; the local index map is
/// rebuilt on decode (it is derived state: nodes[i] -> i).
void EncodeSubgraph(const bn::Subgraph& sg, storage::BinaryWriter* w);
Status DecodeSubgraph(storage::BinaryReader* r, bn::Subgraph* sg);

void EncodePredictionResponse(const server::PredictionResponse& resp,
                              storage::BinaryWriter* w);
Status DecodePredictionResponse(storage::BinaryReader* r,
                                server::PredictionResponse* resp);

/// Decode-side convenience: wraps `body` in a reader, runs `decode`,
/// and rejects trailing bytes (a length mismatch means the peers
/// disagree about the schema — fail loudly, not quietly).
template <typename T, typename DecodeFn>
Status DecodeAll(std::string_view body, T* out, DecodeFn decode) {
  storage::BinaryReader r(body);
  TURBO_RETURN_IF_ERROR(decode(&r, out));
  if (!r.ok() || r.remaining() != 0) {
    return Status::InvalidArgument("malformed message body");
  }
  return Status::OK();
}

}  // namespace turbo::net
