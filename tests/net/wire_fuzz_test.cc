// Seeded fuzz of the four wire decoders (src/net/wire.cc). Every input
// must either decode and re-encode to exactly its own bytes, or fail
// with InvalidArgument: a decoder may never crash, accept trailing
// bytes, or accept a body that does not round-trip. Inputs are valid
// encodings of random messages, their truncations, byte flips, random
// appended tails, and random bodies. Failures print the seed and trial.
#include "net/wire.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace turbo::net {
namespace {

constexpr uint64_t kSeed = 0x5eed2310;
constexpr int kMessages = 300;  // random messages per decoder
constexpr int kMutations = 12;  // mutated inputs per message

template <typename T, typename Decode, typename Encode>
void CheckInput(const std::string& body, Decode decode, Encode encode,
                const std::string& where) {
  T msg;
  const Status s = DecodeAll(body, &msg, decode);
  if (!s.ok()) {
    ASSERT_EQ(s.code(), StatusCode::kInvalidArgument)
        << where << ": " << s.ToString();
    return;
  }
  storage::BinaryWriter w;
  encode(msg, &w);
  ASSERT_EQ(w.data(), body) << where << ": decoded but did not round-trip";
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextUint(256));
  return out;
}

/// Encodes kMessages random messages from `make`, checks each valid
/// encoding round-trips, then checks kMutations mutations of it plus one
/// random body of similar length.
template <typename T, typename Make, typename Decode, typename Encode>
void Fuzz(const char* name, Make make, Decode decode, Encode encode) {
  Rng rng(kSeed);
  for (int m = 0; m < kMessages; ++m) {
    storage::BinaryWriter w;
    encode(make(&rng), &w);
    const std::string valid = w.data();
    const std::string where = std::string(name) + " seed=" +
                              std::to_string(kSeed) + " message " +
                              std::to_string(m);
    {
      T msg;
      const Status s = DecodeAll(valid, &msg, decode);
      ASSERT_TRUE(s.ok()) << where << ": " << s.ToString();
    }
    CheckInput<T>(valid, decode, encode, where);
    for (int k = 0; k < kMutations; ++k) {
      std::string body = valid;
      switch (rng.NextUint(3)) {
        case 0:  // truncation
          body.resize(rng.NextUint(body.size() + 1));
          break;
        case 1: {  // 1-3 byte flips
          if (body.empty()) break;
          const int flips = 1 + static_cast<int>(rng.NextUint(3));
          for (int f = 0; f < flips; ++f) {
            body[rng.NextUint(body.size())] ^=
                static_cast<char>(1 + rng.NextUint(255));
          }
          break;
        }
        default:  // trailing bytes
          body += RandomBytes(&rng, 1 + rng.NextUint(16));
          break;
      }
      CheckInput<T>(body, decode, encode,
                    where + " mutation " + std::to_string(k));
    }
    CheckInput<T>(RandomBytes(&rng, rng.NextUint(valid.size() + 32)),
                  decode, encode, where + " random body");
  }
}

BehaviorLog RandomLog(Rng* rng) {
  BehaviorLog log;
  log.uid = static_cast<UserId>(rng->Next());
  log.type = static_cast<BehaviorType>(rng->NextUint(kNumBehaviorTypes));
  log.value = rng->Next();
  log.time = static_cast<SimTime>(rng->Next());
  return log;
}

float RandomFloat(Rng* rng) {
  const uint32_t bits = static_cast<uint32_t>(rng->Next());
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double RandomDouble(Rng* rng) {
  const uint64_t bits = rng->Next();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(WireFuzzTest, BehaviorLog) {
  Fuzz<BehaviorLog>("behavior_log", RandomLog, DecodeBehaviorLog,
                    EncodeBehaviorLog);
}

TEST(WireFuzzTest, LogBatch) {
  Fuzz<BehaviorLogList>(
      "log_batch",
      [](Rng* rng) {
        BehaviorLogList logs(rng->NextUint(8));
        for (auto& log : logs) log = RandomLog(rng);
        return logs;
      },
      DecodeLogBatch, EncodeLogBatch);
}

TEST(WireFuzzTest, Subgraph) {
  Fuzz<bn::Subgraph>(
      "subgraph",
      [](Rng* rng) {
        bn::Subgraph sg;
        const size_t n = 1 + rng->NextUint(12);
        for (size_t i = 0; i < n; ++i) {
          // Distinct ids: a subgraph names each node once.
          sg.nodes.push_back(
              static_cast<UserId>(i * 7919 + rng->NextUint(7)));
        }
        sg.num_targets = 1 + rng->NextUint(n);
        sg.snapshot_version = rng->Next();
        for (auto& edges : sg.edges) {
          edges.resize(rng->NextUint(4));
          for (la::Triplet& t : edges) {
            t.row = static_cast<uint32_t>(rng->NextUint(n));
            t.col = static_cast<uint32_t>(rng->NextUint(n));
            t.value = RandomFloat(rng);
          }
        }
        return sg;
      },
      DecodeSubgraph, EncodeSubgraph);
}

TEST(WireFuzzTest, PredictionResponse) {
  Fuzz<server::PredictionResponse>(
      "prediction_response",
      [](Rng* rng) {
        server::PredictionResponse r;
        r.fraud_probability = RandomDouble(rng);
        r.blocked = rng->NextUint(2) == 1;
        r.subgraph_nodes = static_cast<int>(rng->Next());
        r.request_id = rng->Next();
        r.snapshot_version = rng->Next();
        r.batch_size = static_cast<int>(rng->Next());
        r.cache_hit = rng->NextUint(2) == 1;
        r.shed = rng->NextUint(2) == 1;
        r.sampling_ms = RandomDouble(rng);
        r.feature_ms = RandomDouble(rng);
        r.inference_ms = RandomDouble(rng);
        r.total_ms = RandomDouble(rng);
        return r;
      },
      DecodePredictionResponse, EncodePredictionResponse);
}

// A bool byte other than 0 or 1 would decode to true and re-encode as 1,
// which the round trip above catches; a subgraph naming a node twice
// would round-trip, but its rebuilt local index could not map both.
// Both are malformed.
TEST(WireFuzzTest, NonCanonicalBoolsAndDuplicateNodesAreRejected) {
  server::PredictionResponse resp;
  storage::BinaryWriter w;
  EncodePredictionResponse(resp, &w);
  std::string body = w.data();
  body[8] = 2;  // `blocked`, right after the f64 probability
  server::PredictionResponse out;
  EXPECT_EQ(DecodeAll(body, &out, DecodePredictionResponse).code(),
            StatusCode::kInvalidArgument);

  bn::Subgraph sg;
  sg.nodes = {5, 5};
  sg.num_targets = 1;
  storage::BinaryWriter ws;
  EncodeSubgraph(sg, &ws);
  bn::Subgraph decoded;
  EXPECT_EQ(DecodeAll(ws.data(), &decoded, DecodeSubgraph).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace turbo::net
