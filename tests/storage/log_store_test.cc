#include "storage/log_store.h"

#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace turbo::storage {
namespace {

using turbo::BehaviorLog;
using turbo::BehaviorType;

BehaviorLog L(UserId u, BehaviorType t, ValueId v, SimTime time) {
  return BehaviorLog{u, t, v, time};
}

TEST(LogStoreTest, AppendAndSize) {
  LogStore store;
  EXPECT_EQ(store.size(), 0u);
  store.Append(L(1, BehaviorType::kIpv4, 100, 10));
  store.Append(L(2, BehaviorType::kIpv4, 100, 20));
  EXPECT_EQ(store.size(), 2u);
}

TEST(LogStoreTest, QueryUserTimeRange) {
  LogStore store;
  for (SimTime t = 0; t < 10; ++t) {
    store.Append(L(7, BehaviorType::kDeviceId, 1, t * 100));
  }
  auto logs = store.QueryUser(7, 250, 650);
  ASSERT_EQ(logs.size(), 4u);  // 300, 400, 500, 600
  EXPECT_EQ(logs.front().time, 300);
  EXPECT_EQ(logs.back().time, 600);
}

TEST(LogStoreTest, QueryUserInclusiveBounds) {
  LogStore store;
  store.Append(L(1, BehaviorType::kIpv4, 5, 100));
  store.Append(L(1, BehaviorType::kIpv4, 5, 200));
  auto logs = store.QueryUser(1, 100, 200);
  EXPECT_EQ(logs.size(), 2u);
}

TEST(LogStoreTest, QueryUnknownUserIsEmpty) {
  LogStore store;
  EXPECT_TRUE(store.QueryUser(99, 0, 1000).empty());
}

TEST(LogStoreTest, OutOfOrderAppendsAreSortedOnRead) {
  LogStore store;
  store.Append(L(1, BehaviorType::kIpv4, 5, 300));
  store.Append(L(1, BehaviorType::kIpv4, 5, 100));
  store.Append(L(1, BehaviorType::kIpv4, 5, 200));
  auto logs = store.QueryUser(1, 0, 1000);
  ASSERT_EQ(logs.size(), 3u);
  EXPECT_EQ(logs[0].time, 100);
  EXPECT_EQ(logs[2].time, 300);
}

TEST(LogStoreTest, QueryValueGroupsUsers) {
  LogStore store;
  store.Append(L(1, BehaviorType::kWifiMac, 42, 10));
  store.Append(L(2, BehaviorType::kWifiMac, 42, 20));
  store.Append(L(3, BehaviorType::kWifiMac, 43, 30));   // other value
  store.Append(L(4, BehaviorType::kIpv4, 42, 40));      // other type
  auto obs = store.QueryValue(BehaviorType::kWifiMac, 42, 0, 100);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].uid, 1u);
  EXPECT_EQ(obs[1].uid, 2u);
}

TEST(LogStoreTest, QueryValueRespectsTimeRange) {
  LogStore store;
  for (SimTime t = 0; t < 5; ++t) {
    store.Append(L(static_cast<UserId>(t), BehaviorType::kGps100, 9, t * 10));
  }
  auto obs = store.QueryValue(BehaviorType::kGps100, 9, 15, 35);
  ASSERT_EQ(obs.size(), 2u);  // t=20, t=30
}

TEST(LogStoreTest, ActiveValuesFindsTouchedKeys) {
  LogStore store;
  store.Append(L(1, BehaviorType::kIpv4, 100, 50));
  store.Append(L(2, BehaviorType::kImei, 200, 500));
  auto active = store.ActiveValues(0, 100);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].value, 100u);
  EXPECT_EQ(active[0].type, BehaviorType::kIpv4);
  EXPECT_EQ(store.ActiveValues(600, 700).size(), 0u);
}

TEST(LogStoreTest, UsersListsAllUsersSorted) {
  LogStore store;
  store.Append(L(5, BehaviorType::kIpv4, 1, 0));
  store.Append(L(2, BehaviorType::kIpv4, 1, 0));
  store.Append(L(5, BehaviorType::kImei, 2, 0));
  auto users = store.Users();
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], 2u);
  EXPECT_EQ(users[1], 5u);
}

TEST(LogStoreTest, ChargesSimClockPerQueryAndRow) {
  LogStore store(MediumCost{100.0, 10.0});
  for (int i = 0; i < 5; ++i) {
    store.Append(L(1, BehaviorType::kIpv4, 7, i * 10));
  }
  SimClock clock;
  store.QueryUser(1, 0, 100, &clock);
  EXPECT_DOUBLE_EQ(clock.ElapsedMicros(), 100.0 + 10.0 * 5);
  EXPECT_EQ(clock.queries(), 1);
  EXPECT_EQ(clock.rows(), 5);
}

TEST(LogStoreTest, BehaviorTypeHelpers) {
  EXPECT_EQ(BehaviorTypeName(BehaviorType::kDeviceId), "DeviceId");
  EXPECT_EQ(EdgeTypeIndex(BehaviorType::kDeviceId), 0);
  EXPECT_EQ(EdgeTypeIndex(BehaviorType::kGps), -1);   // raw GPS not an edge
  EXPECT_EQ(EdgeTypeIndex(BehaviorType::kGps100), 5);
  EXPECT_EQ(kNumEdgeTypes, 8);
}

// Each of the section's three type-carrying rows (user run, value-key
// run, hour bucket) refuses a type byte that names no BehaviorType.
TEST(LogStoreTest, DeserializeRejectsOutOfRangeType) {
  LogStore store;
  store.Append(L(3, BehaviorType::kIpv4, 42, 10));
  BinaryWriter w;
  store.Serialize(&w);
  const std::string valid = w.data();
  {
    BinaryReader r(valid);
    LogStore copy;
    ASSERT_TRUE(copy.Deserialize(&r, /*num_users=*/8).ok());
  }
  // u64 total, u64 users, then the user run: u32 uid, u8 sorted,
  // u64 count and 17-byte rows (type first). Then u64 keys and the
  // value-key run (type first), 18 bytes + one 12-byte observation;
  // then u64 hours, and the hour bucket: i64 hour, u64 count, 9-byte
  // key rows (type first).
  const size_t user_row = 8 + 8 + 4 + 1 + 8;
  const size_t value_key = user_row + 17 + 8;
  const size_t hour_key = value_key + 18 + 12 + 8 + 8 + 8;
  ASSERT_EQ(valid.size(), hour_key + 9);
  for (const size_t at : {user_row, value_key, hour_key}) {
    ASSERT_EQ(valid[at], static_cast<char>(BehaviorType::kIpv4)) << at;
    for (const uint8_t type : {uint8_t{10}, uint8_t{255}}) {
      std::string bytes = valid;
      bytes[at] = static_cast<char>(type);
      BinaryReader r(bytes);
      LogStore copy;
      EXPECT_EQ(copy.Deserialize(&r, /*num_users=*/8).code(),
                StatusCode::kInvalidArgument)
          << "offset " << at << " type " << int{type};
      EXPECT_EQ(copy.size(), 0u);
    }
  }
}

// The checks a WAL record gets: every uid (user run, observation) below
// num_users and every time (user row, observation, hour) non-negative.
TEST(LogStoreTest, DeserializeRejectsOutOfRangeUidsAndNegativeTimes) {
  LogStore store;
  store.Append(L(3, BehaviorType::kIpv4, 42, 10));
  BinaryWriter w;
  store.Serialize(&w);
  const std::string valid = w.data();
  // Layout as in DeserializeRejectsOutOfRangeType: the user run's uid
  // follows the two u64 counts, its row's time follows type and value,
  // the observation row sits after the 18-byte value-key header, and
  // the hour follows the u64 hour count.
  const size_t run_uid = 8 + 8;
  const size_t row_time = run_uid + 4 + 1 + 8 + 1 + 8;
  const size_t obs_uid = row_time + 8 + 8 + 18;
  const size_t obs_time = obs_uid + 4;
  const size_t hour = obs_time + 8 + 8;
  const auto patch = [&](size_t at, auto value) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    return bytes;
  };
  ASSERT_EQ(patch(obs_uid, UserId{3}), valid);
  ASSERT_EQ(patch(hour, int64_t{0}), valid);
  const std::pair<std::string, const char*> cases[] = {
      {patch(run_uid, UserId{8}), "user run uid"},
      {patch(obs_uid, UserId{8}), "observation uid"},
      {patch(row_time, int64_t{-1}), "user row time"},
      {patch(obs_time, int64_t{-1}), "observation time"},
      {patch(hour, int64_t{-1}), "hour"},
  };
  for (const auto& [bytes, what] : cases) {
    BinaryReader r(bytes);
    LogStore copy;
    EXPECT_EQ(copy.Deserialize(&r, /*num_users=*/8).code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(copy.size(), 0u) << what;
  }
}

}  // namespace
}  // namespace turbo::storage
