#include "util/status.h"

#include <gtest/gtest.h>

namespace turbo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("user 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "user 42");
  EXPECT_EQ(s.ToString(), "NotFound: user 42");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
}

Result<int> Seven() { return 7; }

TEST(ResultTest, HoldsValue) {
  // Built by a call, not in place: GCC 12 at -O3 otherwise warns that
  // the Status alternative ~Result may destroy is uninitialized.
  const Result<int> r = Seven();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = r.take();
  EXPECT_EQ(v, "hello");
}

TEST(ResultTest, ValueOnErrorAborts) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_DEATH(r.value(), "Result::value on error");
}

TEST(CheckTest, FailingCheckAborts) {
  EXPECT_DEATH(TURBO_CHECK_EQ(1, 2), "CHECK failed");
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto f = []() -> Status {
    TURBO_RETURN_IF_ERROR(Status::NotFound("x"));
    return Status::OK();
  };
  EXPECT_EQ(f().code(), StatusCode::kNotFound);
}

TEST(ReturnIfErrorTest, PassesThroughOk) {
  auto f = []() -> Status {
    TURBO_RETURN_IF_ERROR(Status::OK());
    return Status::AlreadyExists("end");
  };
  EXPECT_EQ(f().code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace turbo
