// Tests for the failpoint registry: triggers, effects, spec parsing, and
// the disabled fast path.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>

#include "util/failpoint.h"

namespace pincer {
namespace {

using failpoint::Config;
using failpoint::Effect;
using failpoint::Trigger;

// Every test disarms on entry and exit so an assertion failure mid-test
// cannot leak an armed point into the next one.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

Status HitAsStatus(std::string_view name) {
  PINCER_FAILPOINT(name);
  return Status::OK();
}

TEST_F(FailpointTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(failpoint::AnyArmed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(HitAsStatus("test.point").ok());
  }
  EXPECT_EQ(failpoint::FireCount("test.point"), 0u);
  EXPECT_EQ(failpoint::HitCount("test.point"), 0u);
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  failpoint::Arm("test.point", Config{Trigger::Once(), Effect::kIoError});
  EXPECT_TRUE(failpoint::AnyArmed());
  const Status first = HitAsStatus("test.point");
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_NE(first.message().find("test.point"), std::string::npos) << first;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(HitAsStatus("test.point").ok());
  }
  EXPECT_EQ(failpoint::FireCount("test.point"), 1u);
  EXPECT_EQ(failpoint::HitCount("test.point"), 11u);
}

TEST_F(FailpointTest, OnceAtNthFiresAtTheNthHit) {
  failpoint::Arm("test.point", Config{Trigger::Once(3), Effect::kIoError});
  EXPECT_TRUE(HitAsStatus("test.point").ok());
  EXPECT_TRUE(HitAsStatus("test.point").ok());
  EXPECT_FALSE(HitAsStatus("test.point").ok());
  EXPECT_TRUE(HitAsStatus("test.point").ok());
  EXPECT_EQ(failpoint::FireCount("test.point"), 1u);
}

TEST_F(FailpointTest, EveryNthFiresPeriodically) {
  failpoint::Arm("test.point", Config{Trigger::EveryNth(3), Effect::kIoError});
  int fired = 0;
  for (int i = 1; i <= 9; ++i) {
    if (!HitAsStatus("test.point").ok()) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired at hit " << i;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(FailpointTest, ProbabilityIsSeededAndDeterministic) {
  auto run = [&] {
    failpoint::Arm("test.point",
                   Config{Trigger::Probability(0.5, 77), Effect::kIoError});
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += HitAsStatus("test.point").ok() ? '.' : 'X';
    }
    return pattern;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());  // re-arming resets the PRNG to the seed
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST_F(FailpointTest, EffectSelectsStatusCode) {
  failpoint::Arm("test.point",
                 Config{Trigger::Once(), Effect::kInvalidArgument});
  EXPECT_EQ(HitAsStatus("test.point").code(), StatusCode::kInvalidArgument);
}

TEST_F(FailpointTest, CorruptRowBreaksParsing) {
  std::string row = "1 2 3";
  failpoint::CorruptRow(row);
  EXPECT_NE(row, "1 2 3");
  // The appended token must be non-numeric so strict parsers reject it.
  EXPECT_NE(row.find_first_not_of("0123456789 "), std::string::npos);
}

TEST_F(FailpointTest, DisarmRestoresCleanBehavior) {
  failpoint::Arm("test.point", Config{Trigger::EveryNth(1), Effect::kIoError});
  EXPECT_FALSE(HitAsStatus("test.point").ok());
  failpoint::Disarm("test.point");
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_TRUE(HitAsStatus("test.point").ok());
}

TEST_F(FailpointTest, RearmResetsCounters) {
  failpoint::Arm("test.point", Config{Trigger::Once(), Effect::kIoError});
  EXPECT_FALSE(HitAsStatus("test.point").ok());
  failpoint::Arm("test.point", Config{Trigger::Once(), Effect::kIoError});
  EXPECT_EQ(failpoint::HitCount("test.point"), 0u);
  EXPECT_FALSE(HitAsStatus("test.point").ok());  // fires again after re-arm
}

TEST_F(FailpointTest, ArmedCountTracksDistinctPoints) {
  failpoint::Arm("a", Config{});
  failpoint::Arm("b", Config{});
  failpoint::Arm("a", Config{});  // re-arm, not a new point
  EXPECT_TRUE(failpoint::AnyArmed());
  failpoint::Disarm("a");
  EXPECT_TRUE(failpoint::AnyArmed());
  failpoint::Disarm("b");
  EXPECT_FALSE(failpoint::AnyArmed());
}

TEST_F(FailpointTest, SpecParsesTriggersAndEffects) {
  ASSERT_TRUE(failpoint::ArmFromSpec(
                  "a=once,b=once@3:invalid,c=every@2:corrupt,d=prob@0.5@9")
                  .ok());
  EXPECT_FALSE(HitAsStatus("a").ok());
  EXPECT_TRUE(HitAsStatus("b").ok());
  EXPECT_TRUE(HitAsStatus("b").ok());
  EXPECT_EQ(HitAsStatus("b").code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(HitAsStatus("c").ok());
  const failpoint::HitResult second = failpoint::Hit("c");
  EXPECT_TRUE(second.fired);
  EXPECT_EQ(second.effect, Effect::kCorruptRow);
}

TEST_F(FailpointTest, MalformedSpecArmsNothing) {
  for (const char* spec :
       {"noequals", "=once", "a=", "a=never", "a=once@0", "a=once@x",
        "a=every", "a=prob@2@1", "a=prob@0.5", "a=once:fancy",
        "a=once,b=bogus"}) {
    const Status status = failpoint::ArmFromSpec(spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
    EXPECT_FALSE(failpoint::AnyArmed()) << spec;
  }
}

TEST(FailpointDeathTest, KillEffectRaisesSigkillAtTheArmedHit) {
  // The spec arms `kill`; the first hit passes, the armed one ends the
  // process by SIGKILL before the call returns. A process that survives
  // it, or a spec that arms nothing, fails the death test.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        failpoint::DisarmAll();
        (void)failpoint::ArmFromSpec("test.kill=once@2:kill");
        (void)HitAsStatus("test.kill");
        (void)std::fputs("survived the first hit\n", stderr);
        (void)HitAsStatus("test.kill");
      },
      ::testing::KilledBySignal(SIGKILL), "survived the first hit");
}

TEST_F(FailpointTest, EmptyAndSingleClauseSpecs) {
  EXPECT_TRUE(failpoint::ArmFromSpec("").ok());
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_TRUE(failpoint::ArmFromSpec("streaming.read=once@2:io,").ok());
  EXPECT_TRUE(HitAsStatus("streaming.read").ok());
  EXPECT_EQ(HitAsStatus("streaming.read").code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace pincer
