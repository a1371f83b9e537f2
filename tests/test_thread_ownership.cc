// Thread-ownership assertion tests: a ThreadOwner claims on first touch,
// allows the owner forever, aborts on a second thread, and Reset() hands
// the role off cleanly. The SPSC queue's checked producer/consumer
// contract is pinned both ways (legal split use, fatal cross-thread use),
// as is the supervisor's control-thread confinement.

#include "common/thread_ownership.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "video/acquisition_supervisor.h"
#include "video/video_source.h"

namespace dievent {
namespace {

/// Death tests fork from processes that already run helper threads (the
/// supervisor's readers, the intruder threads); the threadsafe style
/// re-executes the test binary so the child starts clean.
class ThreadsafeDeathStyle : public ::testing::Environment {
 public:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};
const ::testing::Environment* const kDeathStyle =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathStyle);

TEST(ThreadOwner, OwnerMayCheckRepeatedly) {
  ThreadOwner owner("test-role");
  owner.CheckOwned();  // first touch claims
  owner.CheckOwned();
  DCHECK_OWNED_BY(owner);
}

TEST(ThreadOwner, ResetHandsTheRoleToTheNextToucher) {
  ThreadOwner owner("test-role");
  owner.CheckOwned();
  owner.Reset();
  std::thread other([&] { owner.CheckOwned(); });  // new owner, no abort
  other.join();
}

TEST(ThreadOwnerDeathTest, SecondThreadAborts) {
  ThreadOwner owner("contested-role");
  owner.CheckOwned();
  EXPECT_DEATH(
      {
        std::thread intruder([&] { owner.CheckOwned(); });
        intruder.join();
      },
      "thread-ownership violation: role 'contested-role'");
}

TEST(SpscQueueOwnership, DistinctProducerAndConsumerThreadsAreLegal) {
  SpscQueue<int> queue(8);
  std::thread producer([&] {
    for (int i = 0; i < 100;) {
      if (queue.TryPush(int(i))) ++i;
    }
  });
  int expected = 0;
  while (expected < 100) {
    if (auto v = queue.TryPop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(SpscQueueOwnershipDeathTest, SecondProducerThreadAborts) {
  SpscQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(1));  // main claims the producer side
  EXPECT_DEATH(
      {
        std::thread intruder([&] { (void)queue.TryPush(2); });
        intruder.join();
      },
      "spsc-producer");
}

TEST(SpscQueueOwnershipDeathTest, SecondConsumerThreadAborts) {
  SpscQueue<int> queue(8);
  (void)queue.TryPop();  // main claims the consumer side
  EXPECT_DEATH(
      {
        std::thread intruder([&] { (void)queue.TryPop(); });
        intruder.join();
      },
      "spsc-consumer");
}

TEST(SpscQueueOwnership, ResetAllowsADeliberateHandoff) {
  SpscQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(1));
  queue.ResetProducerOwner();  // externally synchronized handoff point
  std::thread next_producer([&] { ASSERT_TRUE(queue.TryPush(2)); });
  next_producer.join();
}

TEST(SupervisorOwnershipDeathTest, SecondControlThreadAborts) {
  // Read is control-thread confined; a second thread driving reads must
  // abort, not corrupt seq_.
  std::vector<ImageRgb> frames(4);
  MemoryVideoSource source(frames, 10.0);
  SupervisorOptions options;
  AcquisitionSupervisor supervisor({&source}, options);
  (void)supervisor.Read(0, {1});  // main claims the control role
  EXPECT_DEATH(
      {
        std::thread intruder([&] { (void)supervisor.Read(1, {1}); });
        intruder.join();
      },
      "supervisor-control");
}

}  // namespace
}  // namespace dievent
