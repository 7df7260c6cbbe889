#include "simgpu/sim_platform.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>

namespace ara::simgpu {
namespace {

TEST(SimPlatform, ConstructsHomogeneousDevices) {
  SimPlatform platform(tesla_m2090(), 4);
  EXPECT_EQ(platform.device_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(platform.device(i).spec().name, "Tesla M2090");
  }
}

TEST(SimPlatform, ConstructsHeterogeneousDevices) {
  SimPlatform platform({tesla_c2075(), tesla_m2090()});
  EXPECT_EQ(platform.device_count(), 2u);
  EXPECT_EQ(platform.device(0).spec().name, "Tesla C2075");
  EXPECT_EQ(platform.device(1).spec().name, "Tesla M2090");
}

TEST(SimPlatform, RejectsZeroDevices) {
  EXPECT_THROW(SimPlatform(tesla_m2090(), 0), std::invalid_argument);
  EXPECT_THROW(SimPlatform(std::vector<DeviceSpec>{}), std::invalid_argument);
}

TEST(SimPlatform, ForEachDeviceVisitsAllOnce) {
  SimPlatform platform(tesla_m2090(), 4);
  std::vector<std::atomic<int>> visits(4);
  platform.for_each_device([&](std::size_t d) { ++visits[d]; });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

// The host threads that drive the devices exist only once work is
// dispatched: a platform whose devices are driven inline (a cost-only
// replay, which kAuto's predict runs for every kind) spawns none.
TEST(SimPlatform, ThreadsAreSpawnedOnlyByDispatch) {
  const auto threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  // Inequalities, not counts: a thread an earlier test joined may
  // still be listed for a moment, and only ever disappears.
  const std::size_t before = threads();
  SimPlatform platform(tesla_m2090(), 4);
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    platform.device(d).alloc(1);
  }
  EXPECT_LE(threads(), before);
  platform.for_each_device([](std::size_t) {});
  EXPECT_GT(threads(), before);
}

TEST(SimPlatform, ElapsedIsMaxOverDevices) {
  SimPlatform platform(tesla_m2090(), 3);
  platform.device(0).copy(1000000000);   // ~0.167 s
  platform.device(1).copy(3000000000);   // ~0.5 s  <- slowest
  platform.device(2).copy(500000000);
  EXPECT_NEAR(platform.elapsed_seconds(),
              platform.device(1).elapsed_seconds(), 1e-12);
}

TEST(SimPlatform, EfficiencyComputation) {
  SimPlatform platform(tesla_m2090(), 4);
  for (std::size_t d = 0; d < 4; ++d) {
    platform.device(d).copy(1000000000);  // identical work
  }
  const double single = 4.0 * platform.device(0).elapsed_seconds();
  EXPECT_NEAR(platform.efficiency(single), 1.0, 1e-9);
  // Imbalance drops efficiency.
  platform.device(2).copy(1000000000);
  EXPECT_LT(platform.efficiency(single), 1.0);
}

TEST(SimPlatform, MeanPhaseSeconds) {
  SimPlatform platform(tesla_m2090(), 2);
  platform.device(0).copy(2000000000);
  platform.device(1).copy(0);
  const auto mean = platform.mean_phase_seconds();
  EXPECT_NEAR(mean[perf::Phase::kTransfer],
              platform.device(0).transfer_seconds() / 2.0, 1e-12);
}

TEST(SimPlatform, ResetTimelinesClearsAll) {
  SimPlatform platform(tesla_m2090(), 2);
  platform.device(0).copy(1000);
  platform.device(1).copy(1000);
  platform.reset_timelines();
  EXPECT_DOUBLE_EQ(platform.elapsed_seconds(), 0.0);
}

TEST(SimPlatform, EfficiencyZeroWhenIdle) {
  SimPlatform platform(tesla_m2090(), 2);
  EXPECT_DOUBLE_EQ(platform.efficiency(10.0), 0.0);
}

}  // namespace
}  // namespace ara::simgpu
