#include "dedukt/gpusim/device.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "dedukt/util/error.hpp"

namespace dedukt::gpusim {
namespace {

TEST(DeviceTest, AllocTracksBytes) {
  Device device;
  auto buf = device.alloc<std::uint64_t>(1000);
  EXPECT_EQ(device.allocated_bytes(), 8000u);
  device.free(buf);
  EXPECT_EQ(device.allocated_bytes(), 0u);
}

TEST(DeviceTest, AllocWithFillInitializes) {
  Device device;
  auto buf = device.alloc<std::uint32_t>(16, 0xAAAAAAAAu);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 0xAAAAAAAAu);
}

TEST(DeviceTest, OutOfMemoryThrows) {
  DeviceProps props;
  props.memory_bytes = 1024;
  Device device(props);
  EXPECT_THROW((void)device.alloc<std::uint64_t>(1000), SimulationError);
}

TEST(DeviceTest, TransfersMoveDataAndAreTimed) {
  Device device;
  std::vector<int> host(256);
  std::iota(host.begin(), host.end(), 0);

  auto buf = device.alloc<int>(256);
  device.copy_to_device<int>(host, buf);
  EXPECT_GT(device.timeline().h2d_seconds, 0.0);
  EXPECT_EQ(device.timeline().h2d_bytes, 256u * sizeof(int));

  std::vector<int> back(256, -1);
  device.copy_to_host(buf, std::span<int>(back));
  EXPECT_EQ(back, host);
  EXPECT_GT(device.timeline().d2h_seconds, 0.0);
}

TEST(DeviceTest, AdoptKeepsTheStorageAndReservesLikeAlloc) {
  Device device;
  std::vector<std::uint64_t> host(300);
  std::iota(host.begin(), host.end(), 7u);
  const std::uint64_t* storage = host.data();

  auto buf = device.adopt(std::move(host));
  EXPECT_EQ(buf.data(), storage);
  EXPECT_EQ(buf.size(), 300u);
  EXPECT_EQ(buf[299], 306u);
  EXPECT_EQ(device.allocated_bytes(), 300u * sizeof(std::uint64_t));
  // Adopting prices nothing: a transfer it stands for is priced apart.
  EXPECT_EQ(device.timeline().h2d_bytes, 0u);
  EXPECT_EQ(device.timeline().total_seconds(), 0.0);

  device.free(buf);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(device.allocated_bytes(), 0u);
  EXPECT_EQ(device.timeline().d2h_bytes, 0u);
}

TEST(DeviceTest, AdoptingAnEmptyVectorTakesOneSlot) {
  Device device;
  auto buf = device.adopt(std::vector<std::uint32_t>{});
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0u);
  EXPECT_EQ(device.allocated_bytes(), sizeof(std::uint32_t));
  // free() releases exactly what adopt() reserved.
  device.free(buf);
  EXPECT_EQ(device.allocated_bytes(), 0u);
}

TEST(DeviceTest, AdoptBeyondCapacityThrows) {
  DeviceProps props;
  props.memory_bytes = 1024;
  Device device(props);
  EXPECT_THROW((void)device.adopt(std::vector<std::uint64_t>(1000)),
               SimulationError);
  EXPECT_EQ(device.allocated_bytes(), 0u);
}

TEST(DeviceTest, OversizedCopyThrows) {
  Device device;
  auto buf = device.alloc<int>(4);
  std::vector<int> host(8, 0);
  EXPECT_THROW(device.copy_to_device<int>(host, buf), PreconditionError);
  EXPECT_THROW(device.copy_to_host(buf, std::span<int>(host)),
               PreconditionError);
}

TEST(DeviceTest, BufferAtChecksBounds) {
  Device device;
  auto buf = device.alloc<int>(4);
  EXPECT_NO_THROW(buf.at(3));
  EXPECT_THROW(buf.at(4), Error);
}

TEST(DeviceTest, ShapeForCoversAllItems) {
  Device device;
  for (std::uint64_t items : {0ull, 1ull, 255ull, 256ull, 257ull, 100'000ull}) {
    const auto shape = device.shape_for(items);
    EXPECT_GE(static_cast<std::uint64_t>(shape.grid_dim) * shape.block_dim,
              items);
    EXPECT_GE(shape.grid_dim, 1u);
  }
}

TEST(DeviceTest, V100PropsMatchSummitSheet) {
  const DeviceProps props = DeviceProps::v100();
  EXPECT_EQ(props.sms, 80);
  EXPECT_EQ(props.warp_size, 32);
  EXPECT_EQ(props.memory_bytes, 16ull << 30);  // 16 GB HBM2 (§V-A)
}

TEST(DeviceTimelineTest, VolumeExcludesFixedOverheads) {
  Device device;
  // An empty kernel has only launch overhead: zero volume time.
  device.launch_host("empty", 1, 1, [](KernelCharges&) {});
  EXPECT_DOUBLE_EQ(device.timeline().volume_seconds, 0.0);
  EXPECT_GT(device.timeline().kernel_seconds, 0.0);

  // A traffic-heavy kernel accrues volume time below its total time.
  device.launch_host("read", 1, 1, [](KernelCharges& charges) {
    charges.count_gmem_read(1'000'000'000);
  });
  EXPECT_GT(device.timeline().volume_seconds, 0.0);
  EXPECT_LT(device.timeline().volume_seconds,
            device.timeline().total_seconds());
}

TEST(DeviceTimelineTest, TransfersContributeVolume) {
  Device device;
  auto buf = device.alloc<std::uint8_t>(1 << 20);
  std::vector<std::uint8_t> host(1 << 20, 1);
  device.copy_to_device<std::uint8_t>(host, buf);
  const double after_h2d = device.timeline().volume_seconds;
  EXPECT_GT(after_h2d, 0.0);
  device.copy_to_host(buf, std::span<std::uint8_t>(host));
  EXPECT_GT(device.timeline().volume_seconds, after_h2d);
}

}  // namespace
}  // namespace dedukt::gpusim
