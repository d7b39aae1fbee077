#include "dedukt/io/disk_model.hpp"

#include <gtest/gtest.h>

namespace dedukt::io {
namespace {

TEST(DiskModelTest, ZeroWorkCostsNothing) {
  const DiskModel disk = DiskModel::summit_nvme();
  EXPECT_DOUBLE_EQ(disk.write_seconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(disk.read_seconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(disk.write_volume_seconds(0), 0.0);
  EXPECT_DOUBLE_EQ(disk.read_volume_seconds(0), 0.0);
}

TEST(DiskModelTest, ChargesSplitIntoVolumeAndLatency) {
  const DiskModel disk = DiskModel::summit_nvme();
  const std::uint64_t bytes = 1'000'000'000;
  // The volume share is bytes / bandwidth; the op share is ops * latency.
  EXPECT_DOUBLE_EQ(disk.write_volume_seconds(bytes),
                   static_cast<double>(bytes) / disk.seq_write_bw);
  EXPECT_DOUBLE_EQ(disk.read_volume_seconds(bytes),
                   static_cast<double>(bytes) / disk.seq_read_bw);
  EXPECT_DOUBLE_EQ(disk.write_seconds(bytes, 10),
                   disk.write_volume_seconds(bytes) + 10 * disk.op_latency_s);
  EXPECT_DOUBLE_EQ(disk.read_seconds(bytes, 10),
                   disk.read_volume_seconds(bytes) + 10 * disk.op_latency_s);
}

TEST(DiskModelTest, MonotoneInBytesAndOps) {
  const DiskModel disk = DiskModel::summit_nvme();
  EXPECT_LT(disk.write_seconds(1 << 20, 1), disk.write_seconds(1 << 24, 1));
  EXPECT_LT(disk.write_seconds(1 << 20, 1), disk.write_seconds(1 << 20, 100));
  EXPECT_LT(disk.read_seconds(1 << 20, 1), disk.read_seconds(1 << 24, 1));
}

TEST(DiskModelTest, SummitCalibrationOrdering) {
  const DiskModel disk = DiskModel::summit_nvme();
  // PM1725a: reads outrun writes.
  EXPECT_GT(disk.seq_read_bw, disk.seq_write_bw);
  EXPECT_GT(disk.op_latency_s, 0.0);
}

}  // namespace
}  // namespace dedukt::io
