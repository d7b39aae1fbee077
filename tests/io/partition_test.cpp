#include "dedukt/io/partition.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "dedukt/io/synthetic.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/stats.hpp"

namespace dedukt::io {
namespace {

ReadBatch sample_batch() {
  GenomeSpec gspec;
  gspec.length = 50'000;
  ReadSpec rspec;
  rspec.coverage = 4.0;
  rspec.mean_read_length = 900;
  rspec.min_read_length = 100;
  return generate_dataset(gspec, rspec);
}

using Range = std::pair<std::size_t, std::size_t>;  // [first, end)

/// Each part as its index range in `batch`, after checking that it views
/// the batch's own reads and starts where the part before it ends.
std::vector<Range> ranges_of(const ReadBatch& batch,
                             const std::vector<ReadView>& parts) {
  std::vector<Range> ranges;
  std::size_t end = 0;
  for (const ReadView& part : parts) {
    EXPECT_EQ(part.reads.data(), batch.reads.data() + end)
        << "part " << ranges.size() << " is not the next range of the batch";
    ranges.emplace_back(end, end + part.size());
    end += part.size();
  }
  EXPECT_EQ(end, batch.size());
  return ranges;
}

TEST(PartitionTest, EveryReadLandsExactlyOnce) {
  const ReadBatch batch = sample_batch();
  const auto parts = partition_by_bases(batch, 7);
  const std::vector<Range> ranges = ranges_of(batch, parts);
  ASSERT_EQ(ranges.size(), 7u);
  EXPECT_EQ(ranges.front().first, 0u);
  EXPECT_EQ(ranges.back().second, batch.size());
}

TEST(PartitionTest, PreservesReadOrderWithinConcatenation) {
  const ReadBatch batch = sample_batch();
  const auto parts = partition_by_bases(batch, 5);
  std::vector<const Read*> reads;
  for (const auto& part : parts) {
    for (const auto& read : part.reads) reads.push_back(&read);
  }
  ASSERT_EQ(reads.size(), batch.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(reads[i], &batch.reads[i]);
  }
}

TEST(PartitionTest, BaseBalancedWithinOneReadLength) {
  const ReadBatch batch = sample_batch();
  const int nparts = 8;
  const auto parts = partition_by_bases(batch, nparts);
  ranges_of(batch, parts);
  std::vector<std::uint64_t> loads;
  for (const auto& part : parts) loads.push_back(part.total_bases());
  // §IV-D assumes roughly uniform partitioning; allow modest slack since
  // blocks are read-granular.
  EXPECT_LT(load_imbalance(loads), 1.5);
}

TEST(PartitionTest, SinglePartIsIdentity) {
  const ReadBatch batch = sample_batch();
  const auto parts = partition_by_bases(batch, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(ranges_of(batch, parts).front(), Range(0, batch.size()));
}

TEST(PartitionTest, MorePartsThanReads) {
  ReadBatch batch;
  batch.reads.push_back({"a", "ACGT", ""});
  batch.reads.push_back({"b", "ACGT", ""});
  const auto parts = partition_by_bases(batch, 10);
  ASSERT_EQ(parts.size(), 10u);
  // The target is 0 bases, so each read closes its part: part 0 stays
  // empty, parts 1 and 2 take one read each, and the rest are empty
  // ranges at the batch's end.
  const std::vector<Range> ranges = ranges_of(batch, parts);
  EXPECT_EQ(ranges[0], Range(0, 0));
  EXPECT_EQ(ranges[1], Range(0, 1));
  EXPECT_EQ(ranges[2], Range(1, 2));
  for (std::size_t p = 3; p < ranges.size(); ++p) {
    EXPECT_EQ(ranges[p], Range(2, 2)) << "part " << p;
  }
}

TEST(PartitionTest, RejectsNonPositiveParts) {
  ReadBatch batch;
  EXPECT_THROW(partition_by_bases(batch, 0), PreconditionError);
  EXPECT_THROW(partition_by_bases(batch, -1), PreconditionError);
}

TEST(PartitionTest, EmptyBatchGivesEmptyRanges) {
  const ReadBatch batch;
  const auto parts = partition_by_bases(batch, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& part : parts) EXPECT_TRUE(part.empty());
}

}  // namespace
}  // namespace dedukt::io
