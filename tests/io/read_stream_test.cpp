#include "dedukt/io/read_stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "dedukt/io/fastq.hpp"
#include "dedukt/util/error.hpp"
#include "support/temp_dir.hpp"

namespace dedukt::io {
namespace {

ReadBatch sample_reads(std::size_t n) {
  ReadBatch batch;
  for (std::size_t i = 0; i < n; ++i) {
    Read read;
    read.id = "read" + std::to_string(i);
    read.bases = std::string(20 + i % 7, "ACGT"[i % 4]);
    read.quality = std::string(read.bases.size(), 'I');
    batch.reads.push_back(std::move(read));
  }
  return batch;
}

/// Drain a stream and return the concatenation of its batches.
ReadBatch drain(ReadBatchStream& stream, std::vector<std::size_t>* sizes) {
  ReadBatch all;
  while (auto batch = stream.next()) {
    EXPECT_FALSE(batch->reads.empty());
    if (sizes != nullptr) sizes->push_back(batch->reads.size());
    for (auto& read : batch->reads) all.reads.push_back(std::move(read));
  }
  return all;
}

void expect_same_reads(const ReadBatch& a, const ReadBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.reads[i].id, b.reads[i].id);
    EXPECT_EQ(a.reads[i].bases, b.reads[i].bases);
    EXPECT_EQ(a.reads[i].quality, b.reads[i].quality);
  }
}

TEST(BatchBoundsTest, UnboundedNeverFull) {
  const BatchBounds bounds;
  EXPECT_TRUE(bounds.unbounded());
  EXPECT_FALSE(bounds.full(1'000'000, 1'000'000'000));
}

TEST(BatchBoundsTest, ReadAndByteLimitsClose) {
  BatchBounds bounds;
  bounds.max_reads = 10;
  EXPECT_FALSE(bounds.unbounded());
  EXPECT_FALSE(bounds.full(9, 0));
  EXPECT_TRUE(bounds.full(10, 0));
  bounds = BatchBounds{};
  bounds.max_bytes = 100;
  EXPECT_FALSE(bounds.full(50, 99));
  EXPECT_TRUE(bounds.full(0, 100));
}

TEST(ReadStreamTest, UnboundedVectorStreamYieldsWholeInputOnce) {
  const ReadBatch reads = sample_reads(13);
  VectorBatchStream stream(reads);
  const auto first = stream.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), reads.size());
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ReadStreamTest, ReadBoundSlicesWithoutLossOrReorder) {
  const ReadBatch reads = sample_reads(13);
  BatchBounds bounds;
  bounds.max_reads = 5;
  VectorBatchStream stream(reads, bounds);
  std::vector<std::size_t> sizes;
  const ReadBatch all = drain(stream, &sizes);
  expect_same_reads(all, reads);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{5, 5, 3}));
}

TEST(ReadStreamTest, SingleReadBatches) {
  const ReadBatch reads = sample_reads(7);
  BatchBounds bounds;
  bounds.max_reads = 1;
  VectorBatchStream stream(reads, bounds);
  std::vector<std::size_t> sizes;
  const ReadBatch all = drain(stream, &sizes);
  expect_same_reads(all, reads);
  EXPECT_EQ(sizes.size(), reads.size());
  for (const std::size_t size : sizes) EXPECT_EQ(size, 1u);
}

TEST(ReadStreamTest, ByteBoundAdmitsAtLeastOneRead) {
  const ReadBatch reads = sample_reads(6);
  BatchBounds bounds;
  bounds.max_bytes = 1;  // smaller than any record: one read per batch
  VectorBatchStream stream(reads, bounds);
  std::vector<std::size_t> sizes;
  const ReadBatch all = drain(stream, &sizes);
  expect_same_reads(all, reads);
  EXPECT_EQ(sizes.size(), reads.size());
}

TEST(ReadStreamTest, ByteBoundTracksFastqBytes) {
  const ReadBatch reads = sample_reads(10);
  std::uint64_t two_records = fastq_record_bytes(reads.reads[0]) +
                              fastq_record_bytes(reads.reads[1]);
  BatchBounds bounds;
  bounds.max_bytes = two_records;
  VectorBatchStream stream(reads, bounds);
  const auto first = stream.next();
  ASSERT_TRUE(first.has_value());
  // The batch closes once it *meets* the bound: exactly two records fit.
  EXPECT_EQ(first->size(), 2u);
}

TEST(ReadStreamTest, EmptyInputYieldsNoBatches) {
  const ReadBatch empty;
  VectorBatchStream stream(empty);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ReadStreamTest, FastqRecordBytesMatchesFileSize) {
  const ReadBatch reads = sample_reads(4);
  std::uint64_t total = 0;
  for (const Read& read : reads.reads) total += fastq_record_bytes(read);
  EXPECT_EQ(total, fastq_size_bytes(reads));
}

TEST(ReadStreamTest, ResidentReadBytesSumsPayload) {
  ReadBatch batch;
  batch.reads.push_back({"id", "ACGT", "IIII"});
  batch.reads.push_back({"x", "GG", ""});
  EXPECT_EQ(resident_read_bytes(batch), 2u + 4u + 4u + 1u + 2u + 0u);
  EXPECT_EQ(resident_read_bytes(ReadBatch{}), 0u);
}

class FastqStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test_support::temp_path("read_stream_test.fastq");
    write_fastq_file(path_, sample_reads(11));
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FastqStreamTest, StreamedFileEqualsWholeFileRead) {
  const ReadBatch whole = read_fastq_file(path_);
  BatchBounds bounds;
  bounds.max_reads = 4;
  FastqBatchStream stream(path_, bounds);
  std::vector<std::size_t> sizes;
  const ReadBatch all = drain(stream, &sizes);
  expect_same_reads(all, whole);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 3}));
}

TEST_F(FastqStreamTest, UnboundedStreamYieldsOneBatch) {
  FastqBatchStream stream(path_);
  const auto first = stream.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 11u);
  EXPECT_FALSE(stream.next().has_value());
}

TEST_F(FastqStreamTest, ByteBoundedStreamCoversWholeFile) {
  const ReadBatch whole = read_fastq_file(path_);
  BatchBounds bounds;
  bounds.max_bytes = 64;
  FastqBatchStream stream(path_, bounds);
  const ReadBatch all = drain(stream, nullptr);
  expect_same_reads(all, whole);
}

TEST(FastqStreamErrorTest, MissingFileThrowsParseError) {
  EXPECT_THROW(FastqBatchStream("/nonexistent/stream.fastq"), ParseError);
}

TEST(FastqStreamErrorTest, MalformedRecordThrowsParseErrorMidStream) {
  const std::string path =
      test_support::temp_path("read_stream_malformed.fastq");
  {
    std::ofstream out(path);
    out << "@ok\nACGT\n+\nIIII\n";
    out << "not-a-header\nACGT\n+\nIIII\n";
  }
  BatchBounds bounds;
  bounds.max_reads = 1;
  FastqBatchStream stream(path, bounds);
  const auto first = stream.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->reads[0].id, "ok");
  EXPECT_THROW(stream.next(), ParseError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dedukt::io
