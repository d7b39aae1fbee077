// The count engine's batch loop hands every rank a view of its share of
// each batch, never a copy. An in-memory run's views lie inside the
// caller's ReadBatch, unbounded and under --batch-reads / --batch-bytes; a
// streamed run's lie inside the batch the stream handed over, which the
// loop holds as its current batch. Batch boundaries and per-rank splits
// are the ones the copying ingest gave: batches closed by BatchBounds, each
// split greedily by bases (the reference below is that algorithm, over
// index ranges).
//
// White-box: engine.hpp is internal to dedukt_core.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/io/synthetic.hpp"
#include "engine.hpp"

namespace dedukt::core {
namespace {

using Range = std::pair<std::size_t, std::size_t>;  // [first, end)

io::ReadBatch test_reads() {
  io::GenomeSpec gspec;
  gspec.length = 9'000;
  gspec.seed = 83;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 300;
  rspec.min_read_length = 40;
  return io::generate_dataset(gspec, rspec);
}

/// The copying ingest's splits of `reads`, as index ranges per batch and
/// rank: batches admit reads, counting their FASTQ bytes, until the bounds
/// are full (the whole input when unbounded); each batch goes to the ranks
/// in greedy contiguous blocks of at least total/nranks bases, the last
/// rank taking the rest. Ranks a batch never reaches get no reads.
std::vector<std::vector<Range>> reference_splits(const io::ReadBatch& reads,
                                                 io::BatchBounds bounds,
                                                 int nranks) {
  std::vector<std::vector<Range>> batches;
  std::size_t cursor = 0;
  do {
    const std::size_t begin = cursor;
    std::uint64_t bytes = 0;
    while (cursor < reads.size() &&
           !bounds.full(cursor - begin, bytes)) {
      bytes += io::fastq_record_bytes(reads.reads[cursor++]);
    }
    std::uint64_t total = 0;
    for (std::size_t i = begin; i < cursor; ++i) {
      total += reads.reads[i].bases.size();
    }
    const std::uint64_t target = total / static_cast<std::uint64_t>(nranks);
    std::vector<Range> parts(static_cast<std::size_t>(nranks), {0, 0});
    std::size_t part = 0;
    std::uint64_t in_part = 0;
    for (std::size_t i = begin; i < cursor; ++i) {
      if (in_part >= target && part + 1 < parts.size()) {
        ++part;
        in_part = 0;
      }
      in_part += reads.reads[i].bases.size();
      if (parts[part].second == parts[part].first) parts[part] = {i, i};
      ++parts[part].second;
    }
    batches.push_back(std::move(parts));
  } while (cursor < reads.size());
  return batches;
}

/// What the loop handed each (batch, rank): the view's index range in
/// `owner` (a batch holding it), or nullopt when the view lay outside.
struct Handed {
  std::mutex mutex;
  std::map<std::pair<std::uint64_t, int>, std::optional<Range>> ranges;

  void record(std::uint64_t batch, int rank, io::ReadView mine,
              const io::ReadBatch& owner) {
    std::optional<Range> range;
    const io::Read* base = owner.reads.data();
    if (mine.reads.data() >= base &&
        mine.reads.data() + mine.size() <= base + owner.size()) {
      const auto first = static_cast<std::size_t>(mine.reads.data() - base);
      range = Range(first, first + mine.size());
    }
    const std::lock_guard<std::mutex> lock(mutex);
    ranges[{batch, rank}] = range;
  }
};

DriverOptions options_with(int nranks, io::BatchBounds bounds) {
  DriverOptions options;
  options.nranks = nranks;
  options.batch = bounds;
  return options;
}

/// Expect `handed` to hold the reference splits; a rank with no reads may
/// be handed any empty view.
void expect_reference_splits(const Handed& handed, const io::ReadBatch& reads,
                             io::BatchBounds bounds, int nranks) {
  const auto expected = reference_splits(reads, bounds, nranks);
  ASSERT_EQ(handed.ranges.size(),
            expected.size() * static_cast<std::size_t>(nranks));
  for (std::size_t b = 0; b < expected.size(); ++b) {
    for (int r = 0; r < nranks; ++r) {
      SCOPED_TRACE(testing::Message() << "batch " << b << ", rank " << r);
      const auto it = handed.ranges.find({b, r});
      ASSERT_NE(it, handed.ranges.end());
      ASSERT_TRUE(it->second.has_value())
          << "the rank's reads lie outside the batch's own";
      const Range want = expected[b][static_cast<std::size_t>(r)];
      const Range got = *it->second;
      EXPECT_EQ(got.second - got.first, want.second - want.first);
      if (want.second > want.first) {
        EXPECT_EQ(got, want);
      }
    }
  }
}

class InMemoryBatchLoop
    : public ::testing::TestWithParam<std::tuple<int, io::BatchBounds>> {};

TEST_P(InMemoryBatchLoop, RanksReadViewsOfTheCallersBatch) {
  const auto [nranks, bounds] = GetParam();
  const io::ReadBatch reads = test_reads();
  const DriverOptions options = options_with(nranks, bounds);
  CountResult result;
  detail::CountEngine<NarrowKeyTraits> engine(options, result);
  detail::BatchSource source(reads, bounds);
  Handed handed;
  engine.run_batches(
      source, "test_batch",
      [&](mpisim::Comm& comm, io::ReadView mine,
          const detail::BatchInfo& batch) {
        handed.record(batch.index, comm.rank(), mine, reads);
        return RankMetrics{};
      },
      [](mpisim::Comm&, const detail::BatchInfo&) {});
  expect_reference_splits(handed, reads, bounds, nranks);
}

INSTANTIATE_TEST_SUITE_P(
    BoundsAndRanks, InMemoryBatchLoop,
    ::testing::Combine(::testing::Values(1, 4, 7),
                       ::testing::Values(io::BatchBounds{},
                                         io::BatchBounds{37, 0},
                                         io::BatchBounds{0, 20'000})),
    [](const auto& info) {
      const int nranks = std::get<0>(info.param);
      const io::BatchBounds bounds = std::get<1>(info.param);
      const std::string batches =
          bounds.max_reads != 0   ? "Reads" + std::to_string(bounds.max_reads)
          : bounds.max_bytes != 0 ? "Bytes" + std::to_string(bounds.max_bytes)
                                  : std::string("Unbounded");
      return batches + "Ranks" + std::to_string(nranks);
    });

/// Yields copies of `reads`' slices and keeps the storage of each batch it
/// hands over, so a test can tell whether the loop's views lie inside it.
class RecordingStream final : public io::ReadBatchStream {
 public:
  RecordingStream(const io::ReadBatch& reads, io::BatchBounds bounds)
      : inner_(reads, bounds) {}

  [[nodiscard]] std::optional<io::ReadBatch> next() override {
    std::optional<io::ReadBatch> batch = inner_.next();
    if (batch) {
      handed_.push_back({batch->reads.data(), batch->size()});
      firsts_.push_back(next_first_);
      next_first_ += batch->size();
    }
    return batch;
  }

  /// The storage of the `index`-th batch handed over.
  [[nodiscard]] std::pair<const io::Read*, std::size_t> storage(
      std::uint64_t index) const {
    return handed_[index];
  }
  /// The caller-side index of the `index`-th batch's first read.
  [[nodiscard]] std::size_t first(std::uint64_t index) const {
    return firsts_[index];
  }
  [[nodiscard]] std::size_t pulled() const { return handed_.size(); }

 private:
  io::VectorBatchStream inner_;
  std::vector<std::pair<const io::Read*, std::size_t>> handed_;
  std::vector<std::size_t> firsts_;
  std::size_t next_first_ = 0;
};

TEST(StreamedBatchLoop, RanksReadViewsOfTheBatchTheStreamHandedOver) {
  const io::ReadBatch reads = test_reads();
  constexpr int kRanks = 4;
  const io::BatchBounds bounds{0, 15'000};
  const std::size_t batches = reference_splits(reads, bounds, kRanks).size();
  ASSERT_GT(batches, 2u);
  const DriverOptions options = options_with(kRanks, bounds);
  CountResult result;
  detail::CountEngine<NarrowKeyTraits> engine(options, result);
  RecordingStream stream(reads, bounds);
  detail::BatchSource source(stream);
  Handed handed;
  engine.run_batches(
      source, "test_batch",
      [&](mpisim::Comm& comm, io::ReadView mine,
          const detail::BatchInfo& batch) {
        // The loop runs a batch with only the lookahead pulled past it.
        EXPECT_EQ(stream.pulled(),
                  std::min<std::size_t>(batch.index + 2, batches));
        const auto [data, size] = stream.storage(batch.index);
        // Rebase the view from the streamed batch onto the caller's
        // indices: a view inside the batch the stream handed over.
        std::optional<Range> range;
        if (mine.reads.data() >= data &&
            mine.reads.data() + mine.size() <= data + size) {
          const auto first = stream.first(batch.index) +
                             static_cast<std::size_t>(mine.reads.data() - data);
          range = Range(first, first + mine.size());
          // The reads are alive while the round runs: reading them is
          // what a sanitized build checks.
          for (std::size_t i = 0; i < mine.size(); ++i) {
            EXPECT_EQ(mine.reads[i].bases, reads.reads[first + i].bases);
          }
        }
        const std::lock_guard<std::mutex> lock(handed.mutex);
        handed.ranges[{batch.index, comm.rank()}] = range;
        return RankMetrics{};
      },
      [](mpisim::Comm&, const detail::BatchInfo&) {});
  EXPECT_EQ(stream.pulled(), batches);
  expect_reference_splits(handed, reads, bounds, kRanks);
}

}  // namespace
}  // namespace dedukt::core
