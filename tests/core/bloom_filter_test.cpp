#include "dedukt/core/bloom_filter.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/core/driver.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/util/rng.hpp"

namespace dedukt::core {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  gpusim::Device device;
  DeviceBloomFilter bloom(device, 10'000);
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 5'000; ++i) keys.push_back(rng());

  // First pass inserts everything; second pass must report all present.
  gpusim::LaunchCounters counters;
  gpusim::KernelCharges charges(counters);
  for (const std::uint64_t key : keys) (void)bloom.test_and_set(key, charges);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(bloom.test_and_set(keys[i], charges))
        << "false negative at " << i;
  }
  // One atomicOr and one 8 B block read per test-and-set.
  EXPECT_EQ(counters.atomics, 2 * keys.size());
  EXPECT_EQ(counters.gmem_read_bytes, 2 * keys.size() * 8);
}

TEST(BloomFilterTest, FirstInsertionReportsUnseenMostly) {
  gpusim::Device device;
  DeviceBloomFilter bloom(device, 20'000, /*bits_per_key=*/12.0);
  Xoshiro256 rng(4);
  std::vector<std::uint64_t> keys;
  std::set<std::uint64_t> distinct;
  while (distinct.size() < 20'000) {
    const std::uint64_t key = rng();
    if (distinct.insert(key).second) keys.push_back(key);
  }
  gpusim::LaunchCounters counters;
  gpusim::KernelCharges charges(counters);
  std::size_t false_positives = 0;
  for (const std::uint64_t key : keys) {
    if (bloom.test_and_set(key, charges)) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(keys.size());
  // Average fill while inserting is below the final fill; the measured
  // rate must be below ~2x the final-state estimate and nonzero-ish small.
  EXPECT_LT(rate, 2.0 * bloom.expected_fp_rate(keys.size()) + 0.01);
}

TEST(BloomFilterTest, ExpectedFpRateFormula) {
  gpusim::Device device;
  DeviceBloomFilter bloom(device, 1000, 16.0);
  EXPECT_GT(bloom.expected_fp_rate(1000), 0.0);
  EXPECT_LT(bloom.expected_fp_rate(1000), 0.01);
  EXPECT_LT(bloom.expected_fp_rate(100), bloom.expected_fp_rate(10'000));
}

TEST(BloomFilterTest, BitsArePowerOfTwo) {
  gpusim::Device device;
  DeviceBloomFilter bloom(device, 1000, 12.0);
  EXPECT_EQ(bloom.bits() & (bloom.bits() - 1), 0u);
  EXPECT_GE(bloom.bits(), 12'000u);
}

TEST(FilteredCountTest, SingletonsSuppressedSurvivorsExact) {
  gpusim::Device device;
  Xoshiro256 rng(5);
  // 2000 distinct keys: half singletons, half with multiplicity 2-6.
  std::vector<std::uint64_t> stream;
  std::map<std::uint64_t, std::uint32_t> truth;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng.below(1u << 30);
    const std::uint32_t multiplicity =
        (i % 2 == 0) ? 1 : 2 + static_cast<std::uint32_t>(rng.below(5));
    truth[key] += multiplicity;
    for (std::uint32_t c = 0; c < multiplicity; ++c) stream.push_back(key);
  }
  auto d_stream = device.alloc<std::uint64_t>(stream.size());
  device.copy_to_device<std::uint64_t>(stream, d_stream);

  DeviceHashTable table(device, truth.size());
  // Large filter => negligible false positives in this test.
  DeviceBloomFilter bloom(device, truth.size(), 24.0);
  table.count_kmers(d_stream, stream.size(), &bloom);

  HostHashTable host;
  std::move(table).read_out(host);
  std::map<std::uint64_t, std::uint64_t> counted;
  host.for_each([&](std::uint64_t key, std::uint64_t count) {
    counted[key] = count;
  });

  std::size_t surviving_singletons = 0;
  for (const auto& [key, multiplicity] : truth) {
    if (multiplicity == 1) {
      if (counted.count(key)) ++surviving_singletons;
    } else {
      ASSERT_TRUE(counted.count(key)) << "lost key with count "
                                      << multiplicity;
      // Exact modulo a possible +1 from a false positive.
      EXPECT_GE(counted[key], multiplicity);
      EXPECT_LE(counted[key], multiplicity + 1);
    }
  }
  // With 24 bits/key nearly all singletons are suppressed.
  EXPECT_LT(surviving_singletons, 10u);
}

TEST(FilteredCountTest, SupermerPathMatchesKmerPath) {
  gpusim::Device device;
  // Supermer "AACCGGTT" (k=4) and the equivalent flat k-mer stream,
  // repeated 3 times, must produce identical filtered tables when the
  // bloom processes occurrences in the same order.
  const kmer::KmerCode bases =
      kmer::pack("AACCGGTT", io::BaseEncoding::kStandard);
  std::vector<std::uint64_t> words(3, bases);
  std::vector<std::uint8_t> lens(3, 8);
  auto d_words = device.alloc<std::uint64_t>(3);
  auto d_lens = device.alloc<std::uint8_t>(3);
  device.copy_to_device<std::uint64_t>(words, d_words);
  device.copy_to_device<std::uint8_t>(lens, d_lens);

  DeviceHashTable smer_table(device, 16);
  DeviceBloomFilter smer_bloom(device, 16, 24.0);
  smer_table.count_supermers(d_words, d_lens, 3, 4, &smer_bloom);

  std::vector<std::uint64_t> flat;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto code :
         kmer::extract_kmers("AACCGGTT", 4, io::BaseEncoding::kStandard)) {
      flat.push_back(code);
    }
  }
  auto d_flat = device.alloc<std::uint64_t>(flat.size());
  device.copy_to_device<std::uint64_t>(flat, d_flat);
  DeviceHashTable kmer_table(device, 16);
  DeviceBloomFilter kmer_bloom(device, 16, 24.0);
  kmer_table.count_kmers(d_flat, flat.size(), &kmer_bloom);

  HostHashTable a;
  HostHashTable b;
  std::move(smer_table).read_out(a);
  std::move(kmer_table).read_out(b);
  EXPECT_EQ(a.entries_sorted(), b.entries_sorted());
}

TEST(FilteredPipelineTest, SuppressesSingletonsEndToEnd) {
  // Reads with sequencing errors: error k-mers are (mostly) singletons and
  // should vanish from the result.
  io::GenomeSpec gspec;
  gspec.length = 10'000;
  gspec.seed = 9;
  io::ReadSpec rspec;
  rspec.coverage = 8.0;
  rspec.mean_read_length = 600;
  rspec.min_read_length = 100;
  rspec.error_rate = 0.005;
  const io::ReadBatch reads = io::generate_dataset(gspec, rspec);

  DriverOptions plain;
  plain.pipeline.kind = PipelineKind::kGpuSupermer;
  plain.nranks = 4;
  DriverOptions filtered = plain;
  filtered.pipeline.filter_singletons = true;

  const CountResult unfiltered = run_distributed_count(reads, plain);
  const CountResult with_filter = run_distributed_count(reads, filtered);

  std::map<std::uint64_t, std::uint64_t> truth(
      unfiltered.global_counts.begin(), unfiltered.global_counts.end());
  std::map<std::uint64_t, std::uint64_t> got(
      with_filter.global_counts.begin(), with_filter.global_counts.end());

  std::uint64_t truth_singletons = 0, surviving_singletons = 0;
  for (const auto& [key, count] : truth) {
    if (count == 1) {
      ++truth_singletons;
      if (got.count(key)) ++surviving_singletons;
    } else {
      ASSERT_TRUE(got.count(key));
      EXPECT_GE(got[key], count);
      EXPECT_LE(got[key], count + 1);
    }
  }
  ASSERT_GT(truth_singletons, 100u);  // the error model injected singletons
  EXPECT_LT(surviving_singletons, truth_singletons / 10);
  EXPECT_LT(with_filter.total_unique(), unfiltered.total_unique());
}

TEST(FilteredPipelineTest, ConfigRejectsUnsupportedCombos) {
  PipelineConfig config;
  config.filter_singletons = true;
  config.kind = PipelineKind::kCpu;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.kind = PipelineKind::kGpuKmer;
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace dedukt::core
