// Failure injection: resource exhaustion and rank failures inside the
// distributed pipelines must surface as exceptions on the caller's thread,
// never as deadlocks or silent corruption.
#include <gtest/gtest.h>

#include "dedukt/core/driver.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/io/synthetic.hpp"
#include "dedukt/mpisim/runtime.hpp"

namespace dedukt::core {
namespace {

io::ReadBatch test_reads() {
  io::GenomeSpec gspec;
  gspec.length = 6'000;
  gspec.seed = 17;
  io::ReadSpec rspec;
  rspec.coverage = 3.0;
  rspec.mean_read_length = 400;
  rspec.min_read_length = 80;
  return io::generate_dataset(gspec, rspec);
}

TEST(FailureInjectionTest, DeviceOutOfMemorySurfacesFromDriver) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuKmer;
  options.nranks = 4;
  options.device.memory_bytes = 1024;  // no pipeline fits in 1 KiB
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               SimulationError);
}

TEST(FailureInjectionTest, DeviceOomDoesNotDeadlockOtherRanks) {
  // Only rank 2's device is crippled; the others must be released by the
  // barrier abort instead of waiting forever at the exchange.
  const io::ReadBatch reads = test_reads();
  const auto batches = io::partition_by_bases(reads, 4);
  mpisim::Runtime runtime(4);
  PipelineConfig config;
  config.kind = PipelineKind::kGpuKmer;
  EXPECT_THROW(
      runtime.run([&](mpisim::Comm& comm) {
        gpusim::DeviceProps props;
        if (comm.rank() == 2) props.memory_bytes = 1024;
        gpusim::Device device(props);
        HostHashTable table;
        (void)run_gpu_kmer_rank(
            comm, device, batches[static_cast<std::size_t>(comm.rank())],
            config, table);
      }),
      Error);
}

TEST(FailureInjectionTest, UndersizedDeviceTableSurfaces) {
  DriverOptions options;
  options.pipeline.kind = PipelineKind::kGpuSupermer;
  options.nranks = 3;
  // A 64 KiB device forces the out-of-memory path.
  options.device.memory_bytes = 64 << 10;
  EXPECT_THROW(run_distributed_count(test_reads(), options), Error);
}

TEST(FailureInjectionTest, MalformedInputRejectedBeforeAnyRankWork) {
  DriverOptions options;
  options.nranks = 0;
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               PreconditionError);
  options.nranks = 2;
  options.pipeline.k = 1;
  EXPECT_THROW(run_distributed_count(test_reads(), options),
               PreconditionError);
}

TEST(FailureInjectionTest, ThrowingRankInMultiRoundRunReleasesAll) {
  mpisim::Runtime runtime(5);
  EXPECT_THROW(runtime.run([&](mpisim::Comm& comm) {
                 for (int round = 0; round < 3; ++round) {
                   if (comm.rank() == 3 && round == 1) {
                     throw ParseError("injected failure in round 1");
                   }
                   std::vector<std::vector<int>> send(5,
                                                      std::vector<int>{1});
                   (void)comm.alltoallv(send);
                 }
               }),
               Error);
}

}  // namespace
}  // namespace dedukt::core
