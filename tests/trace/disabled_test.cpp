// The zero-overhead-when-disabled contract: with no session recording,
// the instrumentation entry points must not touch the heap, and a traced
// run must produce bit-identical results to an untraced one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "dedukt/core/driver.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/trace/trace.hpp"

namespace {

// TU-local global operator new/delete that count allocations while the
// flag is up. Counting is scoped tightly around the measured region, so
// the rest of the binary pays only a relaxed load.
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dedukt::trace {
namespace {

TEST(DisabledTracing, EntryPointsAllocateNothing) {
  TraceSession::instance().disable();
  ASSERT_FALSE(enabled());

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  {
    RankTraceScope scope(3);
    ScopedSpan span(kCategoryPhase, "phase");
    EXPECT_FALSE(span.active());
    span.set_modeled_seconds(1.0);
    span.set_modeled_volume_seconds(0.5);
    span.arg_u64("bytes", 4096);
    span.arg_str("note", "unused");
    counter("comm.bytes_sent", 128);
    {
      ScopedSpan nested(kCategoryKernel, "kernel", Track::kDevice);
      EXPECT_FALSE(nested.active());
    }
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(DisabledTracing, TracingOnMatchesTracingOffBitForBit) {
  const io::ReadBatch reads = io::make_dataset(
      *io::find_preset("ecoli30x"), /*scale=*/4000, /*seed=*/7);
  core::DriverOptions options;
  options.pipeline.kind = core::PipelineKind::kGpuSupermer;
  options.nranks = 4;

  TraceSession::instance().disable();
  const core::CountResult untraced =
      core::run_distributed_count(reads, options);

  TraceSession::instance().enable("");
  TraceSession::instance().reset();
  const core::CountResult traced =
      core::run_distributed_count(reads, options);
  TraceSession::instance().disable();

  // Recording spans must not perturb the simulation: identical counts and
  // bit-identical modeled times either way.
  EXPECT_EQ(untraced.global_counts, traced.global_counts);
  ASSERT_EQ(untraced.ranks.size(), traced.ranks.size());
  for (std::size_t r = 0; r < untraced.ranks.size(); ++r) {
    EXPECT_EQ(untraced.ranks[r].modeled.phases(),
              traced.ranks[r].modeled.phases());
    EXPECT_EQ(untraced.ranks[r].counted_kmers, traced.ranks[r].counted_kmers);
    EXPECT_EQ(untraced.ranks[r].bytes_sent, traced.ranks[r].bytes_sent);
  }
}

}  // namespace
}  // namespace dedukt::trace
