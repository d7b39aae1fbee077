// TraceSession integration tests: deterministic multi-rank merge of the
// Chrome trace, and bit-equality of the trace-derived breakdowns against
// CountResult's private accumulation.
#include "dedukt/trace/session.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dedukt/core/driver.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/io/datasets.hpp"
#include "dedukt/util/thread_pool.hpp"

namespace dedukt::trace {
namespace {

io::ReadBatch preset_reads() {
  return io::make_dataset(*io::find_preset("ecoli30x"), /*scale=*/4000,
                          /*seed=*/7);
}

core::CountResult run_driver(const io::ReadBatch& reads,
                             core::PipelineKind kind) {
  core::DriverOptions options;
  options.pipeline.kind = kind;
  options.nranks = 4;
  options.collect_counts = false;
  return core::run_distributed_count(reads, options);
}

/// Enables an in-memory session, restores disabled + pool size 1 after.
class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSession::instance().enable("");
    TraceSession::instance().reset();
  }
  void TearDown() override {
    TraceSession::instance().disable();
    util::ThreadPool::set_global_threads(1);
  }
};

TEST_F(SessionTest, ChromeJsonIsByteIdenticalAcrossRepeatedRuns) {
  const io::ReadBatch reads = preset_reads();
  auto& session = TraceSession::instance();

  (void)run_driver(reads, core::PipelineKind::kGpuSupermer);
  const std::string first = session.chrome_json();
  session.reset();
  (void)run_driver(reads, core::PipelineKind::kGpuSupermer);
  const std::string second = session.chrome_json();

  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
}

TEST_F(SessionTest, ChromeJsonIsByteIdenticalAcrossPoolSizes) {
  const io::ReadBatch reads = preset_reads();
  auto& session = TraceSession::instance();

  util::ThreadPool::set_global_threads(1);
  (void)run_driver(reads, core::PipelineKind::kGpuKmer);
  const std::string serial = session.chrome_json();
  const std::string serial_metrics = session.metrics().to_json(
      /*include_wall=*/false);

  session.reset();
  util::ThreadPool::set_global_threads(4);
  (void)run_driver(reads, core::PipelineKind::kGpuKmer);
  EXPECT_EQ(serial, session.chrome_json());
  EXPECT_EQ(serial_metrics,
            session.metrics().to_json(/*include_wall=*/false));
}

TEST_F(SessionTest, ChromeJsonCarriesRankAndDeviceTracks) {
  const io::ReadBatch reads = preset_reads();
  (void)run_driver(reads, core::PipelineKind::kGpuSupermer);
  const std::string json = TraceSession::instance().chrome_json();

  // One metadata-named track per simulated rank (pid 0) and simulated
  // device (pid 1), and spans from all three instrumented layers.
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 3\""), std::string::npos);
  EXPECT_NE(json.find("\"gpu 0\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"collective\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"app\""), std::string::npos);
}

TEST_F(SessionTest, MetricsBreakdownsMatchCountResultBitForBit) {
  const io::ReadBatch reads = preset_reads();
  auto& session = TraceSession::instance();

  for (const auto kind : {core::PipelineKind::kCpu,
                          core::PipelineKind::kGpuKmer,
                          core::PipelineKind::kGpuSupermer}) {
    SCOPED_TRACE(testing::Message()
                 << "pipeline " << static_cast<int>(kind));
    session.reset();
    const core::CountResult result = run_driver(reads, kind);
    const MetricsReport metrics = session.metrics();

    // The trace subsystem subsumes CountResult's breakdown logic: the
    // per-phase maxima must be *bit* identical, not merely close.
    const PhaseTimes from_result = result.modeled_breakdown();
    const PhaseTimes from_trace = metrics.modeled_breakdown();
    for (const char* phase : core::kPhaseOrder) {
      EXPECT_EQ(from_result.get(phase), from_trace.get(phase)) << phase;
    }
    EXPECT_EQ(result.modeled_total_seconds(),
              metrics.modeled_total_seconds());
  }
}

TEST(TraceSessionPaths, MetricsPathDerivesFromChromePath) {
  EXPECT_EQ(TraceSession::metrics_path_for("out/trace.json"),
            "out/trace.metrics.json");
  EXPECT_EQ(TraceSession::metrics_path_for("trace"), "trace.metrics.json");
}

}  // namespace
}  // namespace dedukt::trace
