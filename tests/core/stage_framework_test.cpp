// Unit tests for the staged pipeline framework in isolation: PhaseScope
// commits exactly what a hand-rolled phase block would (bit-for-bit), the
// exchange phase (count_stages.hpp) moves the same data staged and direct
// while pricing only the staged copies, its staging prices exactly the
// copies it stands for, and accumulate_round folds one round's ledger into
// a total. The end-to-end bit-identity of whole pipelines built on these
// pieces is covered by pipeline_golden_framework_test.cpp.
//
// White-box: count_stages.hpp is internal to dedukt_core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "count_stages.hpp"
#include "dedukt/core/config.hpp"
#include "dedukt/core/result.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/trace/session.hpp"

namespace dedukt::core {
namespace {

TEST(AccumulateRoundTest, WorkCountsAndTimesAdd) {
  RankMetrics total;
  RankMetrics round;
  round.reads = 2;
  round.bases = 100;
  round.kmers_parsed = 84;
  round.bytes_sent = 672;
  round.bytes_received = 640;
  round.modeled.add(kPhaseParse, 0.25);
  round.modeled_volume.add(kPhaseParse, 0.125);
  round.modeled_alltoallv_seconds = 0.5;
  round.modeled_alltoallv_volume_seconds = 0.375;

  accumulate_round(total, round);
  accumulate_round(total, round);
  EXPECT_EQ(total.reads, 4u);
  EXPECT_EQ(total.bases, 200u);
  EXPECT_EQ(total.kmers_parsed, 168u);
  EXPECT_EQ(total.bytes_sent, 1344u);
  EXPECT_EQ(total.bytes_received, 1280u);
  EXPECT_EQ(total.modeled.get(kPhaseParse), 0.5);
  EXPECT_EQ(total.modeled_volume.get(kPhaseParse), 0.25);
  EXPECT_EQ(total.modeled_alltoallv_seconds, 1.0);
  EXPECT_EQ(total.modeled_alltoallv_volume_seconds, 0.75);
  // Table-derived fields are NOT accumulated; the caller sets them.
  EXPECT_EQ(total.unique_kmers, 0u);
}

TEST(PhaseScopeTest, UniformChargeCommitsToBothClocks) {
  RankMetrics metrics;
  {
    PhaseScope phase(metrics, kPhaseParse);
    phase.set_uniform_charge(0.625);
  }
  EXPECT_EQ(metrics.modeled.get(kPhaseParse), 0.625);
  EXPECT_EQ(metrics.modeled_volume.get(kPhaseParse), 0.625);
  EXPECT_GE(metrics.measured.get(kPhaseParse), 0.0);
}

TEST(PhaseScopeTest, UncommittedPhaseChargesZero) {
  RankMetrics metrics;
  { PhaseScope phase(metrics, kPhaseCount); }
  EXPECT_EQ(metrics.modeled.get(kPhaseCount), 0.0);
  EXPECT_EQ(metrics.modeled_volume.get(kPhaseCount), 0.0);
}

/// The device-floor charge must be bit-identical to the hand-rolled block
/// it replaced: max(capture, work) + overhead on the modeled clock,
/// max(volume capture, work) with no overhead on the volume clock.
TEST(PhaseScopeTest, DeviceFloorChargeMatchesHandRolledReference) {
  const std::vector<std::uint64_t> payload(4096, 7);
  const double work = 1e-7;
  const double overhead = 3e-4;

  // Hand-rolled reference, as the pipelines wrote it before the framework.
  gpusim::Device ref_device;
  double ref_modeled = 0.0;
  double ref_volume = 0.0;
  {
    gpusim::DeviceCapture capture(ref_device);
    auto buf = ref_device.alloc<std::uint64_t>(payload.size());
    ref_device.copy_to_device<std::uint64_t>(payload, buf);
    ref_device.free(buf);
    ref_modeled = std::max(capture.modeled_seconds(), work) + overhead;
    ref_volume = std::max(capture.modeled_volume_seconds(), work);
  }

  gpusim::Device device;
  RankMetrics metrics;
  {
    PhaseScope phase(metrics, kPhaseParse, device);
    auto buf = device.alloc<std::uint64_t>(payload.size());
    device.copy_to_device<std::uint64_t>(payload, buf);
    device.free(buf);
    phase.set_device_floor_charge(work, overhead);
  }
  EXPECT_EQ(metrics.modeled.get(kPhaseParse), ref_modeled);
  EXPECT_EQ(metrics.modeled_volume.get(kPhaseParse), ref_volume);
}

PipelineConfig exchange_config(bool staged) {
  PipelineConfig config;
  config.exchange = staged ? ExchangeMode::kStaged : ExchangeMode::kGpuDirect;
  return config;
}

/// The lines of a Chrome trace that hold an event named `name`, in order.
std::vector<std::string> trace_events(const std::string& trace,
                                      const std::string& name) {
  std::vector<std::string> events;
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"name\":\"" + name + "\"") != std::string::npos) {
      events.push_back(line);
    }
  }
  return events;
}

/// The `bytes` argument of a traced transfer event.
std::uint64_t event_bytes(const std::string& event) {
  const std::string key = "\"bytes\":";
  return std::stoull(event.substr(event.find(key) + key.size()));
}

/// Staged and direct exchanges must deliver identical data; only the
/// staged one prices the D2H/H2D copies, and both report the identical
/// Alltoallv-routine time for identical payloads.
TEST(ExchangePhaseTest, StagedAndDirectDeliverIdenticalData) {
  constexpr int kRanks = 4;
  std::vector<std::vector<std::uint64_t>> staged_data(kRanks);
  std::vector<std::vector<std::uint64_t>> direct_data(kRanks);
  std::vector<double> staged_a2a(kRanks), direct_a2a(kRanks);
  std::vector<double> staged_staging(kRanks), direct_staging(kRanks);

  for (const bool staged : {true, false}) {
    mpisim::Runtime runtime(kRanks);
    runtime.run([&](mpisim::Comm& comm) {
      const auto parts = static_cast<std::uint32_t>(comm.size());
      // Rank r sends r*10 + dest, dest+1 times, in one run per
      // destination, standing for a parse's device buffer of all of them.
      std::vector<std::vector<std::uint64_t>> runs(parts);
      std::uint64_t total = 0;
      for (std::uint32_t dest = 0; dest < parts; ++dest) {
        runs[dest].assign(dest + 1,
                          static_cast<std::uint64_t>(comm.rank()) * 10 + dest);
        total += dest + 1;
      }

      gpusim::Device device;
      const std::uint64_t reserved = total * sizeof(std::uint64_t);
      device.reserve(reserved);
      RankMetrics metrics;
      detail::Received<std::uint64_t> received = detail::exchange_phase(
          comm, &device, exchange_config(staged),
          detail::Outgoing<std::uint64_t>{std::move(runs), {}, reserved},
          metrics);
      const auto r = static_cast<std::size_t>(comm.rank());
      // The device buffer holds the received payload either way.
      (staged ? staged_data : direct_data)[r].assign(
          received.d_items.data(), received.d_items.data() + received.items);
      (staged ? staged_a2a : direct_a2a)[r] =
          metrics.modeled_alltoallv_seconds;
      (staged ? staged_staging : direct_staging)[r] =
          device.timeline().transfer_seconds();
      device.free(received.d_items);
    });
  }

  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(staged_data[i], direct_data[i]) << "rank " << r;
    // Every rank receives r+1 elements from each source, all equal to
    // source*10 + r.
    ASSERT_EQ(staged_data[i].size(),
              static_cast<std::size_t>(kRanks) * (i + 1));
    // Identical payloads -> identical modeled routine time, bit for bit.
    EXPECT_EQ(staged_a2a[i], direct_a2a[i]) << "rank " << r;
    EXPECT_GT(staged_staging[i], 0.0) << "rank " << r;
    EXPECT_EQ(direct_staging[i], 0.0) << "rank " << r;
  }
}

/// Field-by-field equality of two device timelines.
void expect_same_timeline(const gpusim::DeviceTimeline& a,
                          const gpusim::DeviceTimeline& b) {
  EXPECT_EQ(a.kernel_seconds, b.kernel_seconds);
  EXPECT_EQ(a.h2d_seconds, b.h2d_seconds);
  EXPECT_EQ(a.d2h_seconds, b.d2h_seconds);
  EXPECT_EQ(a.volume_seconds, b.volume_seconds);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
  EXPECT_EQ(a.launches, b.launches);
}

/// A staged exchange hands what arrived to the device instead of copying
/// it (Device::adopt, whose storage identity
/// DeviceTest.AdoptKeepsTheStorageAndReservesLikeAlloc pins), and leaves
/// the device exactly where the copy it stands for leaves it —
/// copy_to_device into a fresh one-slot-at-least buffer: the timeline, the
/// reserved bytes and the traced h2d span, the empty payload's one slot
/// included.
TEST(ExchangePhaseTest, StagingMovesStorageAndPricesLikeTheCopies) {
  trace::TraceSession& session = trace::TraceSession::instance();
  session.enable("");
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{777}}) {
    SCOPED_TRACE(testing::Message() << n << " elements");
    const std::size_t slots = std::max<std::size_t>(n, 1);
    std::vector<std::uint64_t> payload(n);
    std::iota(payload.begin(), payload.end(), 5u);

    session.reset();
    gpusim::Device copied;
    mpisim::Runtime(1).run([&](mpisim::Comm&) {
      auto d_in = copied.alloc<std::uint64_t>(slots);
      copied.copy_to_device<std::uint64_t>(payload, d_in);
    });
    const std::vector<std::string> copied_h2d =
        trace_events(session.chrome_json(), "h2d");
    EXPECT_EQ(copied_h2d.size(), 1u);

    session.reset();
    gpusim::Device moved;
    mpisim::Runtime(1).run([&](mpisim::Comm& comm) {
      RankMetrics metrics;
      detail::Received<std::uint64_t> received = detail::exchange_phase(
          comm, &moved, exchange_config(/*staged=*/true),
          detail::Outgoing<std::uint64_t>{{payload}}, metrics);
      ASSERT_EQ(received.items, n);
      ASSERT_EQ(received.d_items.size(), slots);
      if (n > 0) {
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                               received.d_items.data()));
      }
    });
    EXPECT_EQ(trace_events(session.chrome_json(), "h2d"), copied_h2d);
    expect_same_timeline(moved.timeline(), copied.timeline());
    EXPECT_EQ(moved.allocated_bytes(), copied.allocated_bytes());
    EXPECT_EQ(moved.allocated_bytes(), slots * sizeof(std::uint64_t));
  }
  session.disable();
  session.reset();
}

/// Every parse leaves its payload on the host as per-destination runs that
/// stand for its device buffers; the exchange prices their D2H, items and
/// then the second run, and releases the parse's reservation. Staged, that
/// is one d2h span, timeline entry and device.d2h_bytes counter of exactly
/// each buffer's bytes; under GPUDirect it prices nothing, and runs that
/// hold no parse reservation (a reloaded bin, consolidated pairs) price no
/// D2H either way.
TEST(ExchangePhaseTest, StageOutIsPricedOnlyForAParseReservation) {
  trace::TraceSession& session = trace::TraceSession::instance();
  session.enable("");
  const gpusim::GpuCostModel cost(gpusim::DeviceProps::v100());
  for (const bool staged : {true, false}) {
    for (const bool parsed : {true, false}) {
      for (const std::uint64_t n : {0u, 1u, 7777u}) {
        SCOPED_TRACE(testing::Message() << n << " supermers, staged="
                                        << staged << ", parsed=" << parsed);
        const std::uint64_t word_bytes = n * sizeof(std::uint64_t);
        const std::uint64_t len_bytes = n * sizeof(std::uint8_t);
        // What a supermer parse reserves for its word and length buffers.
        const std::uint64_t reserved =
            std::max<std::uint64_t>(n, 1) *
            (sizeof(std::uint64_t) + sizeof(std::uint8_t));
        session.reset();
        gpusim::Device device;
        mpisim::Runtime(1).run([&](mpisim::Comm& comm) {
          if (parsed) device.reserve(reserved);
          RankMetrics metrics;
          detail::Received<std::uint64_t> received = detail::exchange_phase(
              comm, &device, exchange_config(staged),
              detail::Outgoing<std::uint64_t>{
                  {std::vector<std::uint64_t>(n, 3)},
                  {std::vector<std::uint8_t>(n, 17)},
                  parsed ? reserved : 0},
              metrics);
          device.free(received.d_items);
          device.free(received.d_second);
        });
        const bool priced = staged && parsed;
        const std::string trace = session.chrome_json();
        const std::string metrics = session.metrics().to_json(false);
        const gpusim::DeviceTimeline& timeline = device.timeline();
        const std::vector<std::string> d2h = trace_events(trace, "d2h");
        ASSERT_EQ(d2h.size(), priced ? 2u : 0u);
        if (priced) {
          EXPECT_EQ(event_bytes(d2h[0]), word_bytes);
          EXPECT_EQ(event_bytes(d2h[1]), len_bytes);
        }
        EXPECT_EQ(timeline.d2h_bytes, priced ? word_bytes + len_bytes : 0u);
        EXPECT_EQ(timeline.d2h_seconds,
                  priced ? cost.transfer_seconds(word_bytes) +
                               cost.transfer_seconds(len_bytes)
                         : 0.0);
        // What arrived is staged in whenever the exchange is staged.
        EXPECT_EQ(timeline.h2d_bytes, staged ? word_bytes + len_bytes : 0u);
        EXPECT_EQ(timeline.kernel_seconds, 0.0);
        EXPECT_EQ(timeline.launches, 0u);
        EXPECT_EQ(metrics.find("\"device.d2h_bytes\":" +
                               std::to_string(word_bytes + len_bytes)) !=
                      std::string::npos,
                  priced);
        // The reservation is released, and the received buffers freed.
        EXPECT_EQ(device.allocated_bytes(), 0u);
      }
    }
  }
  session.disable();
  session.reset();
}

/// The exchange phase must write the exact fields the hand-rolled exchange
/// blocks wrote: assignment (not +=) of byte counts and routine times, and
/// a charge of routine + staging + overhead on a device, the routine alone
/// on the host.
TEST(ExchangePhaseTest, ChargeMatchesHandRolledReference) {
  constexpr int kRanks = 3;
  const auto payload = [](int rank, int dest) {
    std::vector<std::uint64_t> out(
        static_cast<std::size_t>((rank + 1) * (dest + 2)));
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint64_t>(rank * 100 + dest * 10) + i;
    }
    return out;
  };
  const auto outgoing = [&](int rank) {
    std::vector<std::vector<std::uint64_t>> runs(kRanks);
    for (int dest = 0; dest < kRanks; ++dest) {
      runs[static_cast<std::size_t>(dest)] = payload(rank, dest);
    }
    return runs;
  };

  for (const bool on_device : {true, false}) {
    SCOPED_TRACE(on_device ? "device" : "host");
    std::vector<RankMetrics> framework(kRanks);
    std::vector<RankMetrics> reference(kRanks);
    const double overhead =
        on_device ? summit::kGpuExchangeOverheadSec : 0.0;

    // Hand-rolled, as gpu_kmer_pipeline.cpp wrote it pre-framework.
    mpisim::Runtime(kRanks).run([&](mpisim::Comm& comm) {
      RankMetrics& metrics = reference[static_cast<std::size_t>(comm.rank())];
      gpusim::Device device;
      trace::ScopedSpan span(trace::kCategoryPhase, kPhaseExchange);
      ScopedPhase wall(metrics.measured, kPhaseExchange);
      gpusim::DeviceCapture device_capture(device);
      mpisim::CommCapture comm_capture(comm);
      auto received = comm.alltoallv(outgoing(comm.rank()));
      if (on_device) {
        auto d_recv = device.alloc<std::uint64_t>(received.data.size());
        device.copy_to_device<std::uint64_t>(received.data, d_recv);
        device.free(d_recv);
      }
      metrics.bytes_sent = comm_capture.bytes_sent();
      metrics.bytes_received = comm_capture.bytes_received();
      const double exchange_modeled = comm_capture.modeled_seconds() +
                                      device_capture.modeled_seconds() +
                                      overhead;
      const double exchange_volume =
          comm_capture.modeled_volume_seconds() +
          device_capture.modeled_volume_seconds();
      metrics.modeled.add(kPhaseExchange, exchange_modeled);
      metrics.modeled_volume.add(kPhaseExchange, exchange_volume);
      metrics.modeled_alltoallv_seconds = comm_capture.modeled_seconds();
      metrics.modeled_alltoallv_volume_seconds =
          comm_capture.modeled_volume_seconds();
    });

    // The exchange phase.
    mpisim::Runtime(kRanks).run([&](mpisim::Comm& comm) {
      RankMetrics& metrics = framework[static_cast<std::size_t>(comm.rank())];
      gpusim::Device device;
      detail::Received<std::uint64_t> received = detail::exchange_phase(
          comm, on_device ? &device : nullptr,
          exchange_config(/*staged=*/true),
          detail::Outgoing<std::uint64_t>{outgoing(comm.rank())}, metrics);
      if (on_device) device.free(received.d_items);
    });

    for (int r = 0; r < kRanks; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(framework[i].bytes_sent, reference[i].bytes_sent);
      EXPECT_EQ(framework[i].bytes_received, reference[i].bytes_received);
      EXPECT_EQ(framework[i].modeled.get(kPhaseExchange),
                reference[i].modeled.get(kPhaseExchange));
      EXPECT_EQ(framework[i].modeled_volume.get(kPhaseExchange),
                reference[i].modeled_volume.get(kPhaseExchange));
      EXPECT_EQ(framework[i].modeled_alltoallv_seconds,
                reference[i].modeled_alltoallv_seconds);
      EXPECT_EQ(framework[i].modeled_alltoallv_volume_seconds,
                reference[i].modeled_alltoallv_volume_seconds);
    }
  }
}

}  // namespace
}  // namespace dedukt::core
