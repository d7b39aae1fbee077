// Out-of-core ablation — peak resident footprint and modeled disk cost of
// the streamed/spilled ingest path, swept over batch size x spill mode.
//
// Not a paper figure: the paper assumes the input fits in aggregate host
// memory. This driver measures what the bounded-batch refactor buys — an
// ecoli30x preset at 10x the other benches' down-scale (so multi-batch
// shapes are real) is counted in-memory, streamed at several batch sizes,
// and streamed + spilled through disk-resident bins. Each configuration
// reports the per-rank peak resident bytes, the spill volume, and the
// modeled critical path split into disk (spill + reload) and compute
// (parse/exchange/count) seconds.
//
// Self-checks (DEDUKT_CHECK, so a regression aborts the run): every
// configuration's global counts are bit-identical to the in-memory run,
// spilled bytes equal reloaded bytes, peak resident bytes are monotone
// non-decreasing in batch size, and every spilled configuration's peak
// stays under the whole-input resident footprint.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dedukt/io/read_stream.hpp"
#include "dedukt/util/error.hpp"
#include "dedukt/util/format.hpp"
#include "dedukt/util/table.hpp"

namespace {

using namespace dedukt;

double disk_seconds_of(const core::CountResult& result) {
  const PhaseTimes breakdown = result.modeled_breakdown();
  return breakdown.get(core::kPhaseSpill) +
         breakdown.get(core::kPhaseReload);
}

}  // namespace

int main(int argc, char** argv) {
  bench::start(argc, argv, "Out-of-core spill",
               "Peak resident footprint and modeled disk cost of streamed "
               "ingest\nwith disk-spilled supermer bins (not a paper "
               "figure).");

  // 10x the Table-I benches' ecoli30x down-scale so batch sweeps span
  // genuinely multi-batch shapes.
  const std::uint64_t scale = bench::default_scale("ecoli30x") / 10;
  const int nranks = 8;
  const int bins = 8;
  const auto preset = io::find_preset("ecoli30x");
  DEDUKT_REQUIRE(preset.has_value());
  const io::ReadBatch reads = io::make_dataset(*preset, scale, /*seed=*/42);

  const bench::ScratchDir spill_root("dedukt-bench-spill");

  core::DriverOptions base;
  base.pipeline.kind = core::PipelineKind::kGpuSupermer;
  base.nranks = nranks;

  // Reference: the historical whole-input in-memory run.
  const core::CountResult in_memory = core::run_distributed_count(reads, base);
  DEDUKT_CHECK_MSG(!in_memory.global_counts.empty(),
                   "in-memory run produced no k-mers");
  const std::uint64_t resident_total = io::resident_read_bytes(reads);

  struct Shape {
    std::string name;
    std::size_t batch_reads;  // 0 = unbounded (whole input, one batch)
    bool spill;
  };
  std::vector<Shape> shapes = {{"in-memory/whole-input", 0, false}};
  const std::vector<std::size_t> batch_sizes = {16, 64, 256};
  // Every swept batch size must split the input into several batches, or
  // the peak-footprint comparison degenerates to the whole-input case.
  DEDUKT_CHECK_MSG(reads.reads.size() > 2 * batch_sizes.back(),
                   "dataset too small for the batch sweep: "
                       << reads.reads.size() << " reads");
  for (const std::size_t b : batch_sizes) {
    shapes.push_back({"stream/batch=" + std::to_string(b), b, false});
  }
  for (const std::size_t b : batch_sizes) {
    shapes.push_back({"spill/batch=" + std::to_string(b), b, true});
  }

  TextTable table("Out-of-core sweep — ecoli30x at 1/" +
                  std::to_string(scale) + ", " + std::to_string(nranks) +
                  " GPU ranks, " + std::to_string(bins) + " bins");
  table.set_header({"configuration", "peak resident", "spilled",
                    "disk s", "compute s", "modeled total"});

  // peak monotonicity in batch size (streamed sweep)
  std::uint64_t last_stream_peak = 0;

  for (const Shape& shape : shapes) {
    core::DriverOptions options = base;
    options.batch.max_reads = shape.batch_reads;
    if (shape.spill) {
      options.ooc.spill_root = spill_root.path();
      options.ooc.bins = bins;
    }
    const core::CountResult result =
        shape.batch_reads == 0 && !shape.spill
            ? in_memory
            : core::run_distributed_count(reads, options);

    DEDUKT_CHECK_MSG(result.global_counts == in_memory.global_counts,
                     shape.name << " counts diverged from the in-memory run");

    const core::RankMetrics totals = result.totals();
    const double disk = disk_seconds_of(result);
    const double total = result.modeled_total_seconds();
    DEDUKT_CHECK_MSG(totals.spill_bytes_written == totals.spill_bytes_read,
                     shape.name << " spilled and reloaded bytes differ");
    if (shape.spill) {
      DEDUKT_CHECK_MSG(totals.spill_bytes_written > 0,
                       shape.name << " spilled nothing");
      DEDUKT_CHECK_MSG(totals.peak_resident_bytes < resident_total,
                       shape.name << " peak not bounded below the "
                                     "whole-input resident footprint");
    }
    // Peak resident bytes must grow (or hold) with batch size on the pure
    // streamed sweep: a bigger batch can only enlarge the per-batch
    // working set. The spilled sweep has no such pointwise guarantee — its
    // peak is max(pass-1 batch footprint, per-bin pass-2 footprint), and
    // batch size reshuffles which reads land on which rank's bin files —
    // so there the sweep is held to the boundedness checks above instead.
    if (shape.batch_reads != 0 && !shape.spill) {
      DEDUKT_CHECK_MSG(totals.peak_resident_bytes >= last_stream_peak,
                       shape.name << " peak resident bytes not monotone "
                                     "non-decreasing in batch size");
      last_stream_peak = totals.peak_resident_bytes;
    }

    table.add_row({shape.name,
                   shape.batch_reads == 0
                       ? format_bytes(resident_total) + " (all)"
                       : format_bytes(totals.peak_resident_bytes),
                   format_bytes(totals.spill_bytes_written),
                   format_seconds(disk), format_seconds(total - disk),
                   format_seconds(total)});
  }
  table.print();
  std::printf("\n");
  std::printf("check: all %zu configurations bit-identical to the in-memory "
              "run; spilled == reloaded; streamed peak resident bytes "
              "monotone in batch size; spilled peaks bounded below the %s "
              "whole-input footprint\n",
              shapes.size(), format_bytes(resident_total).c_str());
  return 0;
}
