#include "dedukt/core/driver.hpp"

#include <optional>

#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/pipeline.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"
#include "engine.hpp"

namespace dedukt::core {

namespace detail {

void validate_run(const DriverOptions& options, bool wide_keys) {
  const PipelineConfig& config = options.pipeline;
  config.validate();
  DEDUKT_REQUIRE_MSG(options.nranks >= 1,
                     "need at least one rank, got " << options.nranks);
  if (wide_keys) {
    DEDUKT_REQUIRE_MSG(config.kind == PipelineKind::kCpu,
                       "wide-k counting runs on the CPU pipeline");
    DEDUKT_REQUIRE_MSG(config.k > kmer::kMaxPackedK,
                       "the wide entry point counts 31 < k <= 63, got k="
                           << config.k);
    DEDUKT_REQUIRE_MSG(!config.sketch,
                       "the sketch backend counts one-word keys (k <= 31)");
  } else {
    DEDUKT_REQUIRE_MSG(config.k <= kmer::kMaxPackedK,
                       "one-word keys hold k <= 31, got k="
                           << config.k
                           << "; 31 < k <= 63 counts through "
                              "run_distributed_count_wide");
  }
  DEDUKT_REQUIRE_MSG(options.ooc.bins >= 1,
                     "--ooc-bins must be >= 1, got " << options.ooc.bins);
  if (options.ooc.enabled()) {
    DEDUKT_REQUIRE_MSG(!config.filter_singletons,
                       "the Bloom pre-filter cannot span spill bins");
    DEDUKT_REQUIRE_MSG(!config.source_consolidation,
                       "source-side consolidation is incompatible with "
                       "out-of-core spilling");
    DEDUKT_REQUIRE_MSG(!config.sketch,
                       "the sketch backend is already one-pass with a fixed "
                       "footprint; compose --batch-reads/--batch-bytes "
                       "streaming instead of --ooc-spill");
  }
}

}  // namespace detail

namespace {

/// One rank's share of one batch through the selected exact pipeline.
/// Each GPU rank builds its simulated device per batch.
RankMetrics run_rank(mpisim::Comm& comm, io::ReadView mine,
                     const DriverOptions& options, HostHashTable& table,
                     std::optional<MinimizerAssignment>& assignment) {
  switch (options.pipeline.kind) {
    case PipelineKind::kCpu:
      return run_cpu_rank(comm, mine, options.pipeline, table);
    case PipelineKind::kGpuKmer: {
      gpusim::Device device(options.device);
      return run_gpu_kmer_rank(comm, device, mine, options.pipeline, table);
    }
    case PipelineKind::kGpuSupermer: {
      gpusim::Device device(options.device);
      return run_gpu_supermer_rank(comm, device, mine, options.pipeline,
                                   table, assignment);
    }
  }
  return {};
}

RankMetrics run_rank(mpisim::Comm& comm, io::ReadView mine,
                     const DriverOptions& options, WideHostHashTable& table,
                     std::optional<MinimizerAssignment>& /*assignment*/) {
  return run_cpu_wide_rank(comm, mine, options.pipeline, table);
}

/// The exact count on persistent per-rank state: every pulled batch runs
/// the pipeline against the rank's table and, under frequency-balanced
/// routing, the assignment sampled from its first batch, so the final
/// state equals the one-shot run's. Returns the gathered global counts
/// (empty unless options.collect_counts).
template <typename KeyTraits>
typename detail::CountEngine<KeyTraits>::Counts count_exact(
    detail::BatchSource& source, const DriverOptions& options,
    CountResult& result) {
  detail::CountEngine<KeyTraits> engine(options, result);
  if (options.ooc.enabled()) {
    detail::count_out_of_core(engine, source);
    return engine.gathered_counts();
  }
  std::vector<BasicHostHashTable<KeyTraits>> tables(engine.nranks());
  std::vector<std::optional<MinimizerAssignment>> assignments(
      engine.nranks());
  engine.run_batches(
      source, "rank_pipeline",
      [&](mpisim::Comm& comm, io::ReadView mine,
          const detail::BatchInfo& batch) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        RankMetrics metrics =
            run_rank(comm, mine, options, tables[rank], assignments[rank]);
        // Streamed runs report the footprint (max over batches); the
        // single-batch path leaves the field 0 and emits no counter, so
        // in-memory metrics output stays byte-identical to the pre-stream
        // code.
        if (!batch.single()) {
          metrics.peak_resident_bytes = io::resident_read_bytes(mine) +
                                        metrics.bytes_sent +
                                        metrics.bytes_received;
        }
        return metrics;
      },
      [&](mpisim::Comm& comm, const detail::BatchInfo& batch) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        if (!batch.single()) {
          trace::counter("peak_resident_bytes",
                         result.ranks[rank].peak_resident_bytes);
        }
        if (options.collect_counts) engine.gather(comm, tables[rank]);
      });
  return engine.gathered_counts();
}

CountResult count(detail::BatchSource& source, const DriverOptions& options) {
  if (options.pipeline.sketch) return detail::run_sketch_count(source, options);
  CountResult result;
  result.global_counts = count_exact<NarrowKeyTraits>(source, options, result);
  return result;
}

WideCountResult count_wide(detail::BatchSource& source,
                           const DriverOptions& options) {
  WideCountResult result;
  result.global_counts =
      count_exact<WideKeyTraits>(source, options, result.base);
  return result;
}

}  // namespace

CountResult run_distributed_count(const io::ReadBatch& reads,
                                  const DriverOptions& options) {
  detail::BatchSource source(reads, options.batch);
  return count(source, options);
}

CountResult run_distributed_count(io::ReadBatchStream& stream,
                                  const DriverOptions& options) {
  detail::BatchSource source(stream);
  return count(source, options);
}

HostHashTable reference_count(const io::ReadBatch& reads,
                              const PipelineConfig& config) {
  const io::BaseEncoding enc = config.encoding();
  // Grown as keys arrive: sized by occurrences, a large input's table
  // would reserve several times the memory its keys need.
  HostHashTable table;
  table.add_all([&](auto& add) {
    for (const auto& read : reads.reads) {
      for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
        kmer::for_each_kmer(fragment, config.k, enc, [&](kmer::KmerCode code) {
          if (config.canonical) code = kmer::canonical(code, config.k, enc);
          add(code, 1);
        });
      }
    }
  });
  return table;
}

WideCountResult run_distributed_count_wide(const io::ReadBatch& reads,
                                           const DriverOptions& options) {
  detail::BatchSource source(reads, options.batch);
  return count_wide(source, options);
}

WideCountResult run_distributed_count_wide(io::ReadBatchStream& stream,
                                           const DriverOptions& options) {
  detail::BatchSource source(stream);
  return count_wide(source, options);
}

WideHostHashTable reference_count_wide(const io::ReadBatch& reads,
                                       const PipelineConfig& config) {
  const io::BaseEncoding enc = config.encoding();
  WideHostHashTable table;  // grown as keys arrive, as in reference_count
  table.add_all([&](auto& add) {
    for (const auto& read : reads.reads) {
      for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
        kmer::for_each_wide_kmer(
            fragment, config.k, enc, [&](kmer::WideCode code) {
              if (config.canonical) {
                code = kmer::wide_canonical(code, config.k, enc);
              }
              add(kmer::to_key(code), 1);
            });
      }
    }
  });
  return table;
}

}  // namespace dedukt::core
