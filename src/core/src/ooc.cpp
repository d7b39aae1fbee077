// Out-of-core two-pass counting — see ooc.hpp for the dataflow and
// docs/out-of-core.md for the design rationale.
//
// Pass 1 parses on the host (the simulated device kernels operate on whole
// in-memory batches; the host builders produce the same k-mer/supermer
// multiset per destination, which is all pass 2 consumes). Its parse
// charges use each pipeline's calibrated throughput terms; the GPU device
// floor is approximated by the throughput term itself, an equality on
// every profiled configuration since the modeled kernels are
// throughput-bound.
#include "dedukt/core/ooc.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>

#include "dedukt/core/device_hash_table.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/staged_pipeline.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/partition.hpp"
#include "dedukt/io/spill.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/mpisim/runtime.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core {

namespace {

/// Wire formats for gathering per-rank table entries to rank 0 (the same
/// layout driver.cpp uses for the in-memory path).
struct KmerCountPair {
  std::uint64_t key;
  std::uint64_t count;
};
static_assert(std::is_trivially_copyable_v<KmerCountPair>);

struct WideKmerCountPair {
  kmer::WideKey key;
  std::uint64_t count;
};
static_assert(std::is_trivially_copyable_v<WideKmerCountPair>);

/// What the selected pipeline spills: exactly its wire payload.
io::SpillKind spill_kind_of(const PipelineConfig& config, bool wide_keys) {
  if (wide_keys) return io::SpillKind::kWideKmerKeys;
  switch (config.kind) {
    case PipelineKind::kCpu:
    case PipelineKind::kGpuKmer:
      return io::SpillKind::kKmerKeys;
    case PipelineKind::kGpuSupermer:
      return config.wide_supermers ? io::SpillKind::kWideSupermers
                                   : io::SpillKind::kSupermers;
  }
  return io::SpillKind::kKmerKeys;
}

void validate_ooc(const DriverOptions& options) {
  DEDUKT_REQUIRE_MSG(options.ooc.bins >= 1,
                     "--ooc-bins must be >= 1, got " << options.ooc.bins);
  DEDUKT_REQUIRE_MSG(!options.pipeline.overlap_rounds,
                     "out-of-core mode and --overlap-rounds are mutually "
                     "exclusive (pass 2 replays bins in lockstep)");
  DEDUKT_REQUIRE_MSG(options.pipeline.max_kmers_per_round == 0,
                     "out-of-core bins replace multi-round processing; "
                     "leave --max-kmers-per-round unset");
  DEDUKT_REQUIRE_MSG(!options.pipeline.filter_singletons,
                     "the Bloom pre-filter cannot span spill bins");
  DEDUKT_REQUIRE_MSG(!options.pipeline.source_consolidation,
                     "source-side consolidation is incompatible with "
                     "out-of-core spilling");
}

/// Per-[bin][dest] staging buffers one pass-1 batch fills before the spill
/// phase appends them as runs.
struct BinBuckets {
  std::vector<std::vector<std::vector<std::uint64_t>>> words;
  std::vector<std::vector<std::vector<std::uint8_t>>> lens;

  BinBuckets(std::uint32_t bins, std::uint32_t parts, bool has_lens) {
    words.assign(bins, std::vector<std::vector<std::uint64_t>>(parts));
    if (has_lens) {
      lens.assign(bins, std::vector<std::vector<std::uint8_t>>(parts));
    }
  }

  [[nodiscard]] std::uint64_t resident_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& per_bin : words) {
      for (const auto& buf : per_bin) bytes += buf.size() * sizeof(buf[0]);
    }
    for (const auto& per_bin : lens) {
      for (const auto& buf : per_bin) bytes += buf.size();
    }
    return bytes;
  }
};

void push_wide_words(std::vector<std::uint64_t>& out,
                     const kmer::WideKey& key) {
  std::uint64_t w[2];
  std::memcpy(w, &key, sizeof(w));
  out.insert(out.end(), w, w + 2);
}

std::vector<kmer::WideKey> words_to_wide(
    const std::vector<std::uint64_t>& words) {
  std::vector<kmer::WideKey> keys(words.size() / 2);
  // An empty bin has no storage, and memcpy from its null data() is
  // undefined behaviour even for 0 bytes.
  if (keys.empty()) return keys;
  std::memcpy(static_cast<void*>(keys.data()), words.data(),
              keys.size() * sizeof(kmer::WideKey));
  return keys;
}

/// Parse one pass-1 batch into the bin buckets and state the parse charge.
/// Mirrors each pipeline's parse routing exactly (same destination
/// function per k-mer occurrence) and its charge formulas.
void parse_into_bins(const io::ReadBatch& mine, const PipelineConfig& config,
                     std::uint32_t parts, std::uint32_t bins,
                     const MinimizerAssignment* assignment,
                     BinBuckets& buckets, RankMetrics& metrics) {
  const io::BaseEncoding enc = config.encoding();
  PhaseScope phase(metrics, kPhaseParse);

  switch (config.kind) {
    case PipelineKind::kCpu: {
      for (const auto& read : mine.reads) {
        for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
          kmer::for_each_kmer(
              fragment, config.k, enc, [&](kmer::KmerCode code) {
                if (config.canonical) {
                  code = kmer::canonical(code, config.k, enc);
                }
                const std::uint32_t dest = kmer::kmer_partition(code, parts);
                buckets.words[spill_bin_of(code, bins)][dest].push_back(code);
                ++metrics.kmers_parsed;
              });
        }
      }
      phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                               summit::kCpuParseBasesPerSec);
      return;
    }
    case PipelineKind::kGpuKmer: {
      for (const auto& read : mine.reads) {
        for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
          kmer::for_each_kmer(
              fragment, config.k, enc, [&](kmer::KmerCode code) {
                const std::uint32_t dest = kmer::kmer_partition(code, parts);
                buckets.words[spill_bin_of(code, bins)][dest].push_back(code);
                ++metrics.kmers_parsed;
              });
        }
      }
      const double work = static_cast<double>(metrics.kmers_parsed) /
                          summit::kGpuParseKmersPerSec;
      phase.set_charge(work + summit::kGpuParseOverheadSec, work);
      return;
    }
    case PipelineKind::kGpuSupermer: {
      const kmer::SupermerConfig smer_config = config.supermer_config();
      const kmer::MinimizerPolicy policy = config.minimizer_policy();
      if (config.wide_supermers) {
        for (const auto& read : mine.reads) {
          for (const kmer::DestinedWideSupermer& ds :
               kmer::build_wide_supermers_read(read.bases, smer_config,
                                               parts)) {
            const kmer::KmerCode first = kmer::wide_sub(
                kmer::from_key(ds.smer.bases), ds.smer.len, 0, config.k);
            const kmer::KmerCode mini =
                kmer::minimizer_of(first, config.k, policy);
            const std::uint32_t dest =
                assignment != nullptr ? assignment->rank_of(mini) : ds.dest;
            const std::uint32_t bin = spill_bin_of(mini, bins);
            push_wide_words(buckets.words[bin][dest], ds.smer.bases);
            buckets.lens[bin][dest].push_back(ds.smer.len);
            ++metrics.supermers_built;
            metrics.supermer_bases += ds.smer.len;
            metrics.kmers_parsed += static_cast<std::uint64_t>(ds.smer.len) -
                                    static_cast<std::uint64_t>(config.k) + 1;
          }
        }
      } else {
        for (const auto& read : mine.reads) {
          for (const kmer::DestinedSupermer& ds : kmer::build_supermers_read(
                   read.bases, smer_config, parts)) {
            const kmer::KmerCode first =
                kmer::sub_code(ds.smer.bases, ds.smer.len, 0, config.k);
            const kmer::KmerCode mini =
                kmer::minimizer_of(first, config.k, policy);
            const std::uint32_t dest =
                assignment != nullptr ? assignment->rank_of(mini) : ds.dest;
            const std::uint32_t bin = spill_bin_of(mini, bins);
            buckets.words[bin][dest].push_back(ds.smer.bases);
            buckets.lens[bin][dest].push_back(ds.smer.len);
            ++metrics.supermers_built;
            metrics.supermer_bases += ds.smer.len;
            metrics.kmers_parsed += static_cast<std::uint64_t>(ds.smer.len) -
                                    static_cast<std::uint64_t>(config.k) + 1;
          }
        }
      }
      const double work =
          static_cast<double>(metrics.kmers_parsed) /
          (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead);
      phase.set_charge(work + summit::kGpuParseOverheadSec, work);
      return;
    }
  }
}

/// Append one batch's bin buckets as runs and state the spill charge.
void spill_buckets(BinBuckets& buckets,
                   std::vector<std::unique_ptr<io::SpillBinWriter>>& writers,
                   io::SpillKind kind, const io::DiskModel& disk,
                   RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseSpill);
  std::uint64_t bytes = 0;
  std::uint64_t runs = 0;
  const bool has_lens = io::spill_has_lens(kind);
  const std::uint32_t wpi = io::spill_words_per_item(kind);
  for (std::size_t bin = 0; bin < writers.size(); ++bin) {
    io::SpillBinWriter& writer = *writers[bin];
    const std::uint64_t before_bytes = writer.bytes_written();
    const std::uint64_t before_runs = writer.runs();
    for (std::size_t dest = 0; dest < buckets.words[bin].size(); ++dest) {
      const std::vector<std::uint64_t>& words = buckets.words[bin][dest];
      if (words.empty()) continue;
      writer.append_run(static_cast<std::uint32_t>(dest), words.data(),
                        words.size() / wpi,
                        has_lens ? buckets.lens[bin][dest].data() : nullptr);
    }
    bytes += writer.bytes_written() - before_bytes;
    runs += writer.runs() - before_runs;
  }
  metrics.spill_bytes_written = bytes;
  phase.set_charge(disk.write_seconds(bytes, runs),
                   disk.write_volume_seconds(bytes));
}

/// One pass-2 bin reload: replay every run into per-destination buffers.
struct ReloadedBin {
  std::vector<std::vector<std::uint64_t>> words;  ///< [dest] packed words
  std::vector<std::vector<std::uint8_t>> lens;    ///< [dest], supermers only
  std::uint64_t bytes = 0;
};

ReloadedBin reload_bin(const std::string& path, io::SpillKind kind, int k,
                       std::uint32_t parts, const io::DiskModel& disk,
                       RankMetrics& metrics) {
  ReloadedBin reloaded;
  reloaded.words.resize(parts);
  reloaded.lens.resize(parts);
  PhaseScope phase(metrics, kPhaseReload);
  io::SpillBinReader reader(path, kind, k, parts);
  io::SpillRun run;
  while (reader.next(run)) {
    auto& words = reloaded.words[run.dest];
    words.insert(words.end(), run.words.begin(), run.words.end());
    auto& lens = reloaded.lens[run.dest];
    lens.insert(lens.end(), run.lens.begin(), run.lens.end());
  }
  reloaded.bytes = reader.bytes_read();
  metrics.spill_bytes_read = reloaded.bytes;
  // One op per run plus the header read.
  phase.set_charge(disk.read_seconds(reader.bytes_read(), reader.runs() + 1),
                   disk.read_volume_seconds(reader.bytes_read()));
  return reloaded;
}

}  // namespace

CountResult run_ooc_count(io::ReadBatchStream& stream,
                          const DriverOptions& options) {
  const PipelineConfig& config = options.pipeline;
  validate_ooc(options);

  const auto nranks = static_cast<std::size_t>(options.nranks);
  const auto parts = static_cast<std::uint32_t>(options.nranks);
  const auto bins = static_cast<std::uint32_t>(options.ooc.bins);
  const io::SpillKind kind = spill_kind_of(config, /*wide_keys=*/false);
  const io::DiskModel& disk = options.ooc.disk;
  const bool gpu = config.kind != PipelineKind::kCpu;
  const bool supermers = config.kind == PipelineKind::kGpuSupermer;
  const bool need_assignment =
      supermers && config.partition != PartitionScheme::kMinimizerHash;

  const mpisim::NetworkModel network =
      options.summit_network
          ? summit::network(options.effective_ranks_per_node())
          : mpisim::NetworkModel::local();
  mpisim::Runtime runtime(options.nranks, network);

  CountResult result;
  result.config = config;
  result.nranks = options.nranks;
  result.ranks.resize(nranks);

  // RAII scratch: removed on return and on exception alike.
  io::SpillDir spill(options.ooc.spill_root);

  // [rank][bin] writers, created up front on this thread; each simulated
  // rank only ever touches its own row.
  std::vector<std::vector<std::unique_ptr<io::SpillBinWriter>>> writers(
      nranks);
  for (std::size_t rank = 0; rank < nranks; ++rank) {
    writers[rank].reserve(bins);
    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      writers[rank].push_back(std::make_unique<io::SpillBinWriter>(
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
          kind, config.k, parts));
    }
  }

  // Frequency-balanced routing is sampled collectively from the FIRST
  // batch and reused for the whole job, mirroring the in-memory pipeline's
  // once-per-job routing table.
  std::vector<std::optional<MinimizerAssignment>> assignments(nranks);

  // --- pass 1: stream batches, parse, spill ---
  std::optional<io::ReadBatch> batch = stream.next();
  if (!batch) batch.emplace();
  std::uint64_t batch_index = 0;
  while (batch) {
    std::optional<io::ReadBatch> following = stream.next();
    const std::vector<io::ReadBatch> batch_parts =
        io::partition_by_bases(*batch, options.nranks);

    runtime.run([&](mpisim::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      const io::ReadBatch& mine = batch_parts[rank];
      trace::ScopedSpan rank_span(trace::kCategoryApp, "rank_spill_pass");
      if (rank_span.active()) {
        rank_span.arg_u64("reads", mine.size());
        rank_span.arg_u64("bases", mine.total_bases());
      }

      RankMetrics metrics;
      metrics.reads = mine.size();
      metrics.bases = mine.total_bases();

      if (need_assignment && batch_index == 0) {
        PhaseScope phase(metrics, kPhaseParse);
        mpisim::CommCapture capture(comm);
        assignments[rank] = MinimizerAssignment::build(
            comm, mine, config.supermer_config(), /*sample_stride=*/4,
            config.partition == PartitionScheme::kNodeAware);
        const double sampling =
            static_cast<double>(mine.total_bases()) / 4.0 /
            (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead);
        phase.set_charge(sampling + capture.modeled_seconds(),
                         sampling + capture.modeled_volume_seconds());
      }

      BinBuckets buckets(bins, parts, io::spill_has_lens(kind));
      parse_into_bins(mine, config, parts, bins,
                      assignments[rank] ? &*assignments[rank] : nullptr,
                      buckets, metrics);
      metrics.peak_resident_bytes =
          io::resident_read_bytes(mine) + buckets.resident_bytes();
      spill_buckets(buckets, writers[rank], kind, disk, metrics);

      if (batch_index == 0) {
        result.ranks[rank] = metrics;
      } else {
        accumulate_round(result.ranks[rank], metrics);
      }
    });
    batch = std::move(following);
    ++batch_index;
  }

  // Flush before pass 2 opens the files for reading; surfaces write errors
  // as exceptions here rather than as ParseError truncations later.
  for (auto& row : writers) {
    for (auto& writer : row) writer->close();
  }

  // --- pass 2: replay each bin through exchange + count ---
  std::vector<HostHashTable> tables(nranks);
  std::vector<std::vector<KmerCountPair>> gathered;

  runtime.run([&](mpisim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    trace::ScopedSpan rank_span(trace::kCategoryApp, "rank_replay_pass");
    RankMetrics& total = result.ranks[rank];
    HostHashTable& table = tables[rank];
    const bool staged = config.exchange == ExchangeMode::kStaged;

    std::optional<gpusim::Device> device;
    if (gpu) device.emplace(options.device);

    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      // Fresh per-bin ledger: commit_exchange ASSIGNS byte counts and
      // alltoallv times, so they must not overwrite earlier bins' values.
      RankMetrics bm;

      ReloadedBin reloaded = reload_bin(
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
          kind, config.k, parts, disk, bm);

      if (!supermers) {
        // k-mer keys on the wire, exactly like the in-memory exchange.
        mpisim::AlltoallvResult<std::uint64_t> received;
        gpusim::DeviceBuffer<std::uint64_t> d_recv;
        {
          PhaseScope phase(bm, kPhaseExchange);
          ExchangePlan plan(comm, gpu ? &*device : nullptr, staged,
                            config.hierarchical_exchange);
          received = plan.exchange(reloaded.words);
          if (gpu) d_recv = plan.stage_in(received.data);
          phase.commit_exchange(
              plan, gpu ? summit::kGpuExchangeOverheadSec : 0.0);
        }
        reloaded.words.clear();

        if (gpu) {
          PhaseScope phase(bm, kPhaseCount, *device);
          DeviceHashTable bin_table(*device, received.data.size(),
                                    config.table_headroom, config.smem_agg);
          bin_table.count_kmers(d_recv, received.data.size());
          device->free(d_recv);
          for (const auto& [key, count] : bin_table.to_host()) {
            table.add(key, count);
          }
          bm.kmers_received = received.data.size();
          phase.set_device_floor_charge(
              static_cast<double>(bm.kmers_received) /
                  summit::kGpuCountKmersPerSec,
              summit::kGpuCountOverheadSec);
        } else {
          PhaseScope phase(bm, kPhaseCount);
          for (const std::uint64_t key : received.data) {
            table.add(key);
          }
          bm.kmers_received = received.data.size();
          phase.set_uniform_charge(static_cast<double>(bm.kmers_received) /
                                   summit::kCpuCountKmersPerSec);
        }
        bm.peak_resident_bytes = reloaded.bytes + bm.bytes_sent +
                                 bm.bytes_received;
        accumulate_round(total, bm);
        continue;
      }

      // Supermers on the wire: two exchanges (words + lengths), then the
      // supermer count kernels — the in-memory §IV dataflow per bin.
      if (config.wide_supermers) {
        std::vector<std::vector<kmer::WideKey>> out_words(parts);
        for (std::uint32_t dest = 0; dest < parts; ++dest) {
          out_words[dest] = words_to_wide(reloaded.words[dest]);
        }
        mpisim::AlltoallvResult<kmer::WideKey> recv_words;
        mpisim::AlltoallvResult<std::uint8_t> recv_lens;
        gpusim::DeviceBuffer<kmer::WideKey> d_recv_words;
        gpusim::DeviceBuffer<std::uint8_t> d_recv_lens;
        {
          PhaseScope phase(bm, kPhaseExchange);
          ExchangePlan plan(comm, &*device, staged,
                            config.hierarchical_exchange);
          recv_words = plan.exchange(out_words);
          recv_lens = plan.exchange(reloaded.lens);
          DEDUKT_CHECK(recv_words.data.size() == recv_lens.data.size());
          d_recv_words = plan.stage_in(recv_words.data);
          d_recv_lens = plan.stage_in(recv_lens.data);
          phase.commit_exchange(plan, summit::kGpuExchangeOverheadSec);
        }
        reloaded.words.clear();
        reloaded.lens.clear();

        PhaseScope phase(bm, kPhaseCount, *device);
        bm.supermers_received = recv_words.data.size();
        std::uint64_t kmers_to_count = 0;
        for (const std::uint8_t len : recv_lens.data) {
          kmers_to_count += static_cast<std::uint64_t>(len) -
                            static_cast<std::uint64_t>(config.k) + 1;
        }
        DeviceHashTable bin_table(*device, kmers_to_count,
                                  config.table_headroom, config.smem_agg);
        bin_table.count_wide_supermers(d_recv_words, d_recv_lens,
                                       recv_words.data.size(), config.k);
        device->free(d_recv_words);
        device->free(d_recv_lens);
        for (const auto& [key, count] : bin_table.to_host()) {
          table.add(key, count);
        }
        bm.kmers_received = kmers_to_count;
        phase.set_device_floor_charge(
            static_cast<double>(kmers_to_count) /
                (summit::kGpuCountKmersPerSec /
                 summit::kSupermerCountOverhead),
            summit::kGpuCountOverheadSec);
      } else {
        mpisim::AlltoallvResult<std::uint64_t> recv_words;
        mpisim::AlltoallvResult<std::uint8_t> recv_lens;
        gpusim::DeviceBuffer<std::uint64_t> d_recv_words;
        gpusim::DeviceBuffer<std::uint8_t> d_recv_lens;
        {
          PhaseScope phase(bm, kPhaseExchange);
          ExchangePlan plan(comm, &*device, staged,
                            config.hierarchical_exchange);
          recv_words = plan.exchange(reloaded.words);
          recv_lens = plan.exchange(reloaded.lens);
          DEDUKT_CHECK(recv_words.data.size() == recv_lens.data.size());
          d_recv_words = plan.stage_in(recv_words.data);
          d_recv_lens = plan.stage_in(recv_lens.data);
          phase.commit_exchange(plan, summit::kGpuExchangeOverheadSec);
        }
        reloaded.words.clear();
        reloaded.lens.clear();

        PhaseScope phase(bm, kPhaseCount, *device);
        bm.supermers_received = recv_words.data.size();
        std::uint64_t kmers_to_count = 0;
        for (const std::uint8_t len : recv_lens.data) {
          kmers_to_count += static_cast<std::uint64_t>(len) -
                            static_cast<std::uint64_t>(config.k) + 1;
        }
        DeviceHashTable bin_table(*device, kmers_to_count,
                                  config.table_headroom, config.smem_agg);
        bin_table.count_supermers(d_recv_words, d_recv_lens,
                                  recv_words.data.size(), config.k);
        device->free(d_recv_words);
        device->free(d_recv_lens);
        for (const auto& [key, count] : bin_table.to_host()) {
          table.add(key, count);
        }
        bm.kmers_received = kmers_to_count;
        phase.set_device_floor_charge(
            static_cast<double>(kmers_to_count) /
                (summit::kGpuCountKmersPerSec /
                 summit::kSupermerCountOverhead),
            summit::kGpuCountOverheadSec);
      }
      bm.peak_resident_bytes =
          reloaded.bytes + bm.bytes_sent + bm.bytes_received;
      accumulate_round(total, bm);
    }

    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    trace::counter("spill_bytes_written", total.spill_bytes_written);
    trace::counter("spill_bytes_read", total.spill_bytes_read);
    trace::counter("peak_resident_bytes", total.peak_resident_bytes);

    if (options.collect_counts) {
      std::vector<KmerCountPair> entries;
      entries.reserve(table.unique());
      table.for_each([&](std::uint64_t key, std::uint64_t count) {
        entries.push_back({key, count});
      });
      auto all = comm.gatherv(entries, /*root=*/0);
      if (comm.rank() == 0) gathered = std::move(all);
    }
  });

  if (options.collect_counts) {
    for (const auto& part : gathered) {
      for (const auto& entry : part) {
        result.global_counts.emplace_back(entry.key, entry.count);
      }
    }
    detail::merge_gathered_counts(result.global_counts);
  }
  return result;
}

WideCountResult run_ooc_count_wide(io::ReadBatchStream& stream,
                                   const DriverOptions& options) {
  const PipelineConfig& config = options.pipeline;
  validate_ooc(options);

  const auto nranks = static_cast<std::size_t>(options.nranks);
  const auto parts = static_cast<std::uint32_t>(options.nranks);
  const auto bins = static_cast<std::uint32_t>(options.ooc.bins);
  const io::SpillKind kind = io::SpillKind::kWideKmerKeys;
  const io::DiskModel& disk = options.ooc.disk;
  const io::BaseEncoding enc = config.encoding();

  const mpisim::NetworkModel network =
      options.summit_network
          ? summit::network(options.effective_ranks_per_node())
          : mpisim::NetworkModel::local();
  mpisim::Runtime runtime(options.nranks, network);

  WideCountResult result;
  result.base.config = config;
  result.base.nranks = options.nranks;
  result.base.ranks.resize(nranks);

  io::SpillDir spill(options.ooc.spill_root);
  std::vector<std::vector<std::unique_ptr<io::SpillBinWriter>>> writers(
      nranks);
  for (std::size_t rank = 0; rank < nranks; ++rank) {
    writers[rank].reserve(bins);
    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      writers[rank].push_back(std::make_unique<io::SpillBinWriter>(
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
          kind, config.k, parts));
    }
  }

  // --- pass 1 ---
  std::optional<io::ReadBatch> batch = stream.next();
  if (!batch) batch.emplace();
  std::uint64_t batch_index = 0;
  while (batch) {
    std::optional<io::ReadBatch> following = stream.next();
    const std::vector<io::ReadBatch> batch_parts =
        io::partition_by_bases(*batch, options.nranks);

    runtime.run([&](mpisim::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      const io::ReadBatch& mine = batch_parts[rank];
      trace::ScopedSpan rank_span(trace::kCategoryApp, "rank_spill_pass");

      RankMetrics metrics;
      metrics.reads = mine.size();
      metrics.bases = mine.total_bases();

      BinBuckets buckets(bins, parts, /*has_lens=*/false);
      {
        PhaseScope phase(metrics, kPhaseParse);
        for (const auto& read : mine.reads) {
          for (std::string_view fragment :
               kmer::acgt_fragments(read.bases)) {
            kmer::for_each_wide_kmer(
                fragment, config.k, enc, [&](kmer::WideCode code) {
                  if (config.canonical) {
                    code = kmer::wide_canonical(code, config.k, enc);
                  }
                  const kmer::WideKey key = kmer::to_key(code);
                  const std::uint32_t dest =
                      kmer::wide_kmer_partition(code, parts);
                  const std::uint32_t bin = hash::to_partition(
                      kmer::hash_wide(key, kSpillBinSeed), bins);
                  push_wide_words(buckets.words[bin][dest], key);
                  ++metrics.kmers_parsed;
                });
          }
        }
        phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                                 summit::kCpuParseBasesPerSec);
      }
      metrics.peak_resident_bytes =
          io::resident_read_bytes(mine) + buckets.resident_bytes();
      spill_buckets(buckets, writers[rank], kind, disk, metrics);

      if (batch_index == 0) {
        result.base.ranks[rank] = metrics;
      } else {
        accumulate_round(result.base.ranks[rank], metrics);
      }
    });
    batch = std::move(following);
    ++batch_index;
  }

  for (auto& row : writers) {
    for (auto& writer : row) writer->close();
  }

  // --- pass 2 ---
  std::vector<WideHostHashTable> tables(nranks);
  std::vector<std::vector<WideKmerCountPair>> gathered;

  runtime.run([&](mpisim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    trace::ScopedSpan rank_span(trace::kCategoryApp, "rank_replay_pass");
    RankMetrics& total = result.base.ranks[rank];
    WideHostHashTable& table = tables[rank];

    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      RankMetrics bm;
      ReloadedBin reloaded = reload_bin(
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
          kind, config.k, parts, disk, bm);

      mpisim::AlltoallvResult<kmer::WideKey> received;
      {
        PhaseScope phase(bm, kPhaseExchange);
        ExchangePlan plan(comm, /*device=*/nullptr, /*staged=*/false,
                          config.hierarchical_exchange);
        std::vector<std::vector<kmer::WideKey>> out_words(parts);
        for (std::uint32_t dest = 0; dest < parts; ++dest) {
          out_words[dest] = words_to_wide(reloaded.words[dest]);
        }
        received = plan.exchange(out_words);
        phase.commit_exchange(plan);
      }
      reloaded.words.clear();

      {
        PhaseScope phase(bm, kPhaseCount);
        for (const kmer::WideKey& key : received.data) {
          table.add(key);
        }
        bm.kmers_received = received.data.size();
        phase.set_uniform_charge(static_cast<double>(bm.kmers_received) /
                                 summit::kCpuCountKmersPerSec);
      }
      bm.peak_resident_bytes =
          reloaded.bytes + bm.bytes_sent + bm.bytes_received;
      accumulate_round(total, bm);
    }

    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    trace::counter("spill_bytes_written", total.spill_bytes_written);
    trace::counter("spill_bytes_read", total.spill_bytes_read);
    trace::counter("peak_resident_bytes", total.peak_resident_bytes);

    if (options.collect_counts) {
      std::vector<WideKmerCountPair> entries;
      entries.reserve(table.unique());
      table.for_each([&](const kmer::WideKey& key, std::uint64_t count) {
        entries.push_back({key, count});
      });
      auto all = comm.gatherv(entries, /*root=*/0);
      if (comm.rank() == 0) gathered = std::move(all);
    }
  });

  if (options.collect_counts) {
    for (const auto& part : gathered) {
      for (const auto& entry : part) {
        result.global_counts.emplace_back(entry.key, entry.count);
      }
    }
    detail::merge_gathered_counts_wide(result.global_counts);
  }
  return result;
}

}  // namespace dedukt::core
