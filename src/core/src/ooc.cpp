// Out-of-core two-pass counting (--ooc-spill) on the count engine; see
// docs/out-of-core.md for the design rationale.
//
// Pass 1 runs on the engine's batch loop: each rank parses its share of
// every batch and appends destination-tagged runs of packed payload (k-mer
// keys or supermers, exactly what the selected pipeline puts on the wire)
// to per-rank spill-bin files. The bin is a pure function of the k-mer key
// or supermer minimizer, so pass 2 can process bins independently.
// Pass 2 replays one bin at a time: it exchanges the bin, then calls the
// pipeline's own count phase against the persistent per-rank table, which
// bounds the exchange working set by 1/bins of the dataset.
//
// Pass 1 reads what the in-memory parse launches read, each rank's reads
// in place, with the same k-mer walk and supermer builders (one block
// sliding minimum per fragment, kmer::minimizers_of, then one walk of its
// windows); it differs only in what it prices. It launches nothing and
// prices no staging: its parse charges use each pipeline's calibrated
// throughput terms, the GPU device floor approximated by the throughput
// term itself, an equality on every profiled configuration since the
// modeled kernels are throughput-bound. The builders produce the same
// k-mer/supermer multiset per destination, which is all pass 2 consumes,
// and each supermer carries the minimizer that picks its bin.
//
// Spectra, global counts and (for hash routing) per-rank tallies are
// bit-identical to the in-memory path: every occurrence of a key follows
// the same destination function, only grouped differently in time. Disk
// traffic is priced by io::DiskModel into the two out-of-core-only phases
// (kPhaseSpill / kPhaseReload).
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>

#include "count_stages.hpp"
#include "dedukt/core/exchange_plan.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/core/summit.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/io/spill.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/kmer/supermer.hpp"
#include "dedukt/kmer/wide.hpp"
#include "dedukt/trace/trace.hpp"
#include "dedukt/util/error.hpp"
#include "engine.hpp"

namespace dedukt::core {

namespace {

/// Seed of the spill-bin hash — distinct from kDestinationHashSeed (rank
/// routing) and the tables' probe seed, so bins do not inherit either
/// partition's structure.
constexpr std::uint64_t kSpillBinSeed = 0x5B1Du;

/// Spill bin of a k-mer key or supermer minimizer (stable, independent of
/// nranks).
template <typename KeyTraits>
std::uint32_t spill_bin_of(const typename KeyTraits::Key& key,
                           std::uint32_t bins) {
  return hash::to_partition(KeyTraits::hash(key, kSpillBinSeed), bins);
}

/// What the selected pipeline spills: exactly its wire payload.
template <typename KeyTraits>
io::SpillKind spill_kind_of(const PipelineConfig& config) {
  if constexpr (std::is_same_v<KeyTraits, WideKeyTraits>) {
    return io::SpillKind::kWideKmerKeys;
  } else if (config.kind != PipelineKind::kGpuSupermer) {
    return io::SpillKind::kKmerKeys;
  }
  return config.wide_supermers ? io::SpillKind::kWideSupermers
                               : io::SpillKind::kSupermers;
}

/// Append one wire item (a key or supermer word) as packed 64-bit words.
template <typename Word>
void push_words(std::vector<std::uint64_t>& out, const Word& word) {
  if constexpr (std::is_same_v<Word, std::uint64_t>) {
    out.push_back(word);
  } else {
    std::uint64_t w[sizeof(Word) / sizeof(std::uint64_t)];
    std::memcpy(w, &word, sizeof(w));
    out.insert(out.end(), std::begin(w), std::end(w));
  }
}

/// The inverse of push_words over a whole reloaded buffer.
template <typename Word>
std::vector<Word> words_as(std::vector<std::uint64_t>&& words) {
  if constexpr (std::is_same_v<Word, std::uint64_t>) {
    return std::move(words);
  } else {
    std::vector<Word> items(words.size() * sizeof(std::uint64_t) /
                            sizeof(Word));
    // An empty bin has no storage, and memcpy from its null data() is
    // undefined behaviour even for 0 bytes.
    if (items.empty()) return items;
    std::memcpy(static_cast<void*>(items.data()), words.data(),
                items.size() * sizeof(Word));
    return items;
  }
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

/// Bin one batch's supermers; Word is the supermer packing. Each supermer
/// goes to the bin of its minimizer and to the pipeline's destination (the
/// frequency-balanced table's when `assignment` is set).
template <typename Word>
void bin_supermers(io::ReadView mine, const PipelineConfig& config,
                   std::uint32_t parts, std::uint32_t bins,
                   const MinimizerAssignment* assignment, BinBuckets& buckets,
                   RankMetrics& metrics) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  const kmer::SupermerConfig smer_config = config.supermer_config();
  for (const auto& read : mine.reads) {
    const auto supermers = [&] {
      if constexpr (kWide) {
        return kmer::build_wide_supermers_read(read.bases, smer_config, parts);
      } else {
        return kmer::build_supermers_read(read.bases, smer_config, parts);
      }
    }();
    for (const auto& ds : supermers) {
      const std::uint32_t dest =
          assignment != nullptr ? assignment->rank_of(ds.minimizer) : ds.dest;
      const std::uint32_t bin =
          spill_bin_of<NarrowKeyTraits>(ds.minimizer, bins);
      push_words(buckets.words[bin][dest], ds.smer.bases);
      buckets.lens[bin][dest].push_back(ds.smer.len);
      ++metrics.supermers_built;
      metrics.supermer_bases += ds.smer.len;
      metrics.kmers_parsed += static_cast<std::uint64_t>(ds.smer.len) -
                              static_cast<std::uint64_t>(config.k) + 1;
    }
  }
}

/// Parse one pass-1 batch into the bin buckets and state the parse charge.
/// Routes every occurrence with the pipeline's own destination function
/// and charges each pipeline kind its own parse rate.
template <typename KeyTraits>
void parse_into_bins(io::ReadView mine, const PipelineConfig& config,
                     std::uint32_t parts, std::uint32_t bins,
                     const MinimizerAssignment* assignment,
                     BinBuckets& buckets, RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseParse);
  if (config.kind == PipelineKind::kGpuSupermer) {
    if (config.wide_supermers) {
      bin_supermers<kmer::WideKey>(mine, config, parts, bins, assignment,
                                   buckets, metrics);
    } else {
      bin_supermers<std::uint64_t>(mine, config, parts, bins, assignment,
                                   buckets, metrics);
    }
    const double work =
        static_cast<double>(metrics.kmers_parsed) /
        (summit::kGpuParseKmersPerSec / summit::kSupermerParseOverhead);
    phase.set_charge(work + summit::kGpuParseOverheadSec, work);
    return;
  }

  const io::BaseEncoding enc = config.encoding();
  for (const auto& read : mine.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      KeyTraits::for_each_routed(
          fragment, config.k, config.canonical, enc, parts,
          [&](std::uint32_t dest, const typename KeyTraits::Key& key) {
            push_words(buckets.words[spill_bin_of<KeyTraits>(key, bins)][dest],
                       key);
            ++metrics.kmers_parsed;
          });
    }
  }
  if (config.kind == PipelineKind::kCpu) {
    phase.set_uniform_charge(static_cast<double>(metrics.bases) /
                             summit::kCpuParseBasesPerSec);
  } else {
    const double work = static_cast<double>(metrics.kmers_parsed) /
                        summit::kGpuParseKmersPerSec;
    phase.set_charge(work + summit::kGpuParseOverheadSec, work);
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

/// One bin after its exchange. The host-only CPU kinds count `words`; the
/// GPU kinds count what the device took: `d_words` holds the `items` keys
/// or supermers received and, for supermers, `d_lens` their lengths,
/// `kmers` k-mers in all.
template <typename Word>
struct ReceivedBin {
  mpisim::AlltoallvResult<Word> words;
  gpusim::DeviceBuffer<Word> d_words;
  gpusim::DeviceBuffer<std::uint8_t> d_lens;
  std::uint64_t items = 0;
  std::uint64_t kmers = 0;
};

/// The exchange phase of one reloaded bin, as the pipeline's in-memory
/// exchange runs it: k-mer keys, or supermer words plus their lengths.
template <typename Word>
ReceivedBin<Word> exchange_bin(mpisim::Comm& comm, gpusim::Device* device,
                               const PipelineConfig& config,
                               ReloadedBin& reloaded, RankMetrics& metrics) {
  const bool supermers = config.kind == PipelineKind::kGpuSupermer;
  std::vector<std::vector<Word>> out_words(reloaded.words.size());
  for (std::size_t dest = 0; dest < out_words.size(); ++dest) {
    out_words[dest] = words_as<Word>(std::move(reloaded.words[dest]));
  }
  ReceivedBin<Word> received;
  {
    PhaseScope phase(metrics, kPhaseExchange);
    ExchangePlan plan(comm, device, config.exchange == ExchangeMode::kStaged);
    received.words = plan.exchange(out_words);
    received.items = received.words.data.size();
    mpisim::AlltoallvResult<std::uint8_t> lens;
    if (supermers) {
      lens = plan.exchange(reloaded.lens);
      DEDUKT_CHECK(received.items == lens.data.size());
      received.kmers = detail::supermer_kmers(lens.data, config.k);
    }
    if (device != nullptr) {
      received.d_words = plan.stage_in(std::move(received.words.data));
      if (supermers) received.d_lens = plan.stage_in(std::move(lens.data));
    }
    phase.commit_exchange(
        plan, device != nullptr ? summit::kGpuExchangeOverheadSec : 0.0);
  }
  reloaded.words.clear();
  reloaded.lens.clear();
  return received;
}

template <typename Word>
void count_supermer_bin(mpisim::Comm& comm, gpusim::Device& device,
                        const PipelineConfig& config, ReloadedBin& reloaded,
                        HostHashTable& table, RankMetrics& metrics) {
  ReceivedBin<Word> received =
      exchange_bin<Word>(comm, &device, config, reloaded, metrics);
  detail::count_gpu_supermers<Word>(device, config, received.d_words,
                                    received.d_lens, received.items,
                                    received.kmers, table, metrics);
}

/// Pass 2 for one bin: exchange it, then count it with the pipeline's own
/// count phase against the rank's persistent table.
template <typename KeyTraits>
void count_bin(mpisim::Comm& comm, gpusim::Device* device,
               const PipelineConfig& config, ReloadedBin& reloaded,
               BasicHostHashTable<KeyTraits>& table, RankMetrics& metrics) {
  using Key = typename KeyTraits::Key;
  if constexpr (std::is_same_v<KeyTraits, NarrowKeyTraits>) {
    if (config.kind == PipelineKind::kGpuSupermer) {
      if (config.wide_supermers) {
        count_supermer_bin<kmer::WideKey>(comm, *device, config, reloaded,
                                          table, metrics);
      } else {
        count_supermer_bin<std::uint64_t>(comm, *device, config, reloaded,
                                          table, metrics);
      }
      return;
    }
    if (config.kind == PipelineKind::kGpuKmer) {
      ReceivedBin<Key> received =
          exchange_bin<Key>(comm, device, config, reloaded, metrics);
      detail::count_gpu_kmers(*device, config, received.d_words,
                              received.items, table, metrics);
      return;
    }
  }
  const ReceivedBin<Key> received =
      exchange_bin<Key>(comm, /*device=*/nullptr, config, reloaded, metrics);
  detail::count_cpu(received.words, table, metrics);
}

}  // namespace

namespace detail {

template <typename KeyTraits>
void count_out_of_core(CountEngine<KeyTraits>& engine, BatchSource& source) {
  const DriverOptions& options = engine.options();
  const PipelineConfig& config = options.pipeline;
  CountResult& result = engine.result();
  const std::size_t nranks = engine.nranks();
  const auto parts = static_cast<std::uint32_t>(options.nranks);
  const auto bins = static_cast<std::uint32_t>(options.ooc.bins);
  const io::SpillKind kind = spill_kind_of<KeyTraits>(config);
  const io::DiskModel& disk = options.ooc.disk;
  const bool need_assignment =
      config.kind == PipelineKind::kGpuSupermer &&
      config.partition != PartitionScheme::kMinimizerHash;

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
  // batch and reused for the whole job, as in the in-memory driver.
  std::vector<std::optional<MinimizerAssignment>> assignments(nranks);

  // --- pass 1: stream batches, parse, spill ---
  engine.run_batches(
      source, "rank_spill_pass",
      [&](mpisim::Comm& comm, io::ReadView mine,
          const BatchInfo& batch) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        RankMetrics metrics;
        metrics.reads = mine.size();
        metrics.bases = mine.total_bases();

        if (need_assignment && batch.index == 0) {
          PhaseScope phase(metrics, kPhaseParse);
          SampledAssignment sample = sample_assignment(comm, mine, config);
          assignments[rank].emplace(std::move(sample.assignment));
          phase.set_charge(sample.modeled_seconds,
                           sample.modeled_volume_seconds);
        }

        BinBuckets buckets(bins, parts, io::spill_has_lens(kind));
        parse_into_bins<KeyTraits>(
            mine, config, parts, bins,
            assignments[rank] ? &*assignments[rank] : nullptr, buckets,
            metrics);
        metrics.peak_resident_bytes =
            io::resident_read_bytes(mine) + buckets.resident_bytes();
        spill_buckets(buckets, writers[rank], kind, disk, metrics);
        return metrics;
      },
      [](mpisim::Comm&, const BatchInfo&) {});

  // Flush before pass 2 opens the files for reading; surfaces write errors
  // as exceptions here rather than as ParseError truncations later.
  for (auto& row : writers) {
    for (auto& writer : row) writer->close();
  }

  // --- pass 2: replay each bin through exchange + count ---
  std::vector<BasicHostHashTable<KeyTraits>> tables(nranks);
  engine.run("rank_replay_pass", [&](mpisim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    RankMetrics& total = result.ranks[rank];
    BasicHostHashTable<KeyTraits>& table = tables[rank];

    std::optional<gpusim::Device> device;
    if (config.kind != PipelineKind::kCpu) device.emplace(options.device);

    for (std::uint32_t bin = 0; bin < bins; ++bin) {
      // Fresh per-bin ledger: commit_exchange ASSIGNS byte counts and
      // alltoallv times, so they must not overwrite earlier bins' values.
      RankMetrics bm;
      ReloadedBin reloaded = reload_bin(
          spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
          kind, config.k, parts, disk, bm);
      count_bin(comm, device ? &*device : nullptr, config, reloaded, table,
                bm);
      bm.peak_resident_bytes =
          reloaded.bytes + bm.bytes_sent + bm.bytes_received;
      accumulate_round(total, bm);
    }

    total.unique_kmers = table.unique();
    total.counted_kmers = table.total();
    trace::counter("spill_bytes_written", total.spill_bytes_written);
    trace::counter("spill_bytes_read", total.spill_bytes_read);
    trace::counter("peak_resident_bytes", total.peak_resident_bytes);

    if (options.collect_counts) engine.gather(comm, table);
  });
}

template void count_out_of_core(CountEngine<NarrowKeyTraits>&,
                                BatchSource&);
template void count_out_of_core(CountEngine<WideKeyTraits>&, BatchSource&);

}  // namespace detail

}  // namespace dedukt::core
