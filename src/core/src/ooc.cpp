// Out-of-core two-pass counting (--ooc-spill) on the count engine; see
// docs/out-of-core.md for the design rationale.
//
// Pass 1 runs on the engine's batch loop: each rank runs its pipeline's
// own parse phase on its share of every batch (count_stages.hpp: the CPU
// parse, or the GPU k-mer or supermer launches on a per-batch device,
// §VII routing setup included), so it prices exactly what an in-memory
// round's parse phase prices. The spill phase then appends each
// destination's run — exactly what the pipeline puts on the wire — to the
// rank's spill-bin files, one run per bin that holds any of its items, in
// walk order. The payload's D2H to the host, where the files are written,
// is not priced. The bin is a pure function of the k-mer key or of the
// supermer's minimizer (its first k-mer's, recomputed from its bases), so
// pass 2 can process bins independently. Pass 2 replays one bin at a
// time: it reloads the bin as the items the pipeline sends, then runs the
// pipeline's own exchange and count phases (count_stages.hpp) against the
// persistent per-rank table, which bounds the exchange working set by
// 1/bins of the dataset.
//
// Spectra, global counts and (for hash routing) per-rank tallies are
// bit-identical to the in-memory path: every occurrence of a key follows
// the same destination function, only grouped differently in time. Disk
// traffic is priced by io::DiskModel into the two out-of-core-only phases
// (kPhaseSpill / kPhaseReload).
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "count_stages.hpp"
#include "dedukt/core/partitioner.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/hash/murmur3.hpp"
#include "dedukt/io/disk_model.hpp"
#include "dedukt/io/spill.hpp"
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

/// Wire items (keys or supermer words) as the packed 64-bit words the bin
/// files hold: one or two per item.
template <typename Word>
const std::uint64_t* as_words(const Word* items) {
  static_assert(sizeof(Word) % sizeof(std::uint64_t) == 0);
  return reinterpret_cast<const std::uint64_t*>(items);
}

/// The minimizer a packed supermer's k-mers share: its first k-mer's.
template <typename Word>
kmer::KmerCode supermer_minimizer(const Word& word, std::uint8_t len, int k,
                                  const kmer::MinimizerPolicy& policy) {
  if constexpr (std::is_same_v<Word, kmer::WideKey>) {
    return kmer::minimizer_of(kmer::wide_sub(kmer::from_key(word), len, 0, k),
                              k, policy);
  } else {
    return kmer::minimizer_of(kmer::sub_code(word, len, 0, k), k, policy);
  }
}

/// The spill phase of one pass-1 batch: append each destination's run of
/// `words` (and of `lens`, supermers only; empty for keys) to `writers`,
/// one run per bin that holds any of its items, each in walk order; the
/// bin of an item is bin_of(word, len). A run is regrouped by bin (a
/// stable counting sort into scratch that the next run reuses) and freed
/// once it is spilled. Returns the payload bytes the runs held.
template <typename Word, typename BinOf>
std::uint64_t spill_runs(
    std::vector<std::vector<Word>>& words,
    std::vector<std::vector<std::uint8_t>>& lens, BinOf&& bin_of,
    std::vector<std::unique_ptr<io::SpillBinWriter>>& writers,
    RankMetrics& metrics) {
  PhaseScope phase(metrics, kPhaseSpill);
  const bool has_lens = !lens.empty();
  const std::size_t bins = writers.size();
  const auto ledger = [&writers] {
    std::pair<std::uint64_t, std::uint64_t> bytes_runs;
    for (const auto& writer : writers) {
      bytes_runs.first += writer->bytes_written();
      bytes_runs.second += writer->runs();
    }
    return bytes_runs;
  };
  const auto [bytes_before, runs_before] = ledger();

  std::uint64_t payload = 0;
  std::vector<std::uint32_t> item_bins;
  std::vector<std::uint64_t> starts(bins + 1);
  std::vector<Word> by_bin;
  std::vector<std::uint8_t> lens_by_bin;
  for (std::size_t dest = 0; dest < words.size(); ++dest) {
    const std::vector<Word>& run = words[dest];
    const std::size_t n = run.size();
    item_bins.resize(n);
    std::fill(starts.begin(), starts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      item_bins[i] = bin_of(run[i], has_lens ? lens[dest][i] : 0);
      ++starts[item_bins[i] + 1];
    }
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    std::vector<std::uint64_t> next(starts.begin(), starts.end() - 1);
    by_bin.resize(n);
    if (has_lens) lens_by_bin.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t slot = next[item_bins[i]]++;
      by_bin[slot] = run[i];
      if (has_lens) lens_by_bin[slot] = lens[dest][i];
    }
    for (std::size_t bin = 0; bin < bins; ++bin) {
      const std::uint64_t count = starts[bin + 1] - starts[bin];
      if (count == 0) continue;
      writers[bin]->append_run(
          static_cast<std::uint32_t>(dest), as_words(&by_bin[starts[bin]]),
          count, has_lens ? &lens_by_bin[starts[bin]] : nullptr);
    }
    payload += n * (sizeof(Word) + (has_lens ? 1 : 0));
    std::vector<Word>().swap(words[dest]);
    if (has_lens) std::vector<std::uint8_t>().swap(lens[dest]);
  }

  const auto [bytes_after, runs_after] = ledger();
  metrics.spill_bytes_written = bytes_after - bytes_before;
  const io::DiskModel disk = io::DiskModel::summit_nvme();
  phase.set_charge(disk.write_seconds(bytes_after - bytes_before,
                                      runs_after - runs_before),
                   disk.write_volume_seconds(bytes_after - bytes_before));
  return payload;
}

/// Pass 1 for one rank's share of a batch: the pipeline's own parse phase
/// (the GPU kinds' on a device of the batch's own, as an in-memory round
/// builds one), then the spill phase of its runs. Returns the payload
/// bytes the runs held.
template <typename KeyTraits>
std::uint64_t parse_and_spill(
    mpisim::Comm& comm, io::ReadView mine, const DriverOptions& options,
    std::optional<MinimizerAssignment>& assignment,
    std::vector<std::unique_ptr<io::SpillBinWriter>>& writers,
    RankMetrics& metrics) {
  const PipelineConfig& config = options.pipeline;
  const auto parts = static_cast<std::uint32_t>(comm.size());
  const auto bins = static_cast<std::uint32_t>(writers.size());
  const auto key_bin = [bins](const typename KeyTraits::Key& key,
                              std::uint8_t) {
    return spill_bin_of<KeyTraits>(key, bins);
  };
  std::vector<std::vector<std::uint8_t>> no_lens;
  if constexpr (std::is_same_v<KeyTraits, NarrowKeyTraits>) {
    if (config.kind != PipelineKind::kCpu) {
      gpusim::Device device(options.device);
      if (config.kind == PipelineKind::kGpuKmer) {
        detail::ParsedKmers parsed =
            detail::parse_gpu_kmers(device, mine, config, parts, metrics);
        return spill_runs(parsed.runs, no_lens, key_bin, writers, metrics);
      }
      const detail::SupermerRouting routing = detail::route_supermers(
          comm, device, mine, config, assignment, metrics);
      const kmer::MinimizerPolicy policy = config.supermer_config().policy();
      const auto spill_supermers = [&]<typename Word>(Word) {
        detail::ParsedSupermers<Word> parsed =
            detail::parse_gpu_supermers<Word>(device, mine, config, parts,
                                              routing.table, metrics);
        return spill_runs(
            parsed.runs.words, parsed.runs.lens,
            [&](const Word& word, std::uint8_t len) {
              return spill_bin_of<NarrowKeyTraits>(
                  supermer_minimizer(word, len, config.k, policy), bins);
            },
            writers, metrics);
      };
      return config.wide_supermers ? spill_supermers(kmer::WideKey{})
                                   : spill_supermers(std::uint64_t{});
    }
  }
  auto outgoing = detail::parse_cpu<KeyTraits>(mine, config, parts, metrics);
  return spill_runs(outgoing, no_lens, key_bin, writers, metrics);
}

/// Pass 2's reload phase of one bin: every run the rank spilled to it,
/// replayed into per-destination runs of the items the pipeline sends
/// and, for supermers, their lengths.
template <typename Item>
detail::Outgoing<Item> reload_bin(const std::string& path, io::SpillKind kind,
                                  int k, std::uint32_t parts,
                                  RankMetrics& metrics) {
  static_assert(sizeof(Item) % sizeof(std::uint64_t) == 0);
  detail::Outgoing<Item> reloaded;
  reloaded.items.resize(parts);
  if (io::spill_has_lens(kind)) reloaded.second.resize(parts);
  PhaseScope phase(metrics, kPhaseReload);
  io::SpillBinReader reader(path, kind, k, parts);
  io::SpillRun run;
  while (reader.next(run)) {
    DEDUKT_CHECK(run.words.size() * sizeof(std::uint64_t) ==
                 run.count * sizeof(Item));
    std::vector<Item>& items = reloaded.items[run.dest];
    if constexpr (std::is_same_v<Item, std::uint64_t>) {
      items.insert(items.end(), run.words.begin(), run.words.end());
    } else if (run.count > 0) {
      // An empty run has no storage, and memcpy from its null data() is
      // undefined behaviour even for 0 bytes.
      const std::size_t at = items.size();
      items.resize(at + run.count);
      std::memcpy(static_cast<void*>(items.data() + at), run.words.data(),
                  run.count * sizeof(Item));
    }
    if (!reloaded.second.empty()) {
      std::vector<std::uint8_t>& lens = reloaded.second[run.dest];
      lens.insert(lens.end(), run.lens.begin(), run.lens.end());
    }
  }
  metrics.spill_bytes_read = reader.bytes_read();
  // One op per run plus the header read.
  const io::DiskModel disk = io::DiskModel::summit_nvme();
  phase.set_charge(disk.read_seconds(reader.bytes_read(), reader.runs() + 1),
                   disk.read_volume_seconds(reader.bytes_read()));
  return reloaded;
}

/// Pass 2 for one bin: reload it, then run the pipeline's own exchange and
/// count phases against the rank's persistent table.
template <typename KeyTraits>
void replay_bin(mpisim::Comm& comm, gpusim::Device* device,
                const PipelineConfig& config, const std::string& path,
                io::SpillKind kind, BasicHostHashTable<KeyTraits>& table,
                RankMetrics& metrics) {
  using Key = typename KeyTraits::Key;
  // The bin's reload and exchange phases, its items sent as Item.
  const auto exchange = [&]<typename Item>(Item) {
    return detail::exchange_phase(
        comm, device, config,
        reload_bin<Item>(path, kind, config.k,
                         static_cast<std::uint32_t>(comm.size()), metrics),
        metrics);
  };
  if constexpr (std::is_same_v<KeyTraits, NarrowKeyTraits>) {
    if (config.kind == PipelineKind::kGpuSupermer) {
      if (config.wide_supermers) {
        detail::Received<kmer::WideKey> received = exchange(kmer::WideKey{});
        detail::count_gpu_supermers(*device, config, received, table,
                                    metrics);
      } else {
        detail::Received<std::uint64_t> received = exchange(std::uint64_t{});
        detail::count_gpu_supermers(*device, config, received, table,
                                    metrics);
      }
      return;
    }
    if (config.kind == PipelineKind::kGpuKmer) {
      detail::Received<Key> received = exchange(Key{});
      detail::count_gpu_kmers(*device, config, received, table, metrics);
      return;
    }
  }
  detail::count_cpu(exchange(Key{}), table, metrics);
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
      [&](mpisim::Comm& comm, io::ReadView mine, const BatchInfo&) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        RankMetrics metrics;
        metrics.reads = mine.size();
        metrics.bases = mine.total_bases();
        const std::uint64_t payload = parse_and_spill<KeyTraits>(
            comm, mine, options, assignments[rank], writers[rank], metrics);
        metrics.peak_resident_bytes = io::resident_read_bytes(mine) + payload;
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
      // Fresh per-bin ledger: the exchange phase ASSIGNS byte counts and
      // alltoallv times, so they must not overwrite earlier bins' values.
      RankMetrics bm;
      replay_bin(comm, device ? &*device : nullptr, config,
                 spill.bin_path(static_cast<int>(rank), static_cast<int>(bin)),
                 kind, table, bm);
      bm.peak_resident_bytes =
          bm.spill_bytes_read + bm.bytes_sent + bm.bytes_received;
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
