// The parse-stage launches. Each runs once on the host (Device::launch_host)
// and prices the per-thread kernel over the staged base array in closed
// form, from the caller's Staging. The two count launches walk the rank's
// reads in place, fragment by fragment, with the kmer library's walkers:
// kmer::for_each_kmer for the k-mer launch, the supermer builders (one
// block sliding minimum per fragment) for the supermer launch. They write
// the same counters, in the same order, as that kernel in the canonical
// block order, and keep what they route as the per-destination runs the
// fill launches would place, so the fill launches walk nothing.
#include "dedukt/core/kernels.hpp"

#include <algorithm>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dedukt/core/partitioner.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core::kernels {

namespace {

/// Visit the fragments the staged base array lays out, in read order:
/// every ACGT fragment of `reads` with at least k bases.
template <typename Fn>
void for_each_staged_fragment(io::ReadView reads, int k, Fn&& fn) {
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      if (fragment.size() >= static_cast<std::size_t>(k)) fn(fragment);
    }
  }
}

/// The k-mers of a staged fragment.
std::uint64_t kmers_of(std::string_view fragment, int k) {
  return fragment.size() - static_cast<std::size_t>(k) + 1;
}

/// Check that a launch walked the k-mers its staging holds.
void expect_staged(const Staging& staging, std::uint64_t walked) {
  DEDUKT_REQUIRE_MSG(walked == staging.kmers,
                     "staging of " << staging.kmers
                                   << " k-mers does not match the reads' "
                                   << walked);
}

/// The capacity a full run of `size` items grows to, once its launch has
/// walked `walked` of the staging's `kmers` k-mers: its projected final
/// size (the run scaled by kmers / walked), plus an eighth. A few
/// reallocations per run, instead of one per doubling, leave the heap far
/// less fragmented.
std::size_t projected_capacity(std::size_t size, std::uint64_t kmers,
                               std::uint64_t walked) {
  return static_cast<std::size_t>(
      static_cast<double>(size) *
          static_cast<double>(std::max(kmers, walked)) /
          static_cast<double>(walked) * 1.125 +
      64);
}

/// Run the k-mer launch `name` over the one-thread-per-staged-base grid
/// (Fig. 2), whose threads emit the k-mers of the staged fragments: the
/// positions whose k staged bytes hold no separator. `body()` runs first.
/// Every thread loads k bytes; each k-mer is packed and hashed (2k + 8
/// ops), claims its destination with one atomic and writes `bytes_out`.
template <typename Body>
gpusim::LaunchStats kmer_launch(const char* name, gpusim::Device& device,
                                const Staging& staging, int k,
                                std::uint64_t bytes_out, Body&& body) {
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  const auto shape = device.shape_for(staging.bases);
  return device.launch_host(name, shape.grid_dim, shape.block_dim,
                            [&](gpusim::KernelCharges& charges) {
    body();
    const auto kk = static_cast<std::uint64_t>(k);
    charges.count_gmem_read(staging.bases * kk);
    charges.count_ops(staging.kmers * (2 * kk + 8));
    charges.count_atomic(staging.kmers);
    charges.count_gmem_write(staging.kmers * bytes_out);
  });
}

/// Run the supermer launch `name` over the one-thread-per-window grid of
/// Algorithm 2, routing `supermers` supermers. `body()` runs first and
/// returns that count. Per window the thread loads its window entry
/// and k bytes and packs them (2k ops), every later k-mer loads 1 byte,
/// every k-mer scans its k − m + 1 m-mers (3 ops each), and every supermer
/// routes (4 ops; 6 ops and a 4 B read with the §VII table), claims its
/// destination with one atomic and writes `bytes_out`.
template <typename Body>
gpusim::LaunchStats supermer_launch(const char* name, gpusim::Device& device,
                                    const Staging& staging,
                                    const kmer::SupermerConfig& config,
                                    bool table_routed,
                                    std::uint64_t bytes_out, Body&& body) {
  config.validate();
  const auto shape = device.shape_for(staging.windows);
  return device.launch_host(name, shape.grid_dim, shape.block_dim,
                            [&](gpusim::KernelCharges& charges) {
    const std::uint64_t supermers = body();
    const auto k = static_cast<std::uint64_t>(config.k);
    const auto span = static_cast<std::uint64_t>(config.k - config.m + 1);
    const std::uint64_t w = staging.windows;
    charges.count_gmem_read(w * (kWindowBytes + k) + (staging.kmers - w));
    charges.count_ops(2 * k * w + 3 * span * staging.kmers);
    if (table_routed) {
      charges.count_gmem_read(sizeof(std::uint32_t) * supermers);
    }
    charges.count_ops((table_routed ? 6 : 4) * supermers);
    charges.count_atomic(supermers);
    charges.count_gmem_write(supermers * bytes_out);
  });
}

}  // namespace

Staging staging_of(io::ReadView reads, int k, int window) {
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  Staging staging;
  staging.bases = static_cast<std::uint64_t>(k);  // the pad
  for_each_staged_fragment(reads, k, [&](std::string_view fragment) {
    const std::uint64_t kmers = kmers_of(fragment, k);
    staging.bases += fragment.size() + 1;
    staging.kmers += kmers;
    if (window >= 1) {
      staging.windows += (kmers + static_cast<std::uint64_t>(window) - 1) /
                         static_cast<std::uint64_t>(window);
    }
  });
  return staging;
}

gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, io::ReadView reads, const Staging& staging,
    int k, io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts, KmerRuns& runs) {
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  return kmer_launch("parse_count_kmers", device, staging, k, 0, [&] {
    runs.assign(parts, {});
    // One destination's run holds every k-mer.
    if (parts == 1) runs[0].reserve(staging.kmers);
    std::uint64_t walked = 0;
    for_each_staged_fragment(reads, k, [&](std::string_view fragment) {
      walked += kmers_of(fragment, k);
      kmer::for_each_kmer(fragment, k, enc, [&](kmer::KmerCode code) {
        std::vector<std::uint64_t>& run =
            runs[kmer::kmer_partition(code, parts)];
        if (run.size() == run.capacity()) {
          run.reserve(projected_capacity(run.size(), staging.kmers, walked));
        }
        run.push_back(code);
      });
    });
    expect_staged(staging, walked);
    for (std::uint32_t dest = 0; dest < parts; ++dest) {
      dest_counts[dest] = static_cast<std::uint32_t>(runs[dest].size());
    }
  });
}

gpusim::LaunchStats parse_fill_kmers(gpusim::Device& device,
                                     const Staging& staging, int k) {
  return kmer_launch("parse_fill_kmers", device, staging, k,
                     sizeof(std::uint64_t), [] {});
}

template <typename Word>
gpusim::LaunchStats supermer_count(
    gpusim::Device& device, io::ReadView reads, const Staging& staging,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts,
    SupermerRuns<Word>& runs, const MinimizerAssignment* assignment) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  DEDUKT_REQUIRE(!kWide || config.wide);
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  return supermer_launch(
      kWide ? "supermer_count_wide" : "supermer_count", device, staging,
      config, assignment != nullptr, 0, [&] {
    runs.words.assign(parts, {});
    runs.lens.assign(parts, {});
    std::conditional_t<kWide, std::vector<kmer::DestinedWideSupermer>,
                       std::vector<kmer::DestinedSupermer>>
        smers;
    std::uint64_t kmers = 0;
    for_each_staged_fragment(reads, config.k, [&](std::string_view fragment) {
      smers.clear();
      if constexpr (kWide) {
        kmer::build_wide_supermers(fragment, config, parts, smers);
      } else {
        kmer::build_supermers(fragment, config, parts, smers);
      }
      kmers += kmers_of(fragment, config.k);
      for (const auto& ds : smers) {
        const std::uint32_t dest = assignment != nullptr
                                       ? assignment->rank_of(ds.minimizer)
                                       : ds.dest;
        DEDUKT_CHECK_MSG(dest < parts, "supermer routed to partition "
                                           << dest << " of " << parts);
        std::vector<Word>& words = runs.words[dest];
        if (words.size() == words.capacity()) {
          const std::size_t projected =
              projected_capacity(words.size(), staging.kmers, kmers);
          words.reserve(projected);
          runs.lens[dest].reserve(projected);
        }
        words.push_back(ds.smer.bases);
        runs.lens[dest].push_back(ds.smer.len);
      }
    });
    expect_staged(staging, kmers);
    std::uint64_t supermers = 0;
    for (std::uint32_t dest = 0; dest < parts; ++dest) {
      dest_counts[dest] = static_cast<std::uint32_t>(runs.lens[dest].size());
      supermers += runs.lens[dest].size();
    }
    return supermers;
  });
}

template <typename Word>
gpusim::LaunchStats supermer_fill(gpusim::Device& device,
                                  const Staging& staging,
                                  const kmer::SupermerConfig& config,
                                  std::uint64_t supermers,
                                  const MinimizerAssignment* assignment) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  DEDUKT_REQUIRE(!kWide || config.wide);
  return supermer_launch(kWide ? "supermer_fill_wide" : "supermer_fill",
                         device, staging, config, assignment != nullptr,
                         sizeof(Word) + sizeof(std::uint8_t),
                         [&] { return supermers; });
}

template gpusim::LaunchStats supermer_count<std::uint64_t>(
    gpusim::Device&, io::ReadView, const Staging&,
    const kmer::SupermerConfig&, std::uint32_t,
    gpusim::DeviceBuffer<std::uint32_t>&, SupermerRuns<std::uint64_t>&,
    const MinimizerAssignment*);
template gpusim::LaunchStats supermer_count<kmer::WideKey>(
    gpusim::Device&, io::ReadView, const Staging&,
    const kmer::SupermerConfig&, std::uint32_t,
    gpusim::DeviceBuffer<std::uint32_t>&, SupermerRuns<kmer::WideKey>&,
    const MinimizerAssignment*);
template gpusim::LaunchStats supermer_fill<std::uint64_t>(
    gpusim::Device&, const Staging&, const kmer::SupermerConfig&,
    std::uint64_t, const MinimizerAssignment*);
template gpusim::LaunchStats supermer_fill<kmer::WideKey>(
    gpusim::Device&, const Staging&, const kmer::SupermerConfig&,
    std::uint64_t, const MinimizerAssignment*);

}  // namespace dedukt::core::kernels
