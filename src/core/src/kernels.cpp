// The parse-stage launches. Each runs once on the host (Device::launch_host)
// and walks the rank's reads in place, fragment by fragment, with the kmer
// library's walkers: kmer::for_each_kmer for the k-mer launches, the
// sliding-minimizer builders for the supermer launches. It writes the same
// buffers, in the same order, as the per-thread kernel over the staged
// base array in the canonical block order, and charges that kernel's
// traffic in closed form.
#include "dedukt/core/kernels.hpp"

#include <string_view>
#include <type_traits>
#include <vector>

#include "dedukt/core/partitioner.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core::kernels {

namespace {

/// The fragments the staged base array lays out, in read order: every
/// ACGT fragment of `reads` with at least k bases.
std::vector<std::string_view> staged_fragments(io::ReadView reads,
                                               int k) {
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  std::vector<std::string_view> fragments;
  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      if (fragment.size() >= static_cast<std::size_t>(k)) {
        fragments.push_back(fragment);
      }
    }
  }
  return fragments;
}

/// The staging of `fragments`, windowed when `window` >= 1.
Staging stage(const std::vector<std::string_view>& fragments, int k,
              int window) {
  Staging staging;
  staging.bases = static_cast<std::uint64_t>(k);  // the pad
  for (std::string_view fragment : fragments) {
    const std::uint64_t kmers =
        fragment.size() - static_cast<std::size_t>(k) + 1;
    staging.bases += fragment.size() + 1;
    staging.kmers += kmers;
    if (window >= 1) {
      staging.windows += (kmers + static_cast<std::uint64_t>(window) - 1) /
                         static_cast<std::uint64_t>(window);
    }
  }
  return staging;
}

/// Run the k-mer launch `name` over the one-thread-per-staged-base grid
/// (Fig. 2). It visits the k-mers of the staged fragments in order, which
/// are exactly the k-mers of the positions whose k staged bytes hold no
/// separator, as fn(code, dest). Every thread loads k bytes; each k-mer is
/// packed and hashed (2k + 8 ops), claims its destination with one atomic
/// and writes `bytes_out`.
template <typename Fn>
gpusim::LaunchStats kmer_launch(const char* name, gpusim::Device& device,
                                io::ReadView reads, int k,
                                io::BaseEncoding enc, std::uint32_t parts,
                                std::uint64_t bytes_out, Fn&& fn) {
  const std::vector<std::string_view> fragments = staged_fragments(reads, k);
  const Staging staging = stage(fragments, k, 0);
  const auto shape = device.shape_for(staging.bases);
  return device.launch_host(name, shape.grid_dim, shape.block_dim,
                            [&](gpusim::KernelCharges& charges) {
    for (std::string_view fragment : fragments) {
      kmer::for_each_kmer(fragment, k, enc, [&](kmer::KmerCode code) {
        fn(code, kmer::kmer_partition(code, parts));
      });
    }
    const auto kk = static_cast<std::uint64_t>(k);
    charges.count_gmem_read(staging.bases * kk);
    charges.count_ops(staging.kmers * (2 * kk + 8));
    charges.count_atomic(staging.kmers);
    charges.count_gmem_write(staging.kmers * bytes_out);
  });
}

/// Run the supermer launch `name` over the one-thread-per-window grid of
/// Algorithm 2. Each staged fragment is one builder walk; it visits every
/// supermer in window order as fn(smer, dest), routed by the §VII
/// frequency-balanced table when `assignment` is given and by the
/// minimizer hash otherwise. Per window the thread loads its window entry
/// and k bytes and packs them (2k ops), every later k-mer loads 1 byte,
/// every k-mer scans its k − m + 1 m-mers (3 ops each), and every supermer
/// routes (4 ops; 6 ops and a 4 B read with the table), claims its
/// destination with one atomic and writes `bytes_out`.
template <typename Word, typename Fn>
gpusim::LaunchStats supermer_launch(const char* name, gpusim::Device& device,
                                    io::ReadView reads,
                                    const kmer::SupermerConfig& config,
                                    std::uint32_t parts,
                                    const MinimizerAssignment* assignment,
                                    std::uint64_t bytes_out, Fn&& fn) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  config.validate();
  DEDUKT_REQUIRE(!kWide || config.wide);
  const std::vector<std::string_view> fragments =
      staged_fragments(reads, config.k);
  const Staging staging = stage(fragments, config.k, config.window);
  const auto shape = device.shape_for(staging.windows);
  return device.launch_host(name, shape.grid_dim, shape.block_dim,
                            [&](gpusim::KernelCharges& charges) {
    std::conditional_t<kWide, std::vector<kmer::DestinedWideSupermer>,
                       std::vector<kmer::DestinedSupermer>>
        smers;
    std::uint64_t supermers = 0;
    for (std::string_view fragment : fragments) {
      smers.clear();
      if constexpr (kWide) {
        kmer::build_wide_supermers(fragment, config, parts, smers);
      } else {
        kmer::build_supermers(fragment, config, parts, smers);
      }
      for (const auto& ds : smers) {
        fn(ds.smer, assignment != nullptr ? assignment->rank_of(ds.minimizer)
                                          : ds.dest);
      }
      supermers += smers.size();
    }
    const auto k = static_cast<std::uint64_t>(config.k);
    const auto span = static_cast<std::uint64_t>(config.k - config.m + 1);
    const std::uint64_t w = staging.windows;
    charges.count_gmem_read(w * (kWindowBytes + k) + (staging.kmers - w));
    charges.count_ops(2 * k * w + 3 * span * staging.kmers);
    if (assignment != nullptr) {
      charges.count_gmem_read(sizeof(std::uint32_t) * supermers);
    }
    charges.count_ops((assignment != nullptr ? 6 : 4) * supermers);
    charges.count_atomic(supermers);
    charges.count_gmem_write(supermers * bytes_out);
  });
}

}  // namespace

Staging staging_of(io::ReadView reads, int k, int window) {
  return stage(staged_fragments(reads, k), k, window);
}

gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, io::ReadView reads, int k,
    io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts) {
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  return kmer_launch(
      "parse_count_kmers", device, reads, k, enc, parts, 0,
      [&](kmer::KmerCode, std::uint32_t dest) { ++dest_counts[dest]; });
}

gpusim::LaunchStats parse_fill_kmers(
    gpusim::Device& device, io::ReadView reads, int k,
    io::BaseEncoding enc, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<std::uint64_t>& out_kmers) {
  DEDUKT_REQUIRE(offsets.size() >= parts);
  DEDUKT_REQUIRE(cursors.size() >= parts);
  return kmer_launch("parse_fill_kmers", device, reads, k, enc, parts,
                     sizeof(std::uint64_t),
                     [&](kmer::KmerCode code, std::uint32_t dest) {
    const std::uint64_t slot = offsets[dest] + cursors[dest]++;
    DEDUKT_CHECK_MSG(slot < out_kmers.size(), "outgoing buffer overflow");
    out_kmers[slot] = code;
  });
}

template <typename Word>
gpusim::LaunchStats supermer_count(
    gpusim::Device& device, io::ReadView reads,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts,
    const MinimizerAssignment* assignment) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  return supermer_launch<Word>(
      kWide ? "supermer_count_wide" : "supermer_count", device, reads,
      config, parts, assignment, 0,
      [&](const auto&, std::uint32_t dest) { ++dest_counts[dest]; });
}

template <typename Word>
gpusim::LaunchStats supermer_fill(
    gpusim::Device& device, io::ReadView reads,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<Word>& out_words,
    gpusim::DeviceBuffer<std::uint8_t>& out_lens,
    const MinimizerAssignment* assignment) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  DEDUKT_REQUIRE(offsets.size() >= parts);
  DEDUKT_REQUIRE(cursors.size() >= parts);
  DEDUKT_REQUIRE(out_words.size() == out_lens.size());
  return supermer_launch<Word>(
      kWide ? "supermer_fill_wide" : "supermer_fill", device, reads, config,
      parts, assignment, sizeof(Word) + sizeof(std::uint8_t),
      [&](const auto& smer, std::uint32_t dest) {
        const std::uint64_t slot = offsets[dest] + cursors[dest]++;
        DEDUKT_CHECK_MSG(slot < out_words.size(),
                         "supermer outgoing buffer overflow");
        out_words[slot] = smer.bases;
        out_lens[slot] = smer.len;
      });
}

template gpusim::LaunchStats supermer_count<std::uint64_t>(
    gpusim::Device&, io::ReadView, const kmer::SupermerConfig&,
    std::uint32_t, gpusim::DeviceBuffer<std::uint32_t>&,
    const MinimizerAssignment*);
template gpusim::LaunchStats supermer_count<kmer::WideKey>(
    gpusim::Device&, io::ReadView, const kmer::SupermerConfig&,
    std::uint32_t, gpusim::DeviceBuffer<std::uint32_t>&,
    const MinimizerAssignment*);
template gpusim::LaunchStats supermer_fill<std::uint64_t>(
    gpusim::Device&, io::ReadView, const kmer::SupermerConfig&,
    std::uint32_t, const gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint32_t>&, gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint8_t>&, const MinimizerAssignment*);
template gpusim::LaunchStats supermer_fill<kmer::WideKey>(
    gpusim::Device&, io::ReadView, const kmer::SupermerConfig&,
    std::uint32_t, const gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint32_t>&, gpusim::DeviceBuffer<kmer::WideKey>&,
    gpusim::DeviceBuffer<std::uint8_t>&, const MinimizerAssignment*);

}  // namespace dedukt::core::kernels
