// GPU kernels of the parse & process stage (§III-B1 and §IV-B).
//
// Data layout mirrors the paper: reads are concatenated into one long base
// array with special separator bases marking read (fragment) ends, copied
// to the device once per round. Two kernel families operate on it:
//
//  * k-mer kernels — one thread per base position; a thread emits the
//    k-mer starting at its position if the window does not cross a
//    separator (Fig. 2). Destinations come from MurmurHash3 on the packed
//    k-mer. Outgoing buffers are per-destination; population is two-phase
//    (count, then fill through per-destination atomic cursors), the
//    standard formulation of the paper's "atomically update the outgoing
//    buffer".
//
//  * supermer kernels — one thread per window of `window` k-mer starts
//    (Fig. 5); the thread grows supermers in private registers and flushes
//    one packed 64-bit word + length byte per supermer (Algorithm 2).
//    Destinations come from the minimizer hash.
//
// Each launch is priced as that grid but evaluated once on the host
// (Device::launch_host) with the kmer library's walkers, its charges in
// closed form (docs/performance-model.md, "GPU kernels").
#pragma once

#include <cstdint>
#include <vector>

#include "dedukt/core/config.hpp"
#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/kmer/supermer.hpp"

namespace dedukt::core::kernels {

/// Separator byte between fragments in the concatenated base array; never a
/// valid base, so any k-mer window containing it is rejected by the encode
/// table.
inline constexpr char kSeparator = '\xFF';

/// Host-side staging of a rank's reads: concatenated ACGT fragments with
/// separators, ready for one H2D copy.
struct EncodedReads {
  std::vector<char> bases;  ///< fragments + separators (+ trailing pad)
  /// (offset into `bases`, fragment length) for each ACGT fragment that is
  /// long enough to yield at least one k-mer.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> fragments;
  std::uint64_t total_kmers = 0;

  /// Build from a read batch for a given k (shorter fragments dropped).
  [[nodiscard]] static EncodedReads build(const io::ReadBatch& reads, int k);
};

/// One supermer-kernel work item: a window of k-mer starts inside one
/// fragment (§IV-B: "we partition reads into smaller windows and assign one
/// thread to process all the k-mers in that window").
struct Window {
  std::uint64_t frag_offset;  ///< fragment start in the base array
  std::uint32_t frag_len;     ///< fragment length in bases
  std::uint32_t kmer_start;   ///< first k-mer index of this window
  std::uint32_t kmer_count;   ///< number of k-mer starts in this window
};

/// Enumerate all windows of an EncodedReads staging area.
[[nodiscard]] std::vector<Window> build_windows(const EncodedReads& reads,
                                                int k, int window);

// --- k-mer kernels (§III-B1) ---

/// Pass 1: count the k-mers destined to each partition.
/// `dest_counts` must hold `parts` zeroed counters.
gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts);

/// Pass 2: write each k-mer into its partition's slice of `out_kmers`.
/// `offsets` holds the exclusive prefix sums of the pass-1 counts;
/// `cursors` must hold `parts` zeroed atomics.
gpusim::LaunchStats parse_fill_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<std::uint64_t>& out_kmers);

// --- supermer kernels (§IV-B, Algorithm 2) ---

/// Optional device-resident minimizer-bucket routing table (the §VII
/// frequency-balanced extension). With a null pointer the kernels fall
/// back to the paper's hash routing.
struct DestinationTable {
  const std::uint32_t* bucket_to_rank = nullptr;
  std::uint32_t nbuckets = 0;

  [[nodiscard]] bool enabled() const { return bucket_to_rank != nullptr; }
};

/// Pass 1: count the supermers destined to each partition. `Word` is the
/// supermer packing: std::uint64_t for the paper's single-word regime, or
/// kmer::WideKey for the two-word extension (config.wide: 63-base
/// supermers in thread-private 128-bit registers). `windows` must tile
/// each fragment at config.window, as build_windows lays them out.
template <typename Word = std::uint64_t>
gpusim::LaunchStats supermer_count(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts,
    DestinationTable routing = {});

/// Pass 2: emit packed supermer words and length bytes per partition.
template <typename Word>
gpusim::LaunchStats supermer_fill(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<Word>& out_words,
    gpusim::DeviceBuffer<std::uint8_t>& out_lens,
    DestinationTable routing = {});

}  // namespace dedukt::core::kernels
