// GPU kernels of the parse & process stage (§III-B1 and §IV-B).
//
// Data layout as the paper stages it: a rank's reads are concatenated into
// one long base array with special separator bases marking fragment ends,
// copied to the device once per round, and the supermer kernels cut it
// into per-thread windows. The simulation does not build that array. The
// launches read the rank's reads in place, walking kmer::acgt_fragments,
// and the callers price the staging from the fragment lengths
// (staging_of, computed once per parse and passed to every launch): one
// H2D of its bytes, with a device reservation held as long as the array
// would live. Two kernel families:
//
//  * k-mer kernels — one thread per staged base position; a thread emits
//    the k-mer starting at its position if the window does not cross a
//    separator (Fig. 2). Destinations come from MurmurHash3 on the packed
//    k-mer.
//
//  * supermer kernels — one thread per window of `window` k-mer starts
//    (Fig. 5); the thread grows supermers in private registers and flushes
//    one packed 64-bit word + length byte per supermer (Algorithm 2).
//    Destinations come from the minimizer hash, or from the §VII
//    frequency-balanced table.
//
// Both families populate per-destination outgoing buffers in two phases
// (count, then fill through per-destination atomic cursors), the standard
// formulation of the paper's "atomically update the outgoing buffer", and
// are priced as those two phases. The host walks the reads once: the
// count launch appends every item, in walk order, to its destination's
// run (KmerRuns, SupermerRuns), and the fill launch, whose per-destination
// slices those runs are, is priced and places nothing. The runs are the
// parse's one output: the exchange sends them as they are, the sketch
// adopts its one run, and out-of-core pass 1 spills them.
//
// Each launch is priced as that grid but evaluated once on the host
// (Device::launch_host) with the kmer library's walkers, its charges in
// closed form (docs/performance-model.md, "GPU kernels").
#pragma once

#include <cstdint>
#include <vector>

#include "dedukt/gpusim/device.hpp"
#include "dedukt/io/sequence.hpp"
#include "dedukt/kmer/supermer.hpp"

namespace dedukt::core {

class MinimizerAssignment;

namespace kernels {

/// Bytes of one entry of the device window list (§IV-B): the fragment's
/// 64-bit offset in the staged array, its length, the window's first k-mer
/// index and its k-mer count (32 bits each), padded to 8-byte alignment.
inline constexpr std::uint64_t kWindowBytes = 24;

/// The device staging of a rank's reads, in closed form from the lengths
/// of their ACGT fragments. Only fragments of at least k bases are staged:
/// shorter ones hold no k-mer.
struct Staging {
  /// L: every staged fragment plus its separator byte, plus a k-byte pad
  /// so that the thread at the last base can read k bytes.
  std::uint64_t bases = 0;
  /// W: windows of `window` k-mer starts tiling each staged fragment, the
  /// last one of a fragment possibly shorter; 0 without a window.
  std::uint64_t windows = 0;
  /// K: k-mers of the staged fragments.
  std::uint64_t kmers = 0;
};

/// Stage `reads` for k-mers of length k, cut into windows of `window`
/// k-mer starts when `window` >= 1 (the supermer kernels).
[[nodiscard]] Staging staging_of(io::ReadView reads, int k,
                                 int window = 0);

// --- k-mer kernels (§III-B1) ---
//
// `staging` must be staging_of(reads, k).

/// What the k-mer fill launch places: each destination's packed k-mers in
/// walk order (its slice of the outgoing buffer).
using KmerRuns = std::vector<std::vector<std::uint64_t>>;

/// Pass 1: count the k-mers of `reads` destined to each partition into
/// `dest_counts`, which must hold `parts` counters, and keep them: `runs`
/// gets one run per partition, in walk order, whose sizes are the counts.
gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, io::ReadView reads, const Staging& staging,
    int k, io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts, KmerRuns& runs);

/// Pass 2: the fill that writes the count launch's runs into the
/// per-partition slices of the outgoing buffer, through per-destination
/// atomic cursors. The runs already are those slices, so the launch is
/// priced (the same walk, plus each k-mer's write) and places nothing.
gpusim::LaunchStats parse_fill_kmers(gpusim::Device& device,
                                     const Staging& staging, int k);

// --- supermer kernels (§IV-B, Algorithm 2) ---
//
// `Word` is the supermer packing: std::uint64_t for the paper's
// single-word regime, or kmer::WideKey for the two-word extension
// (config.wide: 63-base supermers in thread-private 128-bit registers).
// `staging` must be staging_of(reads, config.k, config.window). With an
// `assignment` (the §VII frequency-balanced table, resident on the device)
// supermers route through it; without one, by the paper's minimizer hash.

/// What the fill launch places: each destination's supermers in walk
/// order, as a run of packed words and a run of length bytes (its slice
/// of the outgoing buffers).
template <typename Word>
struct SupermerRuns {
  std::vector<std::vector<Word>> words;
  std::vector<std::vector<std::uint8_t>> lens;
};

/// Pass 1: count the supermers of `reads` destined to each partition into
/// `dest_counts`, which must hold `parts` counters, and keep them: `runs`
/// gets one run per partition, in walk order, whose sizes are the counts.
template <typename Word = std::uint64_t>
gpusim::LaunchStats supermer_count(
    gpusim::Device& device, io::ReadView reads, const Staging& staging,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts,
    SupermerRuns<Word>& runs,
    const MinimizerAssignment* assignment = nullptr);

/// Pass 2: the fill that writes the count launch's `supermers` runs into
/// the per-partition slices of the outgoing word and length buffers,
/// through per-destination atomic cursors. The runs already are those
/// slices, so the launch is priced (the same walk, plus each supermer's
/// write) and places nothing.
template <typename Word>
gpusim::LaunchStats supermer_fill(
    gpusim::Device& device, const Staging& staging,
    const kmer::SupermerConfig& config, std::uint64_t supermers,
    const MinimizerAssignment* assignment = nullptr);

}  // namespace kernels
}  // namespace dedukt::core
