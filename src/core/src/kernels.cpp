// The parse-stage launches. Each runs once on the host (Device::launch_host)
// and walks the staged fragments in order with the kmer library's walkers:
// kmer::for_each_kmer for the k-mer launches, the sliding-minimizer
// builders for the supermer launches. It writes the same buffers, in the
// same order, as the per-thread kernel in the canonical block order, so the
// outgoing buffers are identical at every DEDUKT_SIM_THREADS, and charges
// that kernel's traffic in closed form.
#include "dedukt/core/kernels.hpp"

#include <algorithm>
#include <string_view>
#include <type_traits>

#include "dedukt/hash/murmur3.hpp"
#include "dedukt/kmer/extract.hpp"
#include "dedukt/util/error.hpp"

namespace dedukt::core::kernels {

EncodedReads EncodedReads::build(const io::ReadBatch& reads, int k) {
  DEDUKT_REQUIRE(k >= 2 && k <= kmer::kMaxPackedK);
  EncodedReads out;
  std::uint64_t bases_needed = 0;
  for (const auto& read : reads.reads) bases_needed += read.bases.size() + 1;
  out.bases.reserve(bases_needed + static_cast<std::uint64_t>(k));

  for (const auto& read : reads.reads) {
    for (std::string_view fragment : kmer::acgt_fragments(read.bases)) {
      if (fragment.size() < static_cast<std::size_t>(k)) continue;
      out.fragments.emplace_back(
          out.bases.size(), static_cast<std::uint32_t>(fragment.size()));
      out.bases.insert(out.bases.end(), fragment.begin(), fragment.end());
      out.bases.push_back(kSeparator);
      out.total_kmers += fragment.size() - static_cast<std::size_t>(k) + 1;
    }
  }
  // Trailing pad so a thread at the last base can always read k bytes.
  out.bases.insert(out.bases.end(), static_cast<std::size_t>(k), kSeparator);
  return out;
}

std::vector<Window> build_windows(const EncodedReads& reads, int k,
                                  int window) {
  DEDUKT_REQUIRE(window >= 1);
  std::vector<Window> windows;
  for (const auto& [offset, len] : reads.fragments) {
    const auto nkmers =
        static_cast<std::uint32_t>(len - static_cast<std::uint32_t>(k) + 1);
    for (std::uint32_t start = 0; start < nkmers;
         start += static_cast<std::uint32_t>(window)) {
      Window w;
      w.frag_offset = offset;
      w.frag_len = len;
      w.kmer_start = start;
      w.kmer_count =
          std::min(static_cast<std::uint32_t>(window), nkmers - start);
      windows.push_back(w);
    }
  }
  return windows;
}

namespace {

/// Run the k-mer launch `name` over the one-thread-per-base grid (Fig. 2).
/// It visits, in position order, the k-mer of every position p <
/// total_len whose k bytes from p all encode as bases, which are the
/// k-mers of the maximal base runs between separators, as fn(code, dest).
/// Every thread loads k bytes; each k-mer is packed and hashed (2k + 8
/// ops), claims its destination with one atomic and writes `bytes_out`.
template <typename Fn>
gpusim::LaunchStats kmer_launch(const char* name, gpusim::Device& device,
                                const gpusim::DeviceBuffer<char>& bases,
                                std::size_t total_len, int k,
                                io::BaseEncoding enc, std::uint32_t parts,
                                std::uint64_t bytes_out, Fn&& fn) {
  DEDUKT_REQUIRE(total_len <= bases.size());
  const auto shape = device.shape_for(total_len);
  return device.launch_host(name, shape.grid_dim, shape.block_dim,
                            [&](gpusim::KernelCharges& charges) {
    const auto kk = static_cast<std::uint64_t>(k);
    const std::size_t end = std::min(bases.size(), total_len + kk - 1);
    std::uint64_t kmers = 0;
    for (std::size_t p = 0; p < end; ++p) {
      const std::size_t run = p;
      while (p < end && io::encode_base_or_invalid(bases[p], enc) >= 0) ++p;
      kmer::for_each_kmer(std::string_view(bases.data() + run, p - run), k,
                          enc, [&](kmer::KmerCode code) {
                            fn(code, kmer::kmer_partition(code, parts));
                            ++kmers;
                          });
    }
    charges.count_gmem_read(total_len * kk);
    charges.count_ops(kmers * (2 * kk + 8));
    charges.count_atomic(kmers);
    charges.count_gmem_write(kmers * bytes_out);
  });
}

/// Run the supermer launch `name` over the one-thread-per-window grid of
/// Algorithm 2. The windows must tile each fragment in order at
/// config.window, as build_windows lays them out, so each fragment is one
/// builder walk; it visits every supermer in window order as fn(smer,
/// dest), routed by the §VII frequency-balanced table when `routing` is
/// enabled and by the minimizer hash otherwise. Per window the thread
/// loads the Window and k bytes and packs them (2k ops), every later
/// k-mer loads 1 byte, every k-mer scans its k − m + 1 m-mers (3 ops
/// each), and every supermer routes (4 ops; 6 ops and a 4 B read with the
/// table), claims its destination with one atomic and writes `bytes_out`.
template <typename Word, typename Fn>
gpusim::LaunchStats supermer_launch(
    const char* name, gpusim::Device& device,
    const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    DestinationTable routing, std::uint64_t bytes_out, Fn&& fn) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  config.validate();
  DEDUKT_REQUIRE(!kWide || config.wide);
  DEDUKT_REQUIRE(nwindows <= windows.size());
  const auto shape = device.shape_for(nwindows);
  return device.launch_host(name, shape.grid_dim, shape.block_dim,
                            [&](gpusim::KernelCharges& charges) {
    const auto k = static_cast<std::uint32_t>(config.k);
    const auto window = static_cast<std::uint32_t>(config.window);
    std::conditional_t<kWide, std::vector<kmer::DestinedWideSupermer>,
                       std::vector<kmer::DestinedSupermer>>
        smers;
    std::uint64_t kmers = 0;
    std::uint64_t supermers = 0;
    for (std::size_t i = 0; i < nwindows;) {
      const Window head = windows[i];
      DEDUKT_REQUIRE(head.frag_len >= k &&
                     head.frag_offset + head.frag_len <= bases.size());
      const std::uint32_t nkmers = head.frag_len - k + 1;
      for (std::uint32_t start = 0; start < nkmers; start += window, ++i) {
        DEDUKT_REQUIRE_MSG(
            i < nwindows && windows[i].frag_offset == head.frag_offset &&
                windows[i].kmer_start == start &&
                windows[i].kmer_count == std::min(window, nkmers - start),
            "windows must tile each fragment at config.window");
      }
      const std::string_view fragment(bases.data() + head.frag_offset,
                                      head.frag_len);
      smers.clear();
      if constexpr (kWide) {
        kmer::build_wide_supermers(fragment, config, parts, smers);
      } else {
        kmer::build_supermers(fragment, config, parts, smers);
      }
      for (const auto& ds : smers) {
        fn(ds.smer, routing.enabled()
                        ? routing.bucket_to_rank[hash::to_partition(
                              hash::hash_u64(ds.minimizer,
                                             kmer::kDestinationHashSeed),
                              routing.nbuckets)]
                        : ds.dest);
      }
      kmers += nkmers;
      supermers += smers.size();
    }
    const std::uint64_t w = nwindows;
    const auto span = static_cast<std::uint64_t>(config.k - config.m + 1);
    charges.count_gmem_read(w * (sizeof(Window) + k) + (kmers - w));
    charges.count_ops(2 * k * w + 3 * span * kmers);
    if (routing.enabled()) {
      charges.count_gmem_read(sizeof(std::uint32_t) * supermers);
    }
    charges.count_ops((routing.enabled() ? 6 : 4) * supermers);
    charges.count_atomic(supermers);
    charges.count_gmem_write(supermers * bytes_out);
  });
}

}  // namespace

gpusim::LaunchStats parse_count_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts) {
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  return kmer_launch("parse_count_kmers", device, bases, total_len, k, enc,
                     parts, 0, [&](kmer::KmerCode, std::uint32_t dest) {
                       ++dest_counts[dest];
                     });
}

gpusim::LaunchStats parse_fill_kmers(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    std::size_t total_len, int k, io::BaseEncoding enc, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<std::uint64_t>& out_kmers) {
  DEDUKT_REQUIRE(offsets.size() >= parts);
  DEDUKT_REQUIRE(cursors.size() >= parts);
  return kmer_launch("parse_fill_kmers", device, bases, total_len, k, enc,
                     parts, sizeof(std::uint64_t),
                     [&](kmer::KmerCode code, std::uint32_t dest) {
    const std::uint64_t slot = offsets[dest] + cursors[dest]++;
    DEDUKT_CHECK_MSG(slot < out_kmers.size(), "outgoing buffer overflow");
    out_kmers[slot] = code;
  });
}

template <typename Word>
gpusim::LaunchStats supermer_count(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    gpusim::DeviceBuffer<std::uint32_t>& dest_counts,
    DestinationTable routing) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  DEDUKT_REQUIRE(dest_counts.size() >= parts);
  return supermer_launch<Word>(
      kWide ? "supermer_count_wide" : "supermer_count", device, bases,
      windows, nwindows, config, parts, routing, 0,
      [&](const auto&, std::uint32_t dest) { ++dest_counts[dest]; });
}

template <typename Word>
gpusim::LaunchStats supermer_fill(
    gpusim::Device& device, const gpusim::DeviceBuffer<char>& bases,
    const gpusim::DeviceBuffer<Window>& windows, std::size_t nwindows,
    const kmer::SupermerConfig& config, std::uint32_t parts,
    const gpusim::DeviceBuffer<std::uint64_t>& offsets,
    gpusim::DeviceBuffer<std::uint32_t>& cursors,
    gpusim::DeviceBuffer<Word>& out_words,
    gpusim::DeviceBuffer<std::uint8_t>& out_lens,
    DestinationTable routing) {
  constexpr bool kWide = std::is_same_v<Word, kmer::WideKey>;
  DEDUKT_REQUIRE(offsets.size() >= parts);
  DEDUKT_REQUIRE(cursors.size() >= parts);
  DEDUKT_REQUIRE(out_words.size() == out_lens.size());
  return supermer_launch<Word>(
      kWide ? "supermer_fill_wide" : "supermer_fill", device, bases, windows,
      nwindows, config, parts, routing, sizeof(Word) + sizeof(std::uint8_t),
      [&](const auto& smer, std::uint32_t dest) {
        const std::uint64_t slot = offsets[dest] + cursors[dest]++;
        DEDUKT_CHECK_MSG(slot < out_words.size(),
                         "supermer outgoing buffer overflow");
        out_words[slot] = smer.bases;
        out_lens[slot] = smer.len;
      });
}

template gpusim::LaunchStats supermer_count<std::uint64_t>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    gpusim::DeviceBuffer<std::uint32_t>&, DestinationTable);
template gpusim::LaunchStats supermer_count<kmer::WideKey>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    gpusim::DeviceBuffer<std::uint32_t>&, DestinationTable);
template gpusim::LaunchStats supermer_fill<std::uint64_t>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    const gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint32_t>&, gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint8_t>&, DestinationTable);
template gpusim::LaunchStats supermer_fill<kmer::WideKey>(
    gpusim::Device&, const gpusim::DeviceBuffer<char>&,
    const gpusim::DeviceBuffer<Window>&, std::size_t,
    const kmer::SupermerConfig&, std::uint32_t,
    const gpusim::DeviceBuffer<std::uint64_t>&,
    gpusim::DeviceBuffer<std::uint32_t>&, gpusim::DeviceBuffer<kmer::WideKey>&,
    gpusim::DeviceBuffer<std::uint8_t>&, DestinationTable);

}  // namespace dedukt::core::kernels
