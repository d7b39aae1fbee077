#include "dedukt/io/partition.hpp"

#include "dedukt/util/error.hpp"

namespace dedukt::io {

std::vector<ReadView> partition_by_bases(ReadView batch, int parts) {
  DEDUKT_REQUIRE(parts > 0);
  // Parts past the last filled one are empty ranges at the batch's end.
  std::vector<ReadView> out(static_cast<std::size_t>(parts),
                            ReadView{batch.reads.last(0)});
  const std::uint64_t target =
      batch.total_bases() / static_cast<std::uint64_t>(parts);

  std::size_t part = 0;
  std::size_t first = 0;
  std::uint64_t in_part = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Advance to the next part once this one has met its target, keeping
    // the last part as the catch-all for rounding slack.
    if (in_part >= target && part + 1 < out.size()) {
      out[part++].reads = batch.reads.subspan(first, i - first);
      first = i;
      in_part = 0;
    }
    in_part += batch.reads[i].bases.size();
  }
  out[part].reads = batch.reads.subspan(first);
  return out;
}

}  // namespace dedukt::io
