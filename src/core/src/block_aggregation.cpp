#include "dedukt/core/block_aggregation.hpp"

#include <algorithm>
#include <bit>

#include "dedukt/util/error.hpp"

namespace dedukt::core {

BlockAggregator::BlockAggregator()
    : keys_(std::make_unique<std::uint64_t[]>(kSmemSlotsSupermer)),
      counts_(std::make_unique<std::uint32_t[]>(kSmemSlotsSupermer)) {
  std::fill_n(keys_.get(), kSmemSlotsSupermer, kmer::kInvalidCode);
}

BlockAggregator& BlockAggregator::begin(gpusim::BlockCtx& block,
                                        std::size_t slots,
                                        std::uint64_t seed) {
  DEDUKT_CHECK(std::has_single_bit(slots) && slots <= kSmemSlotsSupermer);
  // One table per pool worker (and per rank thread that executes its own
  // launches); a block never shares it with another block in flight.
  thread_local BlockAggregator table;
  if (table.occupied_ != 0) {
    std::fill_n(table.keys_.get(), kSmemSlotsSupermer, kmer::kInvalidCode);
    table.occupied_ = 0;
  }
  table.slots_ = slots;
  table.seed_ = seed;
  const std::uint64_t per_thread =
      (slots + block.block_dim() - 1) / block.block_dim();
  block.count_smem_write(std::uint64_t{block.block_dim()} * per_thread *
                         kSmemSlotBytes);
  return table;
}

}  // namespace dedukt::core
