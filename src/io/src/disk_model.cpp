#include "dedukt/io/disk_model.hpp"

namespace dedukt::io {

DiskModel DiskModel::summit_nvme() { return DiskModel{}; }

double DiskModel::write_seconds(std::uint64_t bytes,
                                std::uint64_t ops) const {
  return op_latency_s * static_cast<double>(ops) +
         write_volume_seconds(bytes);
}

double DiskModel::write_volume_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / seq_write_bw;
}

double DiskModel::read_seconds(std::uint64_t bytes, std::uint64_t ops) const {
  return op_latency_s * static_cast<double>(ops) + read_volume_seconds(bytes);
}

double DiskModel::read_volume_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / seq_read_bw;
}

}  // namespace dedukt::io
