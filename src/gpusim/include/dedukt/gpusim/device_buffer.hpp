// DeviceBuffer<T> — simulated device global memory.
//
// Backed by host memory (so kernels can touch it directly), but allocation
// is charged against the device's 16 GB capacity and host<->device copies
// go through the Device so they are priced at host-link bandwidth — the
// same costs the paper pays for staging data to/from the V100s.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dedukt/util/error.hpp"

namespace dedukt::gpusim {

class Device;  // defined in device.hpp

template <typename T>
class DeviceBuffer {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "device buffers hold trivially copyable elements");

  DeviceBuffer() = default;

  DeviceBuffer(DeviceBuffer&&) noexcept = default;
  DeviceBuffer& operator=(DeviceBuffer&&) noexcept = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::uint64_t bytes() const { return size() * sizeof(T); }

  /// Raw device-memory view for kernels. Bounds are the caller's contract,
  /// as on a real GPU; at() below offers a checked accessor for tests.
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::span<T> span() { return std::span<T>(data_); }
  [[nodiscard]] std::span<const T> span() const {
    return std::span<const T>(data_);
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked element access (throws SimulationError).
  T& at(std::size_t i) {
    DEDUKT_CHECK_MSG(i < data_.size(), "device buffer index " << i
                                           << " out of range "
                                           << data_.size());
    return data_[i];
  }

 private:
  friend class Device;
  explicit DeviceBuffer(std::size_t n) : data_(n) {}
  explicit DeviceBuffer(std::size_t n, const T& fill) : data_(n, fill) {}
  explicit DeviceBuffer(std::vector<T>&& storage)
      : data_(std::move(storage)) {}

  std::vector<T> data_;
};

}  // namespace dedukt::gpusim
