#include "kernel.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

ReplayKernel::ReplayKernel(Shape shape, std::uint64_t seed)
    : shape_(shape), cdf_(shape.catalog), rng_(seed) {
  double sum = 0.0;
  for (std::uint64_t k = 1; k <= shape_.catalog; ++k) {
    sum += std::pow(static_cast<double>(k), -shape_.exponent);
    cdf_[k - 1] = sum;
  }
  for (double& value : cdf_) value /= sum;
  cdf_.back() = 1.0;
  index_.reserve(shape_.capacity * 2);
}

std::uint64_t ReplayKernel::replay(std::uint64_t requests) {
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()) +
        1;
    const auto found = index_.find(rank);
    if (found != index_.end()) {
      ++hits;
      recency_.splice(recency_.begin(), recency_, found->second);
      continue;
    }
    if (index_.size() == shape_.capacity) {
      index_.erase(recency_.back());
      recency_.pop_back();
    }
    recency_.push_front(rank);
    index_.emplace(rank, recency_.begin());
  }
  return hits;
}

}  // namespace perfbench
