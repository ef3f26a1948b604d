// The frozen reference replay kernel: a hash-map-plus-list LRU fed by
// inverse-CDF Zipf draws. The benchmark times slices of it between
// program trials and divides the program's times by how fast the kernel
// ran in the neighbouring slices, which cancels most of what the host's
// shared caches and memory do to both. It shares no code with the ccnopt
// library, so no change to the program can make it faster or slower; its
// shape and its nominal rate must never change, or every calibrated
// figure recorded before the change stops being comparable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <random>
#include <unordered_map>
#include <vector>

namespace perfbench {

class ReplayKernel {
 public:
  struct Shape {
    std::uint64_t catalog = 1ull << 17;
    double exponent = 0.8;
    std::size_t capacity = 1024;
  };

  ReplayKernel(Shape shape, std::uint64_t seed);

  /// Replays `requests` draws through the LRU; returns how many hit.
  std::uint64_t replay(std::uint64_t requests);

  const Shape& shape() const { return shape_; }

 private:
  Shape shape_;
  std::vector<double> cdf_;  // cdf_[k - 1] = P(rank <= k)
  std::mt19937_64 rng_;
  std::list<std::uint64_t> recency_;  // most recent first
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      index_;
};

}  // namespace perfbench
