// Independent oracle for the benchmark's correctness checks: the discrete
// Zipf CDF, Che's characteristic-time approximation for LRU, and an exact
// enumeration of small LRU caches. Written from the formulas alone; it
// calls nothing in the ccnopt library (model/ and cache/che.cpp compute
// the same quantities, which is why they cannot serve as the reference).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::oracle {

/// Generalized harmonic number H(n, s) = sum_{j=1..n} j^-s. The first
/// terms are summed directly; beyond them an Euler–Maclaurin tail with
/// three Bernoulli corrections keeps the relative error near 1e-15 at any
/// n, so catalogs of 10^7 cost O(1).
double harmonic(std::uint64_t n, double s);

/// The same sum taken term by term (the reference harmonic() is tested
/// against).
double harmonic_direct(std::uint64_t n, double s);

/// Zipf(s) over ranks 1..n: F(k) = H(k, s) / H(n, s), clamped to [0, 1].
class ZipfCdf {
 public:
  ZipfCdf(std::uint64_t n, double s);
  double operator()(std::uint64_t k) const;
  /// p_k = k^-s / H(n, s).
  double pmf(std::uint64_t k) const;
  std::uint64_t n() const { return n_; }

 private:
  std::uint64_t n_;
  double s_;
  double norm_;
};

/// Che's approximation for an LRU cache of `capacity` items fed
/// independent requests with the given rates: the characteristic time T
/// solves sum_k (1 - exp(-rate_k T)) = capacity, and item k hits with
/// probability 1 - exp(-rate_k T). Requires capacity < rates.size().
double che_time(const std::vector<double>& rates, double capacity);

/// Request-weighted hit ratio of that LRU under Che's approximation.
double che_hit_ratio(const std::vector<double>& rates, double capacity);

/// Exact stationary hit ratio of an LRU cache under independent requests,
/// by enumerating every ordered cache content: the state (i_1..i_c), most
/// recent first, has probability prod_k p_{i_k} / (1 - sum_{j<k} p_{i_j}).
/// Exponential in the capacity; meant for n <= 8, capacity <= 3.
double exact_lru_hit_ratio(const std::vector<double>& probabilities,
                           std::size_t capacity);

/// Che's prediction of the origin load of the coordinated-split scheme
/// with an LRU local store: `routers` routers, each holding `capacity`
/// items of which `coordinated` are its share of the pool of ranks
/// capacity - coordinated + 1 .. capacity - coordinated + routers *
/// coordinated, dealt round robin (router j of the deal owns the ranks at
/// offsets j, j + routers, ...). A request for a router's own pool share
/// hits; every other request passes through the local LRU of size
/// capacity - coordinated; an LRU miss outside the pool goes to the
/// origin. Routers see equal request rates, so the network-wide load is
/// the mean over the deal positions.
double che_coordinated_origin_load(std::uint64_t catalog, double s,
                                   std::size_t routers, std::size_t capacity,
                                   std::size_t coordinated);

/// Half-width of the two-sided binomial confidence interval for a
/// proportion p estimated from `trials` outcomes, at z standard errors.
double binomial_halfwidth(double p, double trials, double z);

/// Standard errors the benchmark's checks allow: a two-sided z of 4 (a
/// false alarm about once in 16,000 checks).
inline constexpr double kCheckZ = 4.0;

/// Runs the oracle's own tests (harmonic vs direct summation, Che vs the
/// exact enumeration); returns the failures, one message each.
std::vector<std::string> self_test();

}  // namespace perfbench::oracle
