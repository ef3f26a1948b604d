#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench::oracle {
namespace {

// Terms summed directly before the Euler–Maclaurin tail takes over.
constexpr std::uint64_t kDirectTerms = 1000;

double power_term(std::uint64_t j, double s) {
  return std::exp(-s * std::log(static_cast<double>(j)));
}

// integral_a^b x^-s dx, stable as s -> 1.
double power_integral(double a, double b, double s) {
  const double one_minus_s = 1.0 - s;
  const double log_ratio = std::log(b / a);
  if (std::abs(one_minus_s * log_ratio) < 1e-12) return log_ratio;
  return std::exp(one_minus_s * std::log(a)) *
         std::expm1(one_minus_s * log_ratio) / one_minus_s;
}

// Odd derivatives of f(x) = x^-s: f^(m)(x) = (-1)^m s(s+1)..(s+m-1) x^-(s+m).
double odd_derivative(double x, double s, int order) {
  double coefficient = -1.0;
  for (int i = 0; i < order; ++i) coefficient *= s + i;
  return coefficient * std::exp(-(s + order) * std::log(x));
}

void enumerate_lru(const std::vector<double>& p, std::size_t capacity,
                   std::vector<bool>& used, double state_probability,
                   double cached_mass, std::size_t depth, double& hit) {
  if (depth == capacity) {
    hit += state_probability * cached_mass;
    return;
  }
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (used[i]) continue;
    used[i] = true;
    enumerate_lru(p, capacity, used,
                  state_probability * p[i] / (1.0 - cached_mass),
                  cached_mass + p[i], depth + 1, hit);
    used[i] = false;
  }
}

std::vector<double> zipf_probabilities(std::uint64_t n, double s) {
  const ZipfCdf zipf(n, s);
  std::vector<double> p(n);
  for (std::uint64_t k = 1; k <= n; ++k) p[k - 1] = zipf.pmf(k);
  return p;
}

}  // namespace

double harmonic_direct(std::uint64_t n, double s) {
  // Smallest terms first, so the large ones do not swallow them.
  double sum = 0.0;
  for (std::uint64_t j = n; j >= 1; --j) sum += power_term(j, s);
  return sum;
}

double harmonic(std::uint64_t n, double s) {
  if (n <= kDirectTerms) return harmonic_direct(n, s);
  const double a = static_cast<double>(kDirectTerms);
  const double b = static_cast<double>(n);
  // sum_{j=a..b} f(j) = int_a^b f + (f(a) + f(b)) / 2
  //   + B2/2! (f'(b) - f'(a)) + B4/4! (f'''(b) - f'''(a))
  //   + B6/6! (f^(5)(b) - f^(5)(a)) + R, with R far below 1e-16 here.
  double tail = power_integral(a, b, s) +
                0.5 * (power_term(kDirectTerms, s) + power_term(n, s));
  tail += (odd_derivative(b, s, 1) - odd_derivative(a, s, 1)) / 12.0;
  tail -= (odd_derivative(b, s, 3) - odd_derivative(a, s, 3)) / 720.0;
  tail += (odd_derivative(b, s, 5) - odd_derivative(a, s, 5)) / 30240.0;
  // The tail includes j = a, which the direct part already counted.
  return harmonic_direct(kDirectTerms - 1, s) + tail;
}

ZipfCdf::ZipfCdf(std::uint64_t n, double s)
    : n_(n), s_(s), norm_(harmonic(n, s)) {}

double ZipfCdf::operator()(std::uint64_t k) const {
  if (k == 0) return 0.0;
  if (k >= n_) return 1.0;
  return std::min(1.0, harmonic(k, s_) / norm_);
}

double ZipfCdf::pmf(std::uint64_t k) const {
  return power_term(k, s_) / norm_;
}

double che_time(const std::vector<double>& rates, double capacity) {
  double total = 0.0;
  for (const double r : rates) total += r;
  // g(T) = sum (1 - e^{-r T}) - capacity is increasing and concave, so
  // Newton from T0 = capacity / total (where g <= 0) climbs monotonically
  // to the root.
  double t = capacity / total;
  for (int iteration = 0; iteration < 500; ++iteration) {
    double g = -capacity;
    double slope = 0.0;
    for (const double r : rates) {
      g -= std::expm1(-r * t);
      slope += r * std::exp(-r * t);
    }
    const double step = -g / slope;
    t += step;
    if (std::abs(step) <= 1e-15 * t) break;
  }
  return t;
}

double che_hit_ratio(const std::vector<double>& rates, double capacity) {
  const double t = che_time(rates, capacity);
  double hits = 0.0;
  double total = 0.0;
  for (const double r : rates) {
    hits -= r * std::expm1(-r * t);
    total += r;
  }
  return hits / total;
}

double exact_lru_hit_ratio(const std::vector<double>& probabilities,
                           std::size_t capacity) {
  std::vector<bool> used(probabilities.size(), false);
  double hit = 0.0;
  enumerate_lru(probabilities, capacity, used, 1.0, 0.0, 0, hit);
  return hit;
}

double che_coordinated_origin_load(std::uint64_t catalog, double s,
                                   std::size_t routers, std::size_t capacity,
                                   std::size_t coordinated) {
  const std::vector<double> p = zipf_probabilities(catalog, s);
  const std::uint64_t first = capacity - coordinated + 1;
  const std::uint64_t pool_end = first + routers * coordinated;  // exclusive
  const double local_capacity = static_cast<double>(capacity - coordinated);
  double load = 0.0;
  std::vector<double> rates;
  for (std::size_t position = 0; position < routers; ++position) {
    rates.clear();
    for (std::uint64_t k = 1; k <= catalog; ++k) {
      const bool own = k >= first && k < pool_end &&
                       (k - first) % routers == position;
      if (!own) rates.push_back(p[k - 1]);
    }
    const double t = che_time(rates, local_capacity);
    for (std::uint64_t k = 1; k <= catalog; ++k) {
      if (k >= first && k < pool_end) continue;
      load += p[k - 1] * std::exp(-p[k - 1] * t);
    }
  }
  return load / static_cast<double>(routers);
}

double binomial_halfwidth(double p, double trials, double z) {
  const double variance = std::max(p * (1.0 - p), 1.0 / trials);
  return z * std::sqrt(variance / trials);
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  auto text = [](auto... parts) {
    std::ostringstream out;
    out.precision(17);
    (out << ... << parts);
    return out.str();
  };

  // Euler–Maclaurin tail against the term-by-term sum.
  for (const double s : {0.0, 0.5, 0.8, 1.0, 1.3}) {
    for (const std::uint64_t n : {1ull, 2ull, 10ull, 999ull, 1000ull, 1001ull,
                                  20000ull, 131072ull, 1000000ull}) {
      const double fast = harmonic(n, s);
      const double direct = harmonic_direct(n, s);
      expect(std::abs(fast - direct) <= 1e-12 * direct,
             text("harmonic(", n, ", ", s, ") = ", fast, ", direct ", direct));
    }
  }
  {
    const double fast = harmonic(10000000, 0.8);
    const double direct = harmonic_direct(10000000, 0.8);
    expect(std::abs(fast - direct) <= 1e-12 * direct,
           text("harmonic(1e7, 0.8) = ", fast, ", direct ", direct));
  }

  // The CDF: endpoints, and the pmf summing to one.
  {
    const ZipfCdf zipf(20000, 0.8);
    expect(zipf(0) == 0.0 && zipf(20000) == 1.0, "Zipf CDF endpoints");
    double mass = 0.0;
    for (std::uint64_t k = 20000; k >= 1; --k) mass += zipf.pmf(k);
    expect(std::abs(mass - 1.0) <= 1e-12, text("Zipf pmf mass ", mass));
    expect(std::abs(zipf(100) - harmonic_direct(100, 0.8) /
                                    harmonic_direct(20000, 0.8)) <= 1e-13,
           "Zipf CDF at 100 against direct sums");
  }

  // Exact enumeration: closed forms at capacity 1 and capacity n.
  for (const std::uint64_t n : {3ull, 4ull, 5ull, 6ull}) {
    const std::vector<double> p = zipf_probabilities(n, 0.8);
    double squares = 0.0;
    for (const double q : p) squares += q * q;
    expect(std::abs(exact_lru_hit_ratio(p, 1) - squares) <= 1e-14,
           text("exact LRU, capacity 1, n = ", n));
    expect(std::abs(exact_lru_hit_ratio(p, n) - 1.0) <= 1e-14,
           text("exact LRU, capacity n, n = ", n));
  }

  // Che against the exact enumeration, capacity 2 and n <= 6. Under
  // uniform popularity Che is exact (both give c / n). Under Zipf it is an
  // approximation; its error at these tiny sizes stays below 0.02, and it
  // must shrink as the catalog grows past the capacity.
  for (const std::uint64_t n : {3ull, 4ull, 5ull, 6ull}) {
    const std::vector<double> uniform(n, 1.0 / static_cast<double>(n));
    const double exact_uniform = exact_lru_hit_ratio(uniform, 2);
    expect(std::abs(exact_uniform - 2.0 / static_cast<double>(n)) <= 1e-14,
           text("exact LRU uniform n = ", n));
    expect(std::abs(che_hit_ratio(uniform, 2.0) - exact_uniform) <= 1e-12,
           text("Che uniform n = ", n));
    for (const double s : {0.5, 0.8, 1.2}) {
      const std::vector<double> p = zipf_probabilities(n, s);
      const double exact = exact_lru_hit_ratio(p, 2);
      const double che = che_hit_ratio(p, 2.0);
      expect(std::abs(che - exact) <= 0.02,
             text("Che ", che, " vs exact ", exact, " at n = ", n, ", s = ",
                  s));
    }
  }
  return failures;
}

}  // namespace perfbench::oracle
