#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

/// Empirical cumulative distribution functions.
///
/// The paper reports many results as CDFs (Figures 3–8). Cdf collects raw
/// samples and renders either exact step points or a down-sampled series
/// suitable for printing in bench output.
namespace cs::util {

class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::span<const double> samples);

  /// Adds one sample. O(1); the data is sorted lazily on first query.
  void add(double x);

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  /// Fraction of samples <= x, in [0,1]. Returns 0 on an empty CDF.
  double at(double x) const;

  /// Inverse CDF: smallest sample value v with fraction(v) >= q.
  double value_at(double q) const;

  /// The raw samples in sorted order; every query below is a pure
  /// function of this view.
  std::span<const double> sorted_samples() const;

  /// Exact step points (value, cumulative fraction), deduplicated by value.
  struct Point {
    double value;
    double fraction;
  };
  std::vector<Point> points() const;

  /// At most max_points points, evenly spaced in quantile space — what the
  /// bench harnesses print so the series stays readable.
  std::vector<Point> sampled_points(std::size_t max_points) const;

  /// Renders "value<TAB>fraction" lines, one per sampled point, with an
  /// optional header comment naming the series.
  std::string to_tsv(std::size_t max_points = 32,
                     std::string_view name = {}) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Renders several CDFs side by side at shared quantiles; used by Figure
/// benches that overlay EC2 and Azure series.
std::string render_cdf_comparison(
    std::span<const std::pair<std::string, const Cdf*>> series,
    std::size_t points = 20);

}  // namespace cs::util
