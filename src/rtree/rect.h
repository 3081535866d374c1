#ifndef DBLSH_RTREE_RECT_H_
#define DBLSH_RTREE_RECT_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <vector>

namespace dblsh::rtree {

/// Box arithmetic over raw bounds: `lo` and `hi` each point at `dim`
/// floats. Rect delegates to these, and the R*-tree evaluates the boxes it
/// stores inline in its nodes with them, so both give bit-identical results.
namespace box {

/// True when [lo, hi] and [olo, ohi] overlap (inclusive bounds).
inline bool Intersects(const float* lo, const float* hi, const float* olo,
                       const float* ohi, size_t dim) {
  for (size_t j = 0; j < dim; ++j) {
    if (lo[j] > ohi[j] || hi[j] < olo[j]) return false;
  }
  return true;
}

/// True when point `p` lies inside [lo, hi] (inclusive bounds).
inline bool ContainsPoint(const float* lo, const float* hi, const float* p,
                          size_t dim) {
  for (size_t j = 0; j < dim; ++j) {
    if (p[j] < lo[j] || p[j] > hi[j]) return false;
  }
  return true;
}

/// True when [olo, ohi] lies inside [lo, hi].
inline bool ContainsBox(const float* lo, const float* hi, const float* olo,
                        const float* ohi, size_t dim) {
  for (size_t j = 0; j < dim; ++j) {
    if (olo[j] < lo[j] || ohi[j] > hi[j]) return false;
  }
  return true;
}

/// Grows [lo, hi] to cover [olo, ohi]; a point is the box [p, p].
inline void Extend(float* lo, float* hi, const float* olo, const float* ohi,
                   size_t dim) {
  for (size_t j = 0; j < dim; ++j) {
    lo[j] = std::min(lo[j], olo[j]);
    hi[j] = std::max(hi[j], ohi[j]);
  }
}

/// Volume of [lo, hi] (0 for an empty box).
inline double Area(const float* lo, const float* hi, size_t dim) {
  double a = 1.0;
  for (size_t j = 0; j < dim; ++j) {
    a *= std::max(0.0, static_cast<double>(hi[j]) - lo[j]);
  }
  return a;
}

/// Sum of side lengths (the R*-tree "margin" criterion).
inline double Margin(const float* lo, const float* hi, size_t dim) {
  double m = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    m += std::max(0.0, static_cast<double>(hi[j]) - lo[j]);
  }
  return m;
}

/// Volume of the intersection of the two boxes (0 if disjoint).
inline double OverlapArea(const float* lo, const float* hi, const float* olo,
                          const float* ohi, size_t dim) {
  double a = 1.0;
  for (size_t j = 0; j < dim; ++j) {
    const double side =
        std::min<double>(hi[j], ohi[j]) - std::max<double>(lo[j], olo[j]);
    if (side <= 0.0) return 0.0;
    a *= side;
  }
  return a;
}

/// Volume after extending [lo, hi] to cover [olo, ohi], minus its volume.
inline double Enlargement(const float* lo, const float* hi, const float* olo,
                          const float* ohi, size_t dim) {
  double extended = 1.0;
  for (size_t j = 0; j < dim; ++j) {
    extended *=
        std::max<double>(hi[j], ohi[j]) - std::min<double>(lo[j], olo[j]);
  }
  return extended - Area(lo, hi, dim);
}

/// Squared distance between the two boxes' centers.
inline double CenterDistanceSquared(const float* lo, const float* hi,
                                    const float* olo, const float* ohi,
                                    size_t dim) {
  double d = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double diff = 0.5f * (lo[j] + hi[j]) - 0.5f * (olo[j] + ohi[j]);
    d += diff * diff;
  }
  return d;
}

}  // namespace box

/// Axis-aligned bounding box in a low-dimensional (K ~ 10) float space.
/// Used for window-query ranges and as the R*-tree's working copy of an
/// entry's box while it inserts, splits and reinserts.
class Rect {
 public:
  Rect() = default;

  /// An "empty" rect that any Extend() call will snap to.
  explicit Rect(size_t dim)
      : lo_(dim, std::numeric_limits<float>::max()),
        hi_(dim, std::numeric_limits<float>::lowest()) {}

  /// Degenerate rect around a point.
  Rect(const float* point, size_t dim)
      : lo_(point, point + dim), hi_(point, point + dim) {}

  /// Rect with the given bounds (`dim` floats each).
  Rect(const float* lo, const float* hi, size_t dim)
      : lo_(lo, lo + dim), hi_(hi, hi + dim) {}

  /// Window of half-width w/2 centered at `center`.
  static Rect Window(const float* center, size_t dim, double w) {
    Rect r(dim);
    const float half = static_cast<float>(w / 2.0);
    for (size_t j = 0; j < dim; ++j) {
      r.lo_[j] = center[j] - half;
      r.hi_[j] = center[j] + half;
    }
    return r;
  }

  /// Number of dimensions.
  size_t dim() const { return lo_.size(); }
  /// Lower bound on axis `j`.
  float lo(size_t j) const { return lo_[j]; }
  /// Upper bound on axis `j`.
  float hi(size_t j) const { return hi_[j]; }
  /// Mutable lower bound on axis `j`.
  float& lo(size_t j) { return lo_[j]; }
  /// Mutable upper bound on axis `j`.
  float& hi(size_t j) { return hi_[j]; }
  /// The dim() lower bounds, contiguous.
  const float* lo_data() const { return lo_.data(); }
  /// The dim() upper bounds, contiguous.
  const float* hi_data() const { return hi_.data(); }

  /// Grows this rect to cover `other`.
  void Extend(const Rect& other) {
    assert(dim() == other.dim());
    box::Extend(lo_.data(), hi_.data(), other.lo_.data(), other.hi_.data(),
                dim());
  }

  /// Grows this rect to cover a point.
  void ExtendPoint(const float* p) {
    box::Extend(lo_.data(), hi_.data(), p, p, dim());
  }

  /// Grows this rect to cover the box [lo, hi] (dim() floats each).
  void ExtendBounds(const float* lo, const float* hi) {
    box::Extend(lo_.data(), hi_.data(), lo, hi, dim());
  }

  /// True when the rects overlap (inclusive bounds).
  bool Intersects(const Rect& other) const {
    return box::Intersects(lo_.data(), hi_.data(), other.lo_.data(),
                           other.hi_.data(), dim());
  }

  /// True when `p` lies inside this rect (inclusive bounds).
  bool ContainsPoint(const float* p) const {
    return box::ContainsPoint(lo_.data(), hi_.data(), p, dim());
  }

  /// True when `other` lies inside this rect.
  bool ContainsRect(const Rect& other) const {
    return box::ContainsBox(lo_.data(), hi_.data(), other.lo_.data(),
                            other.hi_.data(), dim());
  }

  /// Volume (0 for an empty rect).
  double Area() const { return box::Area(lo_.data(), hi_.data(), dim()); }

  /// Sum of side lengths (the R*-tree "margin" criterion).
  double Margin() const {
    return box::Margin(lo_.data(), hi_.data(), dim());
  }

  /// Area of the intersection with `other` (0 if disjoint).
  double OverlapArea(const Rect& other) const {
    return box::OverlapArea(lo_.data(), hi_.data(), other.lo_.data(),
                            other.hi_.data(), dim());
  }

  /// Area after extension to cover `other` minus current area.
  double Enlargement(const Rect& other) const {
    return box::Enlargement(lo_.data(), hi_.data(), other.lo_.data(),
                            other.hi_.data(), dim());
  }

  /// Midpoint on axis `j`.
  float Center(size_t j) const { return 0.5f * (lo_[j] + hi_[j]); }

  /// Squared distance from the rect's center to another rect's center.
  double CenterDistanceSquared(const Rect& other) const {
    return box::CenterDistanceSquared(lo_.data(), hi_.data(),
                                      other.lo_.data(), other.hi_.data(),
                                      dim());
  }

 private:
  std::vector<float> lo_;
  std::vector<float> hi_;
};

}  // namespace dblsh::rtree

#endif  // DBLSH_RTREE_RECT_H_
