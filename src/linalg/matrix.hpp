// Minimal dense linear algebra for the Gaussian-process layer.
//
// The GP posterior (paper eqs. 3-4) needs symmetric positive-definite solves
// and little else, so this is a deliberately small row-major matrix plus the
// handful of BLAS-1/2 style helpers the library uses. No expression
// templates, no views — clarity over generality.

#pragma once

#include <cstddef>
#include <vector>

namespace edgebol::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  const std::vector<double>& data() const { return data_; }

  /// Appends a row (must match the column count; an empty matrix adopts it).
  void append_row(const Vector& row);

  /// Capacity hint for a run of append_row calls: pre-allocates storage for
  /// `rows` total rows of the current (or anticipated) width without
  /// changing the logical shape.
  void reserve_rows(std::size_t rows, std::size_t cols_hint = 0);

  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;

  Matrix transpose() const;

  /// Frobenius norm of (this - other). Dimensions must match.
  double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// A set of points stored feature-major: one row per input feature, one
/// column per point, so any run of points is contiguous in every feature
/// row (the layout the GP kernel's candidate loop streams). Its own type,
/// not a Matrix: a row-major point matrix, a square one included, cannot be
/// passed where this is meant and be read transposed.
class FeatureMajorPoints {
 public:
  FeatureMajorPoints(std::size_t dims, std::size_t size);
  /// Packs `points` (each of `dims` entries). Throws std::invalid_argument
  /// on a point of another width.
  static FeatureMajorPoints from_points(const std::vector<Vector>& points,
                                        std::size_t dims);

  std::size_t dims() const { return features_.rows(); }
  std::size_t size() const { return features_.cols(); }

  double& at(std::size_t point, std::size_t feature) {
    return features_(feature, point);
  }
  double at(std::size_t point, std::size_t feature) const {
    return features_(feature, point);
  }
  /// Feature k of every point: size() contiguous entries.
  const double* feature(std::size_t k) const {
    return features_.data().data() + k * size();
  }

 private:
  Matrix features_;  // dims() x size()
};

/// y = A x
Vector matvec(const Matrix& a, const Vector& x);

/// C = A B
Matrix matmul(const Matrix& a, const Matrix& b);

/// Dot product. Sizes must match.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// a + s * b (element-wise); sizes must match.
Vector axpy(const Vector& a, double s, const Vector& b);

/// Element-wise scale.
Vector scaled(const Vector& v, double s);

/// Max |a_i - b_i|; sizes must match.
double max_abs_diff(const Vector& a, const Vector& b);

}  // namespace edgebol::linalg
