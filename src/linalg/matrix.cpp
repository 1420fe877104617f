#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace edgebol::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::append_row(const Vector& row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = row.size();
  } else if (row.size() != cols_) {
    throw std::invalid_argument("Matrix::append_row: width mismatch");
  }
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Matrix::reserve_rows(std::size_t rows, std::size_t cols_hint) {
  const std::size_t width = cols_ > 0 ? cols_ : cols_hint;
  data_.reserve(rows * width);
}

Vector Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::col(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::col");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

FeatureMajorPoints::FeatureMajorPoints(std::size_t dims, std::size_t size)
    : features_(dims, size) {}

FeatureMajorPoints FeatureMajorPoints::from_points(
    const std::vector<Vector>& points, std::size_t dims) {
  FeatureMajorPoints out(dims, points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (points[j].size() != dims)
      throw std::invalid_argument("FeatureMajorPoints: point width mismatch");
    for (std::size_t k = 0; k < dims; ++k) out.at(j, k) = points[j][k];
  }
  return out;
}

Vector matvec(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("matvec: dimension mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) s += a(r, c) * x[c];
    y[r] = s;
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul: dimension mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

double dot(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vector& v) { return std::sqrt(dot(v, v)); }

Vector axpy(const Vector& a, double s, const Vector& b) {
  if (a.size() != b.size()) throw std::invalid_argument("axpy: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s * b[i];
  return out;
}

Vector scaled(const Vector& v, double s) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] * s;
  return out;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace edgebol::linalg
