#include "src/tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "src/common/logging.h"
#include "src/tensor/allocator.h"

namespace seastar {

int64_t NumElements(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    SEASTAR_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

struct Tensor::Storage {
  explicit Storage(size_t num_floats)
      : bytes(num_floats * sizeof(float)),
        data(static_cast<float*>(TensorAllocator::Get().Allocate(num_floats * sizeof(float)))) {}

  ~Storage() { TensorAllocator::Get().Deallocate(data, bytes); }

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  size_t bytes;
  float* data;
};

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), numel_(NumElements(shape_)) {
  storage_ = std::make_shared<Storage>(static_cast<size_t>(numel_));
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> values) : Tensor(std::move(shape)) {
  SEASTAR_CHECK_EQ(static_cast<int64_t>(values.size()), numel_);
  if (!values.empty()) {  // An empty vector's data() may be null (UB for memcpy).
    std::memcpy(storage_->data, values.data(), values.size() * sizeof(float));
  }
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  Tensor t(std::move(shape));
  t.Fill(0.0f);
  return t;
}

Tensor Tensor::Ones(std::vector<int64_t> shape) {
  Tensor t(std::move(shape));
  t.Fill(1.0f);
  return t;
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromScalar(float value) { return Tensor({1}, {value}); }

int64_t Tensor::dim(size_t axis) const {
  SEASTAR_CHECK_LT(axis, shape_.size());
  return shape_[axis];
}

float* Tensor::data() {
  SEASTAR_CHECK(defined());
  return storage_->data;
}

const float* Tensor::data() const {
  SEASTAR_CHECK(defined());
  return storage_->data;
}

float& Tensor::at(int64_t i) {
  SEASTAR_CHECK_GE(i, 0);
  SEASTAR_CHECK_LT(i, numel_);
  return storage_->data[i];
}

float Tensor::at(int64_t i) const {
  SEASTAR_CHECK_GE(i, 0);
  SEASTAR_CHECK_LT(i, numel_);
  return storage_->data[i];
}

float& Tensor::at(int64_t i, int64_t j) {
  SEASTAR_CHECK_EQ(ndim(), 2);
  SEASTAR_CHECK_GE(i, 0);
  SEASTAR_CHECK_LT(i, shape_[0]);
  SEASTAR_CHECK_GE(j, 0);
  SEASTAR_CHECK_LT(j, shape_[1]);
  return storage_->data[i * shape_[1] + j];
}

float Tensor::at(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

Tensor Tensor::Clone() const {
  if (!defined()) {
    return Tensor();
  }
  Tensor copy(shape_);
  std::memcpy(copy.storage_->data, storage_->data, static_cast<size_t>(numel_) * sizeof(float));
  return copy;
}

void Tensor::Fill(float value) {
  SEASTAR_CHECK(defined());
  float* p = storage_->data;
  for (int64_t i = 0; i < numel_; ++i) {
    p[i] = value;
  }
}

float* Tensor::Row(int64_t i) {
  SEASTAR_CHECK_EQ(ndim(), 2);
  SEASTAR_CHECK_GE(i, 0);
  SEASTAR_CHECK_LT(i, shape_[0]);
  return storage_->data + i * shape_[1];
}

const float* Tensor::Row(int64_t i) const { return const_cast<Tensor*>(this)->Row(i); }

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) {
      os << "x";
    }
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (!defined() || !other.defined() || shape_ != other.shape()) {
    return false;
  }
  const float* a = data();
  const float* b = other.data();
  for (int64_t i = 0; i < numel_; ++i) {
    float diff = std::fabs(a[i] - b[i]);
    float scale = std::max(1.0f, std::max(std::fabs(a[i]), std::fabs(b[i])));
    if (diff > tol * scale || std::isnan(diff)) {
      return false;
    }
  }
  return true;
}

}  // namespace seastar
