// Dense float32 tensor with contiguous row-major storage.
//
// This is the repo's substitute for the paper's PyTorch backend tensors:
// vertex/edge feature matrices are 2-D tensors whose first dimension is
// indexed by vertex/edge id (paper §6.1). Storage is reference-counted and
// accounted by TensorAllocator so benchmarks can report peak memory.
#ifndef SRC_TENSOR_TENSOR_H_
#define SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace seastar {

// Shape helper: number of elements of a shape.
int64_t NumElements(const std::vector<int64_t>& shape);

class Tensor {
 public:
  // A default-constructed tensor is "null": no storage, empty shape.
  Tensor() = default;

  // Allocates uninitialized storage for `shape`.
  explicit Tensor(std::vector<int64_t> shape);

  // Builds from explicit values (row-major). values.size() must match shape.
  Tensor(std::vector<int64_t> shape, std::vector<float> values);

  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor FromScalar(float value);  // shape {1}

  bool defined() const { return storage_ != nullptr; }
  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim(size_t axis) const;
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t numel() const { return numel_; }
  uint64_t nbytes() const { return static_cast<uint64_t>(numel_) * sizeof(float); }

  float* data();
  const float* data() const;

  // Element access for 1-D/2-D tensors (bounds-checked in debug via CHECK).
  float& at(int64_t i);
  float at(int64_t i) const;
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;

  // Deep copy.
  Tensor Clone() const;

  // Fills all elements with `value`.
  void Fill(float value);

  // Row view helpers for 2-D tensors: pointer to row `i` (row length = dim(1)).
  float* Row(int64_t i);
  const float* Row(int64_t i) const;

  // Human-readable summary like "Tensor[3x4]".
  std::string ShapeString() const;

  // True when shapes and all elements match within `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

 private:
  struct Storage;  // Accounted block of floats.

  std::shared_ptr<Storage> storage_;
  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
};

}  // namespace seastar

#endif  // SRC_TENSOR_TENSOR_H_
