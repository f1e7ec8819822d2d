#ifndef TKC_UTIL_DEFAULT_INIT_H_
#define TKC_UTIL_DEFAULT_INIT_H_

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace tkc {

/// std::allocator whose value-less construct default-initializes, so
/// resize() of a trivial element type writes nothing: the first write to
/// each page, usually a parallel scatter, faults it in on the thread that
/// fills it instead of a serial zero-fill on the caller.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    std::uninitialized_default_construct_n(p, 1);
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// A vector whose resize() leaves new trivial elements uninitialized.
template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace tkc

#endif  // TKC_UTIL_DEFAULT_INIT_H_
