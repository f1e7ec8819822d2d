// Test helper: installs an intersection kernel as the process-wide default
// for one scope, so kAuto callers (the support count, the triangle-partner
// index build, the recompute peel) all run through it.

#ifndef TKC_TESTS_SCOPED_DEFAULT_KERNEL_H_
#define TKC_TESTS_SCOPED_DEFAULT_KERNEL_H_

#include "tkc/graph/intersect_simd.h"

namespace tkc {

class ScopedDefaultKernel {
 public:
  explicit ScopedDefaultKernel(IntersectKernel kernel)
      : saved_(DefaultKernel()) {
    SetDefaultKernel(kernel);
  }
  ~ScopedDefaultKernel() { SetDefaultKernel(saved_); }
  ScopedDefaultKernel(const ScopedDefaultKernel&) = delete;
  ScopedDefaultKernel& operator=(const ScopedDefaultKernel&) = delete;

 private:
  IntersectKernel saved_;
};

}  // namespace tkc

#endif  // TKC_TESTS_SCOPED_DEFAULT_KERNEL_H_
