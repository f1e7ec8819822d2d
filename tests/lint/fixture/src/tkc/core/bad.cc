// Seeded violations for tkc-lint's rule tests. This file is never
// compiled — it exists so tests/lint/run_lint_tests.sh can assert each
// rule fires on a known line.
#include <iostream>  // TKC-L020: iostream in library code

#include "tkc/obs/metrics.h"

namespace tkc {

void Bad() {
  auto& c = obs::MetricsRegistry::Global().GetCounter("undocumented.metric");
  c.Add(1);  // TKC-L001: not in the fixture doc table

  int* leak = new int(7);  // TKC-L010: raw new
  delete leak;             // TKC-L010: raw delete

  int r = std::rand();  // TKC-L020: banned API
  (void)r;

  TKC_SPAN("Bad.Span_Name");  // TKC-L030: uppercase segment
  TKC_SPAN_COUNTER("key_longer_than_the_arg_buffer", 1);  // TKC-L030: > 23
}

#include <immintrin.h>  // TKC-L060: intrinsics header

void StraySimd() {
  __m128i a = _mm_set1_epi32(1);  // TKC-L060: x86 intrinsic
  (void)a;
}

// TKC-L050 seed: the escape hatch below carries no justification comment
// (this comment is two lines up, outside the rule's window).

void Sneaky() TKC_NO_THREAD_SAFETY_ANALYSIS {
}

}  // namespace tkc
