#include "tkc/verify/verify.h"

#include <string>
#include <utility>

#include "tkc/core/hierarchy.h"
#include "tkc/core/triangle_core.h"
#include "tkc/graph/csr.h"
#include "tkc/obs/timeline.h"
#include "tkc/verify/certificate.h"
#include "tkc/verify/nesting.h"
#include "tkc/verify/oracle.h"
#include "tkc/verify/structural.h"

namespace tkc::verify {

namespace {

// "static.modes_agree": peel in recompute mode and require κ and triangle
// counts to match the store-mode reference bit for bit. The peel *order*
// is deliberately not compared: the modes visit triangles differently, so
// ties in the bucket queue may break differently — only κ is contractual
// (StorageModesAgree in the unit suite pins the same boundary).
InvariantCheck CrossCheckModes(const CsrGraph& csr,
                               const TriangleCoreResult& reference) {
  const char* name = "static.modes_agree";
  std::string detail = "edges=" + std::to_string(csr.NumEdges());
  TriangleCoreResult other =
      ComputeTriangleCores(csr, TriangleStorageMode::kRecomputeTriangles);
  if (other.triangle_count != reference.triangle_count) {
    return Fail(name, detail,
                {kInvalidEdge, kInvalidVertex, kInvalidVertex, 0,
                 other.triangle_count, reference.triangle_count,
                 "storage modes disagree on the triangle count"});
  }
  Counterexample ce;
  bool ok = true;
  csr.ForEachEdge([&](EdgeId e, const Edge& edge) {
    if (!ok) return;
    if (reference.kappa[e] != other.kappa[e]) {
      ce = {e, edge.u, edge.v, 0, other.kappa[e], reference.kappa[e],
            "storage modes disagree on kappa"};
      ok = false;
    }
  });
  return ok ? Pass(name, std::move(detail))
            : Fail(name, std::move(detail), ce);
}

}  // namespace

VerifyReport RunFullVerification(std::shared_ptr<const CsrGraph> graph,
                                 const VerifyOptions& options) {
  TKC_SPAN("verify.full");
  VerifyReport report;

  const CsrGraph& csr = *graph;
  {
    TKC_SPAN("verify.structural");
    const Graph g = csr.ThawPreservingIds();
    report.Add(CheckGraphStructure(g));
    report.Add(CheckCsrStructure(csr));
    report.Add(CheckMirrorConsistency(g, csr));
  }

  TriangleCoreResult result;
  {
    TKC_SPAN("verify.decompose");
    result = ComputeTriangleCores(csr, TriangleStorageMode::kStoreTriangles);
  }
  {
    TKC_SPAN("verify.kappa_certificate");
    report.Merge(CheckKappaCertificate(csr, result.kappa));
  }
  {
    TKC_SPAN("verify.modes_agree");
    report.Add(CrossCheckModes(csr, result));
  }
  {
    TKC_SPAN("verify.nesting");
    CoreHierarchy hierarchy = BuildCoreHierarchy(csr, result);
    report.Add(CheckHierarchyNesting(hierarchy, csr, result));
    report.Add(CheckExtractionNesting(csr, result.kappa));
  }
  if (!options.events.empty()) {
    TKC_SPAN("verify.replay");
    ReplayOptions replay;
    replay.check_every = options.check_every;
    report.Merge(ReplayEventLog(std::move(graph), options.events, replay));
  }
  return report;
}

}  // namespace tkc::verify
