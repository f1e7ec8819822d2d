#include "tkc/graph/delta_csr.h"

#include <algorithm>
#include <utility>

#include "tkc/obs/trace.h"
#include "tkc/util/check.h"

namespace tkc {

namespace {

void InsertSorted(std::vector<Neighbor>& adj, Neighbor nb) {
  auto it = std::lower_bound(adj.begin(), adj.end(), nb);
  TKC_DCHECK(it == adj.end() || it->vertex != nb.vertex);
  adj.insert(it, nb);
}

void EraseSorted(std::vector<Neighbor>& adj, VertexId v) {
  auto it = std::lower_bound(adj.begin(), adj.end(), Neighbor{v, kInvalidEdge});
  TKC_CHECK_MSG(it != adj.end() && it->vertex == v,
                "DeltaCsr: adjacency entry missing on erase");
  adj.erase(it);
}

}  // namespace

DeltaCsr::DeltaCsr(std::shared_ptr<const CsrGraph> base)
    : base_(std::move(base)) {
  TKC_CHECK_MSG(base_ != nullptr, "DeltaCsr: null base snapshot");
  base_num_vertices_ = base_->NumVertices();
  base_capacity_ = base_->EdgeCapacity();
  num_vertices_ = base_num_vertices_;
  num_live_edges_ = base_->NumEdges();
  overlay_index_.assign(num_vertices_, -1);
  base_removed_.assign(base_capacity_, 0);
}

DeltaCsr::DeltaCsr(const Graph& g)
    : DeltaCsr(std::make_shared<const CsrGraph>(g)) {}

EdgeId DeltaCsr::FindEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) {
    return kInvalidEdge;
  }
  if (Degree(u) > Degree(v)) std::swap(u, v);
  NeighborSpan adj = Neighbors(u);
  const Neighbor* it =
      std::lower_bound(adj.begin(), adj.end(), Neighbor{v, kInvalidEdge});
  if (it == adj.end() || it->vertex != v) return kInvalidEdge;
  return it->edge;
}

uint32_t DeltaCsr::CountCommonNeighbors(VertexId u, VertexId v) const {
  uint32_t count = 0;
  ForEachCommonNeighbor(u, v, [&](VertexId, EdgeId, EdgeId) { ++count; });
  return count;
}

std::vector<EdgeId> DeltaCsr::EdgeIds() const {
  std::vector<EdgeId> ids;
  ids.reserve(NumEdges());
  ForEachEdge([&](EdgeId e, const Edge&) { ids.push_back(e); });
  return ids;
}

VertexId DeltaCsr::AddVertex() {
  EnsureVertices(num_vertices_ + 1);
  return num_vertices_ - 1;
}

void DeltaCsr::EnsureVertices(VertexId n) {
  if (n <= num_vertices_) return;
  overlay_index_.resize(n, -1);
  num_vertices_ = n;
}

std::vector<Neighbor>& DeltaCsr::OverlayFor(VertexId v) {
  TKC_DCHECK(v < num_vertices_);
  int32_t idx = overlay_index_[v];
  if (idx < 0) {
    idx = static_cast<int32_t>(overlay_.size());
    overlay_.emplace_back();
    if (v < base_num_vertices_) {
      NeighborSpan adj = base_->Neighbors(v);
      overlay_.back().assign(adj.begin(), adj.end());
    }
    overlay_index_[v] = idx;
  }
  return overlay_[idx];
}

EdgeId DeltaCsr::AddEdge(VertexId u, VertexId v, bool* inserted) {
  TKC_CHECK_MSG(u != v, "DeltaCsr::AddEdge: self-loops are not allowed");
  EnsureVertices(std::max(u, v) + 1);
  const EdgeId existing = FindEdge(u, v);
  if (existing != kInvalidEdge) {
    if (inserted) *inserted = false;
    return existing;
  }
  const EdgeId id = static_cast<EdgeId>(base_capacity_ + delta_edges_.size());
  delta_edges_.push_back(Edge{std::min(u, v), std::max(u, v)});
  InsertSorted(OverlayFor(u), Neighbor{v, id});
  InsertSorted(OverlayFor(v), Neighbor{u, id});
  ++num_live_edges_;
  ++edits_since_compaction_;
  if (inserted) *inserted = true;
  return id;
}

EdgeId DeltaCsr::RemoveEdge(VertexId u, VertexId v) {
  const EdgeId e = FindEdge(u, v);
  if (e == kInvalidEdge) return kInvalidEdge;
  RemoveEdgeById(e);
  return e;
}

void DeltaCsr::RemoveEdgeById(EdgeId e) {
  TKC_CHECK_MSG(IsEdgeAlive(e), "DeltaCsr::RemoveEdgeById: dead edge id");
  const Edge edge = GetEdge(e);
  EraseSorted(OverlayFor(edge.u), edge.v);
  EraseSorted(OverlayFor(edge.v), edge.u);
  if (e < base_capacity_) {
    base_removed_[e] = 1;
  } else {
    delta_edges_[e - base_capacity_] = Edge{};
  }
  --num_live_edges_;
  ++edits_since_compaction_;
}

std::shared_ptr<const CsrGraph> DeltaCsr::Frozen() const {
  return Dirty() ? std::make_shared<const CsrGraph>(CsrGraph::Freeze(*this))
                 : base_;
}

std::shared_ptr<const CsrGraph> DeltaCsr::Compact() {
  TKC_SPAN("delta_csr.compact");
  base_ = std::make_shared<const CsrGraph>(CsrGraph::Freeze(*this));
  base_num_vertices_ = base_->NumVertices();
  base_capacity_ = base_->EdgeCapacity();
  overlay_index_.assign(num_vertices_, -1);
  overlay_.clear();
  delta_edges_.clear();
  base_removed_.assign(base_capacity_, 0);
  edits_since_compaction_ = 0;
  ++epoch_;
  return base_;
}

}  // namespace tkc
