#include "tkc/patterns/events.h"

#include <algorithm>

#include "tkc/core/core_extraction.h"
#include "tkc/patterns/patterns.h"

namespace tkc {

std::string ToString(CliqueEvent::Type type) {
  switch (type) {
    case CliqueEvent::Type::kNewForm:
      return "NewForm";
    case CliqueEvent::Type::kBridge:
      return "Bridge";
    case CliqueEvent::Type::kNewJoin:
      return "NewJoin";
  }
  return "Unknown";
}

namespace {

void AppendEventsFor(const LabeledGraph& lg, const TemplateSpec& spec,
                     CliqueEvent::Type type,
                     const EventDetectorOptions& options,
                     std::vector<CliqueEvent>* events) {
  TemplateDetectionResult det = DetectTemplateCliques(lg, spec);
  if (det.special_edges.empty()) return;
  // Dense regions = triangle-connected cores of the special subgraph at
  // the event threshold, each reported once at its own peak level.
  uint32_t min_kappa = std::max(
      1u, options.min_clique_size >= 2 ? options.min_clique_size - 2 : 1u);
  std::vector<CoreSubgraph> cores =
      TriangleConnectedCores(CsrGraph(lg.graph), det.kappa_special,
                             min_kappa);
  // Keep only cores made of special edges (kappa_special is 0 elsewhere, so
  // min_kappa >= 1 guarantees this; at min_kappa == 0 skip non-special).
  std::vector<CliqueEvent> typed;
  for (const CoreSubgraph& core : cores) {
    uint32_t peak = 0;
    for (EdgeId e : core.edges) peak = std::max(peak, det.kappa_special[e]);
    CliqueEvent ev;
    ev.type = type;
    ev.clique_size = peak + 2;
    ev.vertices = core.vertices;
    if (ev.clique_size >= options.min_clique_size) typed.push_back(ev);
  }
  std::sort(typed.begin(), typed.end(),
            [](const CliqueEvent& a, const CliqueEvent& b) {
              return a.clique_size > b.clique_size;
            });
  if (typed.size() > options.max_events_per_type) {
    typed.resize(options.max_events_per_type);
  }
  events->insert(events->end(), typed.begin(), typed.end());
}

}  // namespace

std::vector<CliqueEvent> DetectEvents(const Graph& old_graph,
                                      const Graph& new_graph,
                                      const EventDetectorOptions& options) {
  LabeledGraph lg = LabelFromGraphs(old_graph, new_graph);
  std::vector<CliqueEvent> events;
  AppendEventsFor(lg, NewFormSpec(), CliqueEvent::Type::kNewForm, options,
                  &events);
  AppendEventsFor(lg, BridgeSpec(), CliqueEvent::Type::kBridge, options,
                  &events);
  AppendEventsFor(lg, NewJoinSpec(), CliqueEvent::Type::kNewJoin, options,
                  &events);
  return events;
}

}  // namespace tkc
