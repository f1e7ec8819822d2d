#ifndef TKC_CORE_GRAPH_TWIN_H_
#define TKC_CORE_GRAPH_TWIN_H_
// TKC-L070: Twin is declared for the builder Graph and again for the
// frozen CsrGraph. GraphOnly and FrozenOnly have one read type each and
// must not fire.

namespace tkc {

class Graph;
class CsrGraph;

int Twin(const Graph& g, int k);
int Twin(const CsrGraph& g,
         int k);

int GraphOnly(const Graph& g);
int FrozenOnly(const CsrGraph& g);

}  // namespace tkc

#endif  // TKC_CORE_GRAPH_TWIN_H_
