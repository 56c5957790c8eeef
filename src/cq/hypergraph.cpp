#include "cq/hypergraph.h"

namespace swfomc::cq {

void Hypergraph::AddEdge(std::string name, std::set<std::string> nodes) {
  edges_.push_back(Edge{std::move(name), std::move(nodes)});
}

std::set<std::string> Hypergraph::Nodes() const {
  std::set<std::string> nodes;
  for (const Edge& edge : edges_) {
    nodes.insert(edge.nodes.begin(), edge.nodes.end());
  }
  return nodes;
}

Hypergraph BuildHypergraph(const ConjunctiveQuery& query) {
  Hypergraph graph;
  for (const ConjunctiveQuery::QueryAtom& atom : query.atoms()) {
    graph.AddEdge(atom.relation, std::set<std::string>(
                                     atom.variables.begin(),
                                     atom.variables.end()));
  }
  return graph;
}

}  // namespace swfomc::cq
