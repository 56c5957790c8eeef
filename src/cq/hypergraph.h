#ifndef SWFOMC_CQ_HYPERGRAPH_H_
#define SWFOMC_CQ_HYPERGRAPH_H_

#include <set>
#include <string>
#include <vector>

#include "cq/conjunctive_query.h"

namespace swfomc::cq {

/// The hypergraph of a conjunctive query (Section 3.2): variables are
/// nodes, atoms are hyperedges (as node *sets* — repeated variables
/// collapse, which is harmless for symmetric evaluation).
class Hypergraph {
 public:
  struct Edge {
    std::string name;            // originating relation
    std::set<std::string> nodes;
  };

  void AddEdge(std::string name, std::set<std::string> nodes);

  const std::vector<Edge>& edges() const { return edges_; }
  std::set<std::string> Nodes() const;

  bool Empty() const { return edges_.empty(); }

 private:
  std::vector<Edge> edges_;
};

/// Builds the query's hypergraph.
Hypergraph BuildHypergraph(const ConjunctiveQuery& query);

}  // namespace swfomc::cq

#endif  // SWFOMC_CQ_HYPERGRAPH_H_
