// Short names for the library's namespaces inside the benchmark.
#ifndef SWBENCH_ALIASES_H_
#define SWBENCH_ALIASES_H_

namespace swfomc {
namespace api {}
namespace closedforms {}
namespace cq {}
namespace fo2 {}
namespace grounding {}
namespace io {}
namespace logic {}
namespace nnf {}
namespace numeric {}
namespace prop {}
namespace serve {}
namespace wmc {}
}  // namespace swfomc

namespace swbench {
namespace api = swfomc::api;
namespace closedforms = swfomc::closedforms;
namespace cq = swfomc::cq;
namespace fo2 = swfomc::fo2;
namespace grounding = swfomc::grounding;
namespace io = swfomc::io;
namespace logic = swfomc::logic;
namespace nnf = swfomc::nnf;
namespace numeric = swfomc::numeric;
namespace prop = swfomc::prop;
namespace serve = swfomc::serve;
namespace wmc = swfomc::wmc;
}  // namespace swbench

#endif  // SWBENCH_ALIASES_H_
