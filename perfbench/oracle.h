#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's answer check, written independently of the library's
// evaluators: a child-axis walk over the DataGraph CSR. It starts from the
// first step's label bucket (the root, for anchored queries) and follows
// children whose label matches the next step.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "query/path_expression.h"

namespace perfbench {

/// Order-sensitive 64-bit digest of a sorted answer set, with its size.
struct AnswerDigest {
  uint64_t hash = 0;
  uint64_t size = 0;
  friend bool operator==(const AnswerDigest&, const AnswerDigest&) = default;
};
AnswerDigest Digest(std::span<const mrx::NodeId> answer);

/// Sorted answer of `query` on `graph`, by the child-axis walk. Only
/// child steps are supported (the §5 generator emits nothing else); for a
/// query with a descendant step it returns false.
bool ChildAxisAnswer(const mrx::DataGraph& graph,
                     const mrx::PathExpression& query,
                     std::vector<mrx::NodeId>* answer);

/// One answer as the run saw it: which stream query, on which graph
/// version, whether the answer cache served it, and what came back.
struct ObservedAnswer {
  uint32_t query = 0;
  uint32_t version = 0;
  bool cache_hit = false;
  AnswerDigest digest;
  friend bool operator==(const ObservedAnswer&,
                         const ObservedAnswer&) = default;
};

/// The distinct answers a run saw, each with how often it was seen, so the
/// memory the check needs does not grow with the query rate.
class AnswerSet {
 public:
  void Add(const ObservedAnswer& answer, uint64_t count);
  void Merge(const AnswerSet& other);
  const std::vector<std::pair<ObservedAnswer, uint64_t>>& entries() const {
    return entries_;
  }

  /// The distinct stream queries answered on each graph version.
  std::map<uint32_t, std::vector<uint32_t>> QueriesByVersion() const;

 private:
  struct Hash {
    size_t operator()(const ObservedAnswer& a) const;
  };
  std::vector<std::pair<ObservedAnswer, uint64_t>> entries_;
  std::unordered_map<ObservedAnswer, size_t, Hash> index_;
};

/// Checks observed answers against the walk on the graph version that
/// produced each. A version's graph is needed only while WalkVersion runs,
/// so a run can rebuild its versions one at a time.
class AnswerChecker {
 public:
  explicit AnswerChecker(const std::vector<mrx::PathExpression>& stream)
      : stream_(stream) {}

  /// Walks `queries` (stream indices) on `graph`, the graph of `version`,
  /// and keeps the digests of their answers.
  void WalkVersion(uint32_t version, const mrx::DataGraph& graph,
                   const std::vector<uint32_t>& queries);

  /// Number of answers that disagree with the walk (an answer whose
  /// version and query were never walked counts as a mismatch).
  /// `first_problem` gets a readable description of the first one.
  uint64_t Check(const AnswerSet& answers, std::string* first_problem) const;

 private:
  const std::vector<mrx::PathExpression>& stream_;
  std::unordered_map<uint64_t, AnswerDigest> expected_;  // (version, query)
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
