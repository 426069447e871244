#include "oracle.h"

#include <algorithm>

namespace perfbench {

namespace {
uint64_t Key(uint32_t version, uint32_t query) {
  return (static_cast<uint64_t>(version) << 32) | query;
}
}  // namespace

AnswerDigest Digest(std::span<const mrx::NodeId> answer) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (mrx::NodeId n : answer) {
    h ^= n;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return {h, answer.size()};
}

bool ChildAxisAnswer(const mrx::DataGraph& graph,
                     const mrx::PathExpression& query,
                     std::vector<mrx::NodeId>* answer) {
  answer->clear();
  for (size_t i = 0; i < query.num_steps(); ++i) {
    if (query.DescendantStep(i)) return false;
  }
  std::vector<mrx::NodeId> frontier;
  if (query.anchored()) {
    if (query.StepMatches(0, graph.label(graph.root()))) {
      frontier.push_back(graph.root());
    }
  } else if (query.label(0) == mrx::kWildcardLabel) {
    frontier.resize(graph.num_nodes());
    for (size_t n = 0; n < frontier.size(); ++n) {
      frontier[n] = static_cast<mrx::NodeId>(n);
    }
  } else {
    const auto bucket = graph.nodes_with_label(query.label(0));
    frontier.assign(bucket.begin(), bucket.end());
  }
  std::vector<uint8_t> seen(graph.num_nodes(), 0);
  std::vector<mrx::NodeId> next;
  for (size_t step = 1; step < query.num_steps() && !frontier.empty();
       ++step) {
    next.clear();
    for (mrx::NodeId u : frontier) {
      for (mrx::NodeId v : graph.children(u)) {
        if (seen[v] == 0 && query.StepMatches(step, graph.label(v))) {
          seen[v] = 1;
          next.push_back(v);
        }
      }
    }
    for (mrx::NodeId v : next) seen[v] = 0;
    frontier.swap(next);
  }
  std::sort(frontier.begin(), frontier.end());
  *answer = std::move(frontier);
  return true;
}

void AnswerSet::Add(const ObservedAnswer& answer, uint64_t count) {
  auto [it, fresh] = index_.emplace(answer, entries_.size());
  if (fresh) {
    entries_.emplace_back(answer, count);
  } else {
    entries_[it->second].second += count;
  }
}

void AnswerSet::Merge(const AnswerSet& other) {
  for (const auto& [answer, count] : other.entries_) Add(answer, count);
}

size_t AnswerSet::Hash::operator()(const ObservedAnswer& a) const {
  uint64_t h = a.digest.hash ^ (a.digest.size * 0x9e3779b97f4a7c15ULL);
  h ^= Key(a.version, a.query) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<size_t>(h ^ (h >> 31) ^ (a.cache_hit ? 1 : 0));
}

std::map<uint32_t, std::vector<uint32_t>> AnswerSet::QueriesByVersion()
    const {
  std::map<uint32_t, std::vector<uint32_t>> out;
  for (const auto& [a, count] : entries_) out[a.version].push_back(a.query);
  for (auto& [version, queries] : out) {
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  }
  return out;
}

void AnswerChecker::WalkVersion(uint32_t version, const mrx::DataGraph& graph,
                                const std::vector<uint32_t>& queries) {
  std::vector<mrx::NodeId> walk;
  for (uint32_t q : queries) {
    if (q < stream_.size() && ChildAxisAnswer(graph, stream_[q], &walk)) {
      expected_[Key(version, q)] = Digest(walk);
    }
  }
}

uint64_t AnswerChecker::Check(const AnswerSet& answers,
                              std::string* first_problem) const {
  uint64_t mismatches = 0;
  for (const auto& [a, count] : answers.entries()) {
    auto note = [&](const std::string& what) {
      mismatches += count;
      if (first_problem->empty()) *first_problem = what;
    };
    const auto it = expected_.find(Key(a.version, a.query));
    if (it == expected_.end()) {
      note("no walk of stream query " + std::to_string(a.query) +
           " on graph version " + std::to_string(a.version));
    } else if (!(it->second == a.digest)) {
      note("stream query " + std::to_string(a.query) + " on version " +
           std::to_string(a.version) + (a.cache_hit ? " (cache hit)" : "") +
           ": " + std::to_string(a.digest.size) + " nodes, walk has " +
           std::to_string(it->second.size));
    }
  }
  return mismatches;
}

}  // namespace perfbench
