#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

/// One thread's finished spans plus its stack of open ones. Buffers are
/// owned by the registry, so they outlive the thread that filled them.
struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> done;
  std::vector<const SpanRecord*> open;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = static_cast<uint32_t>(Registry().size());
    owned->done.reserve(1 << 14);
    buffer = owned.get();
    Registry().push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void EnableSpans(bool enabled) { g_enabled.store(enabled); }
bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request) {
  if (!SpansEnabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.thread = buffer.thread;
  if (!buffer.open.empty()) {
    record_.parent = buffer.open.back()->id;
    if (request == 0) request = buffer.open.back()->request;
  }
  record_.request = request;
  buffer.open.push_back(&record_);
  open_ = true;
  record_.start_ns = NowNs();
}

void Span::End() {
  if (!open_) return;
  record_.end_ns = NowNs();
  open_ = false;
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.done.push_back(record_);
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Registry()) {
    all.insert(all.end(), buffer->done.begin(), buffer->done.end());
  }
  return all;
}

namespace {

/// Duration of each span minus the durations of its direct children.
std::unordered_map<uint64_t, uint64_t> SelfNsById(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, uint64_t> self;
  self.reserve(spans.size());
  for (const SpanRecord& s : spans) self[s.id] = s.end_ns - s.start_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = self.find(s.parent);
    if (it == self.end()) continue;
    const uint64_t child = s.end_ns - s.start_ns;
    it->second = it->second >= child ? it->second - child : 0;
  }
  return self;
}

}  // namespace

uint64_t MaxThreadSelfNs(const std::vector<SpanRecord>& spans) {
  const auto self = SelfNsById(spans);
  std::unordered_map<uint32_t, uint64_t> per_thread;
  for (const SpanRecord& s : spans) per_thread[s.thread] += self.at(s.id);
  uint64_t most = 0;
  for (const auto& [thread, ns] : per_thread) most = std::max(most, ns);
  return most;
}

bool WriteSpansJsonl(const std::vector<SpanRecord>& spans,
                     const std::string& path, uint64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return false;
  std::vector<const SpanRecord*> order;
  order.reserve(spans.size());
  for (const SpanRecord& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                : a->id < b->id;
            });
  for (const SpanRecord* s : order) {
    out << "{\"name\":\"" << s->name << "\",\"id\":" << s->id
        << ",\"parent\":" << s->parent << ",\"request\":" << s->request
        << ",\"thread\":" << s->thread
        << ",\"start_ns\":" << (s->start_ns - origin_ns)
        << ",\"end_ns\":" << (s->end_ns - origin_ns) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
