#include "trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

namespace dtxbench {

namespace {
thread_local std::uint64_t current_span = 0;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint16_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

std::string Tracer::name_of(std::uint16_t id) {
  std::lock_guard<std::mutex> lock(names_mutex_);
  return id < names_.size() ? names_[id] : std::string("?");
}

void Tracer::record(const Span& span) {
  const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  std::lock_guard<std::mutex> lock(shards_[shard].mutex);
  shards_[shard].spans.push_back(span);
}

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
    shard.spans.clear();
  }
  return out;
}

std::map<std::string, SpanAgg> Tracer::aggregate(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanAgg> out;
  std::vector<SpanAgg*> by_id;
  for (const Span& span : spans) {
    if (span.name >= by_id.size()) by_id.resize(span.name + 1, nullptr);
    if (by_id[span.name] == nullptr) by_id[span.name] = &out[name_of(span.name)];
    SpanAgg& agg = *by_id[span.name];
    ++agg.count;
    agg.total_us += static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    agg.bytes += span.bytes;
  }
  return out;
}

bool Tracer::write_tsv(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\tname\ttxn\tstart_ns\tend_ns\tbytes\n";
  for (const Span& span : spans) {
    out << span.id << '\t' << span.parent << '\t' << name_of(span.name) << '\t'
        << span.txn << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.bytes << '\n';
  }
  return static_cast<bool>(out);
}

SpanScope::SpanScope(std::uint16_t name, std::uint64_t txn) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.id = tracer.next_id();
  span_.parent = current_span;
  span_.txn = txn;
  span_.name = name;
  saved_parent_ = current_span;
  current_span = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  current_span = saved_parent_;
  Tracer::instance().record(span_);
}

}  // namespace dtxbench
