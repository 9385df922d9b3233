// Span recorder of the traced run (Dapper-style: name, start, end, parent,
// transaction id). Spans are recorded only at seams the benchmark owns —
// the client call, the Network and StorageBackend decorators, and the
// single-threaded layer replay — and are kept in memory until the run
// ends, then written out as TSV.
//
// Recording is off unless enable(true): an untraced run constructs no
// decorators at all, so the recorder is idle there.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dtxbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t txn = 0;     ///< 0 = no transaction known at this seam
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t bytes = 0;   ///< payload bytes moved by the call, if any
  std::uint16_t name = 0;    ///< id from Tracer::intern
};

/// Per-name aggregate of a set of spans.
struct SpanAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  std::uint64_t bytes = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Stable small id for a span name (registered on first use).
  std::uint16_t intern(std::string_view name);
  [[nodiscard]] std::string name_of(std::uint16_t id);

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);

  /// Takes every span recorded since the last drain.
  std::vector<Span> drain();

  /// Aggregates by name.
  std::map<std::string, SpanAgg> aggregate(const std::vector<Span>& spans);

  /// Writes `spans` to a TSV file, one line per span.
  bool write_tsv(const std::string& path, const std::vector<Span>& spans);

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mutex;
    std::vector<Span> spans;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex names_mutex_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint16_t, std::less<>> ids_;
  Shard shards_[kShards];
};

/// RAII span: starts on construction when tracing is enabled, records on
/// destruction, and is the parent of every span opened on the same thread
/// while it lives.
class SpanScope {
 public:
  SpanScope(std::uint16_t name, std::uint64_t txn = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_txn(std::uint64_t txn) { span_.txn = txn; }
  void set_bytes(std::size_t bytes) {
    span_.bytes = static_cast<std::uint32_t>(bytes);
  }
  [[nodiscard]] bool active() const { return active_; }

 private:
  Span span_;
  std::uint64_t saved_parent_ = 0;
  bool active_ = false;
};

}  // namespace dtxbench
