// Thin decorators of the engine's two substrate interfaces. The benchmark
// assembles its sites itself (core::Site takes a Network& and a
// StorageBackend&), so in the traced run every call the engine makes into
// the network or the storage layer passes through one of these and becomes
// a span. Nothing in the engine knows they exist.
#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dtx/data_manager.hpp"
#include "net/network.hpp"
#include "storage/storage.hpp"
#include "trace.hpp"

namespace dtxbench {

/// Span name ids "net.send.<payload>", one per net::Payload alternative.
class PayloadNames {
 public:
  PayloadNames() { fill(std::make_index_sequence<kCount>{}); }
  [[nodiscard]] std::uint16_t operator[](std::size_t index) const {
    return ids_[index];
  }

 private:
  static constexpr std::size_t kCount =
      std::variant_size_v<dtx::net::Payload>;
  template <std::size_t... I>
  void fill(std::index_sequence<I...>) {
    ((ids_[I] = Tracer::instance().intern(
          std::string("net.send.") +
          dtx::net::payload_name(dtx::net::Payload{std::in_place_index<I>}))),
     ...);
  }
  std::array<std::uint16_t, kCount> ids_{};
};

/// Transaction id carried by a payload, 0 when it carries none.
inline std::uint64_t txn_of(const dtx::net::Payload& payload) {
  return std::visit(
      [](const auto& body) -> std::uint64_t {
        if constexpr (requires { body.txn; }) {
          return body.txn;
        } else {
          return 0;
        }
      },
      payload);
}

class TracedNetwork final : public dtx::net::Network {
 public:
  /// Keeps copies of up to `sample_capacity` sent messages (traced phase
  /// only) for the codec replay.
  TracedNetwork(dtx::net::Network& inner, std::size_t sample_capacity)
      : inner_(inner), sample_capacity_(sample_capacity) {}

  dtx::net::Mailbox& register_site(dtx::net::SiteId site) override {
    return inner_.register_site(site);
  }
  [[nodiscard]] std::vector<dtx::net::SiteId> sites() const override {
    return inner_.sites();
  }
  void send(dtx::net::Message message) override {
    if (!recording_.load(std::memory_order_relaxed)) {
      inner_.send(std::move(message));
      return;
    }
    SpanScope span(names_[message.payload.index()], txn_of(message.payload));
    if (span.active()) {
      span.set_bytes(dtx::net::payload_wire_size(message.payload));
      std::lock_guard<std::mutex> lock(sample_mutex_);
      if (samples_.size() < sample_capacity_) samples_.push_back(message);
    }
    inner_.send(std::move(message));
  }
  void set_site_down(dtx::net::SiteId site, bool down) override {
    inner_.set_site_down(site, down);
  }
  void add_peer(dtx::net::SiteId site, const std::string& address) override {
    inner_.add_peer(site, address);
  }
  [[nodiscard]] dtx::net::NetworkStats stats() const override {
    return inner_.stats();
  }
  void interrupt_all() override { inner_.interrupt_all(); }

  /// From now on pass every call through unrecorded (a round's engine that
  /// outlives its traced phase must not leak spans into a later round's).
  void stop_recording() { recording_.store(false); }

  std::vector<dtx::net::Message> take_samples() {
    std::lock_guard<std::mutex> lock(sample_mutex_);
    return std::exchange(samples_, {});
  }

 private:
  dtx::net::Network& inner_;
  const std::size_t sample_capacity_;
  std::atomic<bool> recording_{true};
  PayloadNames names_;
  std::mutex sample_mutex_;
  std::vector<dtx::net::Message> samples_;
};

class TracedStore final : public dtx::storage::StorageBackend {
 public:
  explicit TracedStore(dtx::storage::StorageBackend& inner) : inner_(inner) {}

  /// See TracedNetwork::stop_recording.
  void stop_recording() { recording_.store(false); }

  [[nodiscard]] const char* kind() const noexcept override {
    return inner_.kind();
  }
  dtx::util::Result<std::string> load(const std::string& name) override {
    if (!recording()) return inner_.load(name);
    SpanScope span(ids_.load);
    return inner_.load(name);
  }
  /// A document key written while the engine runs is a checkpoint (the
  /// redo log compacted into a fresh snapshot); internal keys are not.
  dtx::util::Status store(const std::string& name,
                          const std::string& xml) override {
    if (!recording()) return inner_.store(name, xml);
    SpanScope span(dtx::core::DataManager::is_internal_key(name)
                       ? ids_.store
                       : ids_.checkpoint);
    span.set_bytes(xml.size());
    return inner_.store(name, xml);
  }
  dtx::util::Status append(const std::string& name,
                           const std::string& data) override {
    if (!recording()) return inner_.append(name, data);
    SpanScope span(ids_.append);
    span.set_bytes(data.size());
    return inner_.append(name, data);
  }
  dtx::util::Result<std::string> read_log(const std::string& name) override {
    if (!recording()) return inner_.read_log(name);
    SpanScope span(ids_.read_log);
    return inner_.read_log(name);
  }
  dtx::util::Status truncate(const std::string& name) override {
    if (!recording()) return inner_.truncate(name);
    SpanScope span(ids_.truncate);
    return inner_.truncate(name);
  }
  bool exists(const std::string& name) override { return inner_.exists(name); }
  std::vector<std::string> list() override { return inner_.list(); }
  dtx::util::Status remove(const std::string& name) override {
    if (!recording()) return inner_.remove(name);
    SpanScope span(ids_.remove);
    return inner_.remove(name);
  }

 private:
  struct Ids {
    std::uint16_t load = Tracer::instance().intern("storage.load");
    std::uint16_t store = Tracer::instance().intern("storage.store");
    std::uint16_t checkpoint = Tracer::instance().intern("storage.checkpoint");
    std::uint16_t append = Tracer::instance().intern("storage.append");
    std::uint16_t read_log = Tracer::instance().intern("storage.read_log");
    std::uint16_t truncate = Tracer::instance().intern("storage.truncate");
    std::uint16_t remove = Tracer::instance().intern("storage.remove");
  };
  [[nodiscard]] bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  dtx::storage::StorageBackend& inner_;
  Ids ids_;
  std::atomic<bool> recording_{true};
};

}  // namespace dtxbench
