#include "net/sim_network.hpp"

#include <algorithm>
#include <cassert>

namespace dtx::net {

SimNetwork::SimNetwork(NetworkOptions options) : options_(options) {}

Mailbox& SimNetwork::register_site(SiteId site) {
  sync::MutexLock lock(mutex_);
  auto& slot = mailboxes_[site];
  if (slot == nullptr) slot = std::make_unique<Mailbox>();
  return *slot;
}

std::vector<SiteId> SimNetwork::sites() const {
  sync::MutexLock lock(mutex_);
  std::vector<SiteId> out;
  out.reserve(mailboxes_.size());
  for (const auto& [site, mailbox] : mailboxes_) {
    (void)mailbox;
    if (!is_client_id(site)) out.push_back(site);
  }
  return out;
}

void SimNetwork::send(Message message) {
  // Counted before the lock: sizing walks the whole payload.
  const std::size_t bytes = payload_wire_size(message.payload);
  Mailbox* mailbox = nullptr;
  Mailbox::Clock::time_point deliver_at;
  bool duplicate = false;
  {
    sync::MutexLock lock(mutex_);
    const auto now = Mailbox::Clock::now();
    const FaultPlan::Decision fate = faults_.apply(message, now);
    if (fate.drop) {
      ++stats_.messages_dropped;
      return;
    }
    duplicate = fate.duplicate;
    const auto it = mailboxes_.find(message.to);
    assert(it != mailboxes_.end() && "destination site not registered");
    if (it == mailboxes_.end()) return;
    mailbox = it->second.get();

    ++stats_.messages_sent;
    ++stats_.sent_by_kind[message.payload.index()];
    stats_.bytes_sent += bytes;

    auto transmit = std::chrono::microseconds(0);
    if (options_.bandwidth_bytes_per_sec > 0) {
      transmit = std::chrono::microseconds(
          bytes * 1'000'000 / options_.bandwidth_bytes_per_sec);
    }
    // Serialize transmissions per link, then add propagation latency plus
    // any fault-injected extra delay.
    const auto link = std::make_pair(message.from, message.to);
    auto& link_ready = link_ready_at_[link];
    const auto start = std::max(link_ready, now);
    link_ready = start + transmit;
    deliver_at = link_ready + options_.latency + fate.extra_delay;
    // Extra delays vary as the fault plan changes; clamp so delivery times
    // stay monotone per link (the FIFO guarantee survives fault changes).
    auto& last_delivery = link_last_delivery_[link];
    deliver_at = std::max(deliver_at, last_delivery);
    last_delivery = deliver_at;
  }
  if (duplicate) {
    // The duplicate lands immediately after the original (same stamp; the
    // mailbox sequence number keeps the order stable).
    Message copy = message;
    mailbox->push(std::move(copy), deliver_at);
  }
  mailbox->push(std::move(message), deliver_at);
}

void SimNetwork::faults(const std::function<void(FaultPlan&)>& mutate) {
  sync::MutexLock lock(mutex_);
  mutate(faults_);
}

void SimNetwork::partition_for(SiteId a, SiteId b,
                               std::chrono::microseconds duration) {
  sync::MutexLock lock(mutex_);
  faults_.partition_for(a, b, duration);
}

void SimNetwork::heal() {
  sync::MutexLock lock(mutex_);
  faults_.heal();
}

void SimNetwork::set_site_down(SiteId site, bool down) {
  sync::MutexLock lock(mutex_);
  faults_.set_site_down(site, down);
}

bool SimNetwork::site_down(SiteId site) const {
  sync::MutexLock lock(mutex_);
  return faults_.site_down(site);
}

NetworkStats SimNetwork::stats() const {
  sync::MutexLock lock(mutex_);
  return stats_;
}

FaultStats SimNetwork::fault_stats() const {
  sync::MutexLock lock(mutex_);
  return faults_.stats();
}

void SimNetwork::interrupt_all() {
  sync::MutexLock lock(mutex_);
  for (auto& [site, mailbox] : mailboxes_) {
    (void)site;
    mailbox->interrupt();
  }
}

}  // namespace dtx::net
