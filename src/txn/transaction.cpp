#include "txn/transaction.hpp"

namespace dtx::txn {

namespace {
constexpr int kSiteBits = 10;
constexpr TxnId kSiteMask = (TxnId{1} << kSiteBits) - 1;
}  // namespace

TxnId make_txn_id(std::uint64_t begin_micros, SiteId site) noexcept {
  return (begin_micros << kSiteBits) | (site & kSiteMask);
}

SiteId txn_coordinator(TxnId id) noexcept {
  return static_cast<SiteId>(id & kSiteMask);
}

std::uint64_t txn_begin_micros(TxnId id) noexcept { return id >> kSiteBits; }

const char* txn_state_name(TxnState state) noexcept {
  switch (state) {
    case TxnState::kActive: return "active";
    case TxnState::kWaiting: return "waiting";
    case TxnState::kCommitted: return "committed";
    case TxnState::kAborted: return "aborted";
    case TxnState::kFailed: return "failed";
  }
  return "?";
}

std::size_t Transaction::next_operation() const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!states_[i].executed) return i;
  }
  return states_.size();
}

void Transaction::complete(TxnResult result) {
  std::function<void(const TxnResult&)> hook;
  std::shared_ptr<const TxnResult> published;
  {
    sync::MutexLock lock(latch_mutex_);
    // First completion wins (e.g. abort vs late commit).
    if (result_ != nullptr) return;
    result_ = std::make_shared<const TxnResult>(std::move(result));
    published = result_;
    hook = std::move(on_complete_);
    on_complete_ = nullptr;
  }
  latch_cv_.notify_all();
  if (hook) hook(*published);
}

void Transaction::set_on_complete(
    std::function<void(const TxnResult&)> hook) {
  std::shared_ptr<const TxnResult> published;
  {
    sync::MutexLock lock(latch_mutex_);
    if (result_ == nullptr) {
      on_complete_ = std::move(hook);
      return;
    }
    published = result_;
  }
  if (hook) hook(*published);
}

TxnResult Transaction::await() {
  std::shared_ptr<const TxnResult> published;
  {
    sync::MutexLock lock(latch_mutex_);
    latch_cv_.wait(latch_mutex_, [&] { return result_ != nullptr; });
    published = result_;
  }
  return *published;
}

std::shared_ptr<const TxnResult> Transaction::await_for(
    std::chrono::microseconds timeout) {
  sync::MutexLock lock(latch_mutex_);
  if (!latch_cv_.wait_for(latch_mutex_, timeout,
                          [&] { return result_ != nullptr; })) {
    return nullptr;
  }
  return result_;
}

bool Transaction::completed() const {
  sync::MutexLock lock(latch_mutex_);
  return result_ != nullptr;
}

}  // namespace dtx::txn
