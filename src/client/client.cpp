#include "client/client.hpp"

#include <map>
#include <optional>
#include <thread>

namespace dtx::client {

using util::Code;
using util::Result;
using util::Status;

const char* routing_kind_name(RoutingPolicy::Kind kind) noexcept {
  switch (kind) {
    case RoutingPolicy::Kind::kExplicit: return "explicit";
    case RoutingPolicy::Kind::kRoundRobin: return "round-robin";
    case RoutingPolicy::Kind::kCatalogAffinity: return "catalog-affinity";
  }
  return "?";
}

Result<RoutingPolicy::Kind> parse_routing_kind(std::string_view name) {
  if (name == "explicit") return RoutingPolicy::Kind::kExplicit;
  if (name == "round-robin" || name == "rr") {
    return RoutingPolicy::Kind::kRoundRobin;
  }
  if (name == "affinity" || name == "catalog-affinity") {
    return RoutingPolicy::Kind::kCatalogAffinity;
  }
  return Status(Code::kInvalidArgument,
                "unknown routing '" + std::string(name) +
                    "' (explicit|round-robin|affinity)");
}

// --- TxnHandle ---------------------------------------------------------------

Result<txn::TxnResult> TxnHandle::await_for(
    std::chrono::microseconds timeout) {
  if (!valid()) return Status(Code::kInternal, "empty transaction handle");
  std::shared_ptr<const txn::TxnResult> result = txn_->await_for(timeout);
  if (result == nullptr) {
    return Status(Code::kTimeout,
                  "transaction " + std::to_string(txn_->id()) +
                      " still running after " +
                      std::to_string(timeout.count()) + "us");
  }
  return *result;
}

txn::TxnResult TxnHandle::await() {
  if (!valid()) {
    // Keep the no-Result signature total: an empty handle yields a failed
    // result instead of dereferencing null (await_for reports the same
    // condition as a Status).
    txn::TxnResult result;
    result.state = txn::TxnState::kFailed;
    result.reason = txn::AbortReason::kSiteFailure;
    result.detail = "empty transaction handle";
    return result;
  }
  return txn_->await();
}

// --- Session -----------------------------------------------------------------

namespace {

/// Catalog-affinity scoring: the site hosting the most of the
/// transaction's operation references coordinates (every local reference
/// runs in the coordinator's own slice, delivered without crossing the
/// wire, and leaves the remote slices smaller). Ties break to the lowest
/// site id so routing is deterministic.
SiteId affinity_site(const Cluster& cluster, const PreparedTxn& txn,
                     bool* resolved) {
  std::map<SiteId, std::size_t> scores;
  // One pinned view for the whole scoring pass: hosting sets come back by
  // const reference instead of a fresh vector per operation.
  const core::Catalog::View view = cluster.catalog().view();
  for (const txn::Operation& op : txn.ops()) {
    for (SiteId site : view->sites_of(op.doc)) {
      ++scores[site];
    }
  }
  *resolved = !scores.empty();
  SiteId best = 0;
  std::size_t best_score = 0;
  for (const auto& [site, score] : scores) {  // ordered by site id
    if (score > best_score) {
      best = site;
      best_score = score;
    }
  }
  return best;
}

}  // namespace

SiteId Session::route_impl(const PreparedTxn& txn, bool advance_cursor) const {
  // The round-robin cursor only advances on actual submissions
  // (route_for_submit); the public route() is a pure preview.
  const auto cursor = [&] {
    const std::uint64_t at = advance_cursor
                                 ? client_.round_robin_.fetch_add(1)
                                 : client_.round_robin_.load();
    return static_cast<SiteId>(at % client_.cluster_.site_count());
  };
  if (options_.read_only_affinity &&
      options_.routing.kind != RoutingPolicy::Kind::kCatalogAffinity &&
      txn.read_only()) {
    bool resolved = false;
    const SiteId site = affinity_site(client_.cluster_, txn, &resolved);
    if (resolved) return site;
    // Unknown documents: fall through to the configured policy.
  }
  switch (options_.routing.kind) {
    case RoutingPolicy::Kind::kExplicit:
      return options_.routing.site;
    case RoutingPolicy::Kind::kRoundRobin:
      return cursor();
    case RoutingPolicy::Kind::kCatalogAffinity: {
      bool resolved = false;
      const SiteId site = affinity_site(client_.cluster_, txn, &resolved);
      if (resolved) return site;
      // No referenced document is in the catalog (the submission will
      // abort with kParseError); spread the load anyway.
      return cursor();
    }
  }
  return options_.routing.site;
}

SiteId Session::route(const PreparedTxn& txn) const {
  return route_impl(txn, /*advance_cursor=*/false);
}

SiteId Session::route_for_submit(const PreparedTxn& txn) {
  return route_impl(txn, /*advance_cursor=*/true);
}

Result<TxnHandle> Session::submit(const PreparedTxn& txn) {
  if (txn.empty()) {
    return Status(Code::kInvalidArgument,
                  "transaction needs at least one operation");
  }
  const SiteId site = route_for_submit(txn);
  auto handle = client_.cluster_.submit(site, txn.clone_ops());
  if (!handle) return handle.status();
  return TxnHandle(std::move(handle).value(), site);
}

Result<std::vector<TxnHandle>> Session::submit_all(
    const std::vector<PreparedTxn>& txns) {
  // Validate the whole batch before submitting anything: a rejected
  // transaction mid-batch would otherwise leave the earlier ones running
  // with their handles dropped.
  for (std::size_t i = 0; i < txns.size(); ++i) {
    if (txns[i].empty()) {
      return Status(Code::kInvalidArgument,
                    "transaction " + std::to_string(i) +
                        " needs at least one operation");
    }
  }
  std::vector<TxnHandle> handles;
  handles.reserve(txns.size());
  for (const PreparedTxn& txn : txns) {
    auto handle = submit(txn);
    if (!handle) return handle.status();  // cluster-wide failure (stopped)
    handles.push_back(std::move(handle).value());
  }
  return handles;
}

Result<txn::TxnResult> Session::execute(const PreparedTxn& txn) {
  retries_ = 0;
  std::uint32_t deadlock_retries = 0;
  std::uint32_t other_retries = 0;
  std::optional<txn::TxnResult> last_abort;
  for (;;) {
    auto handle = submit(txn);
    if (!handle) {
      // A failed *re*-submission (e.g. the cluster stopped between
      // attempts) must not eat the transaction's real outcome.
      if (last_abort.has_value()) return std::move(*last_abort);
      return handle.status();
    }

    txn::TxnResult result;
    if (options_.await_timeout.count() > 0) {
      auto awaited = handle.value().await_for(options_.await_timeout);
      if (!awaited) return awaited.status();
      result = std::move(awaited).value();
    } else {
      result = handle.value().await();
    }

    if (result.state != txn::TxnState::kAborted ||
        !txn::abort_reason_retryable(result.reason)) {
      return result;
    }
    const bool budget_left =
        result.reason == txn::AbortReason::kDeadlockVictim
            ? deadlock_retries < options_.retry.max_deadlock_retries
            : other_retries < options_.retry.max_retries;
    if (!budget_left) return result;
    if (result.reason == txn::AbortReason::kDeadlockVictim) {
      ++deadlock_retries;
    } else {
      ++other_retries;
    }
    last_abort = std::move(result);
    ++retries_;
    if (options_.retry.backoff.count() > 0) {
      std::this_thread::sleep_for(options_.retry.backoff * retries_);
    }
  }
}

}  // namespace dtx::client
