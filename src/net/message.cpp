#include "net/message.hpp"

#include "net/codec.hpp"

namespace dtx::net {

const char* txn_outcome_name(TxnOutcome outcome) noexcept {
  switch (outcome) {
    case TxnOutcome::kUnknown: return "unknown";
    case TxnOutcome::kActive: return "active";
    case TxnOutcome::kCommitted: return "committed";
    case TxnOutcome::kAborted: return "aborted";
  }
  return "unknown";
}

const char* payload_name(const Payload& payload) noexcept {
  return kPayloadNames[payload.index()];
}

std::size_t payload_wire_size(const Payload& payload) noexcept {
  return codec::encoded_payload_size(payload);
}

}  // namespace dtx::net
