#include "kv/transport.hpp"

// Explicit instantiations of the shipped fleets, compiled under the
// library's full warning set.
namespace rnb::kv {

const char* to_string(TransportStatus status) noexcept {
  switch (status) {
    case TransportStatus::kOk: return "ok";
    case TransportStatus::kDropped: return "dropped";
    case TransportStatus::kServerDown: return "server_down";
    case TransportStatus::kTimeout: return "timeout";
  }
  return "unknown";
}

template class BasicLoopbackTransport<KvServer>;
template class BasicLoopbackTransport<ShardedKvServer, false>;
template class BasicLoopbackTransport<ShardedMapKvServer, false>;
}  // namespace rnb::kv
