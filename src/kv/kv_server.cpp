#include "kv/kv_server.hpp"

// Explicit instantiations: compile the shipped server configurations in
// one TU under the library's full warning set, so template errors surface
// here instead of in whichever user TU first touches them.
namespace rnb::kv {
template class BasicKvServer<MemTable>;
template class BasicKvServer<ShardedSwissMemTable>;
template class BasicKvServer<ShardedMemTable>;
}  // namespace rnb::kv
