// kvperf — a memaslap-style load generator for the mini-memcached
// (paper Appendix A's tool, reimplemented for the in-tree server).
//
//   build/examples/kvperf [--clients=2] [--keys-per-get=10] [--seconds=2]
//                         [--value-bytes=10] [--universe=20000]
//                         [--set-every=1000]
//
// Spins up one TCP server and hammers it from N client threads issuing
// multi-gets of the given size (with one set per `set-every` gets, like
// memaslap's 1:1000 default). Reports transactions/s and items/s — the
// exact measurement behind Figs. 13-14.
#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "kv/protocol.hpp"
#include "kv/tcp.hpp"

namespace {

using namespace rnb;

std::uint64_t arg_u64(int argc, char** argv, const std::string& key,
                      std::uint64_t fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) return std::stoull(arg.substr(prefix.size()));
  }
  return fallback;
}

struct ClientTotals {
  std::uint64_t transactions = 0;
  std::uint64_t keys = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t clients = arg_u64(argc, argv, "clients", 2);
  const std::uint64_t keys_per_get = arg_u64(argc, argv, "keys-per-get", 10);
  const std::uint64_t seconds = arg_u64(argc, argv, "seconds", 2);
  const std::uint64_t value_bytes = arg_u64(argc, argv, "value-bytes", 10);
  const std::uint64_t universe = arg_u64(argc, argv, "universe", 20000);
  const std::uint64_t set_every = arg_u64(argc, argv, "set-every", 1000);

  kv::TcpKvServer server(256u << 20);
  std::cout << "kvperf: " << clients << " clients, " << keys_per_get
            << " keys/get, " << value_bytes << "B values (TCP port "
            << server.port() << ")\n";

  {
    kv::TcpKvConnection conn(server.port());
    std::string req, resp;
    const std::string value(value_bytes, 'x');
    for (std::uint64_t i = 0; i < universe; ++i) {
      req.clear();
      kv::encode_set("key:" + std::to_string(i), value, false, req);
      conn.roundtrip(req, resp);
    }
  }

  std::atomic<bool> stop{false};
  std::vector<ClientTotals> totals(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      kv::TcpKvConnection conn(server.port());
      std::string req, resp;
      const std::string value(value_bytes, 'y');
      std::vector<std::string> keys(keys_per_get);
      std::uint64_t cursor = c * (universe / std::max<std::uint64_t>(clients, 1));
      std::uint64_t gets = 0;
      const auto send = [&](std::uint64_t keys_in_txn) {
        conn.roundtrip(req, resp);
        totals[c].keys += keys_in_txn;
      };
      while (!stop.load(std::memory_order_relaxed)) {
        req.clear();
        if (set_every != 0 && ++gets % set_every == 0) {
          kv::encode_set("key:" + std::to_string(cursor), value, false, req);
          send(0);
        } else {
          for (auto& k : keys) {
            k = "key:" + std::to_string(cursor);
            cursor = (cursor + 1) % universe;
          }
          kv::encode_get(keys, false, req);
          send(keys_per_get);
        }
        ++totals[c].transactions;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();

  std::uint64_t transactions = 0, keys = 0;
  for (const auto& t : totals) {
    transactions += t.transactions;
    keys += t.keys;
  }
  const double secs = static_cast<double>(seconds);
  std::cout << "transactions/s  " << static_cast<std::uint64_t>(
                   static_cast<double>(transactions) / secs)
            << "\nitems/s         "
            << static_cast<std::uint64_t>(static_cast<double>(keys) / secs)
            << "\nserver counters: " << server.server().counters().transactions
            << " transactions, " << server.server().counters().keys_returned
            << " keys returned\n";
  return 0;
}
