// KvTransport decorator that injects scheduled faults.
//
// Wraps any real transport (loopback, sharded loopback, TCP) and applies a
// FaultSchedule to every roundtrip: crash windows reject the attempt,
// message drops lose it, truncation corrupts the response bytes mid-frame,
// and "partial" strips trailing VALUE blocks while keeping the frame
// well-formed — the short multi-get a overloaded server actually sends.
// Each roundtrip advances the logical tick, so a fixed (spec, call
// sequence) pair replays the exact same fault pattern; retries are new
// ticks and therefore fresh draws.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "faultsim/fault_schedule.hpp"
#include "kv/kv_transport.hpp"

namespace rnb::faultsim {

class FaultInjectingTransport final : public kv::KvTransport {
 public:
  FaultInjectingTransport(kv::KvTransport& inner, FaultSchedule schedule)
      : inner_(inner), schedule_(std::move(schedule)) {}

  ServerId num_servers() const noexcept override {
    return inner_.num_servers();
  }

  kv::TransportResult roundtrip(ServerId s, std::string_view request,
                                std::string& response) override;

  /// Faults actually dealt, for assertions and bench reporting.
  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t down_rejections = 0;
    std::uint64_t drops = 0;
    std::uint64_t truncations = 0;
    std::uint64_t partials = 0;
  };
  Stats stats() const {
    const std::lock_guard lock(mu_);
    return stats_;
  }

  Tick tick() const {
    const std::lock_guard lock(mu_);
    return tick_;
  }

  const FaultSchedule& schedule() const noexcept { return schedule_; }

 private:
  kv::KvTransport& inner_;
  FaultSchedule schedule_;
  mutable std::mutex mu_;  // guards tick_ and stats_ (inner locks itself)
  Tick tick_ = 0;
  Stats stats_;
};

}  // namespace rnb::faultsim
