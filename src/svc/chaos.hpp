#pragma once
/// \file chaos.hpp
/// \brief Self-targeted fault injection for hepexd (docs/service.md).
///
/// The same philosophy as `fault::Plan`, one layer up: where a fault plan
/// breaks the *simulated cluster*, a `ChaosPlan` breaks the *service's own
/// clients*. It is plain, seeded data — the load generator draws per
/// request from `util::Rng(seed)` streams, so a (plan, seed) pair replays
/// the exact same abuse — and every probability maps to one of the
/// server's defense layers:
///
///   slow_loris_prob   -> per-frame wall-clock deadline (framing)
///   disconnect_prob   -> mid-frame EOF handling (framing -> protocol error)
///   malformed_prob    -> parse limits + envelope validation (bad_request)
///   oversize_prob     -> declared-length cap before any read (oversized)
///   burst_*           -> bounded admission queue (shed)
///
/// A chaos run *passes* when every abusive request dies as its structured
/// error and every well-formed request still completes — zero daemon
/// crashes, hangs or protocol desyncs.

#include <cstdint>
#include <string>

#include "util/schemas.hpp"

namespace hepex::svc {

inline constexpr const char* kChaosSchema = util::schemas::kChaosPlan;

struct ChaosPlan {
  std::uint64_t seed = 42;  ///< drives every per-request draw

  /// Probability a request trickles its frame byte-by-byte with
  /// `stall_ms` pauses (slow-loris). The server must time the frame out,
  /// not wait.
  double slow_loris_prob = 0.0;
  int slow_loris_stall_ms = 200;

  /// Probability the client closes the socket mid-frame (after the
  /// header + a strict prefix of the payload).
  double disconnect_prob = 0.0;

  /// Probability the payload is fuzzed: truncated JSON, wrong schema
  /// tag, unknown fields, type confusion — drawn from the seeded stream.
  double malformed_prob = 0.0;

  /// Probability the frame header declares a length above the server's
  /// cap (payload never sent; server must reject on the header alone).
  double oversize_prob = 0.0;

  /// Burst overload: every `burst_every` requests (0 = off), a client
  /// fires `burst_size` requests back-to-back without reading responses
  /// in between, to drive the admission queue into shedding.
  int burst_every = 0;
  int burst_size = 8;

  /// Range checks (probabilities in [0,1], counts sane). Throws
  /// std::invalid_argument with the field name.
  void validate() const;
};

/// Parse a chaos-plan JSON document through cfg's field table (schema tag
/// enforced, unknown keys rejected, `<source>: <field>: why` errors), then
/// `validate` it. Throws std::invalid_argument.
ChaosPlan load_chaos_plan(const std::string& text,
                          const std::string& source = "chaos");

/// Load from a file; std::runtime_error when unreadable.
ChaosPlan load_chaos_plan_file(const std::string& path);

/// Canonical JSON (round-trips through load bit-identically).
std::string save_chaos_plan(const ChaosPlan& plan);

}  // namespace hepex::svc
