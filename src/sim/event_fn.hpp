#pragma once
/// \file event_fn.hpp
/// \brief Event records for the simulator hot path: owned events and
/// small-buffer-optimized callables.
///
/// The discrete-event kernel fires hundreds of thousands of events per
/// run, and there are two ways to hand it one:
///
///  * **Owned events.** An event with exactly one owner that never has
///    two firings pending at once — a station's completion, a thread's
///    compute end — is a `sim::Event` inside its owner: the owner derives
///    from `Event`, sets `fire` to a function that `static_cast`s the
///    `Event&` back to the owner, and is scheduled by reference. Nothing
///    is built, moved or destroyed per event.
///  * **Closures.** Everything else (fault, recovery and backoff events,
///    tests) is a lambda held in a `SmallFn`: the callable lives in an
///    inline buffer and nowhere else; a capture that does not fit (too
///    large, too strictly aligned, or with a move that can throw) is a
///    compile error, so the event path never allocates.
///
/// Two `SmallFn` instantiations cover the engine, each sized so that the
/// record holding it fills one 64-byte cache line:
///  * `EventFn` (`void()`, 56-byte buffer + dispatch pointer = 64 bytes):
///    scheduled closures, one action-pool slot each. The engine's largest
///    event capture is 32 bytes (a send backoff: this, destination,
///    payload size, attempt, epoch).
///  * `CompletionFn` (`void(SimTime)`, 32-byte buffer, 40 bytes):
///    `sim::Resource` continuations. Sized for the execution engine's
///    largest completion capture (the send-loop continuation: this,
///    sender, message index, payload size, destination, epoch), so a
///    queued job is 64 bytes.
///
/// Buffers are aligned to `void*`, not `max_align_t`: every engine
/// capture is made of pointers, ints and doubles, and the weaker
/// alignment is what keeps both records free of padding.
///
/// Move-only on purpose: event actions are scheduled once and fired once;
/// copyability is what forces `std::function` to heap-allocate shared
/// state it never needs here.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "util/quantity.hpp"

namespace hepex::sim {

/// An owned event (see file doc): the base of its owner, scheduled with
/// `Simulator::schedule(delay, Event&)`. `seq` is the sequence number of
/// the event's latest scheduling; a pending key with an older seq has
/// been superseded and pops without firing.
struct Event {
  void (*fire)(Event&) = nullptr;
  std::uint64_t seq = 0;
};

/// Move-only `void(Args...)` callable stored in `InlineBytes` of inline
/// storage.
template <std::size_t InlineBytes, typename... Args>
class SmallFn {
  /// Any `void(Args...)` callable except a SmallFn itself.
  template <typename F>
  static constexpr bool is_callable() {
    return !std::is_same_v<std::decay_t<F>, SmallFn> &&
           std::is_invocable_r_v<void, std::decay_t<F>&, Args...>;
  }

 public:
  /// Inline capacity; covers the engine's captures (see file doc).
  static constexpr std::size_t kInlineBytes = InlineBytes;

  SmallFn() noexcept = default;

  template <typename F, std::enable_if_t<is_callable<F>(), int> = 0>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Replace the stored callable with `f`, built straight into this
  /// buffer rather than in a temporary SmallFn that is then relocated.
  /// A SmallFn argument is moved in.
  template <typename F>
  void emplace(F&& f) {
    reset();
    if constexpr (is_callable<F>()) {
      construct(std::forward<F>(f));
    } else {
      SmallFn&& other = std::forward<F>(f);  // an rvalue, as for the move ctor
      move_from(other);
    }
  }

  /// True when a callable is stored.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the stored callable (must not be empty).
  void operator()(Args... args) { ops_->invoke(buf_, args...); }

  /// Destroy the stored callable, if any, leaving this SmallFn empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self, Args... args);
    /// Move-construct dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* self(void* p) { return std::launder(reinterpret_cast<Fn*>(p)); }
    static void invoke(void* p, Args... args) { (*self(p))(args...); }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = self(src);
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { self(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "capture does not fit this SmallFn's inline buffer");
    static_assert(alignof(Fn) <= alignof(void*),
                  "capture is aligned more strictly than void*");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "capture's move constructor may throw");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &InlineOps<Fn>::ops;
  }

  void move_from(SmallFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(void*) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Scheduled closure (`void()`): one 64-byte action-pool slot.
using EventFn = SmallFn<56>;

/// Queueing-resource completion continuation; receives the time the job
/// spent waiting in queue before service started.
using CompletionFn = SmallFn<32, q::Seconds>;

static_assert(sizeof(EventFn) == 64, "an EventFn is one cache line");
static_assert(sizeof(CompletionFn) ==
                  CompletionFn::kInlineBytes + sizeof(void*),
              "CompletionFn grew beyond buffer + dispatch pointer");

}  // namespace hepex::sim
