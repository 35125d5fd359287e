#include "src/netsim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace ab::netsim {

namespace {

/// How long a waiting thread spins before it parks. A park costs a futex
/// wake on both sides of a hand-off, tens of microseconds -- as long as a
/// whole round on the sharded cells (sharded_station runs 635 rounds in
/// 20-40 ms at 2 threads). So a waiter must outlast the gap between two
/// posts, which also holds the coordinator's drains, its window and any
/// run of inline rounds, or it parks on nearly every round. The bound caps
/// what a wait burns when the run goes quiet: a long inline stretch, or
/// the end of a run_until call.
constexpr std::chrono::microseconds kSpinBeforePark{500};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `word` no longer holds `old` and returns its new value
/// (acquire). Spins first when `spin`, then parks.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                           std::uint32_t old, bool spin) {
  std::uint32_t now = word.load(std::memory_order_acquire);
  if (now != old) return now;
  if (spin) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
    for (unsigned i = 1;; ++i) {
      cpu_relax();
      now = word.load(std::memory_order_acquire);
      if (now != old) return now;
      // Reading the clock costs far more than a pause; check it rarely.
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
    }
  }
  // wait() returns only once the word differs from `old`, and the words
  // only grow, so the load below sees the new value.
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

}  // namespace

// The hand-off between the coordinator and the workers of one run_until
// call. Workers are spawned at the first posted round and joined when the
// crew goes out of scope.
//
// Posting a round: the coordinator publishes the busy list and window end
// in plain memory, resets `completed_`, stores `cursor_` (release), then
// bumps `posted_` (release) and wakes its waiters. A claim is one
// fetch_add on `cursor_`, whose word packs the round's busy count (high
// half) with the next unclaimed index (low half), so a claimer reads the
// count and its index in one atomic step. A claim that acquires the
// coordinator's store sees that round's plain data; a worker that wakes
// late and lands on a newer round's cursor just serves that round. A
// claimed index keeps its round open, so the coordinator cannot overwrite
// the round data while a claimer still reads it. The thread that completes
// the last busy shard bumps `finished_` (release), which the coordinator
// acquires -- ordering every shard's writes before the next round's drains.
// An exception from a shard's events is caught where it ran and rethrown
// by the coordinator once the round is complete, so it reaches the caller
// as on the inline path, with no shard still running.
class ParallelRunner::Crew {
 public:
  Crew(int helpers, bool spin) : helpers_(helpers), spin_(spin) {}

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  ~Crew() {
    if (threads_.empty()) return;
    stopping_.store(true, std::memory_order_relaxed);
    posted_.fetch_add(1, std::memory_order_release);
    posted_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs every busy shard to `end` across the crew, the calling thread
  /// included; returns once all of them got there.
  void run_round(const std::vector<Shard*>& busy, TimePoint end) {
    if (threads_.empty()) spawn();
    busy_ = busy.data();
    end_ = end;
    completed_.store(0, std::memory_order_relaxed);
    cursor_.store(static_cast<std::uint64_t>(busy.size()) << 32,
                  std::memory_order_release);
    posted_.fetch_add(1, std::memory_order_release);
    posted_.notify_all();

    claim_and_run();

    // finished_ advances once per round, so any change means this one.
    await_change(finished_, rounds_posted_++, spin_);
    std::lock_guard lock(failure_mutex_);
    if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
  }

 private:
  void spawn() {
    const std::uint32_t seen = posted_.load(std::memory_order_relaxed);
    threads_.reserve(static_cast<std::size_t>(helpers_));
    for (int w = 0; w < helpers_; ++w) {
      threads_.emplace_back([this, seen] { work(seen); });
    }
  }

  void work(std::uint32_t seen) {
    for (;;) {
      seen = await_change(posted_, seen, spin_);
      if (stopping_.load(std::memory_order_relaxed)) return;
      claim_and_run();
    }
  }

  /// Claims and runs busy shards until the cursor runs dry.
  void claim_and_run() {
    for (;;) {
      const std::uint64_t word =
          cursor_.fetch_add(1, std::memory_order_acq_rel);
      const auto count = static_cast<std::uint32_t>(word >> 32);
      const auto index = static_cast<std::uint32_t>(word);
      if (index >= count) return;
      try {
        busy_[index]->scheduler().run_until(end_);
      } catch (...) {
        std::lock_guard lock(failure_mutex_);
        if (!failure_) failure_ = std::current_exception();
      }
      if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
        finished_.fetch_add(1, std::memory_order_release);
        finished_.notify_one();
      }
    }
  }

  const int helpers_;
  const bool spin_;
  std::uint32_t rounds_posted_ = 0;  ///< coordinator-only

  // Round data: written by the coordinator before the cursor store, read
  // by claimers after a claim.
  Shard* const* busy_ = nullptr;
  TimePoint end_{};

  alignas(64) std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint32_t> completed_{0};
  alignas(64) std::atomic<std::uint32_t> posted_{0};
  std::atomic<bool> stopping_{false};
  alignas(64) std::atomic<std::uint32_t> finished_{0};

  std::mutex failure_mutex_;
  std::exception_ptr failure_;  ///< first exception a shard's events threw

  std::vector<std::thread> threads_;
};

ParallelRunner::ParallelRunner(std::vector<Shard*> shards, Options options)
    : shards_(std::move(shards)), options_(options) {
  if (shards_.empty()) {
    throw std::invalid_argument("ParallelRunner: no shards");
  }
  for (Shard* shard : shards_) {
    if (shard == nullptr) throw std::invalid_argument("ParallelRunner: null shard");
  }
  options_.threads =
      std::clamp(options_.threads, 1, static_cast<int>(shards_.size()));
  // Spinning pays only while a hardware thread stays free for whoever the
  // spinner waits on; with every core taken it steals that thread's core.
  spins_ = options_.threads > 1 &&
           static_cast<unsigned>(options_.threads) <
               std::thread::hardware_concurrency();
  busy_.reserve(shards_.size());
}

TimePoint ParallelRunner::next_window(TimePoint target) const {
  // One shard, or no cross-shard coupling: nothing constrains the window.
  if (options_.lookahead <= Duration::zero() || shards_.size() < 2) return target;
  TimePoint tmin = TimePoint::max();
  for (Shard* shard : shards_) {
    tmin = std::min(tmin, shard->scheduler().peek_next_time());
  }
  if (tmin == TimePoint::max()) return target;  // all idle, mailboxes drained
  // Window (S, E] with E = Tmin + L - 1ns (saturating): every event in the
  // window fires at t >= Tmin, so a relayed frame delivers at t + prop >=
  // Tmin + L > E. Progress is guaranteed because Tmin > S (events <= S
  // already ran) and L >= 1ns.
  const Duration slack = options_.lookahead - Duration(1);
  const TimePoint horizon =
      tmin > TimePoint::max() - slack ? TimePoint::max() : tmin + slack;
  return std::min(target, horizon);
}

void ParallelRunner::run_until(TimePoint target) {
  // Same rounds, same windows, same per-shard event sequences at every
  // thread count: only which thread runs a busy shard varies.
  Crew crew(options_.threads - 1, spins_);
  for (;;) {
    for (Shard* shard : shards_) shard->drain();
    const TimePoint end = next_window(target);
    rounds_ += 1;
    busy_.clear();
    for (Shard* shard : shards_) {
      Scheduler& scheduler = shard->scheduler();
      if (scheduler.peek_next_time() <= end) {
        busy_.push_back(shard);
      } else {
        scheduler.run_until(end);  // nothing due: only the clock moves
      }
    }
    if (busy_.size() <= 1) inline_rounds_ += 1;
    if (busy_.size() <= 1 || options_.threads == 1) {
      for (Shard* shard : busy_) shard->scheduler().run_until(end);
    } else {
      crew.run_round(busy_, end);
    }
    if (end >= target) return;
  }
}

void ParallelRunner::run_for(Duration d) {
  run_until(shards_.front()->scheduler().now() + d);
}

}  // namespace ab::netsim
