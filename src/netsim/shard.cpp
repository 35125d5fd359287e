#include "src/netsim/shard.h"

#include <utility>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"

namespace ab::netsim {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

RelayRing::RelayRing(std::size_t capacity) : slots_(round_up_pow2(capacity)) {
  mask_ = slots_.size() - 1;
}

bool RelayRing::try_push(RelayFrame& frame) {
  const std::size_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t head = head_.load(std::memory_order_acquire);
  if (tail - head == slots_.size()) return false;  // full
  slots_[tail & mask_] = std::move(frame);
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

bool RelayRing::try_pop(RelayFrame& out) {
  const std::size_t head = head_.load(std::memory_order_relaxed);
  const std::size_t tail = tail_.load(std::memory_order_acquire);
  if (head == tail) return false;  // empty
  out = std::move(slots_[head & mask_]);
  slots_[head & mask_] = RelayFrame{};  // release the wire buffer now
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::size_t RelayRing::size() const {
  return tail_.load(std::memory_order_acquire) - head_.load(std::memory_order_acquire);
}

void ShardChannel::push(TimePoint deliver_at, util::ByteView wire) {
  RelayFrame frame;
  frame.deliver_at = deliver_at;
  frame.wire.assign(wire.begin(), wire.end());
  if (!ring_.try_push(frame)) {
    // Ring full mid-window: the consumer drains only once this round ends,
    // which waits for US, so blocking here would deadlock. Spill; the
    // round hand-off's happens-before publishes the vector to the drain.
    spill_.push_back(std::move(frame));
    spilled_ += 1;
  }
}

std::size_t ShardChannel::drain() {
  std::size_t drained = 0;
  RelayFrame frame;
  // Ring first: once the ring filled, every later frame went to the spill,
  // so ring entries are strictly older and this preserves push order.
  while (ring_.try_pop(frame)) {
    target_->inject_remote(ether::WireFrame::from_wire(std::move(frame.wire)),
                           frame.deliver_at);
    drained += 1;
  }
  for (RelayFrame& spilled : spill_) {
    target_->inject_remote(ether::WireFrame::from_wire(std::move(spilled.wire)),
                           spilled.deliver_at);
    drained += 1;
  }
  spill_.clear();
  return drained;
}

std::size_t Shard::drain() {
  std::size_t drained = 0;
  for (ShardChannel* channel : inbound_) drained += channel->drain();
  return drained;
}

}  // namespace ab::netsim
