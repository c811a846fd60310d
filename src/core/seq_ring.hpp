// SeqRing: the bounded, lock-free, multi-writer record ring behind the
// span flight recorder (obs/trace.hpp) and the decision journal
// (obs/journal.hpp).  Both keep the recent past of a stream of fixed-size
// records; the ring owns the publication protocol, a Codec owns the
// record's word layout.
//
// Protocol.  Capacity is a power of two.  One fetch_add on the head
// ticket assigns (slot, cycle) = (ticket & mask, ticket >> shift).  Each
// slot carries a sequence word that only ever grows:
//
//   0      never written
//   2c+1   being written for cycle c
//   2c+2   readable, written at cycle c
//
// A writer claims its slot with one CAS from an older cycle's even
// sequence to its own odd one, release-stores the payload words, then
// stores its even sequence.  The claim is the lap check: a slot that is
// still odd (a writer a lap behind is stalled inside it) or already past
// this cycle means the ring lapped this record, which is dropped and
// counted instead of blocking.  Only the claimant ever writes a slot's
// words, so a writer stalled for a whole lap can never interleave its
// words with a newer record's.  (Plain sequence stores plus a re-check
// of head would save the CAS but cannot exclude that: a stalled writer's
// stores can land after any check it makes.)  Release stores order each
// payload word after the claim, so a reader that acquire-loads any word
// of a newer write also sees the sequence change on its validating
// re-read: a torn slot never validates.
//
// Readers walk the last `capacity` tickets below head and keep a slot
// only when its sequence is exactly the even value for that ticket before
// and after copying the words, so snapshot() is oldest-first with no sort.
//
// The slot array is also a stable, contiguous memory image that the
// black-box crash dumper (obs/blackbox.hpp) copies with write(2) alone;
// raw_ring() describes its geometry, and the offline decoder
// (obs/postmortem.cpp) rebuilds publication order from the sequence words
// and decodes payloads with the same Codec::unpack.
//
// A Codec provides:
//   using Record = ...;
//   static constexpr std::size_t kWords;   // payload words per slot
//   static void pack(const Record&, std::uint64_t ticket, std::uint64_t* w);
//   static Record unpack(const std::uint64_t* w);
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hotc {

/// Geometry of a ring's slot array, carried verbatim into a crash dump:
/// each of `capacity` slots is `stride` bytes, a u64 sequence word then
/// `words` u64 payload words (plus alignment padding).
struct RawRing {
  const void* data = nullptr;
  std::size_t bytes = 0;
  std::uint64_t capacity = 0;
  std::uint64_t shift = 0;  // log2(capacity): cycle = ticket >> shift
  std::uint64_t words = 0;
  std::uint64_t stride = 0;
};

template <class Codec>
class SeqRing {
 public:
  using Record = typename Codec::Record;

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[Codec::kWords]{};
  };
  static constexpr std::size_t kStride = sizeof(Slot);

  /// Capacity rounds up to a power of two (at least 2).
  explicit SeqRing(std::size_t capacity) {
    while ((std::size_t{1} << shift_) < capacity || shift_ == 0) ++shift_;
    slots_ = std::vector<Slot>(std::size_t{1} << shift_);
    mask_ = slots_.size() - 1;
  }

  SeqRing(const SeqRing&) = delete;
  SeqRing& operator=(const SeqRing&) = delete;

  /// Publish one record; drops it when the ring lapped it (see
  /// dropped()).  Inline: the span ring sits on every request.
  void publish(const Record& rec) {
    const std::uint64_t ticket =
        head_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t w[Codec::kWords];
    Codec::pack(rec, ticket, w);
    Slot& slot = slots_[ticket & mask_];
    const std::uint64_t writing = 2 * (ticket >> shift_) + 1;
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 || seq > writing ||
        !slot.seq.compare_exchange_strong(seq, writing,
                                          std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (std::size_t i = 0; i < Codec::kWords; ++i) {
      slot.words[i].store(w[i], std::memory_order_release);
    }
    slot.seq.store(writing + 1, std::memory_order_release);
  }

  /// Every currently-readable record, oldest first.  Slots a concurrent
  /// writer is overwriting are skipped, never torn.
  [[nodiscard]] std::vector<Record> snapshot() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t count = head < slots_.size() ? head : slots_.size();
    std::vector<Record> out;
    out.reserve(count);
    for (std::uint64_t ticket = head - count; ticket < head; ++ticket) {
      const Slot& slot = slots_[ticket & mask_];
      const std::uint64_t expect = 2 * (ticket >> shift_) + 2;
      if (slot.seq.load(std::memory_order_acquire) != expect) continue;
      std::uint64_t w[Codec::kWords];
      for (std::size_t i = 0; i < Codec::kWords; ++i) {
        w[i] = slot.words[i].load(std::memory_order_acquire);
      }
      if (slot.seq.load(std::memory_order_acquire) != expect) continue;
      out.push_back(Codec::unpack(w));
    }
    return out;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Records ever published (monotonic; the next ticket).
  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] RawRing raw_ring() const {
    return {slots_.data(), slots_.size() * kStride, slots_.size(), shift_,
            Codec::kWords, kStride};
  }

 private:
  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;
  unsigned shift_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace hotc
