// Messages exchanged between processors.
//
// A message is a protocol-defined integer tag plus a small vector of
// integer words. The paper cares that messages stay short (O(log n)
// bits); we record the word count so experiments can assert that no
// protocol smuggles large state inside single messages.
//
// The payload words live inline. The paper's model bounds every
// message to O(log n) bits, i.e. a constant number of machine words,
// so MessageArgs keeps up to kInline words inside the Message itself
// and touches the heap only for the rare wide payloads: the priority
// queue's root handover (the whole heap) and the self-healing root's
// journal blob. kInline is the widest payload on any hot path, which
// is a counter message inside the reliable-transport envelope
// ([seq, inner_tag, inner...], 2 words, the UDP data plane's framing):
//   4  the combining tree's Req ([target_node, from_is_leaf, from_id,
//      count]), the widest inner message of any counter kind
//  +2  the envelope
//  = 6 words (the paper's tree peaks at 3 + 2 = 5: TakeOver / ChildInfo
// / NewId are [node, x, y]). test_message_args measures every kind
// behind the transport and pins this. Copying, moving and sending such
// a message allocates nothing, which takes the heap off the runtimes'
// per-message path. Nor does it touch words it does not use: the
// inline words are left uninitialised at construction, and a copy or
// a move writes only the size() words in use, so a fresh queue slot or
// a 1-word message costs what its payload costs, not kInline words.
// It is a compile-time constant on purpose: a wider payload still
// works (it spills), it just pays one allocation per copy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "sim/types.hpp"
#include "support/check.hpp"

namespace dcnt {

/// A vector of int64 words with kInline words of inline storage. The
/// subset of std::vector's interface the protocols use, with the same
/// semantics; iterators are plain pointers and are invalidated by any
/// growth, insert or erase, exactly as std::vector's would be.
class MessageArgs {
 public:
  static constexpr std::size_t kInline = 6;

  using value_type = std::int64_t;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = std::int64_t&;
  using const_reference = const std::int64_t&;
  using iterator = std::int64_t*;
  using const_iterator = const std::int64_t*;

  MessageArgs() noexcept {}
  MessageArgs(std::initializer_list<std::int64_t> words) {
    assign(words.begin(), words.end());
  }
  explicit MessageArgs(std::span<const std::int64_t> words) {
    assign(words.begin(), words.end());
  }
  MessageArgs(const MessageArgs& other) { assign(other.begin(), other.end()); }
  MessageArgs(MessageArgs&& other) noexcept { steal(other); }
  MessageArgs& operator=(const MessageArgs& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  MessageArgs& operator=(MessageArgs&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  MessageArgs& operator=(std::initializer_list<std::int64_t> words) {
    assign(words.begin(), words.end());
    return *this;
  }
  ~MessageArgs() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  /// True while the words live in the Message itself (no heap block).
  bool is_inline() const { return cap_ == kInline; }

  std::int64_t* data() { return is_inline() ? inline_ : heap_; }
  const std::int64_t* data() const { return is_inline() ? inline_ : heap_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  std::int64_t& operator[](std::size_t i) { return data()[i]; }
  const std::int64_t& operator[](std::size_t i) const { return data()[i]; }
  /// Bounds-checked access: a short message is a protocol bug.
  std::int64_t& at(std::size_t i) {
    DCNT_CHECK_MSG(i < size_, "message word index out of range");
    return data()[i];
  }
  const std::int64_t& at(std::size_t i) const {
    DCNT_CHECK_MSG(i < size_, "message word index out of range");
    return data()[i];
  }
  std::int64_t& front() { return at(0); }
  const std::int64_t& front() const { return at(0); }

  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }
  void push_back(std::int64_t word) {
    if (size_ == cap_) regrow(2 * cap_);
    data()[size_++] = word;
  }
  template <class It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    size_ = 0;
    reserve(n);
    if (is_inline()) {
      copy_inline(first, n, inline_);
    } else {
      std::copy(first, last, heap_);
    }
    size_ = static_cast<std::uint32_t>(n);
  }
  /// Inserts one word before `pos`; returns an iterator to it.
  iterator insert(const_iterator pos, std::int64_t word) {
    const auto at_idx = static_cast<std::size_t>(pos - begin());
    make_gap(at_idx, 1);
    data()[at_idx] = word;
    return begin() + at_idx;
  }
  /// Inserts [first, last) before `pos`. The range must not point into
  /// this object (as for std::vector).
  template <class It>
  iterator insert(const_iterator pos, It first, It last) {
    const auto at_idx = static_cast<std::size_t>(pos - begin());
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    make_gap(at_idx, n);
    std::copy(first, last, data() + at_idx);
    return begin() + at_idx;
  }
  iterator erase(const_iterator pos) { return erase(pos, pos + 1); }
  iterator erase(const_iterator first, const_iterator last) {
    const auto from = static_cast<std::size_t>(first - begin());
    const auto to = static_cast<std::size_t>(last - begin());
    std::copy(data() + to, end(), data() + from);
    size_ -= static_cast<std::uint32_t>(to - from);
    return begin() + from;
  }

  friend bool operator==(const MessageArgs& a, const MessageArgs& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const MessageArgs& a,
                         const std::vector<std::int64_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  /// Copies the n <= kInline words at `first` to `to`. A loop bounded
  /// by kInline compiles to a few register moves, where a variable-
  /// length std::copy would call memmove for every message.
  template <class It>
  static void copy_inline(It first, std::size_t n, std::int64_t* to) {
    for (std::size_t i = 0; i < kInline && i < n; ++i) to[i] = *first++;
  }
  /// Moves to a heap block of max(n, kInline + 1) words.
  void regrow(std::size_t n) {
    n = std::max(n, kInline + 1);
    DCNT_CHECK_MSG(n <= UINT32_MAX, "message payload too wide");
    auto* block = new std::int64_t[n];
    std::copy(begin(), end(), block);
    release();
    heap_ = block;
    cap_ = static_cast<std::uint32_t>(n);
  }
  /// Opens `n` uninitialised words at index `at_idx`, shifting the tail.
  void make_gap(std::size_t at_idx, std::size_t n) {
    if (size_ + n > cap_) regrow(std::max<std::size_t>(size_ + n, 2 * cap_));
    std::copy_backward(data() + at_idx, end(), end() + n);
    size_ += static_cast<std::uint32_t>(n);
  }
  void release() {
    if (!is_inline()) {
      delete[] heap_;
      inline_[0] = 0;  // the inline words are the active member again
    }
    cap_ = kInline;
  }
  /// Takes `other`'s words, leaving it empty and inline. Requires this
  /// object to hold no heap block.
  void steal(MessageArgs& other) noexcept {
    size_ = other.size_;
    if (other.is_inline()) {
      copy_inline(other.inline_, other.size_, inline_);
    } else {
      heap_ = other.heap_;
      cap_ = other.cap_;
      other.inline_[0] = 0;
      other.cap_ = kInline;
    }
    other.size_ = 0;
  }

  std::uint32_t size_{0};
  std::uint32_t cap_{kInline};
  /// A spilled object keeps its block pointer where the inline words
  /// were: heap_ is the active member exactly while !is_inline(). No
  /// default member initializer: only the words below size_ are ever
  /// written or read, so zero-filling all kInline of them on every
  /// construction and move would be pure waste.
  union {
    std::int64_t inline_[kInline];
    std::int64_t* heap_;
  };
};

struct Message {
  ProcessorId src{kNoProcessor};
  ProcessorId dst{kNoProcessor};
  std::int32_t tag{0};
  OpId op{kNoOp};
  /// Counter key this message belongs to (multi-key service fabric);
  /// kNoKey for classic single-counter traffic. Carried on the wire in
  /// a keyed envelope (kKeyedMsg) so per-key load accounting survives
  /// the cluster path.
  KeyId key{kNoKey};
  MessageArgs args;

  /// True for self-addressed scheduling aids (timeouts). Local messages
  /// are delivered by the event loop but are *not* network traffic: they
  /// are excluded from all load metrics and traces.
  bool local{false};

  std::size_t size_words() const { return args.size() + 1; }
};

}  // namespace dcnt
