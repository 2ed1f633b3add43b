#include "sim/metrics.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dcnt {

Metrics::Metrics(std::size_t num_processors)
    : sent_(num_processors, 0),
      received_(num_processors, 0),
      words_(num_processors, 0) {}

void Metrics::on_send(ProcessorId p, std::size_t words, KeyId key) {
  ++sent_.at(to_idx(p));
  ++total_messages_;
  total_words_ += static_cast<std::int64_t>(words);
  words_.at(to_idx(p)) += static_cast<std::int64_t>(words);
  max_message_words_ =
      std::max(max_message_words_, static_cast<std::int64_t>(words));
  if (key != kNoKey) ++key_loads_[key][p].sent;
}

void Metrics::on_receive(ProcessorId p, std::size_t words, KeyId key) {
  ++received_.at(to_idx(p));
  words_.at(to_idx(p)) += static_cast<std::int64_t>(words);
  if (key != kNoKey) ++key_loads_[key][p].received;
}

std::int64_t Metrics::key_max_load(KeyId key) const {
  const auto it = key_loads_.find(key);
  if (it == key_loads_.end()) return 0;
  std::int64_t best = 0;
  for (const auto& [p, kl] : it->second) best = std::max(best, kl.total());
  return best;
}

std::int64_t Metrics::key_total_messages(KeyId key) const {
  const auto it = key_loads_.find(key);
  if (it == key_loads_.end()) return 0;
  std::int64_t total = 0;
  for (const auto& [p, kl] : it->second) total += kl.sent;
  return total;
}

std::int64_t Metrics::max_word_load() const {
  std::int64_t best = 0;
  for (const auto w : words_) best = std::max(best, w);
  return best;
}

std::int64_t Metrics::max_load() const {
  std::int64_t best = 0;
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    best = std::max(best, sent_[i] + received_[i]);
  }
  return best;
}

ProcessorId Metrics::bottleneck() const {
  DCNT_CHECK(!sent_.empty());
  std::size_t arg = 0;
  std::int64_t best = -1;
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    const std::int64_t l = sent_[i] + received_[i];
    if (l > best) {
      best = l;
      arg = i;
    }
  }
  return static_cast<ProcessorId>(arg);
}

Summary Metrics::load_summary() const {
  std::vector<std::int64_t> loads(sent_.size());
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    loads[i] = sent_[i] + received_[i];
  }
  return Summary(std::move(loads));
}

void Metrics::merge_from(const Metrics& other) {
  DCNT_CHECK(other.sent_.size() == sent_.size());
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    sent_[i] += other.sent_[i];
    received_[i] += other.received_[i];
    words_[i] += other.words_[i];
  }
  total_messages_ += other.total_messages_;
  total_words_ += other.total_words_;
  max_message_words_ = std::max(max_message_words_, other.max_message_words_);
  for (const auto& [key, per_proc] : other.key_loads_) {
    for (const auto& [p, kl] : per_proc) add_load(p, kl, key);
  }
}

void Metrics::add_load(ProcessorId p, KeyLoad load, KeyId key) {
  if (key != kNoKey) {
    auto& slot = key_loads_[key][p];
    slot.sent += load.sent;
    slot.received += load.received;
    return;
  }
  sent_.at(to_idx(p)) += load.sent;
  received_.at(to_idx(p)) += load.received;
  total_messages_ += load.sent;
}

void Metrics::reset() {
  std::fill(sent_.begin(), sent_.end(), 0);
  std::fill(received_.begin(), received_.end(), 0);
  std::fill(words_.begin(), words_.end(), 0);
  max_message_words_ = 0;
  key_loads_.clear();
  total_messages_ = 0;
  total_words_ = 0;
}

}  // namespace dcnt
