#include "sim/trace.hpp"

#include "sim/message.hpp"
#include "support/check.hpp"

namespace dcnt {

RecordId Trace::on_send(RecordId parent, ProcessorId src, ProcessorId dst,
                        const Message& msg, SimTime send_time) {
  if (!enabled_) return kNoRecord;
  MessageRecord rec;
  rec.id = static_cast<RecordId>(records_.size());
  rec.parent = parent;
  rec.src = src;
  rec.dst = dst;
  rec.tag = msg.tag;
  rec.op = msg.op;
  rec.send_time = send_time;
  rec.deliver_time = -1;
  rec.words = msg.size_words();
  records_.push_back(rec);
  return rec.id;
}

void Trace::on_deliver(RecordId id, SimTime deliver_time) {
  if (!enabled_ || id == kNoRecord) return;
  DCNT_CHECK(id >= 0 && static_cast<std::size_t>(id) < records_.size());
  records_[static_cast<std::size_t>(id)].deliver_time = deliver_time;
}

}  // namespace dcnt
