#include "src/engine/block_device.h"

#include <utility>

#include "src/common/check.h"

namespace monotasks {

SimulatedBlockDevice::SimulatedBlockDevice(std::string name,
                                           monoutil::BytesPerSecond bandwidth,
                                           double time_scale, double seek_alpha)
    : name_(std::move(name)), limiter_(bandwidth), seek_alpha_(seek_alpha) {
  MONO_CHECK(seek_alpha >= 0);
  limiter_.set_time_scale(time_scale);
}

void SimulatedBlockDevice::ConsumeWithContention(monoutil::Bytes bytes) {
  const int concurrent = active_ops_.fetch_add(1) + 1;
  const double penalty = 1.0 + seek_alpha_ * static_cast<double>(concurrent - 1);
  const monoutil::Bytes charged = bytes * penalty;
  charged_bytes_ += charged.count();
  limiter_.Consume(charged);
  active_ops_.fetch_sub(1);
}

void SimulatedBlockDevice::Write(const std::string& block_id, Buffer data) {
  const monoutil::Bytes bytes(static_cast<int64_t>(data.size()));
  ConsumeWithContention(bytes);  // Pay the transfer time before the data is durable.
  bytes_written_ += bytes.count();
  const monoutil::MutexLock lock(mutex_);
  blocks_[block_id] = std::move(data);
}

Buffer SimulatedBlockDevice::Read(const std::string& block_id) {
  Buffer data;
  {
    const monoutil::MutexLock lock(mutex_);
    auto it = blocks_.find(block_id);
    MONO_CHECK_MSG(it != blocks_.end(), "read of missing block");
    data = it->second;
  }
  const monoutil::Bytes bytes(static_cast<int64_t>(data.size()));
  ConsumeWithContention(bytes);
  bytes_read_ += bytes.count();
  return data;
}

Buffer SimulatedBlockDevice::ReadRange(const std::string& block_id, size_t offset,
                                       size_t length) {
  Buffer data;
  {
    const monoutil::MutexLock lock(mutex_);
    auto it = blocks_.find(block_id);
    MONO_CHECK_MSG(it != blocks_.end(), "read of missing block");
    MONO_CHECK_MSG(offset + length <= it->second.size(), "read range out of bounds");
    data.assign(it->second.begin() + static_cast<ptrdiff_t>(offset),
                it->second.begin() + static_cast<ptrdiff_t>(offset + length));
  }
  const monoutil::Bytes bytes(static_cast<int64_t>(data.size()));
  ConsumeWithContention(bytes);
  bytes_read_ += bytes.count();
  return data;
}

bool SimulatedBlockDevice::HasBlock(const std::string& block_id) const {
  const monoutil::MutexLock lock(mutex_);
  return blocks_.find(block_id) != blocks_.end();
}

size_t SimulatedBlockDevice::BlockSize(const std::string& block_id) const {
  const monoutil::MutexLock lock(mutex_);
  auto it = blocks_.find(block_id);
  MONO_CHECK_MSG(it != blocks_.end(), "BlockSize of missing block");
  return it->second.size();
}

void SimulatedBlockDevice::DeleteBlock(const std::string& block_id) {
  const monoutil::MutexLock lock(mutex_);
  blocks_.erase(block_id);
}

size_t SimulatedBlockDevice::num_blocks() const {
  const monoutil::MutexLock lock(mutex_);
  return blocks_.size();
}

}  // namespace monotasks
