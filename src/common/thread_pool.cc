#include "common/thread_pool.h"

#include <algorithm>
#include <new>
#include <string>

namespace vdm {

Status StatusFromCurrentException() {
  try {
    throw;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory in worker task");
  } catch (const std::exception& e) {
    return Status::ExecutionError(std::string("worker task threw: ") +
                                  e.what());
  } catch (...) {
    return Status::Internal("worker task threw a non-std exception");
  }
}

size_t ThreadPool::DefaultThreads() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(size_t num_workers) {
  EnsureWorkers(std::max<size_t>(num_workers, 1));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::EnsureWorkers(size_t num_workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < num_workers) {
    workers_.emplace_back([this] { Serve(); });
  }
  num_workers_.store(workers_.size(), std::memory_order_release);
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

ThreadPool::Batch* ThreadPool::ClaimableBatch() const {
  for (Batch* batch : batches_) {
    if (batch->next.load(std::memory_order_relaxed) < batch->total) {
      return batch;
    }
  }
  return nullptr;
}

void ThreadPool::RunTasks(Batch* batch) {
  while (true) {
    size_t index = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch->total) break;
    // Once a task failed, skip the remaining work but keep draining the
    // counter so every participant leaves the batch.
    if (batch->failed.load(std::memory_order_acquire)) continue;
    try {
      (*batch->fn)(index);
    } catch (...) {
      Status status = StatusFromCurrentException();
      {
        std::lock_guard<std::mutex> lock(batch->error_mu);
        if (batch->error.ok()) batch->error = std::move(status);
      }
      batch->failed.store(true, std::memory_order_release);
    }
  }
}

void ThreadPool::Serve() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || !queue_.empty() || ClaimableBatch() != nullptr;
    });
    if (Batch* batch = ClaimableBatch()) {
      // Joined under mu_: the batch's caller unpublishes it and then waits
      // for active to drop back to zero before the batch goes away.
      ++batch->active;
      lock.unlock();
      RunTasks(batch);
      lock.lock();
      if (--batch->active == 0) done_cv_.notify_all();
      continue;
    }
    if (queue_.empty()) return;  // shut down, and nothing left to run
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release its captures before retaking the lock
    lock.lock();
  }
}

Status ThreadPool::ParallelFor(size_t num_tasks,
                               const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return Status::OK();
  Batch batch;
  batch.fn = &fn;
  batch.total = num_tasks;
  const bool publish = num_tasks > 1;
  if (publish) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      batches_.push_back(&batch);
    }
    work_cv_.notify_all();
  }
  RunTasks(&batch);  // the caller always takes part
  if (publish) {
    // Every index is claimed now; unpublish, then wait for the workers
    // still running the ones they claimed.
    std::unique_lock<std::mutex> lock(mu_);
    batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
    done_cv_.wait(lock, [&] { return batch.active == 0; });
  }
  if (batch.failed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(batch.error_mu);
    return batch.error;
  }
  return Status::OK();
}

}  // namespace vdm
