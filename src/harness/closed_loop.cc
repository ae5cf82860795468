#include "src/harness/closed_loop.h"

#include <algorithm>

#include "src/common/logging.h"

namespace splitft {

// Request/response network time between client and app server (eRPC).
constexpr SimTime kClientRtt = Micros(10);

ClosedLoopHarness::ClosedLoopHarness(Simulation* sim, StorageApp* app,
                                     YcsbWorkload* workload,
                                     HarnessOptions options)
    : sim_(sim), app_(app), workload_(workload), options_(options) {}

void ClosedLoopHarness::Complete(SimTime arrival, SimTime done, int client) {
  result_.ops++;
  result_.latency.Add(done - arrival);
  if (options_.sample_interval > 0) {
    size_t bucket = static_cast<size_t>((done - start_time_) /
                                        options_.sample_interval);
    if (buckets_.size() <= bucket) {
      buckets_.resize(bucket + 1, 0);
    }
    buckets_[bucket]++;
  }
  // The client issues its next request after the response travels back.
  client_op_[client] = workload_->Next();
  arrivals_.push(Arrival{done + kClientRtt, client});
}

void ClosedLoopHarness::CommitPendingWrites() {
  if (pending_writes_.empty()) {
    return;
  }
  std::vector<PendingWrite> batch;
  batch.swap(pending_writes_);
  std::vector<KvWrite> writes;
  writes.reserve(batch.size());
  for (PendingWrite& pw : batch) {
    writes.push_back(std::move(pw.write));
  }

  SimTime durable_at;
  if (app_->parallel_reads()) {
    // The commit pipeline flushes in the background while the server keeps
    // serving reads.
    auto done = app_->ApplyWriteBatchDeferred(writes);
    if (!done.ok()) {
      LOG_WARNING << "commit failed: " << done.status().ToString();
      durable_at = sim_->Now();
    } else {
      durable_at = std::max(*done, sim_->Now());
    }
  } else {
    // Single-threaded server: the flush blocks everything behind it.
    Status st = app_->ApplyWriteBatch(writes);
    if (!st.ok()) {
      LOG_WARNING << "commit failed: " << st.ToString();
    }
    durable_at = sim_->Now();
  }
  commit_free_at_ = durable_at;
  for (const PendingWrite& pw : batch) {
    Complete(pw.arrival, durable_at, pw.client);
  }
}

HarnessResult ClosedLoopHarness::Run() {
  start_time_ = sim_->Now();
  client_op_.resize(options_.num_clients);
  for (int c = 0; c < options_.num_clients; ++c) {
    client_op_[c] = workload_->Next();
    // Stagger initial arrivals slightly for determinism without phase
    // artifacts.
    arrivals_.push(
        Arrival{start_time_ + kClientRtt + c * 100, c});
  }

  bool batching = options_.batching && app_->supports_batching();
  auto handle = [&](const Arrival& next) {
    if (next.client < 0) {
      commit_token_queued_ = false;  // pipeline-free token
      return;
    }
    YcsbOp& op = client_op_[next.client];
    switch (op.type) {
      case YcsbOpType::kRead: {
        SimTime arrival = next.when;
        // NotFound on un-loaded keys is fine.
        DiscardStatus(app_->obs(), app_->Get(op.key), "closed-loop read");
        Complete(arrival, sim_->Now(), next.client);
        break;
      }
      case YcsbOpType::kReadModifyWrite:
        DiscardStatus(app_->obs(), app_->Get(op.key),
                      "closed-loop rmw read");
        [[fallthrough]];
      case YcsbOpType::kUpdate:
      case YcsbOpType::kInsert: {
        PendingWrite pw;
        pw.arrival = next.when;
        pw.client = next.client;
        pw.write = KvWrite{op.key, op.value};
        pending_writes_.push_back(std::move(pw));
        if (!batching) {
          // No application-level batching (SQLite): each write commits as
          // its own transaction, synchronously.
          CommitPendingWrites();
        }
        break;
      }
    }
  };

  while (result_.ops < options_.target_ops && !arrivals_.empty()) {
    Arrival next = arrivals_.top();
    arrivals_.pop();
    if (next.when > sim_->Now()) {
      sim_->RunUntil(next.when);  // fires flusher/failure-script events
    }
    if (sim_->Now() - start_time_ > options_.max_duration) {
      break;
    }
    // One server iteration: take a snapshot of everything that has arrived
    // by now (the event-loop / group-commit window), execute the reads, and
    // accumulate the writes into one batch. The cutoff is fixed *before*
    // processing so that requests arriving while this iteration executes
    // wait for the next one — otherwise reads would perpetually feed the
    // iteration and starve the commit.
    SimTime cutoff = sim_->Now();
    handle(next);
    while (!arrivals_.empty() && arrivals_.top().when <= cutoff &&
           result_.ops < options_.target_ops) {
      Arrival due = arrivals_.top();
      arrivals_.pop();
      handle(due);
    }
    if (batching && !pending_writes_.empty()) {
      if (commit_free_at_ <= sim_->Now()) {
        CommitPendingWrites();
      } else if (!commit_token_queued_) {
        // A flush is in flight: batch these writes with everything that
        // arrives until the pipeline frees up (group commit).
        arrivals_.push(Arrival{commit_free_at_, -1});
        commit_token_queued_ = true;
      }
    }
  }
  // Flush any stragglers so their clients' latencies are recorded.
  CommitPendingWrites();

  result_.duration = sim_->Now() - start_time_;
  if (result_.duration > 0) {
    result_.throughput_kops = static_cast<double>(result_.ops) /
                              (static_cast<double>(result_.duration) / 1e9) /
                              1000.0;
  }
  if (options_.sample_interval > 0) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      TimelineSample sample;
      sample.start = static_cast<SimTime>(i) * options_.sample_interval;
      sample.kops = static_cast<double>(buckets_[i]) /
                    (static_cast<double>(options_.sample_interval) / 1e9) /
                    1000.0;
      result_.timeline.push_back(sample);
    }
  }
  return result_;
}

}  // namespace splitft
