// Deadline-aware admission control for the query server.
//
// Replaces the old per-session BUSY bounce: a QUERY that cannot start
// immediately now waits in a bounded FIFO instead of being rejected, and the
// server sheds load gracefully before it sheds queries —
//
//   1. ADMIT   — a worker (each owning one pooled QueryRuntime) is free, or
//                the queue has room: the query waits its turn in FIFO order.
//   2. WIDEN   — under queue pressure, error-bounded queries are admitted
//                with a widened bound from the shed ladder (e.g. 2%→5%→10%):
//                a coarser answer now beats a precise answer never. The
//                effective bound is surfaced in every PARTIAL/FINAL frame.
//   3. SHED    — a query that waited past the deadline is answered with
//                DEADLINE_EXCEEDED instead of executing stale.
//   4. REJECT  — only when the queue itself is full does the server answer
//                BUSY.
//
// Optional per-client fairness: when choosing the next ticket, a waiting
// query from a client with nothing running is preferred over a second query
// from a client that already holds a worker — one chatty client cannot
// monopolize the pool — while ties keep FIFO order.
#ifndef BLINKDB_SERVER_ADMISSION_H_
#define BLINKDB_SERVER_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/server/runtime_pool.h"

namespace blink {

struct AdmissionOptions {
  // Tickets that may wait beyond the ones running; 0 restores the immediate
  // BUSY bounce (any query that cannot start instantly is rejected).
  size_t queue_depth = 16;
  // A ticket that waited longer than this is shed (DEADLINE_EXCEEDED)
  // instead of executed; 0 disables the deadline.
  double deadline_seconds = 0.0;
  // Load-shedding ladder of relative error bounds, ascending. Queue
  // occupancy picks the rung: an error-bounded query admitted under pressure
  // runs with its bound widened to the rung (never narrowed). Empty disables
  // shedding.
  std::vector<double> shed_ladder = {0.02, 0.05, 0.10};
  // Prefer waiting tickets from clients with no running query.
  bool fair = true;
};

struct AdmissionStats {
  uint64_t admitted = 0;   // tickets handed to a worker
  uint64_t widened = 0;    // admitted with a shed-ladder rung > 0
  uint64_t deadline_shed = 0;
  uint64_t rejected = 0;   // queue-full BUSY bounces
};

class AdmissionController {
 public:
  // What the queue decided for one admitted ticket.
  struct Decision {
    double queue_seconds = 0.0;  // real wall-clock wait before execution
    size_t shed_rung = 0;        // 0 = bound untouched
    double shed_bound = 0.0;     // ladder value at the rung (0 when rung = 0)
  };

  // Runs on a worker thread with that worker's runtime once the ticket is
  // scheduled.
  using Work = std::function<void(const QueryRuntime& runtime, const Decision&)>;
  // Runs (on a worker thread) when the ticket is shed instead of executed;
  // `code` is the wire error code to answer with.
  using Shed = std::function<void(const char* code, const std::string& message)>;

  // `workers` runtimes are built over the shared serving state (via
  // RuntimePool) and one worker thread drives each.
  AdmissionController(const SampleStore* store, const ClusterModel* cluster,
                      const RuntimeConfig& config, size_t workers,
                      AdmissionOptions options);
  // Drains nothing: every queued ticket is shed with BUSY ("server shutting
  // down") so no query ends without a terminal frame.
  ~AdmissionController();

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Enqueues a ticket. Returns false — without invoking either callback —
  // when the queue is full; the caller answers BUSY. `client` identifies the
  // submitting session for fairness.
  bool Submit(uint64_t client, Work work, Shed shed);

  size_t queue_depth() const { return options_.queue_depth; }
  size_t waiting() const;
  AdmissionStats stats() const;

 private:
  struct Ticket {
    uint64_t client = 0;
    Work work;
    Shed shed;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();
  // Shed-ladder rung for a backlog of `waiting` tickets (0 = no widening).
  size_t RungFor(size_t waiting) const;

  const AdmissionOptions options_;
  RuntimePool pool_;

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::deque<Ticket> queue_;
  // Tickets currently executing per client, for the fairness preference.
  std::unordered_map<uint64_t, size_t> running_;
  // Workers not running a ticket, guarded by mu_. Counted from the
  // controller's own state — the pool size at construction, less the tickets
  // claimed — so it never depends on whether a worker thread has reached its
  // wait yet.
  size_t idle_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> widened_{0};
  std::atomic<uint64_t> deadline_shed_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace blink

#endif  // BLINKDB_SERVER_ADMISSION_H_
