#include "serve/server.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "serve/protocol.hpp"
#include "util/timer.hpp"

namespace wdag::serve {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration millis_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

std::string service_job(api::Engine& engine, Job& job, ServeStats& stats,
                        bool enable_test_hooks) {
  const WireRequest& req = job.request;
  try {
    // Deadline first: a job that aged out while queued is answered
    // without touching the engine — the cheap path under overload.
    if (job.has_deadline && Clock::now() > job.deadline) {
      stats.on_rejected_deadline();
      return rejected_response_json(req.id, "deadline");
    }
    switch (req.kind) {
      case RequestKind::kSolve: {
        api::SolveRequest solve;
        solve.generator = req.gen;
        solve.force_strategy = req.force;
        solve.options = req.solve;
        util::Timer timer;
        const api::SolveResponse response = engine.submit(solve);
        stats.on_solved(response.strategy_name, timer.millis());
        return solve_response_json(req.id, response);
      }
      case RequestKind::kBatch: {
        api::BatchRequest batch;
        batch.generator = req.gen;
        batch.count = req.count;
        batch.force_strategy = req.force;
        batch.solve = req.solve;
        batch.options.seed = req.gen.seed;
        batch.options.keep_entries = false;
        util::Timer timer;
        const core::BatchReport report = engine.run_batch(batch);
        stats.on_batch(timer.millis());
        return batch_response_json(req.id, report);
      }
      case RequestKind::kSleep: {
        if (!enable_test_hooks) {
          stats.on_error();
          return error_response_json(
              req.id, "sleep requests require a server with test hooks");
        }
        std::this_thread::sleep_for(millis_duration(req.sleep_ms));
        return sleep_response_json(req.id, req.sleep_ms);
      }
      case RequestKind::kStats:
        break;  // answered out-of-band by the session; never queued
    }
    stats.on_error();
    return error_response_json(req.id, "request kind cannot be queued");
  } catch (const std::exception& e) {
    stats.on_error();
    return error_response_json(req.id, e.what());
  }
}

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      engine_(api::EngineOptions{options_.engine_threads, options_.solve}),
      queue_(options_.queue_capacity),
      started_at_(Clock::now()),
      core_({options_.host, options_.port, options_.max_connections,
             options_.idle_timeout_ms, options_.external_stop},
            [this](util::TcpConn& conn, const std::string& line) {
              return conn.write_line(answer(line));
            },
            [this](util::TcpConn& conn, bool admitted) {
              stats_.on_connection();
              if (admitted) return;
              stats_.on_rejected_max_connections();
              conn.write_line(rejected_response_json("", "max_connections"));
            }),
      worker_(&Server::worker_loop, this) {}

Server::~Server() {
  request_stop();
  join();
  // Every session is joined, so every admitted job was answered: the
  // queue is empty and closing it just releases the worker.
  queue_.close();
  worker_.join();
}

void Server::worker_loop() {
  while (auto job = queue_.pop()) {
    stats_.on_dequeued();
    std::string response =
        service_job(engine_, *job, stats_, options_.enable_test_hooks);
    job->reply.set_value(std::move(response));
  }
}

std::string Server::answer(const std::string& line) {
  stats_.on_request();
  try {
    WireRequest request = parse_request(line);
    if (request.kind == RequestKind::kStats) {
      stats_.on_stats();
      const double uptime =
          std::chrono::duration<double>(Clock::now() - started_at_).count();
      return stats_.to_json(uptime, queue_.depth(), queue_.capacity());
    }
    Job job;
    job.request = std::move(request);
    job.enqueued_at = Clock::now();
    const double deadline_ms = job.request.deadline_ms > 0
                                   ? job.request.deadline_ms
                                   : options_.default_deadline_ms;
    if (deadline_ms > 0) {
      job.has_deadline = true;
      job.deadline = job.enqueued_at + millis_duration(deadline_ms);
    }
    const std::string id = job.request.id;
    std::future<std::string> reply = job.reply.get_future();
    if (core_.stopping()) {
      stats_.on_rejected_shutdown();
      return rejected_response_json(id, "shutdown");
    }
    if (!queue_.try_push(std::move(job))) {
      stats_.on_rejected_queue_full();
      return rejected_response_json(id, "queue_full");
    }
    stats_.on_admitted();
    return reply.get();
  } catch (const std::exception& e) {
    stats_.on_error();
    return error_response_json("", e.what());
  }
}

}  // namespace wdag::serve
