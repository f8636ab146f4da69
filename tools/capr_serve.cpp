// capr-serve: load generator and hot-swap driver for the fleet server.
//
//   capr-serve --arch resnet20                       # random weights
//   capr-serve --arch resnet20 --checkpoint m.ckpt   # trained/pruned model
//   capr-serve --arch vgg11 --clients 8 --requests 512 --max-batch 8
//   capr-serve --arch resnet20 --checkpoint dense.ckpt
//              --model prod --publish pruned.ckpt     # live hot-swap
//
// Spawns N client threads that submit synthetic samples against one
// shared InferenceServer, then prints throughput, latency percentiles
// and the server's own counters. With --publish, a newly pruned
// checkpoint is certified and hot-swapped into the live server halfway
// through the run — in-flight requests drain on the old session, none
// are dropped. Use it to explore the batching, backpressure and swap
// knobs interactively; bench_serve is the reproducible
// (google-benchmark + open-loop) version of the same measurement.
//
// Exit status:
//   0  success — every request completed kOk (and the publish, if any,
//      went live)
//   1  one or more requests failed (timeout/rejected/errored)
//   2  usage errors (unknown flag, missing value, bad combination)
//   3  publish rejected — the checkpoint failed certification (replay,
//      analyzer, graph admission) or would change the serving contract;
//      the old variant kept serving
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "models/builders.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace {

struct Options {
  std::string arch;
  std::string checkpoint;
  std::string publish;  // checkpoint hot-swapped mid-run
  capr::models::BuildConfig build{};
  capr::serve::ServerConfig server{};
  std::string model = "default";  // fleet id the clients route to
  int clients = 4;
  int requests = 256;  // total, split across clients
};

void usage(std::ostream& os) {
  os << "usage: capr-serve --arch <name> [options]\n"
        "  --arch <name>         architecture (";
  for (const std::string& a : capr::models::available_archs()) os << a << ' ';
  os << ")\n"
        "  --checkpoint <file>   serve a saved (possibly pruned) checkpoint\n"
        "  --model <id>          fleet model id to serve and route to (default "
        "\"default\")\n"
        "  --publish <file>      certify + hot-swap this checkpoint into --model\n"
        "                        halfway through the run (zero downtime)\n"
        "  --classes <n>         number of classes (default 10)\n"
        "  --input-size <n>      input H=W (default 16)\n"
        "  --width-mult <f>      channel width multiplier (default 0.25)\n"
        "  --clients <n>         client threads (default 4)\n"
        "  --requests <n>        total requests across clients (default 256)\n"
        "  --workers <n>         server worker threads (default: num_threads())\n"
        "  --queue-cap <n>       bounded queue capacity (default 64)\n"
        "  --max-batch <n>       micro-batch coalescing limit (default 8)\n"
        "  --max-delay-us <n>    straggler linger per batch (default 200)\n"
        "  --timeout-us <n>      per-request deadline, 0 = none (default 0)\n"
        "exit codes: 0 ok, 1 request failures, 2 usage, 3 publish rejected\n";
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--arch") {
      opts.arch = value();
    } else if (arg == "--checkpoint") {
      opts.checkpoint = value();
    } else if (arg == "--model") {
      opts.model = value();
      if (opts.model.empty()) throw std::runtime_error("--model id must be non-empty");
    } else if (arg == "--publish") {
      opts.publish = value();
    } else if (arg == "--classes") {
      opts.build.num_classes = std::stoll(value());
    } else if (arg == "--input-size") {
      opts.build.input_size = std::stoll(value());
    } else if (arg == "--width-mult") {
      opts.build.width_mult = std::stof(value());
    } else if (arg == "--clients") {
      opts.clients = std::stoi(value());
    } else if (arg == "--requests") {
      opts.requests = std::stoi(value());
    } else if (arg == "--workers") {
      opts.server.workers = std::stoi(value());
    } else if (arg == "--queue-cap") {
      opts.server.queue_capacity = static_cast<size_t>(std::stoull(value()));
    } else if (arg == "--max-batch") {
      opts.server.max_batch = static_cast<size_t>(std::stoull(value()));
    } else if (arg == "--max-delay-us") {
      opts.server.max_delay_us = std::stoll(value());
    } else if (arg == "--timeout-us") {
      opts.server.default_timeout_us = std::stoll(value());
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return false;
    } else {
      throw std::runtime_error("unknown argument '" + arg + "'");
    }
  }
  if (opts.arch.empty()) throw std::runtime_error("--arch is required");
  if (opts.clients < 1) throw std::runtime_error("--clients must be >= 1");
  if (opts.requests < 1) throw std::runtime_error("--requests must be >= 1");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    if (!parse_args(argc, argv, opts)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "capr-serve: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  try {
    using capr::serve::InferResult;
    using capr::serve::RequestStatus;
    std::shared_ptr<const capr::serve::InferenceSession> session;
    if (!opts.checkpoint.empty()) {
      session = std::make_shared<const capr::serve::InferenceSession>(
          capr::serve::InferenceSession::from_checkpoint(opts.arch, opts.build,
                                                         opts.checkpoint));
    } else {
      std::cout << "no --checkpoint given; serving randomly initialised weights\n";
      session = std::make_shared<const capr::serve::InferenceSession>(
          capr::models::make_model(opts.arch, opts.build));
    }

    auto registry = std::make_shared<capr::serve::ModelRegistry>();
    registry->publish(opts.model, session, /*warm_batch=*/0);
    opts.server.default_model = opts.model;
    capr::serve::InferenceServer server(registry, opts.server);
    const capr::Shape& in = session->input_shape();
    std::cout << "serving " << opts.arch << " " << capr::to_string(in) << " -> "
              << session->num_classes() << " classes as \"" << opts.model << "\", "
              << server.config().workers << " workers, max_batch "
              << server.config().max_batch << "\n";

    // Each client owns a pool of synthetic samples and submits its share
    // of the total, blocking on queue space (so nothing is shed here —
    // use --timeout-us to exercise deadline rejection instead).
    const int per_client = (opts.requests + opts.clients - 1) / opts.clients;
    std::vector<std::vector<int64_t>> latencies(static_cast<size_t>(opts.clients));
    std::vector<std::vector<InferResult>> failures(static_cast<size_t>(opts.clients));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < opts.clients; ++c) {
      clients.emplace_back([&, c] {
        capr::Rng rng(1234 + static_cast<uint64_t>(c));
        std::vector<capr::Tensor> samples;
        for (int i = 0; i < 4; ++i) {
          capr::Tensor s({in[0], in[1], in[2]});
          rng.fill_normal(s, 0.0f, 1.0f);
          samples.push_back(std::move(s));
        }
        std::vector<std::future<InferResult>> futs;
        for (int r = 0; r < per_client; ++r) {
          futs.push_back(server.submit(samples[static_cast<size_t>(r % 4)]));
        }
        for (auto& fut : futs) {
          InferResult res = fut.get();
          if (res.status == RequestStatus::kOk) {
            latencies[static_cast<size_t>(c)].push_back(res.latency_us);
          } else {
            failures[static_cast<size_t>(c)].push_back(std::move(res));
          }
        }
      });
    }
    // With --publish, hot-swap the checkpoint into the live fleet once
    // roughly half the requests have completed. Clients keep submitting
    // throughout: in-flight requests drain on the old session, later
    // ones route to the new one, nothing is dropped.
    std::thread publisher;
    std::string publish_error;
    std::atomic<bool> clients_done{false};
    if (!opts.publish.empty()) {
      publisher = std::thread([&] {
        // completed only counts kOk, so also bail once the clients are
        // done — a run where everything times out must still terminate.
        const uint64_t half = static_cast<uint64_t>(opts.requests) / 2;
        while (!clients_done.load(std::memory_order_relaxed) &&
               server.stats().completed < half) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        try {
          server.registry()->publish_checkpoint(opts.model, opts.arch, opts.build,
                                                opts.publish);
          std::cout << "published " << opts.publish << " as \"" << opts.model << "\" v"
                    << server.registry()->version(opts.model) << " (hot-swap)\n";
        } catch (const std::exception& e) {
          publish_error = e.what();
        }
      });
    }

    for (std::thread& t : clients) t.join();
    clients_done.store(true, std::memory_order_relaxed);
    if (publisher.joinable()) publisher.join();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    server.shutdown();

    std::vector<int64_t> all;
    size_t failed = 0;
    for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    for (const auto& v : failures) failed += v.size();
    std::sort(all.begin(), all.end());
    const auto pct = [&](double p) {
      return all.empty() ? 0
                         : all[static_cast<size_t>(p * static_cast<double>(all.size() - 1))];
    };

    const capr::serve::ServerStats stats = server.stats();
    std::cout << "completed " << all.size() << "/" << opts.requests << " requests in "
              << elapsed_s << " s (" << static_cast<double>(all.size()) / elapsed_s
              << " QPS)\n"
              << "latency p50 " << pct(0.50) << " us, p90 " << pct(0.90) << " us, p99 "
              << pct(0.99) << " us\n"
              << "server: " << stats.batches << " batches, "
              << (stats.batches == 0 ? 0.0
                                     : static_cast<double>(stats.batched_samples) /
                                           static_cast<double>(stats.batches))
              << " samples/batch avg, " << stats.timed_out << " timed out, " << stats.rejected
              << " rejected, " << stats.errored << " errored\n";
    for (const auto& v : failures) {
      for (const InferResult& res : v) {
        std::cerr << "capr-serve: request failed: " << to_string(res.status)
                  << (res.error.empty() ? "" : ": " + res.error) << "\n";
      }
    }
    if (!publish_error.empty()) {
      std::cerr << "capr-serve: publish rejected: " << publish_error
                << " (old variant kept serving)\n";
      return 3;
    }
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "capr-serve: " << e.what() << "\n";
    return 1;
  }
}
