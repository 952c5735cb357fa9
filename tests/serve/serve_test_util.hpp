// Shared fixtures for the serving-subsystem tests: a small synthetic
// dataset, a quickly trained vault (mirrors tests/core/deployment_test), and
// a recorder for the drainer slots a bare MicroBatchQueue posts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "serve/batch_queue.hpp"

namespace gv {

inline Dataset serve_dataset(std::uint64_t seed, std::uint32_t nodes = 260) {
  SyntheticSpec spec;
  spec.num_nodes = nodes;
  spec.num_classes = 3;
  spec.num_undirected_edges = nodes * 3;
  spec.feature_dim = 100;
  spec.homophily = 0.85;
  spec.feature_signal = 0.45;
  return generate_synthetic(spec, seed);
}

inline TrainedVault serve_vault(const Dataset& ds,
                                RectifierKind kind = RectifierKind::kParallel,
                                std::uint64_t seed = 11) {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {24, 12}, {24, 12}, 0.4f};
  cfg.rectifier = kind;
  cfg.backbone_train.epochs = 50;
  cfg.rectifier_train.epochs = 50;
  cfg.seed = seed;
  return train_vault(ds, cfg);
}

/// Stands in for the JobSystem under a bare MicroBatchQueue: records each
/// drainer slot the queue posts, and the test runs the drain itself.
class PostedDrainers {
 public:
  MicroBatchQueue::PostDrainer poster() {
    return [this](std::size_t drainer) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        slots_.push_back(drainer);
      }
      cv_.notify_one();
    };
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

  /// The oldest posted slot, waiting for one; nullopt once closed.
  std::optional<std::size_t> take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !slots_.empty(); });
    if (slots_.empty()) return std::nullopt;
    const std::size_t d = slots_.front();
    slots_.pop_front();
    return d;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> slots_;
  bool closed_ = false;
};

}  // namespace gv
