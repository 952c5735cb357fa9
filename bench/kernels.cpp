// google-benchmark microbenchmarks for the compute kernels that dominate
// GNNVault inference and vault training, plus the SGX-simulator crypto
// (sealing path).
//
//   ./bench_kernels --benchmark_format=json --benchmark_out=BENCH_kernels.json
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/model_spec.hpp"
#include "core/pipeline.hpp"
#include "data/catalog.hpp"
#include "data/synthetic.hpp"
#include "graph/graph.hpp"
#include "sgxsim/chacha20poly1305.hpp"
#include "sgxsim/sha256.hpp"
#include "tensor/csr.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace gv;

Matrix random_dense(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_dense(n, n, 1);
  const Matrix b = random_dense(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmTallSkinny(benchmark::State& state) {
  // The GNN shape: n nodes x d features times d x h weights.
  const Matrix a = random_dense(2708, 1433, 3);
  const Matrix b = random_dense(1433, 128, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
}
BENCHMARK(BM_GemmTallSkinny);

// Rows of the Pubmed twin: the training activations are [kPubmedRows, C].
constexpr std::size_t kPubmedRows = 19717;

void BM_MatmulNt(benchmark::State& state) {
  // An input gradient dX = dZ W': dZ is [n, out], W is [in, out]. The
  // shapes are the M1 parallel rectifier's backward: layer 0's 128 x 128
  // (whose input gradient training no longer computes), layer 1's full
  // 160 x 32, and the 128 x 32 part of it that training keeps.
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const Matrix dz = random_dense(kPubmedRows, out, 10);
  const Matrix w = random_dense(in, out, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(dz, w));
  }
  state.SetItemsProcessed(state.iterations() * kPubmedRows * in * out);
}
BENCHMARK(BM_MatmulNt)->Args({128, 128})->Args({160, 32})->Args({128, 32})
    ->Unit(benchmark::kMillisecond);

void BM_DropoutForward(benchmark::State& state) {
  const Matrix h = random_dense(kPubmedRows, 128, 12);
  Matrix x = h;
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    x = h;  // dropout scales in place; start every pass from the same input
    state.ResumeTiming();
    benchmark::DoNotOptimize(dropout_forward(x, 0.5f, rng));
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * h.size());
}
BENCHMARK(BM_DropoutForward)->Unit(benchmark::kMillisecond);

void BM_DropoutBackward(benchmark::State& state) {
  Matrix x = random_dense(kPubmedRows, 128, 14);
  Rng rng(15);
  const DropoutMask mask = dropout_forward(x, 0.5f, rng);
  const Matrix g = random_dense(kPubmedRows, 128, 16);
  Matrix dy = g;
  for (auto _ : state) {
    state.PauseTiming();
    dy = g;
    state.ResumeTiming();
    dropout_backward(dy, mask);
    benchmark::DoNotOptimize(dy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * g.size());
}
BENCHMARK(BM_DropoutBackward)->Unit(benchmark::kMillisecond);

void BM_ReluBackward(benchmark::State& state) {
  const Matrix z = random_dense(kPubmedRows, 128, 17);
  Matrix dy = random_dense(kPubmedRows, 128, 18);
  for (auto _ : state) {
    relu_backward(dy, z);  // idempotent: repeated passes gate the same entries
    benchmark::DoNotOptimize(dy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * dy.size());
}
BENCHMARK(BM_ReluBackward)->Unit(benchmark::kMillisecond);

void BM_TrainVaultCora(benchmark::State& state) {
  // One vault set-up on the Cora twin with the M1 model and the 50 epochs
  // VaultBench's cora-hot workload trains: KNN substitute graph, backbone,
  // rectifier.
  const Dataset ds = load_dataset(DatasetId::kCora, 42);
  VaultTrainConfig cfg;
  cfg.spec = model_spec_for_dataset(DatasetId::kCora);
  cfg.backbone_train.epochs = 50;
  cfg.rectifier_train.epochs = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_vault(ds, cfg));
  }
}
BENCHMARK(BM_TrainVaultCora)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Spmm(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_nodes = 2708;
  spec.num_classes = 7;
  spec.num_undirected_edges = 5278;
  spec.feature_dim = 64;
  const Dataset ds = generate_synthetic(spec, 5);
  const auto adj = ds.graph.gcn_normalized();
  const Matrix h = random_dense(2708, static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm(adj, h));
  }
}
BENCHMARK(BM_Spmm)->Arg(32)->Arg(128);

void BM_SparseFeatureSpmm(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_nodes = 2708;
  spec.num_classes = 7;
  spec.num_undirected_edges = 5278;
  spec.feature_dim = 1433;
  spec.features_per_node = 18;
  const Dataset ds = generate_synthetic(spec, 7);
  const Matrix w = random_dense(1433, 128, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spmm(ds.features, w));
  }
}
BENCHMARK(BM_SparseFeatureSpmm);

void BM_GcnNormalize(benchmark::State& state) {
  SyntheticSpec spec;
  spec.num_nodes = 10000;
  spec.num_classes = 5;
  spec.num_undirected_edges = 40000;
  spec.feature_dim = 64;
  const Dataset ds = generate_synthetic(spec, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.graph.gcn_normalized());
  }
}
BENCHMARK(BM_GcnNormalize);

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(1 << 20);

void BM_AeadSeal(benchmark::State& state) {
  AeadKey key{};
  AeadNonce nonce{};
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5a);
  AeadTag tag;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead_encrypt(key, nonce, data, {}, tag));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(4096)->Arg(1 << 20);

}  // namespace
