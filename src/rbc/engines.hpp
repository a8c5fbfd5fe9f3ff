// Runtime search backends: SALTED-CPU, SALTED-GPU (simulated A100), and
// SALTED-APU (simulated Gemini).
//
// All three run the SAME functional search (rbc_search over host threads) —
// correctness is real, not simulated. What differs per backend, mirroring
// §3.2-§3.4:
//   * the early-exit flag granularity (per seed on CPU/GPU; per 256-seed
//     batch on the APU, §3.3),
//   * the projected device time, produced by the backend's calibrated cost
//     model from the number of seeds actually visited,
//   * the reported device identity and thread counts.
//
// The protocol layer talks to the SearchBackend interface so a CA can be
// deployed over any of them (one of RBC-SALTED's stated goals: "a single RBC
// search system allows the technology to be deployed on a wider range of
// hardware platforms").
#pragma once

#include <memory>
#include <string>

#include "combinatorics/algorithm515.hpp"
#include "combinatorics/chase382.hpp"
#include "combinatorics/gosper.hpp"
#include "rbc/search.hpp"
#include "sim/apu_model.hpp"
#include "sim/cpu_model.hpp"
#include "sim/gpu_model.hpp"
#include "sim/multi_gpu.hpp"

namespace rbc {

struct EngineReport {
  SearchResult result;
  /// Projected search-only time on the backend's paper platform, seconds.
  double modeled_device_seconds = 0.0;
  std::string device_name;
};

class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  /// Runs the search for a digest received off the wire (runtime-typed).
  /// `digest` must have the length of `algo`'s digest. `session`, when
  /// non-null, carries the authentication session's deadline / cancellation
  /// (see rbc_search); engines are re-entrant — one backend instance may
  /// serve any number of concurrent sessions over the shared WorkerGroup.
  virtual EngineReport search(const Seed256& s_init, ByteSpan digest,
                              hash::HashAlgo algo, const SearchOptions& opts,
                              par::SearchContext* session) = 0;

  /// Convenience overload for one-shot callers without a session context.
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts) {
    return search(s_init, digest, algo, opts, nullptr);
  }

  /// Worst-case (exhaustive, Eq. 1) search time at distance d on this
  /// backend's modeled platform — the input to the §5 security planner.
  virtual double modeled_exhaustive_time_s(int d,
                                           hash::HashAlgo algo) const = 0;

  virtual std::string_view name() const = 0;
};

/// Common configuration for the concrete engines.
struct EngineConfig {
  /// SPMD work units per shell (p in Algorithm 1); 0 = hardware
  /// concurrency. A server tuning for session throughput over single-
  /// session latency sets this low — units multiplex on the worker group.
  int host_threads = 0;
  sim::IterAlgo iterator = sim::IterAlgo::kChase382;
  /// Devices for the multi-GPU backend ("gpu" with num_devices > 1, §4.8).
  int num_devices = 1;
  /// Logical device threads for the heterogeneous backend ("hetero"): the
  /// emulated GPU's width when CPU and device co-search one ball.
  int device_threads = 64;
  /// Compute substrate; nullptr = the process-wide WorkerGroup::shared().
  /// Engines never own threads — N engines multiplex one group instead of
  /// oversubscribing the host with N private pools.
  par::WorkerGroup* workers = nullptr;
};

class CpuSearchEngine final : public SearchBackend {
 public:
  explicit CpuSearchEngine(EngineConfig cfg = {},
                           sim::CpuSpec spec = sim::epyc64());
  using SearchBackend::search;
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session) override;
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const override;
  std::string_view name() const override { return "SALTED-CPU"; }

 private:
  EngineConfig cfg_;
  sim::CpuModel model_;
  par::WorkerGroup* workers_;
};

class GpuSimSearchEngine final : public SearchBackend {
 public:
  explicit GpuSimSearchEngine(EngineConfig cfg = {},
                              sim::GpuSpec spec = sim::a100());
  using SearchBackend::search;
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session) override;
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const override;
  std::string_view name() const override { return "SALTED-GPU"; }

 private:
  EngineConfig cfg_;
  sim::GpuModel model_;
  par::WorkerGroup* workers_;
};

class ApuSimSearchEngine final : public SearchBackend {
 public:
  explicit ApuSimSearchEngine(EngineConfig cfg = {},
                              sim::ApuSpec spec = sim::gemini_apu());
  using SearchBackend::search;
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session) override;
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const override;
  std::string_view name() const override { return "SALTED-APU"; }

 private:
  EngineConfig cfg_;
  sim::ApuModel model_;
  par::WorkerGroup* workers_;
};

/// Multi-GPU backend (§3.2 early-exit flag in unified memory, §4.8): shells
/// are split evenly across cfg.num_devices simulated A100s. The functional
/// search still runs on host threads; each worker's slice maps to a device
/// partition, and the modeled time is the slowest device's plus the Fig. 4
/// coordination overheads.
class MultiGpuSimSearchEngine final : public SearchBackend {
 public:
  explicit MultiGpuSimSearchEngine(EngineConfig cfg = {},
                                   sim::GpuSpec spec = sim::a100());
  using SearchBackend::search;
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session) override;
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const override;
  std::string_view name() const override { return "SALTED-GPU (multi)"; }
  int num_devices() const noexcept { return cfg_.num_devices; }

 private:
  EngineConfig cfg_;
  sim::MultiGpuModel model_;
  par::WorkerGroup* workers_;
};

/// Kernel-level GPU backend: runs the search through the CUDA-like emulator
/// (src/gpu) — one kernel launch per shell, Chase snapshots in shared
/// memory, unified-memory flag — instead of the generic host engine. Slower
/// on the host (it pays the snapshot walk and kernel bookkeeping) but
/// structurally identical to the paper's CUDA implementation; used to
/// validate that the fast generic engine and the kernel-shaped engine agree.
class GpuEmulatedBackend final : public SearchBackend {
 public:
  explicit GpuEmulatedBackend(EngineConfig cfg = {},
                              sim::GpuSpec spec = sim::a100());
  using SearchBackend::search;
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session) override;
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const override;
  std::string_view name() const override { return "SALTED-GPU (kernel)"; }

 private:
  EngineConfig cfg_;
  sim::GpuModel model_;
  par::WorkerGroup* workers_;
};

/// Heterogeneous co-search backend: host worker units and one emulated
/// device drain tiles of the same Hamming ball from a shared work-stealing
/// scheduler (gpu::hetero_cosearch), instead of the CPU and GPU owning
/// disjoint phases. Functionally byte-identical to the CPU engine on the
/// same ball; the modeled time combines the CPU and GPU platform rates as
/// parallel servers (harmonic sum).
class HeteroSearchEngine final : public SearchBackend {
 public:
  explicit HeteroSearchEngine(EngineConfig cfg = {},
                              sim::CpuSpec cpu_spec = sim::epyc64(),
                              sim::GpuSpec gpu_spec = sim::a100());
  using SearchBackend::search;
  EngineReport search(const Seed256& s_init, ByteSpan digest,
                      hash::HashAlgo algo, const SearchOptions& opts,
                      par::SearchContext* session) override;
  double modeled_exhaustive_time_s(int d, hash::HashAlgo algo) const override;
  std::string_view name() const override { return "SALTED-HETERO (CPU+GPU)"; }

 private:
  EngineConfig cfg_;
  sim::CpuModel cpu_model_;
  sim::GpuModel gpu_model_;
  par::WorkerGroup* workers_;
};

/// Factory by device family name ("cpu", "gpu", "apu", "gpu-emu", "hetero";
/// "gpu" with cfg.num_devices > 1 builds the multi-GPU backend).
std::unique_ptr<SearchBackend> make_backend(std::string_view device,
                                            EngineConfig cfg = {});

/// §5 deployment helper: the largest Hamming-distance budget this backend
/// can exhaustively search within threshold T minus the communication
/// allowance (capped at `max_considered`). A CA configured with this value
/// can inject noise up to it without ever risking a timeout.
int plan_ca_distance(const SearchBackend& backend, hash::HashAlgo algo,
                     double threshold_s, double comm_time_s,
                     int max_considered = 8);

}  // namespace rbc
