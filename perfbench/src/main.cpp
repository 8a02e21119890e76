// perfbench_bin: one workload of the repository benchmark, in this
// process. perfbench/run.py drives it; perfbench/README.md explains
// the workloads and metrics.
//
//   perfbench_bin --mode setup|run --workload NAME --seed N
//                 [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// setup  stands the workload up (plan, pack, first call or warmup),
//        prints {"setup_s": ...} and exits. run.py repeats it in fresh
//        processes: the quality evaluator's memo is process-global, so
//        only a fresh process pays the real set-up cost.
// run    stands up, measures for S seconds, then checks a seeded sample
//        of outputs bit for bit against a single-threaded serial Engine
//        at the same plan. Prints "host" and "work" lines, then one JSON
//        result line. --trace 1 also times the calls into each module
//        (spans kept in memory, written to --trace-out at exit) and
//        reports the per-layer metrics instead of the end-to-end ones.
//
// Exit status: 0 ok, 1 on any output mismatch or broken invariant,
// 2 on bad usage, 3 when the workload could not run (an error, or a run
// too short for its p90).
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "host.h"
#include "kernels/conv2d.h"
#include "kernels/gemm_dense.h"
#include "kernels/spmm_balanced24.h"
#include "kernels/spmm_bsr.h"
#include "kernels/spmm_shfl_bw.h"
#include "kernels/spmm_sputnik.h"
#include "kernels/spmm_vector_wise.h"
#include "model/weight_synth.h"
#include "quality/quality_evaluator.h"
#include "runtime/engine.h"
#include "runtime/server.h"

namespace perfbench {
namespace {

using shflbw::Matrix;
using shflbw::NowSeconds;
using shflbw::Rng;
using shflbw::SetParallelThreads;
namespace rt = shflbw::runtime;

/// Worker-pool size, fixed so every host runs the same schedule.
constexpr int kPoolThreads = 4;
/// Outputs checked against the serial engine per run.
constexpr int kOfflineCheckedCalls = 8;
constexpr int kServeCheckedRequests = 64;

// serve-open traffic: a fixed absolute rate, about a third of the
// closed-loop capacity of its server on a 4-core host, and a per-request
// deadline.
constexpr double kServeRatePerS = 800.0;
constexpr double kServeDeadlineS = 0.020;
constexpr double kServeFloor = 0.5;

// The two offline models; also name the kernels.* per-layer metrics.
rt::ModelDesc TfmModel() {
  return rt::ModelDesc::Transformer(shflbw::TransformerConfig{256, 1024, 128,
                                                              2, 2});
}
rt::ModelDesc Rn50Model() {
  return rt::ModelDesc::ResNet50(shflbw::ResNet50Config{1, 64});
}

struct Args {
  std::string mode = "run";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Metrics in emission order, each with its unit.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit});
    } else {
      rows_[index_[name]] = {name, value, unit};
    }
  }
  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed,
             double setup_s) const {
    for (const Row& r : rows_) {
      std::printf("  %-40s %16.6f %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"setup_s\": %.17g, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), setup_s);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

/// What a run found, besides its metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
};

void Fail(Outcome* o, const std::string& why) {
  o->correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
}

double Ms(double seconds) { return seconds * 1e3; }

double Or0(const std::optional<double>& v) { return v ? *v : 0.0; }

/// Median of the per-window nearest-rank percentile p, windows sized so
/// each holds at least twenty samples beyond its rank. nullopt (with a
/// message) when the sample is too small for even one window.
std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double p) {
  const auto per_window =
      static_cast<std::size_t>(2.0 * kMinBeyond / (1.0 - p / 100.0) + 0.5);
  const int windows =
      static_cast<int>(std::max<std::size_t>(1, samples.size() / per_window));
  std::optional<double> v = WindowedPercentile(samples, p, windows);
  if (!v) {
    std::printf("p%.0f refused: %zu samples leave fewer than %zu beyond it\n",
                p, samples.size(), kMinBeyond);
  }
  return v;
}

/// The end-to-end p90: a run too short to support it is an error, not
/// a 0 that would read as a latency.
double GatedP90(const std::vector<double>& samples) {
  const std::optional<double> v = TailPercentile(samples, 90);
  if (!v) throw std::runtime_error("too few samples for p90; run longer");
  return *v;
}

void SleepUntil(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

/// In a traced run, spans are recorded for odd-numbered calls or
/// requests only; their even neighbours run untraced, so the run
/// measures its own tracing overhead under the same host conditions.
bool Traced(bool trace, std::uint64_t index) {
  return trace && index % 2 == 1;
}

/// (traced median / untraced median) - 1 of the same timing.
double OverheadFrac(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  const std::optional<double> t = Median(traced), u = Median(untraced);
  return t && u && *u > 0 ? *t / *u - 1.0 : 0.0;
}

Matrix<float> MasterWeight(const rt::LayerDesc& l, int layer,
                           const rt::EngineOptions& opts) {
  shflbw::SynthWeightOptions synth;
  synth.seed = opts.weight_seed + static_cast<std::uint64_t>(layer);
  return shflbw::SynthesizeWeights(l.GemmM(), l.GemmK(), synth);
}

/// Compact size of a packed weight computed from its tensors: fp16
/// values, int32 indices.
double PackedBytes(const rt::PackedWeight& w) {
  const auto vw = [](const shflbw::VectorWiseMatrix& m) {
    return 2.0 * m.values.size() + 4.0 * (m.col_idx.size() +
                                          m.group_col_ptr.size());
  };
  switch (w.format) {
    case rt::Format::kDense: return 2.0 * w.dense.size();
    case rt::Format::kCsr:
      return 2.0 * w.csr.values.size() +
             4.0 * (w.csr.col_idx.size() + w.csr.row_ptr.size());
    case rt::Format::kBsr:
      return 2.0 * w.bsr.values.size() +
             4.0 * (w.bsr.block_col_idx.size() + w.bsr.block_row_ptr.size());
    case rt::Format::kBalanced24:
      return 2.0 * w.balanced24.values.size() + 1.0 * w.balanced24.meta.size();
    case rt::Format::kVectorWise: return vw(w.vw);
    case rt::Format::kShflBw:
      return vw(w.shflbw.vw) + 4.0 * w.shflbw.storage_to_original.size();
  }
  return 0;
}

// ---------------------------------------------------------------- engine

struct EngineProfile {
  double call_ms = 0;
  double self_ms = 0;  // call minus the engine's own kernel launch times
  double mflop_per_req = 0;
  double par_eff = 0;  // 1-thread time / (pool threads x N-thread time)
};

/// Times RunBatched at `width` on the full pool and on one thread.
EngineProfile ProfileEngine(rt::Engine& engine, int width, Rng& rng,
                            SpanLog& log) {
  const auto seeds = [&] {
    std::vector<std::uint64_t> s(static_cast<std::size_t>(width));
    for (auto& x : s) x = rng.engine()();
    return s;
  };
  const auto time_calls = [&](int calls, std::vector<double>* self_ms,
                              double* mflop) {
    std::vector<double> ms;
    for (int i = 0; i < calls; ++i) {
      const std::vector<std::uint64_t> s = seeds();
      Span span{"RunBatched", NowSeconds()};
      const rt::BatchRunResult r = engine.RunBatched(s);
      span.end = NowSeconds();
      log.Add(span);
      ms.push_back(Ms(span.Seconds()));
      double kernel_s = 0, flops = 0;
      for (const rt::LayerRunRecord& rec : r.layers) {
        kernel_s += rec.seconds;
        flops += rec.useful_flops;
      }
      if (self_ms) self_ms->push_back(Ms(span.Seconds() - kernel_s));
      if (mflop) *mflop = flops / width / 1e6;
    }
    return Or0(Median(ms));
  };
  EngineProfile p;
  std::vector<double> self_ms;
  p.call_ms = time_calls(15, &self_ms, &p.mflop_per_req);
  p.self_ms = Or0(Median(self_ms));
  SetParallelThreads(1);
  const double serial_ms = time_calls(5, nullptr, nullptr);
  SetParallelThreads(kPoolThreads);
  p.par_eff = p.call_ms > 0 ? serial_ms / (kPoolThreads * p.call_ms) : 0;
  return p;
}

/// planner.plan_ms, pack.* and, for the offline models, kernels.*:
/// PlanModel and PackWeight called directly under spans, then every
/// layer's kernel timed at the workload's serving shape on the full
/// pool and on one thread.
void ProfileModules(const rt::ModelDesc& model, const rt::EngineOptions& opts,
                    const std::string& tag, int width, SpanLog& log,
                    Report& rep) {
  rt::PlannerOptions speed_only = opts.planner;
  speed_only.quality.enabled = false;
  Span plan_span{"PlanModel", NowSeconds()};
  (void)rt::PlanModel(model, speed_only);
  plan_span.end = NowSeconds();
  log.Add(plan_span);
  rep.Set("planner.plan_ms", Ms(plan_span.Seconds()), "ms");

  // The pack phase of the served plan (quality-aware where the workload
  // is), layer by layer. PackWeight for Shfl-BW is PruneToShflBw: the
  // permutation search plus packaging.
  rt::PlannerOptions popts = opts.planner;
  if (popts.quality.enabled) popts.quality.weight_seed = opts.weight_seed;
  const rt::ExecutionPlan plan = rt::PlanModel(model, popts);
  std::vector<rt::PackedWeight> packed;
  double pack_s = 0, search_s = 0, pack_bytes = 0;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const rt::LayerPlan& lp = plan.layers[i];
    const Matrix<float> master =
        MasterWeight(model.layers[i], static_cast<int>(i), opts);
    const bool shfl = lp.format == rt::Format::kShflBw;
    Span span{shfl ? "PruneToShflBw" : "PackWeight", NowSeconds()};
    packed.push_back(rt::PackWeight(lp.format, master, lp.density, lp.v));
    span.end = NowSeconds();
    log.Add(span);
    pack_s += span.Seconds();
    if (shfl) search_s += span.Seconds();
    pack_bytes += PackedBytes(packed.back());
  }
  rep.Set("pack.total_s", pack_s, "s");
  rep.Set("pack.shflbw_search_s", search_s, "s");
  rep.Set("pack.bytes_mb", pack_bytes / 1e6, "MB");

  const shflbw::GpuSpec& spec = shflbw::GetGpuSpec(opts.planner.arch);
  double flops = 0, bytes = 0, im2col_ms = 0;
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const rt::LayerDesc& l = model.layers[i];
    const rt::PackedWeight& w = packed[i];
    Rng rng(0x1a7e5ULL + i);
    const std::int32_t parent =
        log.Add(Span{"layer:" + l.Name(), NowSeconds()});
    std::function<shflbw::KernelResult()> call;
    std::string kernel;  // the public kernel function the span times
    Matrix<float> act;
    shflbw::Tensor4 input;
    shflbw::ConvShape shape;
    if (l.kind == rt::LayerKind::kGemm) {
      act = rng.NormalMatrix(l.gemm.k, l.gemm.n * width);
      bytes += 2.0 * act.size() + 2.0 * l.gemm.m * act.cols();
      // The engine's GEMM dispatch (Engine::ExecuteGemm), one kernel per
      // format.
      switch (w.format) {
        case rt::Format::kDense:
          kernel = "GemmTensorCore";
          call = [&] { return shflbw::GemmTensorCore(w.dense, act, spec); };
          break;
        case rt::Format::kCsr:
          kernel = "SpmmSputnik";
          call = [&] { return shflbw::SpmmSputnik(w.csr, act, spec); };
          break;
        case rt::Format::kBsr:
          kernel = "SpmmBsr";
          call = [&] { return shflbw::SpmmBsr(w.bsr, act, spec); };
          break;
        case rt::Format::kBalanced24:
          kernel = "SpmmBalanced24";
          call = [&] {
            return shflbw::SpmmBalanced24(w.balanced24, act, spec);
          };
          break;
        case rt::Format::kVectorWise:
          kernel = "SpmmVectorWise";
          call = [&] { return shflbw::SpmmVectorWise(w.vw, act, spec); };
          break;
        case rt::Format::kShflBw:
          kernel = "SpmmShflBw";
          call = [&] { return shflbw::SpmmShflBw(w.shflbw, act, spec); };
          break;
      }
    } else {
      shape = rt::ToConvShape(l.conv);
      shape.batch *= width;
      input = shflbw::Tensor4(shape.batch, shape.in_c, shape.in_h, shape.in_w);
      for (float& x : input.data) x = static_cast<float>(rng.Normal());
      bytes += 2.0 * input.data.size() +
               2.0 * static_cast<double>(shape.GemmM()) * shape.GemmN();
      // The engine's conv dispatch (Engine::ExecuteConv).
      switch (w.format) {
        case rt::Format::kDense:
          kernel = "Conv2dDense";
          call = [&] {
            return shflbw::Conv2dDense(input, w.dense, shape, spec);
          };
          break;
        case rt::Format::kShflBw:
          kernel = "Conv2dShflBw";
          call = [&] {
            return shflbw::Conv2dShflBw(input, w.shflbw, shape, spec);
          };
          break;
        case rt::Format::kVectorWise:
          kernel = "Im2Col+SpmmVectorWise";
          call = [&] {
            return shflbw::SpmmVectorWise(w.vw, shflbw::Im2Col(input, shape),
                                          spec);
          };
          break;
        default:
          throw std::runtime_error(rt::FormatName(w.format) +
                                   " has no conv path");
      }
      std::vector<double> unfold_ms;
      for (int r = 0; r < 5; ++r) {
        Span s{"Im2Col", NowSeconds(), 0, parent};
        (void)shflbw::Im2Col(input, shape);
        s.end = NowSeconds();
        log.Add(s);
        unfold_ms.push_back(Ms(s.Seconds()));
      }
      im2col_ms += Or0(Median(unfold_ms));
    }
    bytes += PackedBytes(w);
    const auto time = [&](int reps, double* useful) {
      std::vector<double> ms;
      (void)call();  // warm the pool's per-thread scratch
      for (int r = 0; r < reps; ++r) {
        Span s{kernel, NowSeconds(), 0, parent};
        const shflbw::KernelResult kr = call();
        s.end = NowSeconds();
        log.Add(s);
        ms.push_back(Ms(s.Seconds()));
        if (useful) *useful = kr.stats.useful_flops;
      }
      return Or0(Median(ms));
    };
    double layer_flops = 0;
    const double ms = time(7, &layer_flops);
    SetParallelThreads(1);
    const double serial_ms = time(3, nullptr);
    SetParallelThreads(kPoolThreads);
    log.Close(parent, NowSeconds());
    flops += layer_flops;
    if (!tag.empty()) {
      const std::string key = "kernels." + tag + "." + l.Name();
      rep.Set(key + ".ms", ms, "ms");
      rep.Set(key + ".gflops", ms > 0 ? layer_flops / (ms * 1e-3) / 1e9 : 0,
              "GFLOP/s");
      rep.Set(key + ".par_eff", ms > 0 ? serial_ms / (kPoolThreads * ms) : 0,
              "ratio");
    }
  }
  rep.Set("kernels.im2col_ms", im2col_ms, "ms");
  rep.Set("kernels.flop_per_byte", bytes > 0 ? flops / bytes : 0,
          "flop/B");
}

/// Every per-layer metric, zero until a workload measures it: the
/// traced output names the same metrics on every workload.
void DeclarePerLayer(Report& rep) {
  const rt::ModelDesc models[] = {TfmModel(), Rn50Model()};
  const char* tags[] = {"tfm", "rn50"};
  for (int m = 0; m < 2; ++m) {
    for (const rt::LayerDesc& l : models[m].layers) {
      const std::string key = std::string("kernels.") + tags[m] + "." +
                              l.Name();
      rep.Set(key + ".ms", 0, "ms");
      rep.Set(key + ".gflops", 0, "GFLOP/s");
      rep.Set(key + ".par_eff", 0, "ratio");
    }
  }
  const std::pair<const char*, const char*> rest[] = {
      {"kernels.im2col_ms", "ms"},       {"kernels.flop_per_byte", "flop/B"},
      {"engine.call_ms", "ms"},          {"engine.self_ms", "ms"},
      {"engine.mflop_per_req", "MFLOP"}, {"engine.par_eff", "ratio"},
      {"pack.total_s", "s"},             {"pack.shflbw_search_s", "s"},
      {"pack.bytes_mb", "MB"},           {"planner.plan_ms", "ms"},
      {"quality.plan_s", "s"},           {"cache.bytes_mb", "MB"},
      {"cache.steady_packs", "count"},   {"server.latency_p99_ms", "ms"},
      {"server.submit_us_p50", "us"},    {"server.submit_us_p99", "us"},
      {"server.queue_ms_p50", "ms"},     {"server.queue_ms_p99", "ms"},
      {"server.run_ms_p50", "ms"},       {"server.self_ms_p50", "ms"},
      {"server.batch_width_mean", "count"}, {"server.shed", "count"},
      {"server.refused", "count"},       {"loadgen.lag_ms_p99", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : rest) rep.Set(name, 0, unit);
}

// --------------------------------------------------------------- offline

struct OfflineWorkload {
  rt::ModelDesc model;
  rt::EngineOptions opts;
  std::string tag;  // kernels.<tag>.* metric prefix
  int width = 1;    // requests per RunBatched call
};

OfflineWorkload TfmShflBwOffline() {
  OfflineWorkload w{TfmModel(), {}, "tfm", 4};
  w.opts.planner.force_format = rt::Format::kShflBw;
  w.opts.planner.density = 0.25;
  w.opts.planner.v = 32;
  return w;
}

OfflineWorkload Rn50AutoOffline() {
  OfflineWorkload w{Rn50Model(), {}, "rn50", 1};
  w.opts.planner.density = 0.25;
  w.opts.planner.v = 32;
  return w;
}

/// One caller in a closed loop over Engine::RunBatched.
Outcome RunOffline(const OfflineWorkload& w, const Args& a, Report& rep) {
  Outcome out;
  SpanLog log(1 << 16);
  Rng seeds(a.seed);
  const auto next_seeds = [&] {
    std::vector<std::uint64_t> s(static_cast<std::size_t>(w.width));
    for (auto& x : s) x = seeds.engine()();
    return s;
  };

  const double t_setup = NowSeconds();
  auto cache = std::make_shared<rt::PackedWeightCache>();
  rt::Engine engine(w.model, w.opts, cache);
  (void)engine.Plan();
  (void)engine.RunBatched(next_seeds());  // packs every layer
  out.setup_s = NowSeconds() - t_setup;
  if (a.mode == "setup") return out;
  const std::size_t packs_at_setup = cache->TotalPacks();

  // Seeded choice of which calls to keep for the serial check.
  Rng pick(a.seed ^ 0xc4ec6ULL);
  std::vector<std::pair<std::vector<std::uint64_t>, rt::BatchRunResult>> kept;
  std::vector<double> lat_ms, traced_ms, untraced_ms;
  double mflop_per_req = 0;
  std::size_t launches = 0;
  const double start = NowSeconds();
  const double stop = start + a.seconds;
  double last = start;
  for (std::uint64_t call = 0; last < stop; ++call) {
    std::vector<std::uint64_t> s = next_seeds();
    const bool traced = Traced(a.trace, call);
    out.attempted += s.size();
    Span span{"RunBatched", NowSeconds(), 0, kNoParent,
              static_cast<std::int64_t>(call)};
    rt::BatchRunResult r;
    try {
      r = engine.RunBatched(s);
    } catch (const std::exception& e) {
      std::printf("RunBatched failed: %s\n", e.what());
      out.failed += s.size();
      last = NowSeconds();
      continue;
    }
    span.end = last = NowSeconds();
    if (traced) log.Add(span);
    lat_ms.push_back(Ms(span.Seconds()));
    (traced ? traced_ms : untraced_ms).push_back(lat_ms.back());
    double flops = 0;
    for (const rt::LayerRunRecord& rec : r.layers) flops += rec.useful_flops;
    mflop_per_req = flops / w.width / 1e6;
    launches = r.layers.size();
    if (static_cast<int>(kept.size()) < kOfflineCheckedCalls &&
        pick.Bernoulli(0.125)) {
      kept.emplace_back(std::move(s), std::move(r));
    }
  }
  const double elapsed = last - start;
  const double peak_rss_mb = PeakRssMb();
  const std::size_t steady_packs = cache->TotalPacks() - packs_at_setup;

  // Checks: the plan is the one the workload names, steady state packs
  // nothing, and every kept output equals a single-threaded serial
  // engine's (width 1, same plan, same packed weights).
  for (const rt::LayerPlan& lp : engine.Plan().layers) {
    if (w.opts.planner.force_format && lp.format != *w.opts.planner.force_format)
      Fail(&out, "layer " + lp.name + " planned as " +
                     rt::FormatName(lp.format));
  }
  if (steady_packs != 0) Fail(&out, "steady-state calls packed weights");
  {
    SetParallelThreads(1);
    rt::Engine serial(w.model, w.opts, cache);
    serial.AdoptPlan(engine.Plan());
    for (const auto& [s, r] : kept) {
      for (std::size_t j = 0; j < s.size(); ++j) {
        const std::int64_t at =
            FirstBitMismatch(serial.Run(s[j]).output, r.outputs[j]);
        if (at >= 0) {
          ++out.failed;
          Fail(&out, "output of seed " + std::to_string(s[j]) +
                         " differs from the serial engine at element " +
                         std::to_string(at));
        }
      }
    }
    SetParallelThreads(kPoolThreads);
  }

  std::printf("work {\"mflop_per_req\": %.17g, \"packs_at_setup\": %zu, "
              "\"steady_packs\": %zu, \"launches_per_call\": %zu, "
              "\"calls\": %zu, \"checked_requests\": %zu}\n",
              mflop_per_req, packs_at_setup, steady_packs, launches,
              lat_ms.size(), kept.size() * static_cast<std::size_t>(w.width));
  if (lat_ms.empty()) {
    Fail(&out, "no call completed");
    return out;
  }

  if (!a.trace) {
    double retained = 1.0;
    for (std::size_t i = 0; i < w.model.layers.size(); ++i) {
      const rt::LayerPlan& lp = engine.Plan().layers[i];
      retained = std::min(
          retained, shflbw::quality::QualityEvaluator::Shared()
                        .LayerRetainedRatio(w.model.layers[i],
                                            static_cast<int>(i),
                                            w.opts.weight_seed, lp.format,
                                            lp.density, lp.v));
    }
    const std::uint64_t ok = out.attempted - out.failed;
    rep.Set("throughput_rps", static_cast<double>(ok) / elapsed, "1/s");
    rep.Set("latency_p50_ms", Or0(Median(lat_ms)), "ms");
    rep.Set("latency_p90_ms", GatedP90(lat_ms), "ms");
    rep.Set("slo_met_frac",
            static_cast<double>(ok) / static_cast<double>(out.attempted),
            "frac");
    rep.Set("retained_ratio", retained, "ratio");
    rep.Set("peak_rss_mb", peak_rss_mb, "MB");
    std::printf("latencies are per call, over %zu calls\n", lat_ms.size());
    return out;
  }

  const EngineProfile ep = ProfileEngine(engine, w.width, seeds, log);
  rep.Set("engine.call_ms", ep.call_ms, "ms");
  rep.Set("engine.self_ms", ep.self_ms, "ms");
  rep.Set("engine.mflop_per_req", ep.mflop_per_req, "MFLOP");
  rep.Set("engine.par_eff", ep.par_eff, "ratio");
  rep.Set("cache.bytes_mb", static_cast<double>(cache->ApproxBytes()) / 1e6,
          "MB");
  rep.Set("cache.steady_packs", static_cast<double>(steady_packs), "count");
  rep.Set("trace.overhead_frac", OverheadFrac(traced_ms, untraced_ms),
          "ratio");
  ProfileModules(w.model, w.opts, w.tag, w.width, log, rep);
  if (!a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    WriteChromeTrace(f, {&log}, t_setup);
  }
  return out;
}

// ------------------------------------------------------------ serve-open

struct Arrival {
  std::uint64_t seed = 0;
  double due = 0, sent = 0, done = 0;
  rt::SubmitStatus verdict = rt::SubmitStatus::kRejectedShutdown;
  bool served = false;  // resolved kOk without an exception
  bool checked = false;
  rt::Response resp;    // output kept only when checked
};

rt::ModelDesc ServeModel() {
  return rt::ModelDesc::Transformer(shflbw::TransformerConfig{64, 256, 32,
                                                              1, 1});
}

rt::ServerOptions ServeOptions() {
  rt::ServerOptions so;
  so.replicas = 2;
  so.max_batch = 8;
  so.queue_capacity = 64;
  so.engine.planner.v = 8;
  so.engine.planner.quality.enabled = true;
  so.engine.planner.quality.min_retained_ratio = kServeFloor;
  so.engine.planner.quality.floor = rt::QualityOptions::Floor::kPerLayer;
  return so;
}

/// BatchServer under open-loop Poisson arrivals at a fixed rate, each
/// request due at its scheduled time whether or not earlier ones have
/// finished. The calling thread generates load; one collector thread
/// resolves futures in submission order.
Outcome RunServeOpen(const Args& a, Report& rep) {
  Outcome out;
  SpanLog gen_log(1 << 16), log(1 << 12);
  const rt::ModelDesc model = ServeModel();
  const rt::ServerOptions so = ServeOptions();

  if (a.trace) {
    // Before the server plans: the quality evaluator is still cold, so
    // this is the set-up cost of quality-aware planning.
    rt::PlannerOptions popts = so.engine.planner;
    popts.quality.weight_seed = so.engine.weight_seed;
    Span span{"PlanModel", NowSeconds()};
    (void)rt::PlanModel(model, popts);
    span.end = NowSeconds();
    log.Add(span);
    rep.Set("quality.plan_s", span.Seconds(), "s");
  }
  const double t_setup = NowSeconds();
  rt::BatchServer server(model, so);
  server.Warmup();
  out.setup_s = NowSeconds() - t_setup;
  if (a.mode == "setup") return out;
  const std::size_t packs_at_setup = server.cache().TotalPacks();
  const rt::ServerStats warm = server.Stats();  // Warmup's own requests

  // Engine call time at each fused width on a replica's share of the
  // pool, for server.self_ms (traced runs only).
  std::vector<double> engine_ms(static_cast<std::size_t>(so.max_batch) + 1);
  rt::Engine reference(model, so.engine);
  reference.AdoptPlan(server.Plan());
  Rng rng(a.seed);
  if (a.trace) {
    SetParallelThreads(kPoolThreads / so.replicas);
    for (int width = 1; width <= so.max_batch; ++width) {
      std::vector<std::uint64_t> s(static_cast<std::size_t>(width), a.seed);
      std::vector<double> ms;
      for (int r = 0; r < 12; ++r) {
        const double t0 = NowSeconds();
        (void)reference.RunBatched(s);
        if (r > 0) ms.push_back(Ms(NowSeconds() - t0));
      }
      engine_ms[static_cast<std::size_t>(width)] = Or0(Median(ms));
    }
    SetParallelThreads(kPoolThreads);
  }

  const std::vector<double> due =
      PoissonSchedule(a.seed, kServeRatePerS, a.seconds);
  std::vector<Arrival> arr(due.size());
  std::vector<std::future<rt::Response>> futures(due.size());
  const double check_p =
      std::min(1.0, static_cast<double>(kServeCheckedRequests) /
                        static_cast<double>(std::max<std::size_t>(1, due.size())));
  Rng pick(a.seed ^ 0xc4ec6ULL);
  for (Arrival& x : arr) {
    x.seed = rng.engine()();
    x.checked = pick.Bernoulli(check_p);
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t issued = 0;  // guarded by mu
  std::thread collector([&] {
    for (std::size_t i = 0; i < arr.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return issued > i; });
      }
      Arrival& x = arr[i];
      if (x.verdict != rt::SubmitStatus::kAccepted) {
        x.done = x.sent;
        continue;
      }
      try {
        rt::Response r = futures[i].get();
        x.done = NowSeconds();
        x.served = r.status == rt::ResponseStatus::kOk;
        if (!x.checked) r.output = Matrix<float>();
        x.resp = std::move(r);
      } catch (const std::exception& e) {
        x.done = NowSeconds();
        std::printf("request %zu failed: %s\n", i, e.what());
      }
    }
  });

  const auto publish = [&](std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      issued = n;
    }
    cv.notify_one();
  };
  const double start = NowSeconds() + 0.01;
  try {
    for (std::size_t i = 0; i < arr.size(); ++i) {
      Arrival& x = arr[i];
      x.due = start + due[i];
      SleepUntil(x.due);
      x.sent = NowSeconds();
      rt::Request req;
      req.activation_seed = x.seed;
      req.deadline_seconds = kServeDeadlineS;
      x.verdict = server.TrySubmit(req, &futures[i]);
      if (Traced(a.trace, i)) {
        gen_log.Add(Span{"TrySubmit", x.sent, NowSeconds(), kNoParent,
                         static_cast<std::int64_t>(i)});
      }
      publish(i + 1);
    }
  } catch (...) {
    // Unsent arrivals keep their non-accepted verdict, so the collector
    // skips them and can be joined.
    publish(arr.size());
    collector.join();
    throw;
  }
  collector.join();
  server.Drain();
  const double peak_rss_mb = PeakRssMb();
  const rt::ServerStats stats = server.Stats();
  const std::size_t steady_packs =
      server.cache().TotalPacks() - packs_at_setup;

  // Checks: conservation, the quality floor, no steady-state packs, and
  // the kept outputs against a single-threaded serial engine.
  std::uint64_t accepted = 0, refused = 0, shed = 0, errors = 0, bad = 0;
  double mflop_per_req = 0;
  std::size_t launches = 0, checked = 0;
  SetParallelThreads(1);
  for (Arrival& x : arr) {
    if (x.verdict != rt::SubmitStatus::kAccepted) {
      ++refused;
      continue;
    }
    ++accepted;
    if (x.resp.status == rt::ResponseStatus::kDeadlineExceeded) ++shed;
    else if (!x.served) ++errors;
    if (!x.served || !x.checked) continue;
    const rt::RunResult ref = reference.Run(x.seed);
    double flops = 0;
    for (const rt::LayerRunRecord& rec : ref.layers) flops += rec.useful_flops;
    mflop_per_req = flops / 1e6;
    launches = ref.layers.size();
    ++checked;
    const std::int64_t at = FirstBitMismatch(ref.output, x.resp.output);
    if (at >= 0) {
      ++bad;
      x.served = false;
      Fail(&out, "output of seed " + std::to_string(x.seed) +
                     " differs from the serial engine at element " +
                     std::to_string(at));
    }
  }
  SetParallelThreads(kPoolThreads);
  if (stats.submitted != stats.completed + stats.shed)
    Fail(&out, "submitted != completed + shed");
  if (stats.submitted - warm.submitted != accepted)
    Fail(&out, "server counted a different number of admitted requests");
  const double retained = server.Plan().MinRetainedRatio();
  if (retained < kServeFloor) Fail(&out, "plan retains less than the floor");
  if (steady_packs != 0) Fail(&out, "steady-state requests packed weights");
  // Refusals and sheds are the server's admission control doing its job
  // under a stall; they count as SLO misses, not as failed operations.
  out.attempted = arr.size();
  out.failed = errors + bad;

  std::printf("work {\"mflop_per_req\": %.17g, \"packs_at_setup\": %zu, "
              "\"steady_packs\": %zu, \"launches_per_call\": %zu, "
              "\"requests\": %zu, \"checked_requests\": %zu}\n",
              mflop_per_req, packs_at_setup, steady_packs, launches,
              arr.size(), checked);

  std::vector<double> lat_ms, traced_ms, untraced_ms, lag_ms, queue_ms,
      run_ms, self_ms, width;
  std::uint64_t met = 0;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const Arrival& x = arr[i];
    lag_ms.push_back(Ms(x.sent - x.due));
    if (!x.served) continue;
    const double ms = Ms(x.done - x.due);
    lat_ms.push_back(ms);
    (Traced(a.trace, i) ? traced_ms : untraced_ms).push_back(ms);
    if (ms <= Ms(kServeDeadlineS)) ++met;
    queue_ms.push_back(Ms(x.resp.queue_seconds));
    run_ms.push_back(Ms(x.resp.run_seconds));
    const int wd = std::clamp(x.resp.batch_width, 1, so.max_batch);
    self_ms.push_back(ms - engine_ms[static_cast<std::size_t>(wd)]);
    width.push_back(x.resp.batch_width);
  }
  if (lat_ms.empty()) {
    Fail(&out, "no request was served");
    return out;
  }

  if (!a.trace) {
    rep.Set("throughput_rps", static_cast<double>(met) / a.seconds, "1/s");
    rep.Set("latency_p50_ms", Or0(Median(lat_ms)), "ms");
    rep.Set("latency_p90_ms", GatedP90(lat_ms), "ms");
    rep.Set("slo_met_frac",
            static_cast<double>(met) / static_cast<double>(arr.size()),
            "frac");
    rep.Set("retained_ratio", retained, "ratio");
    rep.Set("peak_rss_mb", peak_rss_mb, "MB");
    std::printf("latencies are per request, over %zu served of %zu "
                "(refused %llu, shed %llu, errors %llu); p99 %.4f ms\n",
                lat_ms.size(), arr.size(),
                static_cast<unsigned long long>(refused),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(errors),
                Or0(TailPercentile(lat_ms, 99)));
    return out;
  }

  std::vector<double> submit_us;
  for (double s : gen_log.Durations("TrySubmit")) submit_us.push_back(s * 1e6);
  double width_sum = 0;
  for (double wd : width) width_sum += wd;
  rep.Set("server.latency_p99_ms", Or0(TailPercentile(lat_ms, 99)), "ms");
  rep.Set("server.submit_us_p50", Or0(Median(submit_us)), "us");
  rep.Set("server.submit_us_p99", Or0(TailPercentile(submit_us, 99)), "us");
  rep.Set("server.queue_ms_p50", Or0(Median(queue_ms)), "ms");
  rep.Set("server.queue_ms_p99", Or0(TailPercentile(queue_ms, 99)), "ms");
  rep.Set("server.run_ms_p50", Or0(Median(run_ms)), "ms");
  rep.Set("server.self_ms_p50", Or0(Median(self_ms)), "ms");
  rep.Set("server.batch_width_mean", width_sum / width.size(), "count");
  rep.Set("server.shed", static_cast<double>(shed), "count");
  rep.Set("server.refused", static_cast<double>(refused), "count");
  rep.Set("loadgen.lag_ms_p99", Or0(TailPercentile(lag_ms, 99)), "ms");
  rep.Set("trace.overhead_frac", OverheadFrac(traced_ms, untraced_ms),
          "ratio");
  rep.Set("cache.bytes_mb",
          static_cast<double>(server.cache().ApproxBytes()) / 1e6, "MB");
  rep.Set("cache.steady_packs", static_cast<double>(steady_packs), "count");
  const EngineProfile ep = ProfileEngine(reference, 1, rng, log);
  rep.Set("engine.call_ms", ep.call_ms, "ms");
  rep.Set("engine.self_ms", ep.self_ms, "ms");
  rep.Set("engine.mflop_per_req", ep.mflop_per_req, "MFLOP");
  rep.Set("engine.par_eff", ep.par_eff, "ratio");
  ProfileModules(model, so.engine, "", 1, log, rep);
  if (!a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    WriteChromeTrace(f, {&log, &gen_log}, t_setup);
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--mode") a->mode = v;
    else if (k == "--workload") a->workload = v;
    else if (k == "--trace-out") a->trace_out = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), &end, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), &end);
    else if (k == "--trace") a->trace = v == "1";
    else return false;
    if (end && *end != '\0') return false;
  }
  return argc % 2 == 1 && (a->mode == "run" || a->mode == "setup") &&
         a->seconds > 0 && !a->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_bin --mode setup|run --workload NAME "
                 "--seed N [--seconds S] [--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  SetParallelThreads(kPoolThreads);
  Report rep;
  if (a.trace) DeclarePerLayer(rep);
  Outcome out;
  try {
    if (a.workload == "tfm-shflbw-offline") {
      out = RunOffline(TfmShflBwOffline(), a, rep);
    } else if (a.workload == "resnet50-auto-offline") {
      out = RunOffline(Rn50AutoOffline(), a, rep);
    } else if (a.workload == "serve-open") {
      out = RunServeOpen(a, rep);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::printf("workload aborted: %s\n", e.what());
    return 3;
  }
  if (a.mode == "setup") {
    std::printf("{\"setup_s\": %.17g}\n", out.setup_s);
    return 0;
  }
  std::printf("host %s\n", HostFingerprintJson(kPoolThreads).c_str());
  rep.Print(out.correct, out.attempted, out.failed, out.setup_s);
  return out.correct ? 0 : 1;
}
