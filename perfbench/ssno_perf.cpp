// ssno_perf — the workload program behind perfbench/run.py.
//
//   ssno_perf <workload> --seed N --seconds S --trace 0|1 --workdir DIR
//   ssno_perf selftest
//
// Workloads (see perfbench/README.md for why each was chosen):
//   stabilize-token  DFTNO, central daemon, ring:256, one thread
//   stabilize-tree   STNO, distributed daemon, grid:64x64, one thread
//   verify           mc::ParallelChecker over DFTC's 1-fault region of
//                    ring:11, weak fairness, 2 workers
//   serve-sweep      in-process serve::ExpServer on an AF_UNIX socket,
//                    2 scheduler workers, result cache on local disk,
//                    2 closed-loop client connections
//
// Every input the library receives — topology, per-trial seeds, the
// request mix — is generated here from --seed.  The program prints raw
// samples, counts and layer times as one JSON object on the last line
// of stdout; run.py turns them into the benchmark's metrics (medians,
// percentiles, rates), so the statistics live in one place.
//
// --trace 0 measures for --seconds.  --trace 1 measures untraced for
// half of --seconds, then replays exactly the same operations with the
// obs tracer on and with the calls into each layer timed from here;
// the replay's counts must equal the untraced ones, and its layer self
// times plus an unattributed remainder sum to its wall time.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/checker.hpp"
#include "core/daemon.hpp"
#include "core/rng.hpp"
#include "core/scheduler.hpp"
#include "dftc/dftc.hpp"
#include "exp/canon.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/topology.hpp"
#include "mc/explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orientation/dftno.hpp"
#include "orientation/sod.hpp"
#include "orientation/stno.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace {

using ssno::serve::JsonValue;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set size, in MiB, since the last resetPeakRss(): the
/// kernel's VmHWM, or getrusage's lifetime peak without /proc.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Restarts the peak, so that peak_rss_mb covers the timed phase and
/// not the set-up repetitions before it.
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Every workload sets up many times before measuring and setup_s is the
// median (run.py): one set-up takes from tens of microseconds to tens
// of milliseconds, and its time swings with the host from one to the
// next.  StabilizeSpec, kVerifySetupReps and kServeSetupReps give the
// counts.
// Per-trial seeds generated at set-up; a run stops short of this many.
constexpr int kMaxTrials = 10'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

/// What one run hands to run.py.  Samples are raw; run.py summarizes.
struct Record {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup;    // seconds per set-up repetition
  std::vector<double> latency;  // seconds per operation (untraced phase)
  std::vector<double> rates;    // work per second: per operation, or per
                                // chunk of completions on serve-sweep
  double moves = 0;             // mean per operation over a fixed prefix
  double rounds = 0;
  double peakRss = 0;
  // Per-layer samples, by metric name; the metric is their median.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layers;                // per-layer values

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  [[nodiscard]] std::string json() const {
    auto arr = [](const std::vector<double>& v) {
      JsonValue::Array a;
      for (const double x : v) a.emplace_back(x);
      return JsonValue(a);
    };
    JsonValue::Array errs;
    for (const std::string& e : errors) errs.emplace_back(e);
    JsonValue::Object samp, lay;
    for (const auto& [k, v] : samples) samp.emplace_back(k, arr(v));
    for (const auto& [k, v] : layers) lay.emplace_back(k, v);
    const JsonValue::Object o = {
        {"attempted", attempted},   {"failed", failed},
        {"errors", errs},           {"setup_s", arr(setup)},
        {"latency_s", arr(latency)}, {"rate_samples", arr(rates)},
        {"moves", moves},
        {"rounds", rounds},         {"peak_rss_mb", peakRss},
        {"samples", samp},          {"layers", lay}};
    return JsonValue(o).dump();
  }
};

// ---------------------------------------------------------------------
// obs registry deltas

/// Counter totals and histogram (count, sum) pairs at one instant.
struct ObsSnap {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hists;

  static ObsSnap take() {
    ObsSnap s;
    for (const auto& m : ssno::obs::Registry::global().snapshot()) {
      if (m.kind == ssno::obs::MetricSnapshot::Kind::kCounter)
        s.counters[m.name] = m.value;
      else if (m.kind == ssno::obs::MetricSnapshot::Kind::kHistogram)
        s.hists[m.name] = {m.count, m.sum};
    }
    return s;
  }
  [[nodiscard]] double counter(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double histCount(const std::string& n) const {
    const auto it = hists.find(n);
    return it == hists.end() ? 0.0 : static_cast<double>(it->second.first);
  }
  [[nodiscard]] double histSum(const std::string& n) const {
    const auto it = hists.find(n);
    return it == hists.end() ? 0.0 : static_cast<double>(it->second.second);
  }
};

// ---------------------------------------------------------------------
// Span harvesting.  The tracer buffers at most ~1M events per thread
// and a stabilize-tree trial emits three per step, so long runs drain
// the buffer every kHarvestEvery goal checks (between steps, when no
// span is open) and sum span durations by name.

class SpanHarvester {
 public:
  static constexpr std::uint64_t kHarvestEvery = 100'000;

  void begin() { ssno::obs::startTracing(); }
  /// Called before every goal check inside a run.
  void tick() {
    if (++ticks_ % kHarvestEvery == 0) {
      const auto t0 = Clock::now();
      drain(true);
      inRunSeconds_ += since(t0);
    }
  }
  /// Drains what is left and stops tracing.
  void end() {
    const auto t0 = Clock::now();
    drain(false);
    endSeconds_ += since(t0);
  }
  [[nodiscard]] double seconds(const std::string& span) const {
    const auto it = sums_.find(span);
    return it == sums_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] double inRunSeconds() const { return inRunSeconds_; }
  [[nodiscard]] double totalSeconds() const {
    return inRunSeconds_ + endSeconds_;
  }

 private:
  void drain(bool restart) {
    ssno::obs::stopTracing();
    dropped_ += ssno::obs::traceDroppedEvents();
    const std::string json = ssno::obs::traceJson();
    static constexpr std::string_view kName = "{\"name\":\"";
    static constexpr std::string_view kDur = "\"dur\":";
    for (std::size_t pos = json.find(kName); pos != std::string::npos;
         pos = json.find(kName, pos)) {
      pos += kName.size();
      const std::size_t nameEnd = json.find('"', pos);
      const std::size_t lineEnd = json.find('\n', nameEnd);
      const std::size_t dur = json.find(kDur, nameEnd);
      if (dur < lineEnd)
        sums_[json.substr(pos, nameEnd - pos)] +=
            std::strtod(json.c_str() + dur + kDur.size(), nullptr) * 1e-6;
      pos = nameEnd;
    }
    if (restart)
      ssno::obs::startTracing();
    else
      ssno::obs::clearTrace();
  }

  std::uint64_t ticks_ = 0;
  std::uint64_t dropped_ = 0;
  double inRunSeconds_ = 0;
  double endSeconds_ = 0;
  std::map<std::string, double> sums_;
};

// ---------------------------------------------------------------------
// Timed phase: op(i) for i = 0, 1, ... until the seconds the ops report
// as measured add up to `seconds` and at least `minOps` ran.  The checks
// an op runs on its outputs stay outside its measured time.

template <class Op>
void runPhase(double seconds, std::size_t minOps, Op&& op) {
  double measured = 0;
  for (std::size_t i = 0; i < minOps || measured < seconds; ++i)
    measured += op(i);
}

// ---------------------------------------------------------------------
// stabilize-token / stabilize-tree

struct StabilizeSpec {
  const char* topology;
  ssno::DaemonKind daemon;
  ssno::StepCount budget;  // per phase; a trial over budget is a failure
  std::size_t fixedTrials;  // moves/rounds are averaged over these
  int setupReps;            // set-ups before measuring
};

struct TrialOut {
  ssno::StepCount moves = 0, rounds = 0, steps = 0;
  double seconds = 0;  // the latency sample: init + both phases
  std::string error;   // empty when every check passed
  // Traced replay only.
  double initSeconds = 0, runSeconds = 0, checkSeconds = 0;
  double predSeconds = 0, predFirstSeconds = 0;
  std::uint64_t predCalls = 0;
};

/// One trial from a fresh random configuration: run until the substrate
/// is legitimate, then until the composed protocol is (DFTNO) or quiet
/// (STNO).  The end state is checked by an oracle independent of the
/// predicate being timed.  With `harvester` set, the goal predicates
/// are timed and spans are collected.
template <class P>
TrialOut stabilizeTrial(const ssno::Graph& g, const StabilizeSpec& spec,
                        std::uint64_t seed, SpanHarvester* harvester) {
  TrialOut out;
  const auto t0 = Clock::now();
  P proto(g);
  ssno::Rng rng(seed);
  proto.randomize(rng);
  const std::unique_ptr<ssno::Daemon> daemon = ssno::makeDaemon(spec.daemon);
  ssno::Simulator sim(proto, *daemon, rng);
  out.initSeconds = since(t0);

  auto goal = [&](std::function<bool()> pred) -> ssno::Simulator::Predicate {
    if (harvester == nullptr) return pred;
    return [&out, harvester, pred = std::move(pred), first = true]() mutable {
      harvester->tick();
      const auto t = Clock::now();
      const bool r = pred();
      const double d = since(t);
      out.predSeconds += d;
      ++out.predCalls;
      if (first) out.predFirstSeconds += d;
      first = false;
      return r;
    };
  };

  const auto tRun = Clock::now();
  const ssno::RunStats s1 =
      sim.runUntil(goal([&] { return proto.substrateLegitimate(); }),
                   spec.budget);
  ssno::RunStats s2;
  bool done = false;
  if constexpr (std::is_same_v<P, ssno::Dftno>) {
    s2 = sim.runUntil(goal([&] { return proto.isLegitimate(); }),
                      spec.budget);
    done = s1.converged && s2.converged;
  } else if (harvester == nullptr) {
    s2 = sim.runToQuiescence(spec.budget);
    done = s1.converged && s2.terminal;
  } else {
    // runToQuiescence is runUntil without a goal; a never-true goal
    // gives the same run and lets the harvester drain between steps.
    s2 = sim.runUntil(
        [harvester] {
          harvester->tick();
          return false;
        },
        spec.budget);
    done = s1.converged && s2.terminal;
  }
  out.runSeconds = since(tRun);
  out.seconds = since(t0);
  out.moves = s1.moves + s2.moves;
  out.steps = s1.steps + s2.steps;
  out.rounds = s1.rounds + s2.rounds;

  const auto tCheck = Clock::now();
  if (!done) {
    out.error = "trial seed " + std::to_string(seed) +
                " did not converge within " + std::to_string(spec.budget) +
                " moves per phase";
  } else if constexpr (std::is_same_v<P, ssno::Dftno>) {
    if (!proto.satisfiesSpecNow())
      out.error = "DFTNO end state violates SP1/SP2 (seed " +
                  std::to_string(seed) + ")";
  } else {
    if (!proto.isLegitimate() ||
        !ssno::hasConsistentTranslation(proto.orientation()))
      out.error = "STNO end state is not a consistent orientation (seed " +
                  std::to_string(seed) + ")";
  }
  out.checkSeconds = since(tCheck);
  return out;
}

/// The graph and per-trial seeds a stabilize run needs.
struct StabilizeEnv {
  ssno::Graph graph;
  std::vector<std::uint64_t> seeds;
};

/// One set-up: build the graph, initialize a protocol on it, generate
/// the per-trial seeds.  Records its time.
template <class P>
StabilizeEnv stabilizeSetUp(const Args& a, const StabilizeSpec& spec,
                            Record& rec) {
  const auto t0 = Clock::now();
  ssno::Graph g = ssno::exp::TopologySpec::parse(spec.topology).build();
  const double tb = since(t0);
  const auto t1 = Clock::now();
  {
    P proto(g);
    ssno::Rng rng(a.seed);
    proto.randomize(rng);
  }
  const double ti = since(t1);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kMaxTrials; ++i)
    seeds.push_back(ssno::exp::trialSeed(a.seed, i));
  rec.setup.push_back(since(t0));
  rec.samples["exp.graph_build_s"].push_back(tb);
  rec.samples["proto.init_s"].push_back(ti);
  return {std::move(g), std::move(seeds)};
}

template <class P>
void runStabilize(const Args& a, const StabilizeSpec& spec, Record& rec) {
  const StabilizeEnv env = stabilizeSetUp<P>(a, spec, rec);
  for (int r = 1; r < spec.setupReps; ++r)
    (void)stabilizeSetUp<P>(a, spec, rec);
  resetPeakRss();
  const ssno::Graph& g = env.graph;
  const std::vector<std::uint64_t>& seeds = env.seeds;

  // One untimed warm-up trial on a seed of its own: the first trial in a
  // process runs up to 40% slower.
  const TrialOut warm =
      stabilizeTrial<P>(g, spec, ssno::exp::trialSeed(a.seed, 1 << 30),
                        nullptr);
  ++rec.attempted;
  if (!warm.error.empty()) rec.fail(warm.error);

  std::vector<TrialOut> outs;
  runPhase(a.trace ? a.seconds / 2 : a.seconds, spec.fixedTrials,
           [&](std::size_t i) {
             outs.push_back(stabilizeTrial<P>(g, spec, seeds.at(i), nullptr));
             return outs.back().seconds;
           });
  rec.peakRss = peakRssMb();

  double movesFixed = 0, roundsFixed = 0, untracedWall = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const TrialOut& t = outs[i];
    untracedWall += t.seconds + t.checkSeconds;
    ++rec.attempted;
    if (!t.error.empty()) rec.fail(t.error);
    rec.latency.push_back(t.seconds);
    rec.rates.push_back(static_cast<double>(t.moves) / t.seconds);
    if (i < spec.fixedTrials) {
      movesFixed += static_cast<double>(t.moves);
      roundsFixed += static_cast<double>(t.rounds);
    }
  }
  rec.moves = movesFixed / static_cast<double>(spec.fixedTrials);
  rec.rounds = roundsFixed / static_cast<double>(spec.fixedTrials);
  if (!a.trace) return;

  // Traced replay of exactly the same trials.
  const ObsSnap before = ObsSnap::take();
  SpanHarvester harvester;
  std::vector<TrialOut> traced;
  const auto tt = Clock::now();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    harvester.begin();
    traced.push_back(stabilizeTrial<P>(g, spec, seeds[i], &harvester));
    harvester.end();
  }
  const double wall = since(tt);
  const ObsSnap after = ObsSnap::take();

  double init = 0, run = 0, check = 0, pred = 0, predFirst = 0, moves = 0,
         steps = 0;
  double predCalls = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const TrialOut& t = traced[i];
    ++rec.attempted;
    if (!t.error.empty()) rec.fail(t.error);
    if (t.moves != outs[i].moves || t.rounds != outs[i].rounds)
      rec.fail("traced trial " + std::to_string(i) +
               " differs from the untraced one in moves or rounds");
    init += t.initSeconds;
    run += t.runSeconds;
    check += t.checkSeconds;
    pred += t.predSeconds;
    predFirst += t.predFirstSeconds;
    predCalls += static_cast<double>(t.predCalls);
    moves += static_cast<double>(t.moves);
    steps += static_cast<double>(t.steps);
  }
  const double n = static_cast<double>(traced.size());
  const double sim = run - pred - harvester.inRunSeconds();
  const double harvest = harvester.totalSeconds();
  auto& L = rec.layers;
  L["trace.overhead"] = wall / untracedWall - 1.0;
  L["trace.dropped"] = static_cast<double>(harvester.dropped());
  L["trace.harvest_s"] = harvest;
  L["trace.wall_s"] = wall;
  L["proto.trial_init_s"] = init;
  L["check.s"] = check;
  L["pred.s"] = pred;
  L["pred.calls"] = predCalls;
  L["pred.first_s"] = predFirst / n;
  L["pred.share"] = pred / (init + run - harvester.inRunSeconds());
  L["sim.s"] = sim;
  L["sim.moves_per_s"] = moves / sim;
  L["sim.refresh_s"] = harvester.seconds("sim_refresh");
  L["sim.select_s"] = harvester.seconds("sim_select");
  L["sim.step_s"] = harvester.seconds("sim_step");
  // sim_step's self time: execute plus round accounting.
  L["sim.step_self_s"] =
      L["sim.step_s"] - L["sim.refresh_s"] - L["sim.select_s"];
  L["sim.steps"] = after.counter("sim_steps_total") -
                   before.counter("sim_steps_total");
  L["sim.guard_evals"] = after.counter("sim_guard_evals_total") -
                         before.counter("sim_guard_evals_total");
  L["sim.guard_refreshes"] = after.counter("sim_guard_refresh_total") -
                             before.counter("sim_guard_refresh_total");
  L["sim.cache_rebuilds"] = after.counter("sim_cache_rebuilds_total") -
                            before.counter("sim_cache_rebuilds_total");
  L["sim.guard_evals_per_move"] = L["sim.guard_evals"] / moves;
  L["trace.unattributed_s"] = wall - (init + sim + pred + check + harvest);
  if (L["sim.steps"] != steps)
    rec.fail("sim_steps_total delta disagrees with the runs' step count");
}

// ---------------------------------------------------------------------
// verify

constexpr const char* kVerifyTopology = "ring:11";
// Two workers, not four: on a 4-vCPU VM whose host steals cycles, four
// barrier-synchronized workers spread states/s by ~20% between
// identical runs, two by ~3%.
constexpr int kVerifyThreads = 2;
// The 1-fault region of DFTC on ring:11 under weak fairness.
constexpr std::uint64_t kVerifyStates = 548'748;
constexpr std::uint64_t kVerifyTransitions = 1'271'936;
// A set-up takes tens of microseconds.
constexpr int kVerifySetupReps = 301;

struct CheckOut {
  ssno::mc::Result res;
  double seconds = 0;
};

/// The graph and the 1-fault seed configurations a verify run needs.
struct VerifyEnv {
  ssno::Graph graph;
  std::vector<std::vector<std::uint64_t>> seeds;
};

/// One set-up: build the graph and every single-node corruption of the
/// clean configuration, in an order drawn from --seed (the region, and
/// so every count, is the same for any order).  Records its time.
VerifyEnv verifySetUp(const Args& a, Record& rec) {
  const auto t0 = Clock::now();
  ssno::Graph g = ssno::exp::TopologySpec::parse(kVerifyTopology).build();
  rec.samples["exp.graph_build_s"].push_back(since(t0));
  ssno::Dftc clean(g);
  clean.resetClean();
  const std::vector<std::uint64_t> base = clean.encodeConfiguration();
  std::vector<std::vector<std::uint64_t>> seeds;
  for (ssno::NodeId p = 0; p < g.nodeCount(); ++p)
    for (std::uint64_t code = 0; code < clean.localStateCount(p); ++code) {
      seeds.push_back(base);
      seeds.back()[static_cast<std::size_t>(p)] = code;
    }
  ssno::Rng rng(a.seed);
  for (std::size_t i = seeds.size(); i > 1; --i)
    std::swap(seeds[i - 1],
              seeds[static_cast<std::size_t>(rng.below(static_cast<int>(i)))]);
  rec.setup.push_back(since(t0));
  return {std::move(g), std::move(seeds)};
}

void runVerify(const Args& a, Record& rec) {
  const VerifyEnv env = verifySetUp(a, rec);
  for (int r = 1; r < kVerifySetupReps; ++r) (void)verifySetUp(a, rec);
  resetPeakRss();
  const ssno::Graph& g = env.graph;
  const std::vector<std::vector<std::uint64_t>>& seeds = env.seeds;

  ssno::mc::Options opt;
  opt.threads = kVerifyThreads;
  opt.fairness = ssno::Fairness::kWeaklyFair;
  opt.spillDir = a.workdir;
  auto factory = [&g]() -> std::unique_ptr<ssno::Protocol> {
    return std::make_unique<ssno::Dftc>(g);
  };
  std::atomic<std::uint64_t> legitNs{0}, legitCalls{0};
  auto legit = [](ssno::Protocol& p) {
    return static_cast<ssno::Dftc&>(p).isLegitimate();
  };
  auto timedLegit = [&](ssno::Protocol& p) {
    const auto t = Clock::now();
    const bool r = static_cast<ssno::Dftc&>(p).isLegitimate();
    legitNs.fetch_add(static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t)
                              .count()),
                      std::memory_order_relaxed);
    legitCalls.fetch_add(1, std::memory_order_relaxed);
    return r;
  };
  auto check = [&](bool traced) {
    CheckOut out;
    const auto t0 = Clock::now();
    ssno::mc::ParallelChecker checker(
        factory, traced ? ssno::mc::ParallelChecker::Legit(timedLegit)
                        : ssno::mc::ParallelChecker::Legit(legit));
    out.res = checker.checkReachable(seeds, opt);
    out.seconds = since(t0);
    if (!out.res.ok)
      rec.fail("verify failed: " + out.res.failure);
    else if (out.res.statesExplored != kVerifyStates ||
             out.res.transitions != kVerifyTransitions)
      rec.fail("verify explored " + std::to_string(out.res.statesExplored) +
               " states / " + std::to_string(out.res.transitions) +
               " transitions, expected " + std::to_string(kVerifyStates) +
               " / " + std::to_string(kVerifyTransitions));
    return out;
  };

  // The first check in a process runs ~50% slower (fresh pages for the
  // store); it is checked but not timed.
  ++rec.attempted;
  (void)check(false);
  std::vector<CheckOut> outs;
  runPhase(a.trace ? a.seconds / 2 : a.seconds, 3, [&](std::size_t) {
    outs.push_back(check(false));
    return outs.back().seconds;
  });
  rec.peakRss = peakRssMb();
  double untracedWall = 0;
  for (const CheckOut& c : outs) {
    untracedWall += c.seconds;
    ++rec.attempted;
    rec.latency.push_back(c.seconds);
    rec.rates.push_back(static_cast<double>(c.res.statesExplored) / c.seconds);
  }
  // Each check is one exhaustive pass: a move is a transition and a
  // round is a BFS level of the explored region.
  rec.moves = static_cast<double>(outs.front().res.transitions);
  rec.rounds = static_cast<double>(outs.front().res.depthReached + 1);
  if (!a.trace) return;

  const ObsSnap before = ObsSnap::take();
  ssno::obs::startTracing();
  std::vector<CheckOut> traced;
  const auto tt = Clock::now();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    ++rec.attempted;
    traced.push_back(check(true));
  }
  const double wall = since(tt);
  ssno::obs::stopTracing();
  const std::uint64_t dropped = ssno::obs::traceDroppedEvents();
  ssno::obs::clearTrace();
  const ObsSnap after = ObsSnap::take();

  double peakFrontier = 0, spillRuns = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const ssno::mc::Result& r = traced[i].res;
    if (r.statesExplored != outs[i].res.statesExplored ||
        r.transitions != outs[i].res.transitions)
      rec.fail("traced check " + std::to_string(i) +
               " differs from the untraced one in states or transitions");
    peakFrontier = std::max(peakFrontier, static_cast<double>(r.peakFrontier));
    spillRuns += static_cast<double>(r.spillRuns);
  }
  const double n = static_cast<double>(traced.size());
  auto delta = [&](const char* c) {
    return after.counter(c) - before.counter(c);
  };
  auto histSum = [&](const char* h) {
    return after.histSum(h) - before.histSum(h);
  };
  auto histCount = [&](const char* h) {
    return after.histCount(h) - before.histCount(h);
  };
  auto& L = rec.layers;
  const double level = histSum("mc_level_ns") * 1e-9 / n;
  const double conv = histSum("mc_convergence_ns") * 1e-9 / n;
  L["trace.overhead"] = wall / untracedWall - 1.0;
  L["trace.dropped"] = static_cast<double>(dropped);
  L["trace.wall_s"] = wall;
  L["mc.check_s"] = wall / n;
  L["mc.level_s"] = level;
  L["mc.levels"] = delta("mc_levels_total") / n;
  L["mc.legit_s"] = static_cast<double>(legitNs.load()) * 1e-9 / n;
  L["mc.legit_calls"] = static_cast<double>(legitCalls.load()) / n;
  L["mc.legit_worker_share"] = L["mc.legit_s"] / (level * kVerifyThreads);
  L["mc.convergence_s"] = conv;
  L["mc.convergence_share"] = conv / (wall / n);
  L["mc.states"] = static_cast<double>(traced.front().res.statesExplored);
  L["mc.transitions"] = static_cast<double>(traced.front().res.transitions);
  L["mc.peak_frontier"] = peakFrontier;
  L["mc.store_probe_len"] =
      histSum("mc_store_probe_len") /
      std::max(1.0, histCount("mc_store_probe_len"));
  L["mc.spill_runs"] = spillRuns / n;
  L["mc.unattributed_s"] = wall / n - level - conv;
  L["trace.unattributed_s"] = wall - n * (level + conv);
}

// ---------------------------------------------------------------------
// serve-sweep

constexpr const char* kServeTarget = "stno/distributed/grid:8x8";
constexpr int kServeTrials = 4;
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 2;
constexpr int kWarmSet = 16;
// With exactly half the requests hits, the median would sit on the gap
// between the hit mode (~0.2 ms) and the miss mode (compute + two
// fsyncs, several ms) and swing with the mix; at three quarters it is
// a stable quantile of the hit mode.
constexpr int kHitPercent = 75;
// Each set-up starts a server and fills its cache.  Stopping a server
// takes up to the accept loop's 200 ms poll, so each set-up server but
// the last is stopped on a thread of its own while the next one starts.
constexpr int kServeSetupReps = 25;
// moves/rounds are averaged over each client's first requests.
constexpr std::size_t kServeFixedRequests = 200;
// JSON numbers are doubles: seeds stay below 2^53.
constexpr std::uint64_t kSeedMask = (std::uint64_t{1} << 52) - 1;

/// One request of the generated mix.
struct ServeRequest {
  std::uint64_t seed = 0;
  bool warm = false;  // a repeat of the warm set (expected cache hit)
};

/// The request sequence of client `c`: a seeded coin picks a repeat of
/// the warm set or a fresh seed.  Request k is the same in every run
/// with the same --seed.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, int client)
      : seed_(seed), client_(client),
        rng_(ssno::exp::trialSeed(seed, 1'000'000 + client)) {}
  static std::uint64_t warmSeed(std::uint64_t seed, int i) {
    return ssno::exp::trialSeed(seed ^ 0x5741524dULL, i) & kSeedMask;
  }
  ServeRequest next() {
    ServeRequest r;
    r.warm = rng_.below(100) < kHitPercent;
    if (r.warm) {
      r.seed = warmSeed(seed_, rng_.below(kWarmSet));
    } else {
      r.seed = ssno::exp::trialSeed(seed_ ^ 0x46524553ULL,
                                    client_ * 100'000'000 + count_) &
               kSeedMask;
    }
    ++count_;
    return r;
  }

 private:
  std::uint64_t seed_;
  int client_;
  ssno::Rng rng_;
  int count_ = 0;
};

ssno::exp::Scenario serveScenario(std::uint64_t seed) {
  ssno::exp::Scenario s = ssno::exp::parseScenario(kServeTarget);
  s.trials = kServeTrials;
  s.seed = seed;
  return s;
}

/// What a response line must look like.
enum class Expect { kAck, kRow, kComplete };

struct LineInfo {
  std::uint64_t job = 0;
  bool cached = false;
  std::string csv;
};

/// Member `key` of a response object; throws when it is absent.
const JsonValue& field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.find(key);
  if (f == nullptr) throw std::invalid_argument(key);
  return *f;
}

/// Validates one server response line; returns the problem, or "" when
/// the line is well-formed, ok:true and of the expected kind.
std::string checkResponse(const std::string& line, Expect expect,
                          LineInfo* info) {
  JsonValue v;
  try {
    v = JsonValue::parse(line);
  } catch (const std::exception& e) {
    return std::string("malformed response: ") + e.what();
  }
  try {
    if (!field(v, "ok").asBool())
      return "response not ok: " + line.substr(0, 200);
    switch (expect) {
      case Expect::kAck:
        if (field(v, "units").asInt() != 1)
          return "submit ack without units:1";
        info->job = static_cast<std::uint64_t>(field(v, "job").asInt());
        return "";
      case Expect::kRow:
        if (v.find("complete") != nullptr) return "result stream had no row";
        if (field(v, "failed").asBool()) return "served unit failed";
        info->cached = field(v, "cached").asBool();
        info->csv = field(v, "csv").asString();
        return "";
      case Expect::kComplete:
        if (!field(v, "complete").asBool() || field(v, "done").asInt() != 1 ||
            field(v, "failed").asInt() != 0)
          return "result stream did not complete cleanly";
        return "";
    }
  } catch (const std::exception& e) {
    return std::string("response missing or mistyped field: ") + e.what();
  }
  return "unknown expectation";
}

/// Blocking line-oriented client over one AF_UNIX connection.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      throw std::runtime_error("connect(" + path + "): " + strerror(errno));
    }
    timeval timeout{};
    timeout.tv_sec = 30;  // a stalled server fails the run, not hangs it
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t w = ::write(fd_, data.data() + off, data.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("write to server failed");
      off += static_cast<std::size_t>(w);
    }
  }
  std::string readLine() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t r = ::read(fd_, chunk, sizeof chunk);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw std::runtime_error("server closed or timed out");
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct RequestOut {
  ServeRequest req;
  bool cached = false;
  double seconds = 0, ackSeconds = 0, resultSeconds = 0;
  double doneAt = 0;          // completion, seconds into the phase
  ssno::exp::Digest128 csv;   // of the served CSV rows
  std::string error;
};

/// A running server with its own fresh cache directory.
class ServerUnderTest {
 public:
  ServerUnderTest(const std::string& dir, std::uint64_t seed)
      : dir_(dir), socket_(dir + "/s.sock") {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    cache_ = std::make_unique<ssno::serve::ResultCache>(dir_ + "/cache");
    ssno::serve::SchedulerOptions so;
    so.workers = kServeWorkers;
    so.trialThreads = 1;
    so.cache = cache_.get();
    server_ = std::make_unique<ssno::serve::ExpServer>(so);
    std::vector<ssno::exp::Scenario> warm;
    for (int i = 0; i < kWarmSet; ++i)
      warm.push_back(serveScenario(RequestMix::warmSeed(seed, i)));
    server_->scheduler().wait(server_->scheduler().submit(std::move(warm)));
    // Nothing after the accept thread starts may throw: the destructor,
    // which joins it, does not run for a constructor that throws.
    const int fd = server_->listenUnix(socket_);
    accept_ = std::thread([this, fd] { server_->acceptLoop(fd); });
  }
  ~ServerUnderTest() {
    server_->requestShutdown();
    accept_.join();
    server_.reset();
    cache_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ServerUnderTest(const ServerUnderTest&) = delete;
  ServerUnderTest& operator=(const ServerUnderTest&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  ssno::serve::ExpServer& server() { return *server_; }

 private:
  std::string dir_;
  std::string socket_;
  std::unique_ptr<ssno::serve::ResultCache> cache_;
  std::unique_ptr<ssno::serve::ExpServer> server_;
  std::thread accept_;
};

RequestOut serveOne(Client& c, const ServeRequest& req) {
  RequestOut out;
  out.req = req;
  const auto t0 = Clock::now();
  try {
    JsonValue::Object submit = {{"verb", "submit"},
                                {"target", kServeTarget},
                                {"trials", kServeTrials},
                                {"seed", req.seed}};
    c.send(JsonValue(submit).dump());
    LineInfo ack;
    out.error = checkResponse(c.readLine(), Expect::kAck, &ack);
    out.ackSeconds = since(t0);
    if (!out.error.empty()) return out;
    const auto t1 = Clock::now();
    c.send(JsonValue(JsonValue::Object{{"verb", "result"}, {"job", ack.job}})
               .dump());
    LineInfo row;
    out.error = checkResponse(c.readLine(), Expect::kRow, &row);
    if (out.error.empty())
      out.error = checkResponse(c.readLine(), Expect::kComplete, nullptr);
    out.resultSeconds = since(t1);
    out.cached = row.cached;
    out.csv = ssno::exp::fnv1a128(row.csv);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.seconds = since(t0);
  return out;
}

/// Drives every client in closed loop, each on its own connection and
/// thread.  Untimed (`counts` empty): until `seconds` elapse.  Replay:
/// exactly counts[c] requests for client c.
std::vector<std::vector<RequestOut>> driveClients(
    const std::string& socket, std::uint64_t seed, double seconds,
    const std::vector<std::size_t>& counts, double* prefixRss = nullptr) {
  std::vector<std::vector<RequestOut>> outs(kServeClients);
  std::vector<std::thread> threads;
  std::atomic<int> prefixDone{0};
  const auto t0 = Clock::now();
  for (int c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<RequestOut>& mine = outs[static_cast<std::size_t>(c)];
      try {
        Client client(socket);
        RequestMix mix(seed, c);
        for (std::size_t k = 0;; ++k) {
          if (counts.empty() ? k >= kServeFixedRequests && since(t0) >= seconds
                             : k >= counts[static_cast<std::size_t>(c)])
            break;
          mine.push_back(serveOne(client, mix.next()));
          mine.back().doneAt = since(t0);
          // Peak RSS is read once every client has served its fixed
          // prefix: the scheduler keeps every job's record, so a later
          // reading would grow with throughput.
          if (prefixRss != nullptr && k + 1 == kServeFixedRequests &&
              prefixDone.fetch_add(1) + 1 == kServeClients)
            *prefixRss = peakRssMb();
          if (!mine.back().error.empty()) break;  // the connection is suspect
        }
      } catch (const std::exception& e) {
        RequestOut failed;
        failed.error = e.what();
        mine.push_back(failed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return outs;
}

void runServe(const Args& a, Record& rec) {
  const std::string base = a.workdir + "/serve";
  std::unique_ptr<ServerUnderTest> sut;
  {
    std::vector<std::thread> stoppers;
    for (int r = 0; r < kServeSetupReps; ++r) {
      if (sut != nullptr) {
        sut->server().requestShutdown();
        stoppers.emplace_back([old = std::move(sut)]() mutable { old.reset(); });
      }
      const auto t0 = Clock::now();
      sut = std::make_unique<ServerUnderTest>(base + std::to_string(r),
                                              a.seed);
      rec.setup.push_back(since(t0));
    }
    for (std::thread& t : stoppers) t.join();
  }
  resetPeakRss();

  const auto tw = Clock::now();
  std::vector<std::vector<RequestOut>> outs =
      driveClients(sut->socket(), a.seed, a.trace ? a.seconds / 2 : a.seconds,
                   {}, &rec.peakRss);
  const double untracedWall = since(tw);
  sut.reset();

  std::vector<std::size_t> counts;
  std::size_t hits = 0, misses = 0;
  for (const auto& client : outs) {
    counts.push_back(client.size());
    for (const RequestOut& r : client) {
      ++rec.attempted;
      if (!r.error.empty()) {
        rec.fail(r.error);
        continue;
      }
      if (r.cached != r.req.warm)
        rec.fail(std::string("request for a ") +
                 (r.req.warm ? "warm" : "fresh") + " scenario was served " +
                 (r.cached ? "from" : "without") + " the cache");
      rec.latency.push_back(r.seconds);
      (r.cached ? hits : misses)++;
    }
  }
  // One rate sample per kRateChunk consecutive completions (both
  // clients merged): chunk size over the time the chunk took.
  constexpr std::size_t kRateChunk = 200;
  std::vector<double> done;
  for (const auto& client : outs)
    for (const RequestOut& r : client) done.push_back(r.doneAt);
  std::sort(done.begin(), done.end());
  for (std::size_t i = kRateChunk; i < done.size(); i += kRateChunk)
    rec.rates.push_back(static_cast<double>(kRateChunk) /
                        (done[i] - done[i - kRateChunk]));

  std::vector<std::vector<RequestOut>> traced;
  if (a.trace) {
    ServerUnderTest fresh(base + "-traced", a.seed);
    std::atomic<bool> sampling{true};
    int maxQueue = 0;
    std::thread sampler([&] {
      while (sampling.load()) {
        maxQueue = std::max(maxQueue,
                            fresh.server().scheduler().stats().queueDepth);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    const ObsSnap before = ObsSnap::take();
    const auto computedBefore = fresh.server().scheduler().stats().computed;
    // The tracer's spans here are the engine's, inside computed misses;
    // no serve metric reads them, and the scheduler's threads keep spans
    // open, so the buffers are not drained mid-run.  Spans past a
    // thread's buffer cap count in trace.dropped.  Every request has
    // completed when driveClients returns, so no span is in flight when
    // the trace is cleared.
    ssno::obs::startTracing();
    const auto tt = Clock::now();
    traced = driveClients(fresh.socket(), a.seed, 0, counts);
    const double wall = since(tt);
    ssno::obs::stopTracing();
    const std::uint64_t dropped = ssno::obs::traceDroppedEvents();
    ssno::obs::clearTrace();
    const ObsSnap after = ObsSnap::take();
    const auto computed =
        fresh.server().scheduler().stats().computed - computedBefore;
    sampling.store(false);
    sampler.join();

    std::vector<double> hitLat, missLat, ack;
    double ackSum = 0, resultSum = 0;
    std::size_t tHits = 0, tMisses = 0;
    for (std::size_t c = 0; c < traced.size(); ++c) {
      if (traced[c].size() != counts[c])
        rec.fail("traced replay was cut short");
      for (const RequestOut& r : traced[c]) {
        ++rec.attempted;
        if (!r.error.empty()) {
          rec.fail(r.error);
          continue;
        }
        (r.cached ? hitLat : missLat).push_back(r.seconds);
        (r.cached ? tHits : tMisses)++;
        ack.push_back(r.ackSeconds);
        ackSum += r.ackSeconds;
        resultSum += r.resultSeconds;
      }
    }
    if (tHits != hits || tMisses != misses)
      rec.fail("traced hit/miss counts differ from the untraced run");
    auto delta = [&](const char* n) {
      return after.counter(n) - before.counter(n);
    };
    auto histMean = [&](const char* h) {
      const double cnt = after.histCount(h) - before.histCount(h);
      return cnt > 0 ? (after.histSum(h) - before.histSum(h)) * 1e-9 / cnt
                     : 0.0;
    };
    auto& L = rec.layers;
    const double nc = kServeClients;
    L["trace.overhead"] = wall / untracedWall - 1.0;
    L["trace.dropped"] = static_cast<double>(dropped);
    L["trace.wall_s"] = wall;
    rec.samples["serve.hit_latency_s.p50"] = hitLat;
    rec.samples["serve.miss_latency_s.p50"] = missLat;
    rec.samples["serve.submit_ack_s.p50"] = ack;
    L["serve.verb_submit_s"] = histMean("serve_verb_submit_ns");
    L["serve.verb_result_s"] = histMean("serve_verb_result_ns");
    L["serve.cache_hits"] = delta("serve_cache_hits_total");
    L["serve.cache_misses"] = delta("serve_cache_misses_total");
    L["serve.cache_stores"] = delta("serve_cache_stores_total");
    L["serve.hit_ratio"] =
        L["serve.cache_hits"] /
        std::max(1.0, L["serve.cache_hits"] + L["serve.cache_misses"]);
    L["serve.computed"] = static_cast<double>(computed);
    L["serve.queue_depth.max"] = maxQueue;
    L["io.fsync"] = delta("io_fsync_total");
    L["io.write"] = delta("io_write_total");
    L["io.rename"] = delta("io_rename_total");
    // Per client, a request is its submit round trip plus its result
    // stream; the client's own work is the remainder.
    L["serve.client_submit_s"] = ackSum / nc;
    L["serve.client_result_s"] = resultSum / nc;
    L["trace.unattributed_s"] = wall - (ackSum + resultSum) / nc;
  }

  // Reference: every served CSV must be byte-identical to a direct
  // ExperimentRunner run of the same scenario.  This runs after all
  // measurement, so its engine counters pollute nothing measured.
  std::map<std::uint64_t, ssno::exp::Digest128> served;
  for (const auto* set : {&outs, &traced})
    for (const auto& client : *set)
      for (const RequestOut& r : client) {
        if (!r.error.empty()) continue;
        const auto [it, inserted] = served.emplace(r.req.seed, r.csv);
        if (!inserted && it->second != r.csv)
          rec.fail("two responses for one scenario differ");
      }
  std::vector<ssno::exp::Scenario> scenarios;
  for (const auto& [seed, csv] : served)
    scenarios.push_back(serveScenario(seed));
  const std::vector<ssno::exp::ScenarioResult> ref =
      ssno::exp::ExperimentRunner(/*threads=*/4).runAll(scenarios);
  std::map<std::uint64_t, const ssno::exp::ScenarioResult*> bySeed;
  for (const auto& r : ref) {
    bySeed[r.scenario.seed] = &r;
    if (ssno::exp::fnv1a128(ssno::exp::csvRows(r)) != served[r.scenario.seed])
      rec.fail("served CSV for seed " + std::to_string(r.scenario.seed) +
               " differs from a direct ExperimentRunner run");
  }
  double moves = 0, rounds = 0, n = 0;
  for (const auto& client : outs)
    for (std::size_t k = 0; k < std::min(kServeFixedRequests, client.size());
         ++k) {
      const auto it = bySeed.find(client[k].req.seed);
      if (it == bySeed.end()) continue;
      const ssno::exp::ScenarioResult& r = *it->second;
      moves += r.metric("tree_moves").mean + r.metric("overlay_moves").mean;
      rounds += r.metric("overlay_rounds").mean;
      ++n;
    }
  rec.moves = moves / std::max(1.0, n);
  rec.rounds = rounds / std::max(1.0, n);
}

// ---------------------------------------------------------------------
// selftest: this program's own failure accounting.

int selftest() {
  int bad = 0;
  auto expect = [&bad](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++bad;
    }
  };

  // An injected failing trial: a 5-move budget cannot stabilize ring:64.
  {
    const ssno::Graph g = ssno::exp::TopologySpec::parse("ring:64").build();
    const StabilizeSpec tiny{"ring:64", ssno::DaemonKind::kCentral, 5, 1, 1};
    Record rec;
    const TrialOut t = stabilizeTrial<ssno::Dftno>(g, tiny, 7, nullptr);
    ++rec.attempted;
    if (!t.error.empty()) rec.fail(t.error);
    expect(rec.attempted == 1 && rec.failed == 1,
           "an over-budget trial is counted as failed");
    const StabilizeSpec ample{"ring:64", ssno::DaemonKind::kCentral,
                              1'000'000, 1, 1};
    expect(stabilizeTrial<ssno::Dftno>(g, ample, 7, nullptr).error.empty(),
           "a trial within budget passes");
  }

  // Malformed and not-ok server lines are errors; good lines are not.
  {
    LineInfo info;
    expect(!checkResponse("{\"ok\":tru", Expect::kAck, &info).empty(),
           "truncated JSON is an error");
    expect(!checkResponse("{\"ok\":false,\"error\":\"x\"}", Expect::kAck,
                          &info)
                .empty(),
           "ok:false is an error");
    expect(!checkResponse("{\"ok\":true,\"job\":1}", Expect::kAck, &info)
                .empty(),
           "an ack without units is an error");
    expect(!checkResponse("{\"ok\":true,\"job\":1,\"unit\":0,\"cached\":"
                          "true,\"failed\":false}",
                          Expect::kRow, &info)
                .empty(),
           "a row without csv is an error");
    expect(!checkResponse("{\"ok\":true,\"job\":1,\"complete\":true}",
                          Expect::kComplete, &info)
                .empty(),
           "a completion without counts is an error");
    expect(!checkResponse("{\"ok\":\"yes\",\"job\":1,\"units\":1}",
                          Expect::kAck, &info)
                .empty(),
           "a non-boolean ok is an error");
    expect(!checkResponse("{\"ok\":true,\"job\":1,\"unit\":0,\"cached\":true,"
                          "\"failed\":true,\"error\":\"x\"}",
                          Expect::kRow, &info)
                .empty(),
           "a failed unit is an error");
    expect(checkResponse("{\"ok\":true,\"job\":3,\"units\":1}", Expect::kAck,
                         &info)
                   .empty() &&
               info.job == 3,
           "a good ack passes");
    expect(checkResponse("{\"ok\":true,\"job\":3,\"unit\":0,\"scenario\":"
                         "\"x\",\"cached\":true,\"failed\":false,\"csv\":"
                         "\"a,b\\n\"}",
                         Expect::kRow, &info)
                   .empty() &&
               info.cached && info.csv == "a,b\n",
           "a good row passes");
  }

  // A malformed line from a live server counts toward `failed`.
  {
    Record rec;
    for (const char* line : {"{\"ok\":true,\"job\":1,\"units\":1}", "}{"}) {
      ++rec.attempted;
      LineInfo info;
      const std::string err = checkResponse(line, Expect::kAck, &info);
      if (!err.empty()) rec.fail(err);
    }
    expect(rec.attempted == 2 && rec.failed == 1 && rec.errors.size() == 1,
           "one malformed line in two is one failure");
  }
  std::cout << (bad == 0 ? "selftest ok" : "selftest FAILED") << "\n";
  return bad == 0 ? 0 : 1;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing workload");
  a.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--workdir")
      a.workdir = v;
    else
      throw std::invalid_argument("unknown option " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "selftest") return selftest();
    const Args a = parseArgs(argc, argv);
    Record rec;
    if (a.workload == "stabilize-token") {
      runStabilize<ssno::Dftno>(
          a, {"ring:256", ssno::DaemonKind::kCentral, 2'000'000, 30, 301}, rec);
    } else if (a.workload == "stabilize-tree") {
      runStabilize<ssno::Stno>(
          a, {"grid:64x64", ssno::DaemonKind::kDistributed, 40'000'000, 8, 41},
          rec);
    } else if (a.workload == "verify") {
      runVerify(a, rec);
    } else if (a.workload == "serve-sweep") {
      runServe(a, rec);
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    std::cout << rec.json() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ssno_perf: " << e.what() << "\n";
    return 2;
  }
}
