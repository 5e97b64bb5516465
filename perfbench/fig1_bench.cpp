// Fig.-1 cycle benchmark program.
//
// Runs the paper's loop -- solve -> refine -> coarsen -> weights ->
// balance -> (migrate) -- phase by phase through PlumFramework's public
// calls, driven by adapt::SoakScenario markers, with every rank a fiber
// on a fixed-size worker pool.  Nothing inside the library is
// instrumented: each layer is measured from here, around the call into
// it, on both clocks (host steady_clock and the simulated SP2 clock).
//
//   fig1_bench --workload front-p8|front-p64|burst-p16 --seed N
//              --cycles C [--workers W] [--fence 0|1] [--spans PATH]
//              [--reference 0|1]
//
// --fence 0 (the measured run) issues no collective beyond the
// framework's own inside the timed loop: each rank logs its clock,
// CommStats and SimClock readings locally and the host folds the
// per-rank logs after Machine::run returns.  --fence 1 (the traced run)
// puts a barrier on both sides of every call so rank 0's host span
// covers that call on all ranks, records one span per cycle with a
// child per call, and writes the spans to --spans.
//
// After the loop, outside all timing, the final mesh is checked:
// check_dist_consistency at kFull (volume, root count, dual weights,
// placement) plus a digest of the final active-element gids and of the
// global active-element count after every timed cycle, compared against
// an adapt-only replay of the same markers on a 4-rank machine with a
// fixed placement (child gids hash their parents, so neither depends on
// the partition).  The count history matters for burst, whose quiet
// cycles coarsen most of a burst away before the run ends.
//
// Output: "# key value" header lines, then one JSON object on the last
// line.  Exit status 0 iff every cycle ran and the checks passed.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "adapt/scenario.hpp"
#include "dualgraph/dual_graph.hpp"
#include "mesh/box_mesh.hpp"
#include "parallel/dist_check.hpp"
#include "parallel/dist_gen.hpp"
#include "parallel/framework.hpp"
#include "partition/partitioner.hpp"
#include "simmpi/machine.hpp"
#include "support/footprint.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

using namespace plum;

namespace {

using HostClock = std::chrono::steady_clock;

constexpr int kBoxN = 16;  // cells per side: 6 * 16^3 = 24 576 root tets
constexpr std::int64_t kRoots = 6LL * kBoxN * kBoxN * kBoxN;
constexpr int kSolverIterations = 2;
constexpr int kPeriod = 32;  // ScenarioConfig::period
/// Untimed cycles before the loop, so first-touch allocation and the
/// first repartition from the start placement stay out of the figures.
constexpr int kWarmup = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Cycles after which the front's Lissajous path repeats: the x, y and
/// z triangle waves have periods 2p, 4p and 6p.
constexpr int kFrontOrbit = 12 * kPeriod;

struct Workload {
  std::string_view name;
  Rank procs;
  bool dist_gen;  ///< slab start instead of make_box_mesh + rcb
  adapt::ScenarioKind kind;
};

constexpr Workload kWorkloads[] = {
    {"front-p8", 8, false, adapt::ScenarioKind::kFront},
    {"front-p64", 64, true, adapt::ScenarioKind::kFront},
    {"burst-p16", 16, false, adapt::ScenarioKind::kBurst},
};

struct Options {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  int cycles = 0;
  int workers = 4;
  bool fence = false;
  bool reference = true;
  std::string spans;
};

/// The six framework calls of one cycle, in program order.
enum Call { kSolve, kRefine, kCoarsen, kWeights, kBalance, kMigrate, kCalls };
constexpr const char* kCallName[kCalls] = {"solve",   "refine",  "coarsen",
                                           "weights", "balance", "migrate"};

/// One rank's view of one framework call (fenced runs only).
struct CallRec {
  bool ran = false;
  double host_t0_us = 0.0;  ///< after the leading barrier
  double host_t1_us = 0.0;  ///< after the trailing barrier
  double sim_us = 0.0;      ///< this rank's clock delta inside the call
  double idle_us = 0.0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
};

/// One rank's log of one timed cycle.  Balance fields are replicated
/// (every rank computes the identical outcome).
struct CycleRec {
  double end_host_us = 0.0;
  double sim_span_us = 0.0;
  std::int64_t active = 0;
  bool repartitioned = false;
  bool accepted = false;
  double imb_before = 0.0;
  double imb_after = 0.0;
  std::int64_t vertices_changed = 0;
  double pred_migrate_us = 0.0;
  int refine_rounds = 0;
  int coarsen_rounds = 0;
  std::int64_t marks_sent = 0;
  std::int64_t elements_sent = 0;
  double mig_us = 0.0;
  std::array<double, 5> mig_phase_us{};  // pack ship purge unpack spl
  std::array<CallRec, kCalls> call{};
};

/// Order-independent digest of active-element gids (sum and xor of two
/// independent mixes, plus the count), and a hash chain over the global
/// active-element count of each timed cycle.
struct Digest {
  std::uint64_t sum = 0, xr = 0;
  std::int64_t count = 0;
  std::uint64_t history = 0;
  void add_history(std::int64_t global_active) {
    history =
        hash_combine64(history, static_cast<std::uint64_t>(global_active));
  }
  void add(GlobalId gid) {
    sum += hash_combine64(gid, 0xD16E57ULL);
    xr ^= hash_combine64(gid, 0x5EED0F5ULL);
    ++count;
  }
  void merge(const Digest& o) {
    sum += o.sum;
    xr ^= o.xr;
    count += o.count;
  }
  std::string hex() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%016" PRIx64 "%016" PRIx64 "-%" PRId64 "-%016" PRIx64, sum,
                  xr, count, history);
    return buf;
  }
};

/// Everything one rank hands back to the host.
struct RankLog {
  std::vector<CycleRec> cycles;
  int completed = 0;  ///< timed cycles finished
  double host_start_us = 0.0, host_end_us = 0.0;
  double sim_start_us = 0.0, sim_end_us = 0.0;
  double idle_start_us = 0.0, idle_end_us = 0.0;
  std::int64_t msgs0 = 0, msgs1 = 0, coll0 = 0, coll1 = 0;
  std::int64_t bytes0 = 0, bytes1 = 0;
  bool check_ok = false;
  std::string check_summary;
  Digest digest;  ///< final local active elements (no history)
};

Digest mesh_digest(const mesh::Mesh& m) {
  Digest d;
  for (const mesh::Element& e : m.elements()) {
    if (e.alive && e.active) d.add(e.gid);
  }
  return d;
}

const HostClock::time_point g_epoch = HostClock::now();
double host_us() {
  return std::chrono::duration<double, std::micro>(HostClock::now() - g_epoch)
      .count();
}

/// Rank 0's completed-cycle count, read by the abort hook so a run that
/// dies mid-loop still reports how far it got.
std::atomic<int> g_completed{0};
std::atomic<bool> g_in_loop{false};
void report_abort() {
  std::fprintf(stderr, "fig1_bench: aborted after %d timed cycle(s)\n",
               g_in_loop.load() ? g_completed.load() : 0);
  std::printf("# completed %d\n", g_in_loop.load() ? g_completed.load() : 0);
  std::fflush(stdout);
}

mesh::BoxMeshSpec box_spec() {
  mesh::BoxMeshSpec spec;
  spec.nx = spec.ny = spec.nz = kBoxN;
  return spec;
}

adapt::SoakScenario make_scenario(const Options& o) {
  adapt::ScenarioConfig scfg;
  scfg.kind = o.wl->kind;
  scfg.period = kPeriod;
  if (o.wl->kind == adapt::ScenarioKind::kBurst) scfg.seed = o.seed;
  const mesh::BoxMeshSpec spec = box_spec();
  return adapt::SoakScenario(scfg,
                             mesh::Box{spec.origin, spec.origin + spec.size});
}

/// Front workloads start their sweep at a seed-chosen cycle of the
/// orbit; burst workloads start at cycle 0 (their seed seeds the marks).
int cycle_offset(const Options& o) {
  if (o.wl->kind != adapt::ScenarioKind::kFront) return 0;
  return static_cast<int>(hash_combine64(o.seed, 0xF207) % kFrontOrbit);
}

parallel::FrameworkConfig framework_config() {
  parallel::FrameworkConfig cfg;
  cfg.solver_iterations = kSolverIterations;
  cfg.balancer.partitioner = "auto";
  cfg.balancer.sfc_incremental = true;
  cfg.balancer.remapper = "heuristic";
  cfg.check_level = parallel::CheckLevel::kOff;
  cfg.migrate.pipeline = true;
  return cfg;
}

/// Replicated startup inputs: the classic start builds the global mesh,
/// its dual and an rcb placement; the slab start builds the dual
/// analytically and places cubes in slabs (ranks generate their own
/// slab inside the machine).
struct Inputs {
  mesh::Mesh global;  // empty for dist-gen
  dual::DualGraph dualg;
  std::vector<Rank> proc;
};

struct SetupTimes {
  double mesh_s = 0.0, dual_s = 0.0, framework_s = 0.0, total_s = 0.0;
};

Inputs make_inputs(const Workload& wl, SetupTimes* t) {
  const mesh::BoxMeshSpec spec = box_spec();
  Inputs in;
  const double t0 = host_us();
  if (wl.dist_gen) {
    const double ta = host_us();
    in.dualg = parallel::make_box_dual_graph(spec);
    in.proc = parallel::make_slab_partition(spec, wl.procs);
    t->dual_s = (host_us() - ta) * 1e-6;
  } else {
    in.global = mesh::make_box_mesh(spec);
    const double ta = host_us();
    t->mesh_s = (ta - t0) * 1e-6;
    in.dualg = dual::build_dual_graph(in.global);
    const auto part =
        partition::make_partitioner("rcb")->partition(in.dualg, wl.procs);
    in.proc.assign(part.part.begin(), part.part.end());
    t->dual_s = (host_us() - ta) * 1e-6;
  }
  return in;
}

/// Per-rank framework construction.  For dist-gen the slab generation
/// is fenced and charged to setup.mesh_s; `*mesh_us` receives rank 0's
/// host span of it.
parallel::PlumFramework make_framework(simmpi::Comm& comm, const Workload& wl,
                                       const Inputs& in, double* mesh_us) {
  if (!wl.dist_gen) {
    return parallel::PlumFramework(&comm, in.global, in.dualg, in.proc,
                                   framework_config());
  }
  comm.barrier();
  const double t0 = host_us();
  parallel::DistMesh dm =
      parallel::make_box_dist_mesh(box_spec(), comm.rank(), wl.procs);
  comm.barrier();
  if (comm.rank() == 0) *mesh_us = host_us() - t0;
  return parallel::PlumFramework(&comm, std::move(dm), in.dualg, in.proc,
                                 framework_config());
}

simmpi::Machine make_machine(const Options& o) {
  simmpi::Machine machine;
  machine.set_mode(simmpi::MachineMode::kPool);
  machine.set_pool({.workers = o.workers});
  return machine;
}

/// Runs one framework call; in a fenced run, brackets it with barriers
/// and records both clocks and the traffic it caused on this rank.
template <typename Fn>
void run_call(simmpi::Comm& comm, bool fence, CallRec* rec, Fn&& fn) {
  if (!fence) {
    fn();
    return;
  }
  comm.barrier();
  rec->ran = true;
  rec->host_t0_us = host_us();
  const double s0 = comm.clock().now();
  const double i0 = comm.clock().idle_us();
  const std::int64_t m0 = comm.stats().msgs_sent;
  const std::int64_t b0 = comm.stats().bytes_sent;
  fn();
  rec->sim_us = comm.clock().now() - s0;
  rec->idle_us = comm.clock().idle_us() - i0;
  rec->msgs = comm.stats().msgs_sent - m0;
  rec->bytes = comm.stats().bytes_sent - b0;
  comm.barrier();
  rec->host_t1_us = host_us();
}

/// One Fig.-1 cycle through the framework's public calls.
void run_cycle(parallel::PlumFramework& fw, const adapt::SoakScenario& scn,
               int scenario_cycle, bool fence, CycleRec* rec) {
  simmpi::Comm& comm = fw.comm();
  const double s0 = comm.clock().now();
  run_call(comm, fence, &rec->call[kSolve],
           [&] { fw.solve(kSolverIterations); });
  run_call(comm, fence, &rec->call[kRefine], [&] {
    const auto st = fw.refine_with(scn.refine_marker(scenario_cycle));
    rec->refine_rounds = st.propagation_rounds;
    rec->marks_sent = st.marks_sent;
  });
  run_call(comm, fence, &rec->call[kCoarsen], [&] {
    const auto st = fw.coarsen_with(scn.coarsen_marker(scenario_cycle));
    rec->coarsen_rounds = st.agreement_rounds;
  });
  run_call(comm, fence, &rec->call[kWeights], [&] { fw.refresh_weights(); });
  balance::BalanceOutcome out;
  run_call(comm, fence, &rec->call[kBalance], [&] { out = fw.balance_only(); });
  if (out.accepted) {
    run_call(comm, fence, &rec->call[kMigrate], [&] {
      const parallel::MigrationResult mig = fw.migrate_to(out.proc_of_vertex);
      rec->elements_sent = mig.elements_sent;
      rec->mig_us = mig.elapsed_us;
      rec->mig_phase_us = {mig.pack_us, mig.ship_us, mig.delete_purge_us,
                           mig.unpack_us, mig.spl_us};
    });
  }
  rec->sim_span_us = comm.clock().now() - s0;
  rec->end_host_us = host_us();
  rec->active = fw.dist().local.num_active_elements();
  rec->repartitioned = out.repartitioned;
  rec->accepted = out.accepted;
  rec->imb_before = out.old_load.imbalance;
  rec->imb_after =
      out.accepted ? out.new_load.imbalance : out.old_load.imbalance;
  rec->vertices_changed =
      std::max<std::int64_t>(0, out.partition.vertices_changed);
  rec->pred_migrate_us = out.decision.cost.cost_us;
}

/// The measured part of a rank's run: warm up, run the timed loop, then
/// check the final mesh.
void run_and_check(parallel::PlumFramework& fw, const Options& o,
                   const adapt::SoakScenario& scn, RankLog* log) {
  simmpi::Comm& comm = fw.comm();
  const int offset = cycle_offset(o);
  CycleRec scratch;
  for (int i = 0; i < kWarmup; ++i) {
    run_cycle(fw, scn, offset + i, o.fence, &scratch);
  }
  log->cycles.resize(static_cast<std::size_t>(o.cycles));
  comm.barrier();  // outside the timed loop: a common start line

  if (comm.rank() == 0) g_in_loop = true;
  log->host_start_us = host_us();
  log->sim_start_us = comm.clock().now();
  log->idle_start_us = comm.clock().idle_us();
  log->msgs0 = comm.stats().msgs_sent;
  log->coll0 = comm.stats().coll_msgs_sent;
  log->bytes0 = comm.stats().bytes_sent;
  for (int i = 0; i < o.cycles; ++i) {
    run_cycle(fw, scn, offset + kWarmup + i, o.fence,
              &log->cycles[static_cast<std::size_t>(i)]);
    log->completed = i + 1;
    if (comm.rank() == 0) g_completed.store(i + 1, std::memory_order_relaxed);
  }
  log->host_end_us = host_us();
  log->sim_end_us = comm.clock().now();
  log->idle_end_us = comm.clock().idle_us();
  log->msgs1 = comm.stats().msgs_sent;
  log->coll1 = comm.stats().coll_msgs_sent;
  log->bytes1 = comm.stats().bytes_sent;

  // End-of-run check.  The last call of every cycle left the dual
  // weights fresh (refresh_weights, then a weight-preserving migrate).
  parallel::DistCheckOptions opt;
  opt.level = parallel::CheckLevel::kFull;
  opt.expected_volume = 1.0;  // the unit box
  opt.expected_roots = kRoots;
  opt.dual = &fw.dual_graph();
  opt.proc_of_root = &fw.proc_of_root();
  const parallel::DistCheckResult res =
      parallel::check_dist_consistency(fw.dist(), comm, opt);
  log->check_ok = res.ok();
  if (!res.errors.empty()) log->check_summary = res.errors.front();
  log->digest = mesh_digest(fw.dist().local);
}

/// The reference digest: the same marker sequence adapted on a
/// different machine shape -- 4 ranks, a fixed rcb placement of the
/// classic start, no balancing and no migration.  Active-element gids
/// do not depend on the partition, so any balance, migration or
/// start-up path that corrupts the mesh shows up as a mismatch.  (A
/// serial replay would do too, but costs about 6x the loop on burst.)
Digest reference_digest(const Options& o, const adapt::SoakScenario& scn) {
  constexpr Rank kRefProcs = 4;
  const mesh::Mesh global = mesh::make_box_mesh(box_spec());
  const dual::DualGraph dualg = dual::build_dual_graph(global);
  const auto part =
      partition::make_partitioner("rcb")->partition(dualg, kRefProcs);
  const std::vector<Rank> proc(part.part.begin(), part.part.end());
  const int offset = cycle_offset(o);
  const auto n = static_cast<std::size_t>(kWarmup + o.cycles);
  std::vector<Digest> parts(kRefProcs);
  std::vector<std::vector<std::int64_t>> active(
      kRefProcs, std::vector<std::int64_t>(n));
  simmpi::Machine machine = make_machine(o);
  machine.run(kRefProcs, [&](simmpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    parallel::PlumFramework fw(&comm, global, dualg, proc, framework_config());
    for (std::size_t i = 0; i < n; ++i) {
      const int c = offset + static_cast<int>(i);
      fw.refine_with(scn.refine_marker(c));
      fw.coarsen_with(scn.coarsen_marker(c));
      active[r][i] = fw.dist().local.num_active_elements();
    }
    parts[r] = mesh_digest(fw.dist().local);
  });
  Digest d;
  for (const Digest& p : parts) d.merge(p);
  for (std::size_t i = kWarmup; i < n; ++i) {
    std::int64_t total = 0;
    for (const auto& a : active) total += a[i];
    d.add_history(total);
  }
  return d;
}

/// One set-up, timed: inputs, machine start and every rank's framework,
/// up to a barrier.  `then` (if set) runs on each rank afterwards with
/// its framework; Machine::run's exceptions propagate.
SetupTimes set_up_and_run(
    const Options& o,
    const std::function<void(parallel::PlumFramework&)>& then) {
  SetupTimes t;
  const double t0 = host_us();
  const Inputs in = make_inputs(*o.wl, &t);
  const double t1 = host_us();
  double mesh_us = 0.0, done_us = 0.0;
  simmpi::Machine machine = make_machine(o);
  machine.run(o.wl->procs, [&](simmpi::Comm& comm) {
    parallel::PlumFramework fw = make_framework(comm, *o.wl, in, &mesh_us);
    comm.barrier();
    if (comm.rank() == 0) done_us = host_us();
    if (then) then(fw);
  });
  t.mesh_s += mesh_us * 1e-6;
  t.framework_s = (done_us - t1 - mesh_us) * 1e-6;
  t.total_s = (done_us - t0) * 1e-6;
  return t;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Writes rank 0's spans: one per cycle, a child per framework call.
bool write_spans(const std::string& path, const RankLog& r0, double base_us) {
  JsonWriter w;
  w.begin_array();
  int id = 0;
  for (std::size_t c = 0; c < r0.cycles.size(); ++c) {
    const CycleRec& rec = r0.cycles[c];
    const int cycle_id = id++;
    double t0 = rec.call[kSolve].host_t0_us, t1 = t0;
    for (const CallRec& cr : rec.call) {
      if (cr.ran) t1 = std::max(t1, cr.host_t1_us);
    }
    auto span = [&](const char* name, int sid, int parent, double a,
                    double b) {
      w.begin_object();
      w.key("id");
      w.value(sid);
      w.key("name");
      w.value(name);
      w.key("parent");
      w.value(parent);
      w.key("cycle");
      w.value(static_cast<int>(c));
      w.key("start_us");
      w.value(a - base_us);
      w.key("end_us");
      w.value(b - base_us);
      w.end_object();
    };
    span("cycle", cycle_id, -1, t0, t1);
    for (int k = 0; k < kCalls; ++k) {
      if (rec.call[k].ran) {
        span(kCallName[k], id++, cycle_id, rec.call[k].host_t0_us,
             rec.call[k].host_t1_us);
      }
    }
  }
  w.end_array();
  std::ofstream f(path);
  f << w.str() << "\n";
  return static_cast<bool>(f);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "fig1_bench: %s\nusage: fig1_bench --workload "
               "front-p8|front-p64|burst-p16 --seed N --cycles C "
               "[--workers W] [--fence 0|1] "
               "[--spans PATH] [--reference 0|1]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& wl : kWorkloads) {
        if (wl.name == val) o.wl = &wl;
      }
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--cycles") {
      o.cycles = std::atoi(val);
    } else if (key == "--workers") {
      o.workers = std::atoi(val);
    } else if (key == "--fence") {
      o.fence = std::atoi(val) != 0;
    } else if (key == "--spans") {
      o.spans = val;
    } else if (key == "--reference") {
      o.reference = std::atoi(val) != 0;
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  if (o.wl == nullptr) return usage("unknown or missing --workload");
  if (o.cycles < 1 || o.workers < 1) {
    return usage("--cycles and --workers must be >= 1");
  }
  set_check_failure_hook(report_abort);

  const Workload& wl = *o.wl;
  std::printf("# engine pool\n# workers %d\n# nproc %u\n# build_type %s\n",
              o.workers, std::thread::hardware_concurrency(),
              PLUM_BENCH_BUILD_TYPE);
  std::printf("# n %d\n# P %d\n# seed %" PRIu64 "\n# cycles %d\n",
              kBoxN, wl.procs, o.seed, o.cycles);
  std::printf("# warmup %d\n# fence %d\n# scenario %s offset %d\n", kWarmup,
              o.fence ? 1 : 0,
              adapt::SoakScenario::kind_name(wl.kind), cycle_offset(o));
  std::fflush(stdout);

  // Set-up repetitions; the last one carries the measured run.
  std::vector<SetupTimes> setups;
  for (int r = 0; r + 1 < kSetupReps; ++r) {
    setups.push_back(set_up_and_run(o, nullptr));
  }
  const adapt::SoakScenario scn = make_scenario(o);
  std::vector<RankLog> logs(static_cast<std::size_t>(wl.procs));
  try {
    setups.push_back(set_up_and_run(o, [&](parallel::PlumFramework& fw) {
      run_and_check(fw, o, scn,
                    &logs[static_cast<std::size_t>(fw.comm().rank())]);
    }));
  } catch (const simmpi::DeadlockError& e) {
    int completed = o.cycles;
    for (const RankLog& l : logs) completed = std::min(completed, l.completed);
    std::fprintf(stderr, "fig1_bench: deadlock: %s\n", e.what());
    std::printf("# completed %d\n", completed);
    return 3;
  }
  const double rss_mb = peak_rss_mb();
  const int completed = o.cycles;

  // ---- fold the per-rank logs (host side, after the run) -------------
  const auto P = static_cast<std::size_t>(wl.procs);
  const auto C = static_cast<std::size_t>(o.cycles);
  double loop_start = logs[0].host_start_us, loop_end = logs[0].host_end_us;
  double sim_start = logs[0].sim_start_us, sim_end = logs[0].sim_end_us;
  double idle_sum = 0.0, time_sum = 0.0;
  std::int64_t msgs = 0, coll = 0, bytes = 0;
  Digest digest;
  bool check_ok = true;
  std::string check_summary;
  for (const RankLog& l : logs) {
    loop_start = std::min(loop_start, l.host_start_us);
    loop_end = std::max(loop_end, l.host_end_us);
    sim_start = std::min(sim_start, l.sim_start_us);
    sim_end = std::max(sim_end, l.sim_end_us);
    idle_sum += l.idle_end_us - l.idle_start_us;
    time_sum += l.sim_end_us - l.sim_start_us;
    msgs += l.msgs1 - l.msgs0;
    coll += l.coll1 - l.coll0;
    bytes += l.bytes1 - l.bytes0;
    digest.merge(l.digest);
    if (!l.check_ok) {
      check_ok = false;
      if (check_summary.empty()) check_summary = l.check_summary;
    }
  }

  std::vector<double> host_ms(C), sim_ms(C), imb(C), imb_before(C);
  std::vector<double> active(C);
  double prev_end = loop_start;
  std::int64_t n_repart = 0, n_accept = 0, moved = 0;
  std::vector<double> vchanged(C), refine_rounds(C), coarsen_rounds(C);
  std::vector<double> marks(C);
  std::vector<double> pred_ms, log_err;
  double mig_wall_ms = 0.0, mig_phase_ms = 0.0;  // sums over the loop
  std::array<std::vector<double>, kCalls> call_host, call_sim, call_idle;
  std::array<std::vector<double>, kCalls> call_bytes, call_msgs;
  for (std::size_t c = 0; c < C; ++c) {
    double end = 0.0, span = 0.0, wall = 0.0;
    std::int64_t act = 0, mk = 0;
    std::array<double, 5> phase{};
    std::array<double, kCalls> csim{}, cidle{};
    std::array<std::int64_t, kCalls> cbytes{}, cmsgs{};
    for (std::size_t r = 0; r < P; ++r) {
      const CycleRec& rec = logs[r].cycles[c];
      end = std::max(end, rec.end_host_us);
      span = std::max(span, rec.sim_span_us);
      act += rec.active;
      mk += rec.marks_sent;
      moved += rec.elements_sent;
      wall = std::max(wall, rec.mig_us);
      for (std::size_t k = 0; k < phase.size(); ++k) {
        phase[k] = std::max(phase[k], rec.mig_phase_us[k]);
      }
      for (int k = 0; k < kCalls; ++k) {
        csim[k] = std::max(csim[k], rec.call[k].sim_us);
        cidle[k] = std::max(cidle[k], rec.call[k].idle_us);
        cbytes[k] += rec.call[k].bytes;
        cmsgs[k] += rec.call[k].msgs;
      }
    }
    const CycleRec& r0 = logs[0].cycles[c];
    host_ms[c] = (end - prev_end) * 1e-3;
    prev_end = end;
    sim_ms[c] = span * 1e-3;
    imb[c] = r0.imb_after;
    imb_before[c] = r0.imb_before;
    active[c] = static_cast<double>(act);
    digest.add_history(act);
    n_repart += r0.repartitioned;
    n_accept += r0.accepted;
    vchanged[c] = static_cast<double>(r0.vertices_changed);
    refine_rounds[c] = r0.refine_rounds;
    coarsen_rounds[c] = r0.coarsen_rounds;
    marks[c] = static_cast<double>(mk);
    if (r0.accepted) {
      pred_ms.push_back(r0.pred_migrate_us * 1e-3);
      if (wall > 0.0 && r0.pred_migrate_us > 0.0) {
        log_err.push_back(std::abs(std::log(r0.pred_migrate_us / wall)));
      }
      mig_wall_ms += wall * 1e-3;
      for (double x : phase) mig_phase_ms += x * 1e-3;
    }
    for (int k = 0; k < kCalls; ++k) {
      const CallRec& cr = r0.call[k];
      call_host[k].push_back(cr.ran ? (cr.host_t1_us - cr.host_t0_us) * 1e-3
                                    : 0.0);
      call_sim[k].push_back(csim[k] * 1e-3);
      call_idle[k].push_back(cidle[k] * 1e-3);
      call_bytes[k].push_back(static_cast<double>(cbytes[k]));
      call_msgs[k].push_back(static_cast<double>(cmsgs[k]));
    }
  }

  std::string reference = "skipped";
  bool digest_ok = true;
  if (o.reference) {
    reference = reference_digest(o, scn).hex();
    digest_ok = reference == digest.hex();
  }
  if (o.fence && !o.spans.empty() &&
      !write_spans(o.spans, logs[0], loop_start)) {
    std::fprintf(stderr, "fig1_bench: cannot write %s\n", o.spans.c_str());
    return 1;
  }

  std::vector<double> setup_total, setup_mesh, setup_dual, setup_fw;
  for (const SetupTimes& s : setups) {
    setup_total.push_back(s.total_s);
    setup_mesh.push_back(s.mesh_s);
    setup_dual.push_back(s.dual_s);
    setup_fw.push_back(s.framework_s);
  }

  const double loop_s = (loop_end - loop_start) * 1e-6;
  const double Cd = static_cast<double>(C);
  JsonWriter w;
  w.begin_object();
  auto put = [&w](const char* k, double v) {
    w.key(k);
    w.value(v);
  };
  w.key("workload");
  w.value(wl.name);
  w.key("cycles");
  w.value(o.cycles);
  w.key("completed");
  w.value(completed);
  w.key("fence");
  w.value(o.fence);
  w.key("check_ok");
  w.value(check_ok);
  w.key("check_summary");
  w.value(check_summary);
  w.key("digest");
  w.value(digest.hex());
  w.key("reference");
  w.value(reference);
  w.key("digest_ok");
  w.value(digest_ok);
  w.key("accepted_total");
  w.value(n_accept);
  w.key("elements_moved_total");
  w.value(moved);
  put("loop_s", loop_s);
  put("cycles_per_s", Cd / loop_s);
  put("cycle_host_ms_p50", quantile(host_ms, 0.5));
  put("cycle_host_ms_p90", quantile(host_ms, 0.9));
  put("sim_cycle_ms_p50", quantile(sim_ms, 0.5));
  put("sim_cycle_ms_p90", quantile(sim_ms, 0.9));
  put("sim_total_s", (sim_end - sim_start) * 1e-6);
  put("imbalance_mean", mean(imb));
  put("peak_rss_mb", rss_mb);
  put("setup_s", quantile(setup_total, 0.5));
  put("setup.mesh_s", quantile(setup_mesh, 0.5));
  put("setup.dual_s", quantile(setup_dual, 0.5));
  put("setup.framework_s", quantile(setup_fw, 0.5));
  // Loop-wide simmpi traffic (valid in both modes; the unfenced run's
  // figures are the framework's own).
  put("simmpi.msgs_per_cycle", static_cast<double>(msgs) / Cd);
  put("simmpi.coll_msgs_per_cycle", static_cast<double>(coll) / Cd);
  put("simmpi.bytes_per_cycle", static_cast<double>(bytes) / Cd);
  put("simmpi.sim_idle_frac", time_sum > 0.0 ? idle_sum / time_sum : 0.0);
  put("mesh.active_elements_p50", quantile(active, 0.5));
  put("mesh.active_elements_max",
      *std::max_element(active.begin(), active.end()));
  if (o.fence) {
    // Per-cycle means of the fenced per-call spans.
    put("solver.host_ms", mean(call_host[kSolve]));
    put("solver.sim_ms", mean(call_sim[kSolve]));
    put("solver.sim_idle_ms", mean(call_idle[kSolve]));
    put("adapt.refine.host_ms", mean(call_host[kRefine]));
    put("adapt.refine.sim_ms", mean(call_sim[kRefine]));
    put("adapt.refine.rounds", mean(refine_rounds));
    put("adapt.refine.marks_sent", mean(marks));
    put("adapt.coarsen.host_ms", mean(call_host[kCoarsen]));
    put("adapt.coarsen.sim_ms", mean(call_sim[kCoarsen]));
    put("adapt.coarsen.rounds", mean(coarsen_rounds));
    put("dualgraph.weights.host_ms", mean(call_host[kWeights]));
    put("dualgraph.weights.sim_ms", mean(call_sim[kWeights]));
    put("dualgraph.weights.bytes", mean(call_bytes[kWeights]));
    put("balance.host_ms", mean(call_host[kBalance]));
    put("balance.sim_ms", mean(call_sim[kBalance]));
    put("balance.repartitioned", static_cast<double>(n_repart));
    put("balance.accepted", static_cast<double>(n_accept));
    put("balance.accept_ratio",
        n_repart > 0 ? static_cast<double>(n_accept) /
                           static_cast<double>(n_repart)
                     : 0.0);
    put("balance.vertices_changed", mean(vchanged));
    put("balance.imbalance_before_mean", mean(imb_before));
    put("balance.pred_migrate_ms", mean(pred_ms));
    put("balance.pred_log_error", mean(log_err));
    put("migrate.host_ms", mean(call_host[kMigrate]));
    put("migrate.sim_ms", mean(call_sim[kMigrate]));
    put("migrate.phase_sum_ms", mig_phase_ms / Cd);
    put("migrate.overlap_ratio",
        mig_phase_ms > 0.0 ? mig_wall_ms / mig_phase_ms : 0.0);
    put("migrate.elements_moved", static_cast<double>(moved) / Cd);
    put("migrate.bytes", mean(call_bytes[kMigrate]));
    put("migrate.msgs", mean(call_msgs[kMigrate]));
    double cycle_host = 0.0;
    for (double x : host_ms) cycle_host += x;
    put("trace.cycle_host_ms", cycle_host / Cd);
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return check_ok && digest_ok ? 0 : 4;
}
