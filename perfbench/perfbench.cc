/**
 * @file
 * dashsim's end-to-end benchmark: one process that runs a named
 * workload (a sweep of experiment points) through the library's public
 * API, checks every simulated result, and prints each metric by name
 * with its unit. The last line of stdout is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Host time is measured from outside the library, at boundaries this
 * file owns: a decorator Workload times workload construction, setup()
 * and verify(); the RunPoint factory/configure/inspect hooks mark the
 * start of each point, the Machine construction and the end of each
 * point on its worker thread. See README.md in this directory for the
 * workloads, the metrics and how to read the traced run.
 *
 * Usage:
 *   dashsim_perfbench --workload paper16|mesh256|quick_checked
 *                     [--seed N] [--seconds S] [--trace 0|1]
 *                     [--root DIR] [--out DIR] [--print-digests]
 *                     [--git-sha SHA] [--src-digest HEX]
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/pthor.hh"
#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/report.hh"
#include "obs/registry.hh"
#include "sim/logging.hh"
#include "tango/trace_sink.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace dashsim;

namespace {

// ---------------------------------------------------------------- clocks

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------- workloads

/**
 * Every knob that changes host work without changing a simulated
 * number, pinned per point so neither the build type nor the
 * environment can move the measurement.
 */
struct Pins
{
    std::uint32_t nodes = 16;
    bool mesh = false;
    DirFormat dirFormat = DirFormat::FullBitVector;
    bool checks = false;      ///< coherence + race + conservation
    bool attribution = false; ///< obs latency attribution

    void
    apply(MachineConfig &cfg) const
    {
        cfg.mem.numNodes = nodes;
        cfg.mem.lat.mesh = mesh;
        cfg.mem.dirFormat = dirFormat;
        cfg.check.coherence = checks;
        cfg.check.race = checks;
        cfg.check.conservation = checks;
        cfg.obs.attribution = attribution;
        cfg.shards = 1;
        cfg.cpu.fastPath = true;
        cfg.cpu.fastPathFuzzSeed = 0;
    }
};

struct PointSpec
{
    std::string app;   ///< MP3D, LU or PTHOR
    std::string tech;  ///< technique key, e.g. "RC 4ctx/sw4"
    Technique technique;
    WorkloadFactory factory;
    Pins pins;

    std::string
    label() const
    {
        return app + "/P" + std::to_string(pins.nodes) + "/" + tech;
    }
};

struct WorkloadSpec
{
    std::string name;
    unsigned workers = 1;
    std::vector<PointSpec> points;
};

const char *const appNames[3] = {"MP3D", "LU", "PTHOR"};

/**
 * Application seed for benchmark seed @p seed: 0 keeps the app's
 * built-in seed (the one the committed references were made with),
 * any other value derives a distinct, well-mixed app seed from it.
 */
std::uint64_t
appSeed(std::uint64_t builtin, std::uint64_t seed)
{
    if (seed == 0)
        return builtin;
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return builtin ^ z ^ (z >> 31);
}

/** The paper's Section 2 data sets. */
WorkloadFactory
paperFactory(const std::string &app, std::uint64_t seed)
{
    if (app == "MP3D") {
        Mp3dConfig c;
        c.seed = appSeed(c.seed, seed);
        return [c] { return std::make_unique<Mp3d>(c); };
    }
    if (app == "LU") {
        LuConfig c;
        c.seed = appSeed(c.seed, seed);
        return [c] { return std::make_unique<Lu>(c); };
    }
    PthorConfig c;
    c.seed = appSeed(c.seed, seed);
    return [c] { return std::make_unique<Pthor>(c); };
}

/** The test data sets (testWorkload) with the benchmark's seed. */
WorkloadFactory
quickFactory(const std::string &app, std::uint64_t seed)
{
    std::uint64_t builtin = 0;
    if (app == "MP3D")
        builtin = Mp3dConfig{}.seed;
    else if (app == "LU")
        builtin = LuConfig{}.seed;
    else
        builtin = PthorConfig{}.seed;
    return testWorkload(app, seed ? appSeed(builtin, seed) : 0);
}

/**
 * bench/fig_scaling's weak-scaled workloads (one context per
 * processor), so mesh256's points reproduce the committed
 * bench/data/scaling rows.
 */
WorkloadFactory
scaledFactory(const std::string &app, std::uint32_t procs,
              std::uint64_t seed)
{
    if (app == "MP3D") {
        Mp3dConfig c;
        c.particles = 50 * procs;
        c.cellsZ = std::max(1u, (7 * procs + 15) / 16);
        c.steps = 2;
        c.seed = appSeed(c.seed, seed);
        return [c] { return std::make_unique<Mp3d>(c); };
    }
    if (app == "LU") {
        LuConfig c;
        c.n = static_cast<std::uint32_t>(
            std::lround(48.0 * std::cbrt(procs / 16.0)));
        c.seed = appSeed(c.seed, seed);
        return [c] { return std::make_unique<Lu>(c); };
    }
    PthorConfig c;
    c.elements = 150 * procs;
    c.flipflops = c.elements / 10;
    c.primaryInputs = 32;
    c.levels = 6;
    c.clockCycles = 2;
    c.seed = appSeed(c.seed, seed);
    return [c] { return std::make_unique<Pthor>(c); };
}

using TechList = std::vector<std::pair<std::string, Technique>>;

TechList
paperTechniques()
{
    return {{"NoCache", Technique::noCache()},
            {"SC", Technique::sc()},
            {"RC", Technique::rc()},
            {"RC+PF", Technique::rcPrefetch()},
            {"RC 4ctx/sw4", Technique::multiContext(4, 4, Consistency::RC)}};
}

/** bench/verify_shapes' eight techniques. */
TechList
shapeTechniques()
{
    return {{"NoCache", Technique::noCache()},
            {"SC", Technique::sc()},
            {"RC", Technique::rc()},
            {"SC+PF", Technique::scPrefetch()},
            {"RC+PF", Technique::rcPrefetch()},
            {"SC 4ctx/sw4", Technique::multiContext(4, 4)},
            {"RC 4ctx/sw4", Technique::multiContext(4, 4, Consistency::RC)},
            {"RC+PF 4ctx/sw4",
             Technique::multiContext(4, 4, Consistency::RC, true)}};
}

bool
knownWorkload(const std::string &name)
{
    return name == "paper16" || name == "mesh256" ||
           name == "quick_checked";
}

WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = name;
    if (name == "paper16") {
        for (const char *app : appNames) {
            for (const auto &[key, t] : paperTechniques())
                w.points.push_back({app, key, t, paperFactory(app, seed),
                                    Pins{}});
        }
    } else if (name == "mesh256") {
        // Fixed worker count: neither nproc nor DASHSIM_JOBS may change
        // what one run measures.
        w.workers = 4;
        const TechList techs = {{"NoCache", Technique::noCache()},
                                {"SC", Technique::sc()},
                                {"RC", Technique::rc()}};
        for (const char *app : appNames) {
            for (std::uint32_t p : {64u, 256u}) {
                Pins pins;
                pins.nodes = p;
                pins.mesh = true;
                pins.dirFormat = DirFormat::LimitedPointer;
                for (const auto &[key, t] : techs)
                    w.points.push_back(
                        {app, key, t, scaledFactory(app, p, seed), pins});
            }
        }
    } else {
        Pins pins;
        pins.checks = true;
        pins.attribution = true;
        for (const char *app : appNames) {
            for (const auto &[key, t] : shapeTechniques())
                w.points.push_back(
                    {app, key, t, quickFactory(app, seed), pins});
        }
    }
    return w;
}

/**
 * The host-cost probe for the check and obs layers on workloads that
 * run with both off: the test data sets under SC, one point per app.
 */
WorkloadSpec
layerProbe(std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = "probe";
    for (const char *app : appNames)
        w.points.push_back(
            {app, "SC", Technique::sc(), quickFactory(app, seed), Pins{}});
    return w;
}

/** A copy of @p w with the check/obs layers switched as given. */
WorkloadSpec
withLayers(WorkloadSpec w, bool checks, bool attribution)
{
    for (auto &p : w.points) {
        p.pins.checks = checks;
        p.pins.attribution = attribution;
    }
    return w;
}

// ------------------------------------------------------ per-point marks

/** Operation counts a traced point's TraceSink saw, by kind. */
class OpCounter final : public TraceSink
{
  public:
    void
    record(unsigned, const TraceOp &op) override
    {
        ++byKind[static_cast<std::size_t>(op.kind)];
    }

    void computeCycles(unsigned, Tick) override {}

    std::array<std::uint64_t, 16> byKind{};
};

/** Registry counters of one traced point, reduced over nodes. */
struct MemLayer
{
    std::uint64_t accesses = 0, l1Hits = 0, remoteDirty = 0;
    std::uint64_t pfIssued = 0, pfDropped = 0;
    std::uint64_t invalidations = 0, overInvalidations = 0;
    std::uint64_t dirRequests = 0, dirRequestsMax = 0;
    std::uint64_t linkRequests = 0, linkRequestsMax = 0;
    std::uint64_t busRequests = 0;
    double dirBusyMaxFrac = 0, linkBusyMaxFrac = 0;

    void
    merge(const MemLayer &o)
    {
        accesses += o.accesses;
        l1Hits += o.l1Hits;
        remoteDirty += o.remoteDirty;
        pfIssued += o.pfIssued;
        pfDropped += o.pfDropped;
        invalidations += o.invalidations;
        overInvalidations += o.overInvalidations;
        dirRequests += o.dirRequests;
        dirRequestsMax = std::max(dirRequestsMax, o.dirRequestsMax);
        linkRequests += o.linkRequests;
        linkRequestsMax = std::max(linkRequestsMax, o.linkRequestsMax);
        busRequests += o.busRequests;
        dirBusyMaxFrac = std::max(dirBusyMaxFrac, o.dirBusyMaxFrac);
        linkBusyMaxFrac = std::max(linkBusyMaxFrac, o.linkBusyMaxFrac);
    }
};

MemLayer
reduceRegistry(const obs::Registry &reg, Tick exec_time)
{
    static const std::set<std::string> levels = {
        "l1.hit",        "l2.hit",
        "l2.miss.local", "l2.miss.home",
        "l2.miss.remote_dirty", "l2.miss.combined",
        "mem.uncached"};
    const double t = exec_time ? static_cast<double>(exec_time) : 1.0;
    MemLayer m;
    reg.forEach([&](const std::string &name, std::uint64_t v) {
        if (name == "machine.dir.over_invalidations") {
            m.overInvalidations = v;
            return;
        }
        if (name.empty() || name[0] != 'p')
            return;
        const std::size_t dot = name.find('.');
        if (dot == std::string::npos)
            return;
        const std::string key = name.substr(dot + 1);
        if (levels.count(key))
            m.accesses += v;
        if (key == "l1.hit")
            m.l1Hits += v;
        else if (key == "l2.miss.remote_dirty")
            m.remoteDirty += v;
        else if (key == "cpu.prefetches_issued")
            m.pfIssued += v;
        else if (key == "mem.prefetches_dropped")
            m.pfDropped += v;
        else if (key == "mem.invalidations_received")
            m.invalidations += v;
        else if (key == "res.dir.requests") {
            m.dirRequests += v;
            m.dirRequestsMax = std::max(m.dirRequestsMax, v);
        } else if (key == "res.dir.busy_cycles") {
            m.dirBusyMaxFrac = std::max(m.dirBusyMaxFrac, v / t);
        } else if (key == "res.busReq.requests" ||
                   key == "res.busReply.requests") {
            m.busRequests += v;
        } else if (key.rfind("res.link", 0) == 0) {
            if (key.size() > 9 && key.compare(9, std::string::npos,
                                              ".requests") == 0) {
                m.linkRequests += v;
                m.linkRequestsMax = std::max(m.linkRequestsMax, v);
            } else if (key.size() > 9 &&
                       key.compare(9, std::string::npos,
                                   ".busy_cycles") == 0) {
                m.linkBusyMaxFrac = std::max(m.linkBusyMaxFrac, v / t);
            }
        }
    });
    return m;
}

/**
 * Host marks of one point, on the steady clock, written only by the
 * worker thread that runs the point.
 */
struct PointRecord
{
    std::thread::id worker;
    double start = 0;       ///< factory hook entered
    double built = 0;       ///< workload constructed
    double ctorStart = 0;   ///< configure hook: Machine about to be built
    double setupStart = 0;  ///< decorator setup() entered
    double setupEnd = 0;
    double verifyStart = 0; ///< decorator verify() entered
    double verifyEnd = 0;
    double inspectStart = 0; ///< Machine::run returned
    double end = 0;          ///< inspect hook done
    double cpu = 0;          ///< thread CPU seconds over [start, end]
    double cpuStart = 0;
    std::uint64_t events = 0;
    bool traced = false;
    OpCounter ops;
    MemLayer mem;
};

/**
 * Forwards name/setup/run/verify to the real workload and records when
 * setup() and verify() run. When @p sink is set it installs it as the
 * machine's trace sink (the one place Machine accepts a sink).
 */
class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner, PointRecord &rec,
                  TraceSink *sink)
        : inner(std::move(inner)), rec(rec), sink(sink)
    {}

    std::string name() const override { return inner->name(); }

    void
    setup(Machine &m) override
    {
        rec.setupStart = wallNow();
        if (sink)
            m.setTraceSink(sink);
        inner->setup(m);
        rec.setupEnd = wallNow();
    }

    SimProcess run(Env env) override { return inner->run(env); }

    void
    verify(Machine &m) override
    {
        rec.verifyStart = wallNow();
        inner->verify(m);
        rec.verifyEnd = wallNow();
    }

  private:
    std::unique_ptr<Workload> inner;
    PointRecord &rec;
    TraceSink *sink;
};

struct Sweep
{
    double begin = 0, end = 0; ///< first point submitted, last returned
    double cpu = 0;            ///< sum of the points' thread CPU time
    std::vector<PointRecord> recs;
    std::vector<RunOutcome> outcomes;

    double wall() const { return end - begin; }
};

/** Run every point of @p w once as one RunBatch. */
Sweep
runSweep(const WorkloadSpec &w, bool traced)
{
    Sweep s;
    s.recs.resize(w.points.size());
    RunBatch batch(w.workers);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const PointSpec &spec = w.points[i];
        PointRecord *rec = &s.recs[i];
        rec->traced = traced;
        RunPoint p;
        p.technique = spec.technique;
        p.label = spec.label();
        p.factory = [rec, f = spec.factory]() -> std::unique_ptr<Workload> {
            rec->worker = std::this_thread::get_id();
            rec->cpuStart = threadCpuNow();
            rec->start = wallNow();
            auto inner = f();
            rec->built = wallNow();
            return std::make_unique<TimedWorkload>(
                std::move(inner), *rec, rec->traced ? &rec->ops : nullptr);
        };
        p.configure = [rec, pins = spec.pins](MachineConfig &cfg) {
            pins.apply(cfg);
            rec->ctorStart = wallNow();
        };
        p.inspect = [rec](Machine &m, const RunResult &r) {
            rec->inspectStart = wallNow();
            rec->events = m.eventQueue().executed();
            if (rec->traced) {
                obs::Registry reg;
                m.fillRegistry(reg, r);
                rec->mem = reduceRegistry(reg, r.execTime);
            }
            rec->end = wallNow();
            rec->cpu = threadCpuNow() - rec->cpuStart;
        };
        batch.add(std::move(p));
    }
    s.begin = wallNow();
    s.outcomes = batch.run();
    s.end = wallNow();
    for (const auto &r : s.recs)
        s.cpu += r.cpu;
    return s;
}

/**
 * One set-up pass: construct every point's workload and Machine and run
 * Workload::setup, without simulating. Returns the host seconds spent.
 */
double
setupPass(const WorkloadSpec &w)
{
    double total = 0;
    for (const PointSpec &spec : w.points) {
        const double t0 = wallNow();
        auto wl = spec.factory();
        MachineConfig cfg = makeMachineConfig(spec.technique);
        spec.pins.apply(cfg);
        Machine m(cfg);
        wl->setup(m);
        total += wallNow() - t0;
    }
    return total;
}

// --------------------------------------------------------- correctness

std::string
digestOf(const RunResult &r)
{
    const std::string s = serializeResult(r);
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      ckpt::fnv1a(s.data(), s.size())));
    return buf;
}

/** label -> digest, from perfbench/reference/<workload>.digests. */
std::map<std::string, std::string>
loadDigests(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.rfind('\t');
        if (tab != std::string::npos)
            out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return out;
}

/** The line of the CSV at @p path whose first column is @p label. */
std::string
csvRow(const std::string &path, const std::string &label)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(label + ",", 0) == 0)
            return line;
    }
    return {};
}

/**
 * Why @p r's writeCsv row differs from the committed
 * bench/data/scaling rows for its point (empty when it matches).
 */
std::string
scalingMismatch(const PointSpec &spec, const RunResult &r,
                const std::string &root, const std::string &out_dir)
{
    const std::string label =
        "P" + std::to_string(spec.pins.nodes) + "/" + spec.tech;
    const std::string scratch = out_dir + "/row.csv";
    writeCsv(scratch, "row", {{label, r}});
    const std::string mine = csvRow(scratch, label);
    bool found = false;
    for (const char *fig : {"fig2", "fig3"}) {
        const std::string ref =
            csvRow(root + "/bench/data/scaling/" + spec.app + "_scaling_" +
                       fig + ".csv",
                   label);
        if (ref.empty())
            continue;
        found = true;
        if (ref != mine)
            return std::string("differs from bench/data/scaling ") + fig +
                   " row";
    }
    return found ? "" : "no row in bench/data/scaling";
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t violations = 0;
};

/**
 * Check every outcome of @p s: the run succeeded (which includes the
 * workload's own verify()), the checkers saw nothing, and, at the
 * default seed, the result equals the committed reference. Every
 * failing point is named on stderr.
 */
void
checkSweep(const WorkloadSpec &w, const Sweep &s, bool compare_reference,
           const std::string &root, const std::string &out_dir,
           Tally &tally)
{
    const auto digests =
        compare_reference && w.name != "mesh256"
            ? loadDigests(root + "/perfbench/reference/" + w.name +
                          ".digests")
            : std::map<std::string, std::string>{};
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const PointSpec &spec = w.points[i];
        const RunOutcome &o = s.outcomes[i];
        const std::string label = spec.label();
        ++tally.attempted;
        std::string why;
        if (!o.ok) {
            why = o.error;
        } else {
            const RunResult &r = o.result;
            tally.violations += r.coherenceViolations + r.racesDetected;
            if (r.coherenceViolations || r.racesDetected)
                why = "checker violations";
            else if (compare_reference && w.name == "mesh256")
                why = scalingMismatch(spec, r, root, out_dir);
            else if (compare_reference) {
                const auto it = digests.find(label);
                if (it == digests.end())
                    why = "no reference digest";
                else if (it->second != digestOf(r))
                    why = "digest " + digestOf(r) + " != reference " +
                          it->second;
            }
        }
        if (!why.empty()) {
            ++tally.failed;
            std::fprintf(stderr, "FAILED %s %s: %s\n", w.name.c_str(),
                         label.c_str(), why.c_str());
        }
    }
}

/**
 * Mean |measured/paper - 1| in percent over the headline speedups the
 * workload runs: caching (NoCache -> SC), RC (SC -> RC) and RC
 * 4ctx/sw4 over SC, against the paper's 16-processor values (the same
 * ones bench/fig2_caches.cc, fig3_consistency.cc and fig6_combined.cc
 * print).
 */
double
modelErrPct(const WorkloadSpec &w, const Sweep &s)
{
    const double paper_caching[3] = {100.0 / 45.2, 100.0 / 36.6,
                                     100.0 / 41.5};
    const double paper_rc[3] = {1.5, 1.1, 1.4};
    const double paper_rc4[3] = {3.0, 1.7, 1.3};
    std::map<std::string, double> exec;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (s.outcomes[i].ok)
            exec[w.points[i].label()] =
                static_cast<double>(s.outcomes[i].result.execTime);
    }
    double sum = 0;
    int n = 0;
    auto add = [&](const std::string &base, const std::string &tech,
                   double paper) {
        const auto b = exec.find(base), t = exec.find(tech);
        if (b == exec.end() || t == exec.end() || t->second == 0)
            return;
        sum += std::fabs(b->second / t->second / paper - 1.0);
        ++n;
    };
    std::set<std::string> prefixes;
    for (const auto &p : w.points)
        prefixes.insert(p.app + "/P" + std::to_string(p.pins.nodes) + "/");
    for (const std::string &pre : prefixes) {
        const std::string app = pre.substr(0, pre.find('/'));
        const int a = app == "MP3D" ? 0 : app == "LU" ? 1 : 2;
        add(pre + "NoCache", pre + "SC", paper_caching[a]);
        add(pre + "SC", pre + "RC", paper_rc[a]);
        add(pre + "SC", pre + "RC 4ctx/sw4", paper_rc4[a]);
    }
    return n ? 100.0 * sum / n : 0.0;
}

// -------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
runSelf(const PointRecord &r)
{
    return (r.inspectStart - r.setupStart) - (r.setupEnd - r.setupStart) -
           (r.verifyEnd - r.verifyStart);
}

// ------------------------------------------------------------- spans

struct Span
{
    int id;
    int parent;
    std::string name;
    std::string point;
    double start, end;
    double self = 0;
};

/**
 * The traced sweep's span tree: one "point" span per point with
 * build/ctor/setup/run/fill_registry children and verify under run.
 * Returns false when a child falls outside its parent or children
 * overlap, i.e. when self times would not add up to the point span.
 */
bool
buildSpans(const WorkloadSpec &w, const Sweep &s, std::vector<Span> &spans)
{
    bool consistent = true;
    for (std::size_t i = 0; i < s.recs.size(); ++i) {
        const PointRecord &r = s.recs[i];
        if (r.end == 0)
            continue;
        const std::string label = w.points[i].label();
        const int point = static_cast<int>(spans.size());
        spans.push_back({point, -1, "point", label, r.start, r.end});
        const int first_child = static_cast<int>(spans.size());
        spans.push_back({0, point, "build", label, r.start, r.built});
        spans.push_back({0, point, "ctor", label, r.ctorStart, r.setupStart});
        spans.push_back({0, point, "setup", label, r.setupStart, r.setupEnd});
        const int run = first_child + 3;
        spans.push_back({0, point, "run", label, r.setupEnd, r.inspectStart});
        spans.push_back({0, run, "verify", label, r.verifyStart, r.verifyEnd});
        spans.push_back(
            {0, point, "fill_registry", label, r.inspectStart, r.end});
        for (int k = first_child; k < static_cast<int>(spans.size()); ++k)
            spans[k].id = k;

        // Self time = own duration minus the children's, and every child
        // must nest inside its parent without overlapping a sibling.
        double point_sum = 0;
        for (int k = point; k < static_cast<int>(spans.size()); ++k) {
            Span &sp = spans[k];
            sp.self = sp.end - sp.start;
            double prev_end = sp.start;
            for (int c = k + 1; c < static_cast<int>(spans.size()); ++c) {
                const Span &ch = spans[c];
                if (ch.parent != k)
                    continue;
                if (ch.start < prev_end || ch.end < ch.start ||
                    ch.end > sp.end)
                    consistent = false;
                prev_end = ch.end;
                sp.self -= ch.end - ch.start;
            }
            point_sum += sp.self;
        }
        if (std::fabs(point_sum - (r.end - r.start)) > 1e-9)
            consistent = false;
    }
    return consistent;
}

bool
writeSpans(const std::string &path, const std::string &workload,
           double origin, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [\n",
                 workload.c_str());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &sp = spans[i];
        std::fprintf(f,
                     "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                     "\"point\": \"%s\", \"start_s\": %s, \"end_s\": %s, "
                     "\"self_s\": %s}%s\n",
                     sp.id, sp.parent, sp.name.c_str(),
                     jsonEscape(sp.point).c_str(),
                     num(sp.start - origin).c_str(),
                     num(sp.end - origin).c_str(), num(sp.self).c_str(),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// -------------------------------------------------------------- metrics

/** core.batch.*: how busy the workers were over the sweep. */
void
batchMetrics(const WorkloadSpec &w, const Sweep &s,
             std::vector<Metric> &out)
{
    std::map<std::thread::id, double> last_end;
    double spans = 0;
    for (const auto &r : s.recs) {
        if (r.end == 0)
            continue;
        spans += r.end - r.start;
        last_end[r.worker] = std::max(last_end[r.worker], r.end);
    }
    double first_idle = s.end;
    for (const auto &[id, t] : last_end)
        first_idle = std::min(first_idle, t);
    const unsigned workers = std::min<unsigned>(
        w.workers, static_cast<unsigned>(w.points.size()));
    out.push_back({"core.batch.busy_frac", spans / (workers * s.wall()),
                   "frac"});
    out.push_back({"core.batch.tail_s", s.end - first_idle, "s"});
}

std::vector<Metric>
layerMetrics(const WorkloadSpec &w, const Sweep &traced,
             const std::vector<Span> &spans, double untraced_wall,
             double check_host_s, double obs_host_s,
             std::uint64_t violations)
{
    std::vector<Metric> out;
    batchMetrics(w, traced, out);

    double ctor = 0, setup = 0, verify = 0, run_self = 0, fill = 0;
    std::uint64_t events = 0;
    std::map<std::string, double> app_cpu, app_self;
    std::map<std::string, std::uint64_t> app_events;
    std::array<std::uint64_t, 16> ops{};
    MemLayer mem;
    std::uint64_t busy = 0, switches = 0, locks = 0, retries = 0;
    double capacity = 0;
    for (std::size_t i = 0; i < traced.recs.size(); ++i) {
        const PointRecord &r = traced.recs[i];
        const RunOutcome &o = traced.outcomes[i];
        if (r.end == 0 || !o.ok)
            continue;
        const std::string &app = w.points[i].app;
        ctor += r.setupStart - r.ctorStart;
        setup += (r.built - r.start) + (r.setupEnd - r.setupStart);
        verify += r.verifyEnd - r.verifyStart;
        run_self += runSelf(r);
        fill += r.end - r.inspectStart;
        events += r.events;
        app_cpu[app] += r.cpu;
        app_self[app] += runSelf(r);
        app_events[app] += r.events;
        for (std::size_t k = 0; k < ops.size(); ++k)
            ops[k] += r.ops.byKind[k];
        mem.merge(r.mem);
        busy += o.result.busyCycles;
        capacity += static_cast<double>(o.result.execTime) *
                    o.result.numProcessors;
        switches += o.result.contextSwitches;
        locks += o.result.locks;
        retries += o.result.lockRetries;
    }
    auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.push_back({"core.machine.ctor_s", ctor, "s"});
    out.push_back({"core.machine.run_self_s", run_self, "s"});
    out.push_back({"apps.setup_s", setup, "s"});
    out.push_back({"apps.verify_s", verify, "s"});
    for (const char *app : appNames)
        out.push_back({std::string("apps.") + app + ".cpu_s",
                       app_cpu[app], "s"});
    out.push_back({"sim.events", static_cast<double>(events), "count"});
    out.push_back({"sim.ns_per_event", 1e9 * frac(run_self, events), "ns"});
    for (const char *app : appNames)
        out.push_back({std::string("sim.") + app + ".ns_per_event",
                       1e9 * frac(app_self[app], app_events[app]), "ns"});

    using K = TraceOp::Kind;
    auto kinds = [&ops](std::initializer_list<K> ks) {
        std::uint64_t n = 0;
        for (K k : ks)
            n += ops[static_cast<std::size_t>(k)];
        return n;
    };
    const std::uint64_t reads = kinds({K::Read, K::ReadRacy});
    const std::uint64_t writes =
        kinds({K::Write, K::WriteRelease, K::WriteRacy});
    const std::uint64_t syncs =
        kinds({K::Lock, K::Unlock, K::Barrier, K::WaitFlag, K::FetchAdd,
               K::TestAndSet, K::QueuedLock, K::QueuedUnlock});
    const std::uint64_t prefetches = kinds({K::Prefetch, K::PrefetchEx});
    out.push_back({"tango.ops.read", static_cast<double>(reads), "count"});
    out.push_back({"tango.ops.write", static_cast<double>(writes), "count"});
    out.push_back({"tango.ops.sync", static_cast<double>(syncs), "count"});
    out.push_back(
        {"tango.ops.prefetch", static_cast<double>(prefetches), "count"});
    out.push_back({"tango.ns_per_op",
                   1e9 * frac(run_self, reads + writes + syncs + prefetches),
                   "ns"});

    out.push_back({"cpu.utilization", frac(busy, capacity), "frac"});
    out.push_back(
        {"cpu.context_switches", static_cast<double>(switches), "count"});
    out.push_back({"cpu.lock_retry_frac", frac(retries, locks), "frac"});

    out.push_back({"mem.l1_hit_frac", frac(mem.l1Hits, mem.accesses),
                   "frac"});
    out.push_back({"mem.prefetch.useful_frac",
                   frac(static_cast<double>(mem.pfIssued) -
                            static_cast<double>(mem.pfDropped),
                        mem.pfIssued),
                   "frac"});
    out.push_back({"mem.invalidations",
                   static_cast<double>(mem.invalidations), "count"});
    out.push_back({"mem.fills.remote_dirty",
                   static_cast<double>(mem.remoteDirty), "count"});
    out.push_back({"mem.dir.requests",
                   static_cast<double>(mem.dirRequests), "count"});
    out.push_back({"mem.dir.requests_max",
                   static_cast<double>(mem.dirRequestsMax), "count"});
    out.push_back({"mem.dir.busy_max_frac", mem.dirBusyMaxFrac, "frac"});
    out.push_back({"mem.dir.over_invalidation_frac",
                   frac(mem.overInvalidations, mem.invalidations), "frac"});
    out.push_back({"mem.mesh.link_requests",
                   static_cast<double>(mem.linkRequests), "count"});
    out.push_back({"mem.mesh.link_requests_max",
                   static_cast<double>(mem.linkRequestsMax), "count"});
    out.push_back(
        {"mem.mesh.link_busy_max_frac", mem.linkBusyMaxFrac, "frac"});
    out.push_back({"mem.bus.requests",
                   static_cast<double>(mem.busRequests), "count"});

    out.push_back({"obs.host_s", obs_host_s, "s"});
    out.push_back({"obs.fill_registry_s", fill, "s"});
    out.push_back({"check.host_s", check_host_s, "s"});
    out.push_back(
        {"check.violations", static_cast<double>(violations), "count"});

    // The other spans' self times are named above: ctor is
    // core.machine.ctor_s, run is core.machine.run_self_s, verify is
    // apps.verify_s and fill_registry is obs.fill_registry_s.
    std::map<std::string, double> self;
    for (const Span &sp : spans)
        self[sp.name] += sp.self;
    for (const char *name : {"point", "build", "setup"})
        out.push_back({std::string("span.") + name + ".self_s",
                       self[name], "s"});
    out.push_back({"trace.wall_s", traced.wall(), "s"});
    out.push_back({"trace.overhead_s", traced.wall() - untraced_wall, "s"});
    return out;
}

// ------------------------------------------------------------------ main

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string root = ".";
    std::string out = ".bench_build/perfbench-out";
    std::string gitSha = "unknown";
    std::string srcDigest = "unknown";
    bool printDigests = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dashsim_perfbench: %s\n"
                 "usage: dashsim_perfbench --workload "
                 "paper16|mesh256|quick_checked [--seed N] [--seconds S] "
                 "[--trace 0|1] [--root DIR] [--out DIR] "
                 "[--print-digests] [--git-sha SHA] [--src-digest HEX]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--print-digests") {
            a.printDigests = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v[0] - '0';
        } else if (k == "--root") {
            a.root = v;
        } else if (k == "--out") {
            a.out = v;
        } else if (k == "--git-sha") {
            a.gitSha = v;
        } else if (k == "--src-digest") {
            a.srcDigest = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (!knownWorkload(a.workload))
        usage("--workload must be paper16, mesh256 or quick_checked");
    return a;
}

/**
 * Environment knobs that change host work (or, for DASHSIM_CKPT_DIR,
 * silently warm-start points) without changing a simulated number.
 * The benchmark pins all of them itself and refuses to run under any.
 */
bool
refuseEnvironment()
{
    static const char *const knobs[] = {
        "DASHSIM_CKPT_DIR", "DASHSIM_CHECK",    "DASHSIM_FASTPATH",
        "DASHSIM_SHARDS",   "DASHSIM_JOBS",     "DASHSIM_TIMELINE",
        "DASHSIM_REGISTRY"};
    bool bad = false;
    for (const char *k : knobs) {
        if (std::getenv(k)) {
            std::fprintf(stderr, "dashsim_perfbench: refusing to run with "
                                 "%s set\n", k);
            bad = true;
        }
    }
    return bad;
}

void
printProvenance(const Args &a, const WorkloadSpec &w,
                std::uint64_t attempted)
{
    std::printf("provenance {\"git_sha\": \"%s\", \"src_digest\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"nproc\": %u, \"workers\": %u, \"workload\": \"%s\", "
                "\"seed\": %llu, \"trace\": %d, \"points_attempted\": "
                "%llu}\n",
                jsonEscape(a.gitSha).c_str(),
                jsonEscape(a.srcDigest).c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                w.workers, w.name.c_str(),
                static_cast<unsigned long long>(a.seed), a.trace,
                static_cast<unsigned long long>(attempted));
}

void
printResult(const Tally &t, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += t.failed == 0 && t.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(t.attempted);
    json += ", \"failed\": " + std::to_string(t.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

void
printDigests(const WorkloadSpec &w, const Sweep &s)
{
    std::printf("# %s point digests (fnv1a of serializeResult)\n",
                w.name.c_str());
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (s.outcomes[i].ok)
            std::printf("%s\t%s\n", w.points[i].label().c_str(),
                        digestOf(s.outcomes[i].result).c_str());
    }
}

int
run(const Args &a)
{
    const WorkloadSpec w = makeWorkload(a.workload, a.seed);
    const bool compare = a.seed == 0;
    std::filesystem::create_directories(a.out);
    Tally tally;

    if (a.printDigests) {
        Sweep s = runSweep(w, false);
        checkSweep(w, s, false, a.root, a.out, tally);
        printDigests(w, s);
        return tally.failed ? 1 : 0;
    }

    if (!a.trace) {
        // Set-up alone, several times, so setup_s is a median too.
        std::vector<double> setups;
        for (int i = 0; i < 5; ++i)
            setups.push_back(setupPass(w));

        // Whole sweeps until the next one would overrun --seconds.
        std::vector<Sweep> sweeps;
        const double t0 = wallNow();
        do {
            sweeps.push_back(runSweep(w, false));
            checkSweep(w, sweeps.back(), compare, a.root, a.out, tally);
            std::fprintf(stderr, "sweep %zu: wall %.3f s, cpu %.3f s\n",
                         sweeps.size(), sweeps.back().wall(),
                         sweeps.back().cpu);
        } while (wallNow() - t0 + sweeps.back().wall() <= a.seconds);

        std::vector<double> walls, cpus;
        for (const Sweep &s : sweeps) {
            walls.push_back(s.wall());
            cpus.push_back(s.cpu);
        }
        printDigests(w, sweeps.front());
        printProvenance(a, w, tally.attempted);
        std::printf("sweeps %zu\n", sweeps.size());
        printResult(tally,
                    {{"wall_s", median(walls), "s"},
                     {"cpu_s", median(cpus), "s"},
                     {"setup_s", median(setups), "s"},
                     {"peak_rss_mb", peakRssMb(), "MB"},
                     {"correct_frac",
                      static_cast<double>(tally.attempted - tally.failed) /
                          static_cast<double>(tally.attempted),
                      "frac"},
                     {"model_err_pct", modelErrPct(w, sweeps.front()),
                      "%"}});
        return 0;
    }

    // Traced run: an untraced sweep for the overhead baseline, then the
    // traced sweep the per-layer numbers come from.
    const Sweep untraced = runSweep(w, false);
    checkSweep(w, untraced, compare, a.root, a.out, tally);
    const Sweep traced = runSweep(w, true);
    checkSweep(w, traced, compare, a.root, a.out, tally);

    // check/obs host cost: the same points with the checkers off, then
    // with attribution off too. quick_checked runs both layers, so its
    // untraced sweep is the base; the other workloads run with both off
    // and measure the layers on the small probe instead.
    const bool layered = w.points.front().pins.checks;
    const WorkloadSpec base =
        layered ? w : withLayers(layerProbe(a.seed), true, true);
    auto twinCpu = [&](const WorkloadSpec &twin) {
        const Sweep s = runSweep(twin, false);
        checkSweep(twin, s, false, a.root, a.out, tally);
        return s.cpu;
    };
    const double on_cpu = layered ? untraced.cpu : twinCpu(base);
    const double no_check_cpu = twinCpu(withLayers(base, false, true));
    const double no_obs_cpu = twinCpu(withLayers(base, false, false));

    std::vector<Span> spans;
    if (!buildSpans(w, traced, spans)) {
        std::fprintf(stderr, "span tree inconsistent: self times do not "
                             "add up to the point spans\n");
        ++tally.failed;
    }
    const std::string span_path = a.out + "/spans_" + w.name + ".json";
    if (!writeSpans(span_path, w.name, traced.begin, spans)) {
        std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
        ++tally.failed;
    }

    printProvenance(a, w, tally.attempted);
    printResult(tally,
                layerMetrics(w, traced, spans, untraced.wall(),
                             on_cpu - no_check_cpu, no_check_cpu - no_obs_cpu,
                             tally.violations));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "dashsim_perfbench: built with assertions on; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 2;
#endif
    const Args a = parseArgs(argc, argv);
    if (refuseEnvironment())
        return 2;
    ScopedErrorCapture errors;
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dashsim_perfbench: %s\n", e.what());
        return 1;
    }
}
