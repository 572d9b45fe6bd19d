//! The four workloads. Each builds its inputs from the seed, computes the
//! answers it checks against apart from the solver, sets up, warms up, and
//! then times whole operations back to back, repeating and timing its
//! set-up calls between them.

use std::path::Path;
use std::time::{Duration, Instant};

use macs_core::{
    solve_parallel, solve_seq, CompiledProblem, CpProcessor, SeqOptions, SolverConfig,
};
use macs_problems::{qap_model, queens, QapInstance, QueensModel};
use macs_runtime::{MachineTopology, RuntimeConfig, WorkerState};
use macs_service::{
    generate, workload::build_class, JobScheduler, JobSpec, LeasePolicy, ServiceConfig,
    ServiceReport, ThreadedBackend, WorkloadConfig, NUM_CLASSES,
};
use macs_sim::{simulate_macs, ContentionParams, FabricModel, SimConfig};

use crate::check::{self, Qap};
use crate::layers;
use crate::metrics::Values;
use crate::stats::{median, quartiles, tail};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueensLocal,
    QapRemote,
    Sim4k,
    SvcOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QueensLocal,
        Workload::QapRemote,
        Workload::Sim4k,
        Workload::SvcOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueensLocal => "queens-local",
            Workload::QapRemote => "qap-remote",
            Workload::Sim4k => "sim-4k",
            Workload::SvcOpen => "svc-open",
        }
    }
}

/// N-Queens size of `queens-local` and `sim-4k`.
const QUEENS_N: usize = 12;
/// Leading block of `esc16e` solved by `qap-remote`.
const QAP_N: usize = 10;
/// `sim-4k`'s machine: 128 × 2 × 2 × 2 × 4 = 4096 cores, the node boundary
/// after level 2.
const SIM_SHAPE: [usize; 5] = [128, 2, 2, 2, 4];
const SIM_NODE_PREFIX: usize = 2;
/// The paper's queens cost model (6.4 µs per node, InfiniBand-class
/// fabric), as a `macs-cost-model v1` file.
const SIM_COST_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/data/paper_queens.cost");
/// `svc-open`'s offered load, jobs per second of wall time.
const SVC_RATE: f64 = 25.0;
const SVC_TENANTS: usize = 4;

/// Untimed operations before measuring, set-up repetitions included:
/// after an idle spell this host runs slowly for about a second.
const WARMUP: Duration = Duration::from_secs(2);
/// A run times at least this many operations, so `tail_ms` has forty
/// samples with ten beyond it.
const MIN_OPS: u64 = crate::stats::TAIL_MIN_SAMPLES as u64;
/// Repetitions of the set-up calls after each operation of a closed loop,
/// warm-up included; `setup_s` is their median over the whole run. The
/// host's speed flips between phases within a second and drifts over tens
/// of seconds, so repetitions taken in one burst all land in one phase.
const SETUP_REPS_PER_OP: usize = 16;
/// `svc-open` serves one trace per run, so its set-up is repeated
/// [`SVC_SETUP_REPS`] times spread evenly over [`SVC_SETUP_WINDOW`] before
/// the trace starts, and its trace opens with [`SVC_WARMUP`] of unmeasured
/// jobs.
const SVC_SETUP_REPS: u32 = 1001;
const SVC_SETUP_WINDOW: Duration = Duration::from_secs(2);
const SVC_WARMUP: Duration = Duration::from_secs(1);

pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub tracer: Tracer,
}

/// SplitMix64 of `seed` and `i`: independent per-operation seeds.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Median wall time, in seconds, of `f` over [`SVC_SETUP_REPS`]
/// repetitions spread over [`SVC_SETUP_WINDOW`], and the last repetition's
/// result.
fn setup_window<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let slot = SVC_SETUP_WINDOW / SVC_SETUP_REPS;
    let mut secs = Vec::with_capacity(SVC_SETUP_REPS as usize);
    let mut last = None;
    for _ in 0..SVC_SETUP_REPS {
        let t = Instant::now();
        let v = f();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
        while t.elapsed() < slot {
            std::hint::spin_loop();
        }
    }
    (median(&secs), last.expect("at least one repetition"))
}

/// Timings and outcomes of one measured phase.
#[derive(Default)]
struct Timed {
    ms: Vec<f64>,
    /// Set-up repetitions, in seconds.
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Timed {
    fn p50(&self) -> f64 {
        median(&self.ms)
    }

    /// The wall times of the operations with tracing on and off, for a
    /// traced loop that switched tracing with [`traced_op`].
    fn on_off(&self, round: u64) -> (Vec<f64>, Vec<f64>) {
        let (on, off): (Vec<_>, Vec<_>) = self
            .ms
            .iter()
            .enumerate()
            .partition(|&(i, _)| traced_op(i as u64, round));
        let strip = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, &x)| x).collect();
        (strip(on), strip(off))
    }
}

/// Whether operation `i` of a traced closed loop runs with tracing on:
/// rounds of `round` operations alternate between on and off, so the
/// tracing overhead is measured within one stretch of the host's phases.
fn traced_op(i: u64, round: u64) -> bool {
    (i / round).is_multiple_of(2)
}

/// Warm up, then run `op(tr, i)` back to back for `secs` seconds and at
/// least `min_ops` operations, stopping only after a whole round of `round`
/// operations. `op` returns its timed wall time and whether its answer
/// checked out. After every operation, warm-up included, `setup` runs
/// [`SETUP_REPS_PER_OP`] times and each repetition is timed.
fn closed_loop(
    tr: &mut Tracer,
    secs: f64,
    min_ops: u64,
    round: u64,
    op: &mut dyn FnMut(&mut Tracer, u64) -> (f64, bool),
    setup: &mut dyn FnMut(&mut Tracer),
) -> Timed {
    const WARM_BASE: u64 = 1 << 40;
    let mut out = Timed::default();
    let mut setups = |tr: &mut Tracer, out: &mut Timed| {
        for _ in 0..SETUP_REPS_PER_OP {
            let t = Instant::now();
            setup(tr);
            out.setup_s.push(t.elapsed().as_secs_f64());
        }
    };
    let t = Instant::now();
    let mut k = 0;
    while t.elapsed() < WARMUP || k % round != 0 {
        op(tr, WARM_BASE + k);
        setups(tr, &mut out);
        k += 1;
    }
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < secs || out.attempted < min_ops || out.attempted % round != 0
    {
        let (ms, ok) = op(tr, out.attempted);
        out.ms.push(ms);
        out.attempted += 1;
        out.failed += u64::from(!ok);
        setups(tr, &mut out);
    }
    out
}

/// Per-solve figures from a threaded run's `RunReport`.
#[derive(Default, Clone, Copy)]
struct RtObs {
    nodes: f64,
    outside_ms: f64,
    state_ms: [f64; macs_runtime::NUM_STATES],
    steals: (u64, u64, u64, u64),
    polls: u64,
}

fn observe(out: &macs_core::SolveOutcome, wall: Duration) -> RtObs {
    let mut state_ms = [0.0; macs_runtime::NUM_STATES];
    for w in &out.report.workers {
        for (acc, d) in state_ms.iter_mut().zip(w.clock.totals) {
            *acc += ms(d);
        }
    }
    RtObs {
        nodes: out.nodes as f64,
        outside_ms: ms(wall.saturating_sub(out.report.wall)),
        state_ms,
        steals: out.report.steal_totals(),
        polls: out.report.workers.iter().map(|w| w.polls).sum(),
    }
}

/// Every per-layer metric starts at 0: a layer a workload does not run
/// reports no work.
fn zero_per_layer(v: &mut Values) {
    for m in crate::metrics::PER_LAYER {
        v.set(m.name, 0.0);
    }
}

/// The unit costs every workload reports: layers whose cost does not
/// depend on the instance beyond its store size.
fn common_probes(v: &mut Values, words: usize) {
    v.set("domain.mask_op_ns", layers::mask_op_ns());
    let (push_pop, release, steal) = layers::pool_ns(words);
    v.set("pool.push_pop_ns", push_pop);
    v.set("pool.release_ns", release);
    v.set("pool.steal_ns", steal);
    v.set("gpi.round_trip_ns", layers::round_trip_ns(words));
    let (detect_s, _) = setup_window(MachineTopology::detect);
    v.set("topo.detect_us", detect_s * 1e6);
}

/// Median self time of each layer's spans.
fn self_times(v: &mut Values, tr: &Tracer) {
    for (layer, ns) in tr.self_ns_by_layer() {
        let name = match layer {
            "bench" => "self.bench_us",
            "core" => "self.core_us",
            "sim" => "self.sim_us",
            "service" => "self.service_us",
            _ => continue,
        };
        v.set(name, median(&ns) / 1e3);
    }
}

/// Median wall time of `reps` sequential solves, in ms, and the last result.
fn seq_baseline(prob: &CompiledProblem, reps: usize) -> (f64, macs_core::SeqResult) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = solve_seq(prob, &SeqOptions::default());
        times.push(ms(t.elapsed()));
        last = Some(r);
    }
    (median(&times), last.expect("at least one solve"))
}

pub fn run(w: Workload, seed: u64, secs: f64, traced: bool) -> Run {
    match w {
        Workload::QueensLocal | Workload::QapRemote => solve_workload(w, seed, secs, traced),
        Workload::Sim4k => sim_workload(seed, secs, traced),
        Workload::SvcOpen => svc_workload(seed, secs, traced),
    }
}

/// Set-up of the threaded solve workloads: the compiled problem and the
/// solver configuration.
struct SolveSetup {
    prob: CompiledProblem,
    cfg: SolverConfig,
}

fn solve_setup(w: Workload, tr: &mut Tracer) -> SolveSetup {
    match w {
        Workload::QueensLocal => {
            let prob = tr.span("problems.compile", None, || {
                queens(QUEENS_N, QueensModel::Pairwise)
            });
            let topology = tr.span("topo.detect", None, MachineTopology::detect);
            let cfg = SolverConfig {
                runtime: RuntimeConfig {
                    topology,
                    ..RuntimeConfig::default()
                },
                ..SolverConfig::default()
            };
            SolveSetup { prob, cfg }
        }
        Workload::QapRemote => {
            let prob = tr.span("problems.compile", None, || {
                qap_model(&QapInstance::esc16e().sub_instance(QAP_N))
            });
            let cfg =
                SolverConfig::hierarchical(&[2, 1], 1).expect("2 nodes x 1 core is a valid shape");
            SolveSetup { prob, cfg }
        }
        _ => unreachable!("not a threaded solve workload"),
    }
}

fn solve_workload(w: Workload, seed: u64, secs: f64, traced: bool) -> Run {
    let mut tr = Tracer::new(traced);
    // The answer, computed apart from the solver.
    let qap_ref = (w == Workload::QapRemote).then(|| {
        let q = Qap::parse(check::ESC16E_DAT)
            .expect("esc16e text parses")
            .leading(QAP_N);
        let opt = q.optimum();
        (q, opt)
    });
    let expected_solutions = check::QUEENS_A000170[QUEENS_N];
    let check_outcome = |out: &macs_core::SolveOutcome| -> bool {
        match &qap_ref {
            None => out.solutions == expected_solutions,
            Some((q, opt)) => {
                let perm: Option<Vec<i64>> = out
                    .best_assignment
                    .as_ref()
                    .map(|a| a.iter().map(|&v| v as i64).collect());
                out.best_cost == Some(*opt) && perm.and_then(|p| q.cost(&p)) == Some(*opt)
            }
        }
    };

    let s = solve_setup(w, &mut tr);
    let workers = s.cfg.runtime.workers();

    let mut obs: Vec<RtObs> = Vec::new();
    let (min_ops, round) = if traced { (20, 2) } else { (MIN_OPS, 1) };
    let t = closed_loop(
        &mut tr,
        secs,
        min_ops,
        round,
        &mut |tr, i| {
            if traced {
                tr.set_on(traced_op(i, 1));
            }
            let mut cfg = s.cfg.clone();
            cfg.runtime.seed = mix(seed, i);
            let op = tr.open("bench.op", None);
            let span = tr.open("core.solve_parallel", op);
            let t = Instant::now();
            let out = solve_parallel(&s.prob, &cfg);
            let wall = t.elapsed();
            tr.close(span);
            let ok = check_outcome(&out);
            if op.is_some() {
                obs.push(observe(&out, wall));
            }
            tr.close(op);
            (ms(wall), ok)
        },
        &mut |tr| {
            std::hint::black_box(solve_setup(w, tr));
        },
    );

    let mut v = Values::default();
    if !traced {
        end_to_end(&mut v, median(&t.setup_s), &t);
        return Run {
            correct: t.failed == 0,
            attempted: t.attempted,
            failed: t.failed,
            values: v,
            tracer: tr,
        };
    }

    tr.set_on(false);
    let (on_ms, off_ms) = t.on_off(1);
    zero_per_layer(&mut v);
    common_probes(&mut v, s.prob.layout.store_words());
    self_times(&mut v, &tr);
    per_setup_span(&mut v, &tr, "problems.compile", "problems.compile_us");

    let p50 = median(&off_ms);
    let incumbent = qap_ref.as_ref().map_or(i64::MAX, |(_, opt)| opt + 1);
    v.set(
        "engine.fixpoint_ns",
        layers::fixpoint_ns(&s.prob, incumbent),
    );
    let (seq_ms, seq) = seq_baseline(&s.prob, 3);
    v.set("engine.seq_solve_ms", seq_ms);
    let step_ns = layers::step_ns(&[&s.prob], 100_000);
    v.set("search.step_ns", step_ns);
    let nodes = median(&obs.iter().map(|o| o.nodes).collect::<Vec<_>>());
    v.set("search.nodes", nodes);
    v.set("search.node_ratio", nodes / seq.nodes as f64);

    let n = obs.len() as f64;
    let mean_state = |st: WorkerState| obs.iter().map(|o| o.state_ms[st as usize]).sum::<f64>() / n;
    v.set("runtime.working_ms", mean_state(WorkerState::Working));
    v.set("runtime.searching_ms", mean_state(WorkerState::Searching));
    v.set("runtime.releasing_ms", mean_state(WorkerState::Releasing));
    v.set("runtime.poll_ms", mean_state(WorkerState::Poll));
    v.set("runtime.idle_ms", mean_state(WorkerState::Idle));
    v.set(
        "runtime.wait_remote_ms",
        mean_state(WorkerState::WaitRemote),
    );
    let sum = |f: &dyn Fn(&RtObs) -> u64| obs.iter().map(f).sum::<u64>() as f64;
    v.set("runtime.local_steals", sum(&|o| o.steals.0) / n);
    v.set("runtime.remote_steals", sum(&|o| o.steals.2) / n);
    v.set("runtime.polls", sum(&|o| o.polls) / n);
    let hits = sum(&|o| o.steals.0 + o.steals.2);
    let tries = hits + sum(&|o| o.steals.1 + o.steals.3);
    v.set(
        "runtime.steal_hit_ratio",
        if tries > 0.0 { hits / tries } else { 0.0 },
    );
    let mut one = s.cfg.clone();
    one.runtime = RuntimeConfig::single_node(1);
    let one_ms = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                let out = solve_parallel(&s.prob, &one);
                assert!(check_outcome(&out), "one-worker solve disagrees");
                ms(t.elapsed())
            })
            .collect::<Vec<_>>(),
    );
    v.set("runtime.speedup", one_ms / p50);
    v.set(
        "runtime.residue_ms",
        p50 - step_ns * nodes / workers as f64 / 1e6,
    );
    v.set(
        "core.outside_runtime_ms",
        median(&obs.iter().map(|o| o.outside_ms).collect::<Vec<_>>()),
    );
    v.set("bench.trace_overhead_ms", median(&on_ms) - p50);
    Run {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        values: v,
        tracer: tr,
    }
}

/// Median duration, in µs, of the spans named `span`.
fn per_setup_span(v: &mut Values, tr: &Tracer, span: &str, metric: &'static str) {
    let us: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == span)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if !us.is_empty() {
        v.set(metric, median(&us));
    }
}

fn end_to_end(v: &mut Values, setup_s: f64, t: &Timed) {
    v.set("setup_s", setup_s);
    v.set("p50_ms", t.p50());
    let (pct, tail_ms) = tail(&t.ms).expect("a run times at least forty operations");
    let (q1, q3) = quartiles(&t.ms);
    eprintln!(
        "{} operations: p50 {:.3} ms (quartiles {q1:.3}, {q3:.3}), p{pct:.1} {tail_ms:.3} ms",
        t.ms.len(),
        t.p50()
    );
    v.set("tail_ms", tail_ms);
    v.set("peak_rss_mb", peak_rss_mb());
}

/// Simulator figures of one run.
#[derive(Clone, Copy)]
struct SimObs {
    events: f64,
    events_per_s: f64,
    peak_live: f64,
    steals_d: [f64; 5],
    remote_steals: f64,
    queue_ms: f64,
    makespan_ms: f64,
    items: f64,
}

/// Set-up of `sim-4k`: the compiled problem and the simulator's
/// configuration with the cost model loaded from its file.
fn sim_setup(tr: &mut Tracer) -> (CompiledProblem, SimConfig) {
    let prob = tr.span("problems.compile", None, || {
        queens(QUEENS_N, QueensModel::Pairwise)
    });
    let topo =
        MachineTopology::try_new(&SIM_SHAPE, SIM_NODE_PREFIX).expect("valid 4096-core shape");
    let mut cfg = SimConfig::new(topo);
    tr.span("sim.load_cost_model", None, || {
        cfg.load_cost_model(Path::new(SIM_COST_FILE))
    })
    .expect("the benchmark's cost-model file loads");
    cfg.fabric = FabricModel::Contention(ContentionParams::default());
    (prob, cfg)
}

fn sim_workload(seed: u64, secs: f64, traced: bool) -> Run {
    let mut tr = Tracer::new(traced);
    let expected_solutions = check::QUEENS_A000170[QUEENS_N];
    let (prob, cfg) = sim_setup(&mut tr);
    let root = CpProcessor::root_item(&prob);
    let words = prob.layout.store_words();

    let mut obs: Vec<SimObs> = Vec::new();
    let mut prev_digest = 0u64;
    // Operations come in pairs with one seed; the second must reproduce
    // the first's digest.
    let (min_ops, round) = if traced { (8, 4) } else { (MIN_OPS, 2) };
    let t = closed_loop(
        &mut tr,
        secs,
        min_ops,
        round,
        &mut |tr, i| {
            if traced {
                tr.set_on(traced_op(i, 2));
            }
            let mut c = cfg.clone();
            c.seed = mix(seed, i / 2);
            let op = tr.open("bench.op", None);
            let span = tr.open("sim.simulate_macs", op);
            let t = Instant::now();
            let r = simulate_macs(&c, words, std::slice::from_ref(&root), |_| {
                CpProcessor::new(&prob, 1, macs_core::SearchMode::Exhaustive)
            });
            let wall = t.elapsed();
            tr.close(span);
            let digest = r.digest();
            let mut ok = r.total_solutions() == expected_solutions;
            if i % 2 == 1 {
                ok &= digest == prev_digest;
            }
            prev_digest = digest;
            if op.is_some() {
                let h = r.steal_distance_histogram();
                let mut steals_d = [0.0; 5];
                for (d, s) in steals_d.iter_mut().enumerate() {
                    *s = h.counts[d + 1] as f64;
                }
                obs.push(SimObs {
                    events: r.events as f64,
                    events_per_s: r.events as f64 / wall.as_secs_f64(),
                    peak_live: r.peak_live_items as f64,
                    steals_d,
                    remote_steals: r.steal_totals().2 as f64,
                    queue_ms: r.fabric.total_queue_ns as f64 / 1e6,
                    makespan_ms: r.makespan_ns as f64 / 1e6,
                    items: r.total_items() as f64,
                });
            }
            tr.close(op);
            (ms(wall), ok)
        },
        &mut |tr| {
            std::hint::black_box(sim_setup(tr));
        },
    );

    let mut v = Values::default();
    if !traced {
        end_to_end(&mut v, median(&t.setup_s), &t);
        return Run {
            correct: t.failed == 0,
            attempted: t.attempted,
            failed: t.failed,
            values: v,
            tracer: tr,
        };
    }
    tr.set_on(false);
    let (on_ms, off_ms) = t.on_off(2);
    zero_per_layer(&mut v);
    common_probes(&mut v, words);
    self_times(&mut v, &tr);
    per_setup_span(&mut v, &tr, "problems.compile", "problems.compile_us");
    per_setup_span(&mut v, &tr, "sim.load_cost_model", "sim.cost_load_us");
    v.set("engine.fixpoint_ns", layers::fixpoint_ns(&prob, i64::MAX));
    let (seq_ms, seq) = seq_baseline(&prob, 3);
    v.set("engine.seq_solve_ms", seq_ms);
    v.set("search.step_ns", layers::step_ns(&[&prob], 100_000));
    let med = |f: &dyn Fn(&SimObs) -> f64| median(&obs.iter().map(f).collect::<Vec<_>>());
    let items = med(&|o| o.items);
    v.set("search.nodes", items);
    v.set("search.node_ratio", items / seq.nodes as f64);
    v.set("sim.virtual_makespan_ms", med(&|o| o.makespan_ms));
    v.set("sim.events", med(&|o| o.events));
    v.set("sim.events_per_s", med(&|o| o.events_per_s));
    v.set("sim.peak_live_items", med(&|o| o.peak_live));
    for (d, name) in [
        "sim.steals_d1",
        "sim.steals_d2",
        "sim.steals_d3",
        "sim.steals_d4",
        "sim.steals_d5",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(name, med(&|o| o.steals_d[d]));
    }
    v.set("sim.remote_steals", med(&|o| o.remote_steals));
    v.set("sim.fabric_queue_ms", med(&|o| o.queue_ms));
    v.set("bench.trace_overhead_ms", median(&on_ms) - median(&off_ms));
    Run {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        values: v,
        tracer: tr,
    }
}

/// The answers each service class must return, computed apart from the
/// solver.
struct ClassAnswers {
    queens8: u64,
    golomb7: i64,
    myciel3_k4: u64,
    esc16e_9: i64,
}

impl ClassAnswers {
    fn compute() -> ClassAnswers {
        let (n, edges) = check::parse_col(check::MYCIEL3_COL).expect("myciel3 text parses");
        ClassAnswers {
            queens8: check::QUEENS_A000170[8],
            golomb7: *check::shortest_golomb(7).last().expect("seven marks"),
            myciel3_k4: check::count_colourings(n, &edges, 4),
            esc16e_9: Qap::parse(check::ESC16E_DAT)
                .expect("esc16e text parses")
                .leading(9)
                .optimum(),
        }
    }

    fn check(&self, class: usize, a: &macs_service::JobAnswer) -> bool {
        match class {
            0 => a.solutions == self.queens8,
            1 => a.best_cost == Some(self.golomb7),
            2 => a.solutions == self.myciel3_k4,
            3 => a.best_cost == Some(self.esc16e_9),
            _ => false,
        }
    }
}

/// The open-loop trace: Poisson arrivals at [`SVC_RATE`] covering the
/// warm-up and `secs` of measurement, with at least [`MIN_OPS`] measured
/// jobs. Returns the trace and the index of the first measured job.
fn svc_trace(seed: u64, secs: f64, min_measured: usize) -> (Vec<JobSpec>, usize) {
    let warm_ns = SVC_WARMUP.as_nanos() as u64;
    let end_ns = warm_ns + (secs * 1e9) as u64;
    let mut jobs =
        ((SVC_RATE * (SVC_WARMUP.as_secs_f64() + secs)) * 1.5) as usize + 2 * min_measured;
    loop {
        let trace = generate(&WorkloadConfig {
            jobs,
            tenants: SVC_TENANTS,
            mean_interarrival_ns: (1e9 / SVC_RATE) as u64,
            seed,
        });
        let first = trace
            .iter()
            .position(|j| j.arrival_ns >= warm_ns)
            .unwrap_or(trace.len());
        let mut last = trace
            .iter()
            .position(|j| j.arrival_ns >= end_ns)
            .unwrap_or(trace.len());
        last = last.max(first + min_measured);
        if last < trace.len() {
            return (trace[..last].to_vec(), first);
        }
        jobs *= 2;
    }
}

fn svc_workload(seed: u64, secs: f64, traced: bool) -> Run {
    let mut tr = Tracer::new(traced);
    let answers = ClassAnswers::compute();
    let (setup_s, cfg) = setup_window(|| {
        std::hint::black_box(tr.span("problems.compile", None, || {
            (0..NUM_CLASSES).map(build_class).collect::<Vec<_>>()
        }));
        let mut cfg = ServiceConfig::new(2, 1);
        cfg.policy = LeasePolicy::QueueDepth { min: 1, max: 2 };
        // Admission never refuses at this load: an open-loop latency
        // figure needs every offered job served.
        cfg.queue_cap = 1 << 16;
        cfg
    });

    struct Served {
        t: Timed,
        correct: bool,
        report: ServiceReport,
        first: usize,
        traced: bool,
    }
    let serve = |tr: &mut Tracer, seed: u64, secs: f64, min_ops: usize| -> Served {
        let (trace, first) = svc_trace(seed, secs, min_ops);
        let op = tr.open("bench.op", None);
        let span = tr.open("service.serve", op);
        let report = ThreadedBackend { time_scale: 1 }.serve(&cfg, &trace);
        tr.close(span);
        let mut t = Timed::default();
        for r in &report.records[first..] {
            t.attempted += 1;
            t.failed += u64::from(r.rejected || !answers.check(r.class, &r.answer));
            // Sojourn from the job's due time, as the tenant sees it.
            t.ms.push(r.sojourn_ns() as f64 / 1e6);
        }
        let correct = report.violations.is_empty()
            && report.completed() + report.rejected() == trace.len() as u64;
        if !report.violations.is_empty() {
            eprintln!("service violations: {:?}", report.violations);
        }
        tr.close(op);
        Served {
            t,
            correct,
            report,
            first,
            traced: op.is_some(),
        }
    };

    let mut v = Values::default();
    if !traced {
        let s = serve(&mut tr, seed, secs, MIN_OPS as usize);
        end_to_end(&mut v, setup_s, &s.t);
        return Run {
            correct: s.correct && s.t.failed == 0,
            attempted: s.t.attempted,
            failed: s.t.failed,
            values: v,
            tracer: tr,
        };
    }
    // Tracing alternates on and off over four quarter-length serves of one
    // trace, so the overhead is measured within one stretch of the host's
    // phases.
    let quarters: Vec<Served> = (0..4)
        .map(|k| {
            tr.set_on(k % 2 == 0);
            serve(&mut tr, seed, secs / 4.0, 10)
        })
        .collect();
    tr.set_on(false);
    let (traced_q, plain_q): (Vec<_>, Vec<_>) = quarters.iter().partition(|q| q.traced);
    zero_per_layer(&mut v);
    let probs: Vec<CompiledProblem> = (0..NUM_CLASSES).map(build_class).collect();
    let words = probs
        .iter()
        .map(|p| p.layout.store_words())
        .max()
        .expect("classes");
    common_probes(&mut v, words);
    self_times(&mut v, &tr);
    per_setup_span(&mut v, &tr, "problems.compile", "problems.compile_us");
    let fix: Vec<f64> = probs
        .iter()
        .map(|p| layers::fixpoint_ns(p, i64::MAX))
        .collect();
    v.set("engine.fixpoint_ns", median(&fix));
    let refs: Vec<&CompiledProblem> = probs.iter().collect();
    v.set("search.step_ns", layers::step_ns(&refs, 100_000));

    let measured: Vec<_> = traced_q
        .iter()
        .flat_map(|q| &q.report.records[q.first..])
        .collect();
    let seq: Vec<(f64, f64)> = probs
        .iter()
        .map(|p| {
            let (t, r) = seq_baseline(p, 3);
            (t, r.nodes as f64)
        })
        .collect();
    let jobs = measured.len() as f64;
    v.set(
        "engine.seq_solve_ms",
        measured.iter().map(|r| seq[r.class].0).sum::<f64>() / jobs,
    );
    let nodes: Vec<f64> = measured.iter().map(|r| r.answer.nodes as f64).collect();
    v.set("search.nodes", median(&nodes));
    v.set(
        "search.node_ratio",
        nodes.iter().sum::<f64>() / measured.iter().map(|r| seq[r.class].1).sum::<f64>(),
    );
    let waits: Vec<f64> = measured.iter().map(|r| r.wait_ns() as f64 / 1e6).collect();
    let runs: Vec<f64> = measured
        .iter()
        .map(|r| (r.finish_ns - r.start_ns) as f64 / 1e6)
        .collect();
    v.set("service.wait_ms", median(&waits));
    v.set("service.run_ms", median(&runs));
    v.set(
        "service.resizes",
        measured.iter().map(|r| r.resizes as f64).sum::<f64>(),
    );
    v.set(
        "service.max_queue_depth",
        traced_q
            .iter()
            .map(|q| q.report.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    let (trace, _) = svc_trace(seed, secs / 4.0, 10);
    v.set("service.sched_ns", layers::sched_ns(&cfg, &trace));
    let sojourns =
        |qs: &[&Served]| median(&qs.iter().flat_map(|q| q.t.ms.clone()).collect::<Vec<_>>());
    v.set(
        "bench.trace_overhead_ms",
        sojourns(&traced_q) - sojourns(&plain_q),
    );
    let failed = quarters.iter().map(|q| q.t.failed).sum::<u64>();
    Run {
        correct: quarters.iter().all(|q| q.correct) && failed == 0,
        attempted: quarters.iter().map(|q| q.t.attempted).sum(),
        failed,
        values: v,
        tracer: tr,
    }
}
