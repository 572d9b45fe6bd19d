//! Unit costs of single layers, measured by driving each layer's public
//! functions directly on the workload's own instance.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use macs_domain::bits;
use macs_engine::{CompiledProblem, Engine, ScheduleSeed};
use macs_gpi::{Interconnect, LatencyModel};
use macs_pool::{SplitPool, RESP_PENDING};
use macs_search::{LocalIncumbent, SearchKernel, StepOutcome, WorkItem};
use macs_service::{Action, JobSpec, SchedCore, ServiceConfig};

use crate::stats::median;

const BATCHES: usize = 7;

/// Median over [`BATCHES`] runs of `batch` (which performs `ops`
/// operations) of the time per operation, in nanoseconds.
fn per_op_ns(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy allocations
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// One changed-word-masked intersect over a 512-value domain block
/// (8 words), the operation the propagators' change log is built on.
pub fn mask_op_ns() -> f64 {
    const OPS: u64 = 200_000;
    let max = 511;
    let mut full = vec![0u64; bits::words_for(max)];
    bits::fill_full(&mut full, max);
    let mut other = full.clone();
    bits::remove(&mut other, 130);
    let mut dom = full.clone();
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            dom.copy_from_slice(&full);
            black_box(bits::intersect_masked(
                black_box(&mut dom),
                black_box(&other),
            ));
        }
    })
}

/// Stores met by a depth-first drive of `prob`'s tree: every `stride`-th
/// store taken off the stack, before it is processed.
fn sample_stores(prob: &CompiledProblem, stride: u64, want: usize) -> Vec<Vec<u64>> {
    let mut kernel = SearchKernel::new(prob);
    kernel.set_timing(false);
    let inc = LocalIncumbent::new();
    let mut stack: VecDeque<WorkItem> = VecDeque::new();
    stack.push_back(kernel.alloc_root());
    let mut out = Vec::new();
    let mut seen = 0u64;
    while let Some(mut store) = stack.pop_back() {
        if seen.is_multiple_of(stride) {
            out.push(store.to_vec());
            if out.len() == want {
                break;
            }
        }
        seen += 1;
        if let StepOutcome::Children(_) = kernel.step(&mut store, &inc) {
            kernel.push_children(&mut stack);
        }
        kernel.recycle(store);
    }
    out
}

/// One `Engine::propagate` to fixpoint, from every propagator, on stores
/// sampled from the workload's own tree, under `incumbent`.
pub fn fixpoint_ns(prob: &CompiledProblem, incumbent: i64) -> f64 {
    let stores = sample_stores(prob, 97, 256);
    let mut engine = Engine::new(prob);
    let mut buf = vec![0u64; prob.layout.store_words()];
    per_op_ns(stores.len() as u64 * 8, || {
        for _ in 0..8 {
            for s in &stores {
                buf.copy_from_slice(s);
                black_box(engine.propagate(prob, &mut buf, incumbent, ScheduleSeed::All));
            }
        }
    })
}

/// One `SearchKernel::step`, driven depth-first from one thread with the
/// kernel's phase timers off, over up to `budget` nodes of each problem.
pub fn step_ns(probs: &[&CompiledProblem], budget: u64) -> f64 {
    let drive = |prob: &CompiledProblem| -> u64 {
        let mut kernel = SearchKernel::new(prob);
        kernel.set_timing(false);
        let inc = LocalIncumbent::new();
        let mut stack: VecDeque<WorkItem> = VecDeque::new();
        stack.push_back(kernel.alloc_root());
        let mut nodes = 0;
        while nodes < budget {
            let Some(mut store) = stack.pop_back() else {
                break;
            };
            nodes += 1;
            if let StepOutcome::Children(_) = kernel.step(&mut store, &inc) {
                kernel.push_children(&mut stack);
            }
            kernel.recycle(store);
        }
        nodes
    };
    let steps: u64 = probs.iter().map(|p| drive(p)).sum();
    per_op_ns(steps, || {
        for p in probs {
            black_box(drive(p));
        }
    })
}

/// Uncontended pool operations on slots of `words` words:
/// (push + private pop, release + reacquire of two items, steal of eight).
pub fn pool_ns(words: usize) -> (f64, f64, f64) {
    const OPS: u64 = 100_000;
    let item = vec![7u64; words];
    let mut out = vec![0u64; words];
    let pool = SplitPool::new(1024, words);
    let push_pop = per_op_ns(OPS, || {
        for _ in 0..OPS {
            pool.push(black_box(&item));
            pool.pop_private(black_box(&mut out));
        }
    });
    pool.push(&item);
    pool.push(&item);
    let release = per_op_ns(OPS, || {
        for _ in 0..OPS {
            black_box(pool.release(2));
            black_box(pool.reacquire(2));
        }
    });

    const STEALS: u64 = 512;
    let big = SplitPool::new(8 * STEALS as usize, words);
    let mut steal_samples = Vec::new();
    for _ in 0..BATCHES {
        for _ in 0..8 * STEALS {
            big.push(&item);
        }
        big.release(8 * STEALS);
        let t = Instant::now();
        for _ in 0..STEALS {
            black_box(big.steal(8, |s| {
                black_box(s[0]);
            }));
        }
        steal_samples.push(t.elapsed().as_nanos() as f64 / STEALS as f64);
    }
    (push_pop, release, median(&steal_samples))
}

/// One remote-steal round trip between two threads through the pools'
/// one-sided mailbox: the thief posts a request, the victim writes one
/// item in place and the response word, the thief adopts and pops it.
pub fn round_trip_ns(words: usize) -> f64 {
    const TRIPS: u64 = 20_000;
    let ic = Interconnect::new(LatencyModel::zero());
    let thief = SplitPool::new(64, words);
    let victim = SplitPool::new(64, words);
    let stop = AtomicBool::new(false);
    let item = vec![3u64; words];
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if victim.pending_request().is_some() {
                    let head = thief.meta_remote(&ic).head;
                    thief.write_slots_remote(&ic, head, &item);
                    victim.clear_request();
                    thief.write_response_remote(&ic, 1);
                }
                std::hint::spin_loop();
            }
        });
        let mut buf = vec![0u64; words];
        let ns = per_op_ns(TRIPS, || {
            for _ in 0..TRIPS {
                thief.reset_response();
                while !victim.try_post_request_remote(&ic, 0) {
                    std::hint::spin_loop();
                }
                let n = loop {
                    match thief.response() {
                        RESP_PENDING => std::hint::spin_loop(),
                        n => break n,
                    }
                };
                thief.reset_response();
                thief.adopt_written(n);
                assert!(thief.pop_private(&mut buf), "adopted item must pop");
            }
        });
        stop.store(true, Ordering::Release);
        ns
    })
}

/// One `SchedCore::arrive` or `SchedCore::complete`, replaying `trace`
/// with each started job completing once the machine is full.
pub fn sched_ns(cfg: &ServiceConfig, trace: &[JobSpec]) -> f64 {
    let replay = || -> u64 {
        let mut core = SchedCore::new(cfg.clone());
        let mut running: VecDeque<u64> = VecDeque::new();
        let mut calls = 0;
        let note = |acts: Vec<Action>, running: &mut VecDeque<u64>| {
            for a in acts {
                if let Action::Start { job, .. } = a {
                    running.push_back(job.id);
                }
            }
        };
        for job in trace {
            note(core.arrive(*job), &mut running);
            calls += 1;
            while running.len() >= cfg.nodes {
                let id = running.pop_front().expect("non-empty");
                note(core.complete(id), &mut running);
                calls += 1;
            }
        }
        while let Some(id) = running.pop_front() {
            note(core.complete(id), &mut running);
            calls += 1;
        }
        assert!(
            core.drained() && core.violations.is_empty(),
            "scheduler replay must drain cleanly"
        );
        calls
    };
    let calls = replay();
    per_op_ns(calls, || {
        black_box(replay());
    })
}
