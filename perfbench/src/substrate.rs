//! Runtime-substrate microbenchmarks, driven through `commset_runtime`'s
//! public types: the SPSC queue's batch operations, the sharded world's
//! single-shard fast path, delta-buffer apply plus coalesce, an STM commit
//! and a raw lock's acquire/release pair. Each figure is the median of
//! several batches, in nanoseconds per operation.

use crate::stats::median;
use commset_runtime::lock::{LockKind, RawLock};
use commset_runtime::stm::Stm;
use commset_runtime::{
    DeltaBuffer, IntrinsicOutcome, MergeSpec, Registry, ShardObserver, ShardedWorld, SlotBinding,
    SpscQueue, Value, World,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per figure.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of `f(ops)`'s wall time per op, in ns.
fn ns_per_op(ops: u64, mut f: impl FnMut(u64)) -> f64 {
    f(ops / 10); // warm caches and lazily built state
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            f(ops);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Values moved through an SPSC queue in batches of 8: across two threads
/// when the host has two hardware threads, else interleaved on one.
fn spsc_ns_per_value(values: u64) -> f64 {
    let two_threads = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    ns_per_op(values, |n| {
        let q: SpscQueue<u64> = SpscQueue::new(256);
        let batch: Vec<u64> = (0..8).collect();
        let mut out = Vec::with_capacity(8);
        let mut received = 0u64;
        let drain = |out: &mut Vec<u64>, received: &mut u64| {
            out.clear();
            let got = q.pop_n(out, 8);
            *received += got as u64;
            black_box(&out);
            got
        };
        if two_threads {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut sent = 0u64;
                    while sent < n {
                        let want = (n - sent).min(8) as usize;
                        match q.push_n(&batch[..want]) {
                            0 => std::thread::yield_now(),
                            k => sent += k as u64,
                        }
                    }
                });
                while received < n {
                    if drain(&mut out, &mut received) == 0 {
                        std::hint::spin_loop();
                    }
                }
            });
        } else {
            while received < n {
                let want = (n - received).min(8) as usize;
                let pushed = q.push_n(&batch[..want]);
                while drain(&mut out, &mut received) > 0 {}
                debug_assert_eq!(pushed, want);
            }
        }
    })
}

/// A registry with one counter intrinsic bound to a single slot, merge
/// declared so it can also run against a delta buffer.
fn counter_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register("bump", |w: &mut World, args: &[Value]| {
        let c = w.get_mut::<i64>("ctr");
        *c += args[0].as_int();
        IntrinsicOutcome::value(*c)
    });
    reg.bind("bump", vec![SlotBinding::Fixed("ctr".to_string())]);
    reg.declare_merge("ctr", MergeSpec::add_i64());
    reg
}

fn counter_world() -> ShardedWorld {
    let mut w = World::new();
    w.install("ctr", 0i64);
    for k in 0..32 {
        w.install(&format!("pad{k}"), 0i64);
    }
    ShardedWorld::partition(w, commset_runtime::WORLD_STRIPES)
}

/// One bound intrinsic call through the sharded world's fast path.
fn shard_call_ns(calls: u64) -> f64 {
    let reg = counter_registry();
    let world = counter_world();
    let args = [Value::Int(1)];
    let obs = ShardObserver::silent();
    ns_per_op(calls, |n| {
        for _ in 0..n {
            black_box(world.call(&reg, "bump", black_box(&args), &obs));
        }
    })
}

/// One call applied to a private delta buffer, with the buffer's coalesce
/// into the sharded world charged across the batch.
fn delta_apply_ns(calls: u64) -> f64 {
    let reg = counter_registry();
    let world = counter_world();
    let args = [Value::Int(1)];
    let slots = vec!["ctr".to_string()];
    ns_per_op(calls, |n| {
        let mut buf = DeltaBuffer::new();
        for _ in 0..n {
            black_box(buf.apply(&reg, "bump", black_box(&args), &slots));
        }
        black_box(world.coalesce_delta(&reg, buf));
    })
}

/// One read-modify-write transaction committed on an uncontended heap.
fn stm_commit_ns(commits: u64) -> f64 {
    let stm = Stm::new(16);
    ns_per_op(commits, |n| {
        for i in 0..n {
            let cell = (i % 16) as usize;
            let (_, aborts) = stm.atomically(|tx| {
                if let Ok(v) = tx.read(cell) {
                    tx.write(cell, v + 1);
                }
            });
            black_box(aborts);
        }
    })
}

/// One uncontended acquire/release pair of the blocking (Mutex) raw lock.
fn lock_pair_ns(pairs: u64) -> f64 {
    let lock = RawLock::new(LockKind::Mutex);
    ns_per_op(pairs, |n| {
        for _ in 0..n {
            lock.acquire();
            lock.release();
        }
    })
}

/// Every substrate figure, as `(metric, ns per op)`.
pub fn run() -> Vec<(&'static str, f64)> {
    vec![
        ("runtime.spsc_ns_per_value", spsc_ns_per_value(200_000)),
        ("runtime.shard_call_ns", shard_call_ns(100_000)),
        ("runtime.delta_apply_ns", delta_apply_ns(100_000)),
        ("runtime.stm_commit_ns", stm_commit_ns(50_000)),
        ("runtime.lock_pair_ns", lock_pair_ns(200_000)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_is_positive_and_finite() {
        for (name, v) in [
            ("spsc", spsc_ns_per_value(2_000)),
            ("shard", shard_call_ns(1_000)),
            ("delta", delta_apply_ns(1_000)),
            ("stm", stm_commit_ns(1_000)),
            ("lock", lock_pair_ns(1_000)),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name}: {v}");
        }
    }
}
