//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//! scheduler decision throughput, cache eviction under churn, dependency
//! resolution of the paper-sized environment, and fluid-pool bookkeeping
//! at L1-scale flow counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vine_core::context::LibrarySpec;
use vine_core::ids::{ContentHash, InvocationId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, UnitId, WorkUnit};
use vine_core::SimTime;
use vine_data::WorkerCache;
use vine_env::catalog;
use vine_manager::{Decision, Manager};
use vine_sim::engine::FluidPool;

/// Manager decision throughput: the single-threaded manager loop is the
/// paper's bottleneck at L1/L2 — ours had better be fast.
fn bench_scheduler_throughput(c: &mut Criterion) {
    c.bench_function("manager_dispatch_1000_calls", |b| {
        b.iter_with_setup(
            || {
                let mut m = Manager::new();
                let mut spec = LibrarySpec::new("lnni");
                spec.functions = vec!["infer".into()];
                spec.resources = Some(Resources::lnni_invocation());
                spec.slots = Some(1);
                m.register_library(spec);
                for w in 0..64u32 {
                    m.worker_joined(WorkerId(w), Resources::paper_worker());
                }
                for i in 0..1000u64 {
                    let mut call = FunctionCall::new(InvocationId(i), "lnni", "infer", vec![]);
                    call.resources = Resources::lnni_invocation();
                    m.submit(WorkUnit::Call(call));
                }
                m
            },
            |mut m| {
                let mut done = 0u32;
                while let Some(d) = m.next_decision() {
                    match d {
                        Decision::InstallLibrary {
                            worker, instance, ..
                        } => {
                            m.library_ready(worker, instance).unwrap();
                        }
                        Decision::DispatchCall { worker, call, .. } => {
                            // complete immediately: measures pure
                            // scheduling bookkeeping
                            m.unit_finished(worker, UnitId::Call(call.id)).unwrap();
                            done += 1;
                        }
                        _ => {}
                    }
                }
                black_box(done)
            },
        )
    });
}

/// Cache churn: LRU insert/evict/pin at worker-disk scale.
fn bench_cache_churn(c: &mut Criterion) {
    c.bench_function("worker_cache_churn_10k", |b| {
        b.iter(|| {
            let mut cache = WorkerCache::new(1 << 30);
            for i in 0u64..10_000 {
                let h = ContentHash::of_bytes(&i.to_le_bytes());
                cache.insert(h, (i % 997 + 1) * 4096).unwrap();
                if i % 3 == 0 {
                    let _ = cache.lookup(h);
                }
            }
            black_box(cache.used())
        })
    });
}

/// Dependency resolution of the paper's 144-package LNNI environment —
/// what the discover mechanism runs per library creation.
fn bench_resolver(c: &mut Criterion) {
    let registry = catalog::standard_registry();
    c.bench_function("resolve_lnni_144_packages", |b| {
        b.iter(|| black_box(vine_env::resolve(&registry, &catalog::lnni_requirements()).unwrap()))
    });
    c.bench_function("pack_lnni_environment", |b| {
        let res = vine_env::resolve(&registry, &catalog::lnni_requirements()).unwrap();
        b.iter(|| black_box(vine_env::pack("lnni-env", &res)))
    });
}

/// Fluid-pool bookkeeping at the L1 run's concurrency (≈300 concurrent
/// shared-FS flows): add/advance/complete cycles.
fn bench_fluid_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_pool_cycle");
    for flows in [30usize, 300] {
        group.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, flows| {
            b.iter(|| {
                let mut pool = FluidPool::new(10.5e9, 36.0e6);
                let mut t = SimTime::ZERO;
                for i in 0..*flows {
                    pool.add(t, i as u64, 340.0e6);
                    t += vine_core::SimDuration::from_millis(1);
                }
                let mut completed = 0;
                while completed < *flows {
                    let Some(next) = pool.next_completion(t) else {
                        break;
                    };
                    t = next;
                    completed += pool.take_completed(t).len();
                }
                black_box(completed)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scheduler_throughput,
    bench_cache_churn,
    bench_resolver,
    bench_fluid_pool
);
criterion_main!(benches);
