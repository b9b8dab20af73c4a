//! Federated-sharding simulation tests: the single-shard differential
//! (a federation of one is bit-identical to the standalone simulator),
//! routing completeness, context-locality of placement, and fault
//! forwarding.

use vine_core::config::ReuseLevel;
use vine_core::context::{ContextSpec, FileRef, LibrarySpec};
use vine_core::ids::{ContentHash, FileId, InvocationId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, UnitId, WorkProfile, WorkUnit};
use vine_sim::sharded::completed_unit_ids;
use vine_sim::{simulate, simulate_sharded, SimConfig, Workload};

/// A static L3 workload spread over many distinct libraries — the shape
/// the routing tier is built for (each library's context digest picks its
/// shard).
struct Fleet {
    libs: u32,
    count: u64,
}

impl Fleet {
    fn lib_name(l: u32) -> String {
        format!("fleet-lib-{l}")
    }

    fn unit(&self, i: u64) -> WorkUnit {
        let mut call = FunctionCall::new(
            InvocationId(i),
            Self::lib_name(i as u32 % self.libs),
            "work",
            vec![0u8; 32],
        );
        call.resources = Resources::lnni_invocation();
        call.profile = WorkProfile {
            exec_gflop: 8.0,
            output_bytes: 256,
            ..WorkProfile::zero()
        };
        WorkUnit::Call(call)
    }

    fn params(l: u32) -> FileRef {
        FileRef::new(
            FileId(100 + l as u64),
            format!("params-{l}.bin"),
            ContentHash::of_str(&format!("fleet-params-{l}")),
            5_000_000,
        )
    }
}

impl Workload for Fleet {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        (0..self.libs)
            .map(|l| {
                let mut spec = LibrarySpec::new(Self::lib_name(l));
                spec.functions = vec!["work".into()];
                spec.resources = Some(Resources::lnni_invocation());
                spec.slots = Some(1);
                spec.context = ContextSpec {
                    data: vec![Self::params(l)],
                    ..Default::default()
                };
                let setup = WorkProfile {
                    context_gflop: 5.0,
                    context_read_bytes: 5_000_000,
                    ..WorkProfile::zero()
                };
                (spec, setup)
            })
            .collect()
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        (0..self.count).map(|i| self.unit(i)).collect()
    }
}

/// A [`Fleet`] whose seventh call chains one more call on completion.
struct Chaining(Fleet);

impl Workload for Chaining {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        self.0.libraries()
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        self.0.initial_units()
    }

    fn on_complete(&mut self, unit: UnitId, _success: bool) -> Vec<WorkUnit> {
        match unit {
            UnitId::Call(InvocationId(7)) => vec![self.0.unit(self.0.count)],
            _ => Vec::new(),
        }
    }
}

#[test]
fn single_shard_federation_is_bit_identical_to_standalone() {
    let cfg = SimConfig::paper(ReuseLevel::L3, 8);
    let base = simulate(
        cfg.clone(),
        &mut Fleet {
            libs: 8,
            count: 300,
        },
    );
    let fed = simulate_sharded(
        &cfg,
        1,
        &mut Fleet {
            libs: 8,
            count: 300,
        },
    )
    .unwrap();
    assert_eq!(fed.shards.len(), 1);
    assert_eq!(fed.workers, vec![8]);
    let solo = &fed.shards[0];
    assert_eq!(
        solo.trace, base.trace,
        "federation of one must not perturb the schedule"
    );
    assert_eq!(solo.events, base.events);
    assert_eq!(solo.failed_units, base.failed_units);
    assert_eq!(fed.completed, 300);
}

#[test]
fn federation_completes_every_unit_exactly_once() {
    let cfg = SimConfig::paper(ReuseLevel::L3, 16);
    let fed = simulate_sharded(
        &cfg,
        4,
        &mut Fleet {
            libs: 32,
            count: 400,
        },
    )
    .unwrap();
    assert_eq!(fed.shards.len(), 4);
    assert_eq!(fed.failed, 0);
    let ids = completed_unit_ids(&fed);
    assert_eq!(ids.len(), 400, "nothing lost, nothing duplicated");
    assert_eq!(ids, (0..400).map(InvocationId).collect::<Vec<_>>());
    assert_eq!(
        fed.workers.iter().sum::<usize>(),
        16,
        "workers partition the fleet"
    );
    assert!(fed.workers.iter().all(|&w| w > 0));
}

#[test]
fn routing_concentrates_each_library_on_one_shard() {
    let cfg = SimConfig::paper(ReuseLevel::L3, 16);
    let fed = simulate_sharded(
        &cfg,
        4,
        &mut Fleet {
            libs: 24,
            count: 240,
        },
    )
    .unwrap();
    // a library's instances deploy only on the shard its context digest
    // hashed to — the "context concentrates where it already lives" policy
    let mut owner: std::collections::BTreeMap<String, usize> = Default::default();
    for (s, shard) in fed.shards.iter().enumerate() {
        for lib in &shard.trace.libraries {
            let prev = owner.insert(lib.library_name.clone(), s);
            assert!(
                prev.is_none_or(|p| p == s),
                "{} deployed on two shards",
                lib.library_name
            );
        }
    }
    // and with 24 libraries on 4 shards, more than one shard does work
    let busy = fed
        .shards
        .iter()
        .filter(|s| !s.trace.invocations.is_empty())
        .count();
    assert!(busy >= 2, "routing sent everything to {busy} shard(s)");
}

#[test]
fn fleet_worker_failure_is_forwarded_to_the_owning_shard() {
    let mut cfg = SimConfig::paper(ReuseLevel::L3, 8);
    // kill fleet workers 0 and 5 mid-run; whichever shards own them must
    // requeue in-flight work on their surviving partition
    cfg.fail_workers = vec![(60.0, 0), (60.0, 5)];
    let fed = simulate_sharded(
        &cfg,
        2,
        &mut Fleet {
            libs: 12,
            count: 200,
        },
    )
    .unwrap();
    assert_eq!(fed.completed, 200, "failures must not lose units");
    assert_eq!(completed_unit_ids(&fed).len(), 200);
}

#[test]
fn a_chaining_workload_is_refused_instead_of_truncated() {
    let cfg = SimConfig::paper(ReuseLevel::L3, 8);
    let err = simulate_sharded(&cfg, 2, &mut Chaining(Fleet { libs: 8, count: 40 })).unwrap_err();
    assert!(
        err.to_string()
            .contains("completing call 7 submits 1 more unit(s)"),
        "{err}"
    );
}
