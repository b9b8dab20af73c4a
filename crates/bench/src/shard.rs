//! `repro shard` — the federated-sharding experiments.
//!
//! Sim substrate: [`shard_sweep`] runs a manager-bound submission storm
//! through 1→8 scheduling shards (`vine_sim::simulate_sharded`) and
//! reports aggregate submission throughput per shard count, writing
//! `BENCH_shard.json` (labelled `"clock": "modeled"`: the times are the
//! simulator's, not wall-clock). The single-manager scheduling path
//! serializes every dispatch behind one service queue (Table 2's
//! per-invocation overhead plus pending-table scans), so sharding the
//! manager is near-linear until routing imbalance bites; per-shard
//! pending tables also shrink, which is why the scan term makes the
//! speedup slightly superlinear at full scale.
//!
//! Live substrate: [`serve_shard`] and [`route`] put the LNNI workload on
//! `vine_runtime`'s shard and router, behind `repro serve --shard` /
//! `repro route` (see DESIGN.md §6.11).

use crate::table::Table;
use vine_core::config::ReuseLevel;
use vine_core::context::LibrarySpec;
use vine_core::ids::{InvocationId, ShardId};
use vine_core::resources::Resources;
use vine_core::task::{FunctionCall, WorkProfile, WorkUnit};
use vine_core::VineError;
use vine_proto::render_shard_stats;
use vine_runtime::{Router, TcpConfig};
use vine_sim::{simulate_sharded, SimConfig, Workload};

/// Shard counts swept by `repro shard`.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A manager-bound submission storm: `n` cheap invocations spread
/// round-robin over `libs` distinct libraries. Executions are tiny, so
/// every run is limited by its managers' dispatch service rate — the
/// single-manager ownership cost this experiment isolates. Distinct
/// libraries give the router distinct function-context digests to spread
/// across the shard ring.
struct RouteStorm {
    libs: u32,
    n: u64,
}

impl RouteStorm {
    fn lib_name(l: u32) -> String {
        format!("storm-lib-{l}")
    }
}

impl Workload for RouteStorm {
    fn libraries(&self) -> Vec<(LibrarySpec, WorkProfile)> {
        (0..self.libs)
            .map(|l| {
                let mut spec = LibrarySpec::new(Self::lib_name(l));
                spec.functions = vec!["f".into()];
                spec.resources = Some(Resources::lnni_invocation());
                spec.slots = Some(1);
                // no context files: installs are cheap, so the storm
                // isolates dispatch cost rather than transfer bandwidth
                (spec, WorkProfile::zero())
            })
            .collect()
    }

    fn initial_units(&mut self) -> Vec<WorkUnit> {
        (0..self.n)
            .map(|i| {
                let mut c = FunctionCall::new(
                    InvocationId(i),
                    Self::lib_name(i as u32 % self.libs),
                    "f",
                    vec![0u8; 16],
                );
                c.resources = Resources::lnni_invocation();
                c.profile = WorkProfile {
                    exec_gflop: 0.4, // ~40 ms on a paper worker core pair
                    output_bytes: 128,
                    ..WorkProfile::zero()
                };
                WorkUnit::Call(c)
            })
            .collect()
    }
}

/// `repro shard`: sweep the federation from 1 to 8 shards over the same
/// submission storm and fleet, and measure aggregate submission
/// throughput (completed units per second of federation makespan — the
/// slowest shard closes the run).
pub fn shard_sweep(scale: f64) -> Table {
    let n = ((1_000_000f64 * scale).round() as u64).max(400);
    // enough distinct contexts that 8 shards draw even loads, capped so
    // tiny --scale smokes still exercise multi-library routing
    let libs = ((n / 64).clamp(16, 512)) as u32;
    let workers = 64;
    let cfg = SimConfig::paper(ReuseLevel::L3, workers);

    let mut t = Table::new(
        "shard",
        "Federated sharding: aggregate submission throughput, 1→8 shards",
        &[
            "shards",
            "throughput_per_sec",
            "speedup",
            "makespan_s",
            "max_shard_units",
        ],
    );

    let mut entries = String::new();
    let mut base_tput = 0.0f64;
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        let mut w = RouteStorm { libs, n };
        let fed = simulate_sharded(&cfg, shards, &mut w).expect("the storm is static");
        assert_eq!(fed.completed, n, "every routed submission must complete");
        assert_eq!(fed.failed, 0);
        if shards == 1 {
            base_tput = fed.throughput;
        }
        let speedup = fed.throughput / base_tput;
        let max_units = fed.routed.iter().copied().max().unwrap_or(0);
        t.row(
            format!("{shards} shard(s)"),
            vec![
                shards as f64,
                fed.throughput,
                speedup,
                fed.makespan_s,
                max_units as f64,
            ],
        );
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{ \"shards\": {shards}, \"throughput_per_sec\": {:.3}, \
             \"speedup\": {speedup:.3}, \"makespan_s\": {:.3}, \
             \"events\": {} }}",
            fed.throughput, fed.makespan_s, fed.events
        ));
    }
    t.note(format!(
        "{n} submissions over {libs} libraries, {workers} workers partitioned \
         across shards; simulated time; routing by function-context digest"
    ));

    let json = format!(
        "{{\n  \"benchmark\": \"shard_throughput\",\n  \"clock\": \"modeled\",\n  \
         \"units\": {n},\n  \"libraries\": {libs},\n  \"workers\": {workers},\n  \
         \"sweep\": [\n{entries}\n  ]\n}}\n"
    );
    if let Err(e) = std::fs::write("BENCH_shard.json", json) {
        eprintln!("warning: could not write BENCH_shard.json: {e}");
    }
    t
}

// --------------------------------------------------------- live substrate

/// The library names a federated LNNI run installs and routes over.
/// `libs == 1` is the exact single-manager workload (library `lnni`);
/// `libs > 1` installs the same function context under `lnni-0..` so the
/// router has distinct digests to spread across the shard ring. Results —
/// and therefore the stdout digest — are identical either way, because
/// every copy computes the same function of the same arguments.
pub fn lnni_library_names(libs: u32) -> Vec<String> {
    if libs <= 1 {
        vec!["lnni".to_string()]
    } else {
        (0..libs).map(|l| format!("lnni-{l}")).collect()
    }
}

/// `repro serve --shard ID --router ADDR`: one scheduling shard of a
/// federation. Boots its own worker fleet (in-process threads, or with
/// `--listen` the TCP manager `repro join` workers dial), installs the
/// LNNI libraries, then serves the router until it says `Shutdown`.
pub fn serve_shard(
    router_addr: &str,
    shard: ShardId,
    workers: usize,
    libs: u32,
    listen: Option<&str>,
) -> Result<(), VineError> {
    let mut rt = crate::live::boot(workers, listen, &format!("shard {shard}"))?;
    for name in lnni_library_names(libs) {
        crate::live::install_lnni(&mut rt, &name)?;
    }
    vine_runtime::serve_shard(router_addr, shard, rt)
}

/// `repro route --listen ADDR --shards N`: wait for N `repro serve
/// --shard` processes, route the LNNI workload over them, print the
/// per-shard stats table on stderr and the digest on stdout. The digest
/// byte-matches `repro serve --local` for the same `--n`, whatever the
/// shard count, spread, or fault schedule.
pub fn route(listen: &str, shards: usize, n: u64, libs: u32) -> Result<String, VineError> {
    // dropping the router at the end tells every shard to stop
    let mut router = Router::listen(listen, TcpConfig::default())
        .map_err(|e| VineError::Protocol(format!("binding {listen}: {e}")))?;
    eprintln!(
        "# router listening on {}, waiting for {shards} shard(s)",
        router.local_addr()
    );
    router.wait_for_shards(shards)?;
    let names = lnni_library_names(libs);
    for name in &names {
        router.register_library(&crate::live::lnni_spec_named(name))?;
        // stderr breadcrumb: which shard owns each library's context — the
        // fault smoke reads this to pick its victim
        let probe = WorkUnit::Call(crate::live::lnni_call(u64::MAX, name)?);
        if let Some(owner) = router.ring().shard_for_unit(&probe) {
            eprintln!("# route: {name} -> {owner}");
        }
    }
    eprintln!(
        "# routing {n} submission(s) over {} librar(ies)",
        names.len()
    );
    for i in 0..n {
        let name = &names[(i % names.len() as u64) as usize];
        router.submit(WorkUnit::Call(crate::live::lnni_call(i, name)?))?;
    }
    eprintln!("# routed {n} submission(s)");
    let outcomes = router.run_until_idle()?;
    let reports = router.shard_stats()?;
    if !reports.is_empty() {
        eprint!("{}", render_shard_stats(&reports));
    }
    eprintln!(
        "# router: {} routed ({} re-routed), {} of {shards} shard(s) survived",
        router.ring().routed(),
        router.ring().rerouted(),
        router.ring().shard_count()
    );
    Ok(crate::live::digest(&outcomes))
}
