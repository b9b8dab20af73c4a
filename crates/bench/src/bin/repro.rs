//! `repro` — regenerate the paper's tables and figures, and pre-flight
//! workflow programs.
//!
//! ```text
//! repro all [--scale 0.05] [--json] [--jobs N]
//! repro fig6a table4 ...
//! repro table2 --transport tcp       # + live loopback overhead rows
//! repro perf [--sim | --lang | --net [--conns N]]
//! repro lint [file.vine ...]
//! repro analyze [file.vine ...] [--check]   # context-discovery report
//! repro serve --listen ADDR [--workers N] [--n N]   # live TCP manager
//! repro serve --local [--workers N] [--n N]         # same run, in-proc
//! repro serve --shard ID --router ADDR              # one federation shard
//! repro route --listen ADDR [--shards N] [--n N]    # federation front-end
//! repro join ADDR                                   # live TCP worker
//! repro --list
//! ```
//!
//! `--jobs N` caps the worker threads used to fan out independent
//! simulation cells (and independent experiments); the default is the
//! machine's available parallelism. Every cell is a pure function of its
//! config and seed and results are collected into pre-sized, input-ordered
//! slots, so output is byte-identical at any `--jobs` value — `--jobs 1`
//! runs the exact sequential path (CI byte-compares the two).

use bench::{experiments, live, net};
use rayon::prelude::*;
use std::collections::BTreeSet;

/// The value after `flag`, parsed and accepted by `ok`; anything else
/// exits 2 with "`flag` expects `what`".
fn value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .filter(|v| ok(v))
        .unwrap_or_else(|| {
            eprintln!("{flag} expects {what}");
            std::process::exit(2);
        })
}

/// `repro serve [--listen ADDR | --local] [--workers N] [--n N]` — run the
/// small live LNNI workload as a manager, printing the deterministic
/// digest on stdout. With `--listen`, worker processes must dial in via
/// `repro join ADDR`; with `--local`, workers are in-process threads and
/// the digest is the reference a TCP run must byte-match.
///
/// `repro serve --shard ID --router ADDR [--libs L] [--listen ADDR]` runs
/// one scheduling shard of a federation instead: no digest (the router
/// prints it); the shard serves routed submissions until told to stop.
fn run_serve(args: &[String]) -> ! {
    let mut listen: Option<String> = None;
    let mut local = false;
    let mut workers = 2usize;
    let mut n = 200u64;
    let mut shard: Option<u32> = None;
    let mut router: Option<String> = None;
    let mut libs = 1u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = it.next().cloned(),
            "--local" => local = true,
            "--workers" => workers = value(&mut it, a, "an integer >= 1", |_| true),
            "--n" => n = value(&mut it, a, "an integer >= 1", |_| true),
            "--shard" => shard = Some(value(&mut it, a, "an integer shard id", |_| true)),
            "--router" => router = it.next().cloned(),
            "--libs" => libs = value(&mut it, a, "an integer >= 1", |l| *l >= 1),
            other => {
                eprintln!("serve: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    if let Some(id) = shard {
        let Some(router_addr) = router else {
            eprintln!("serve: --shard requires --router ADDR");
            std::process::exit(2);
        };
        match bench::shard::serve_shard(
            &router_addr,
            vine_core::ids::ShardId(id),
            workers,
            libs,
            listen.as_deref(),
        ) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("serve --shard: {e}");
                std::process::exit(1);
            }
        }
    }
    let digest = if local {
        live::serve_local(workers, n)
    } else {
        let Some(addr) = listen else {
            eprintln!("serve: pass --listen ADDR (or --local for in-process workers)");
            std::process::exit(2);
        };
        live::serve_tcp(&addr, workers, n)
    };
    match digest {
        Ok(d) => {
            println!("{d}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro route --listen ADDR [--shards N] [--n N] [--libs L]` — the
/// routing front-end of a federated deployment: waits for N shard
/// processes, routes the LNNI workload by function-context digest, prints
/// the per-shard stats table on stderr and the digest on stdout. The
/// digest byte-matches `repro serve --local --n N`.
fn run_route(args: &[String]) -> ! {
    let mut listen: Option<String> = None;
    let mut shards = 2usize;
    let mut n = 200u64;
    let mut libs = 1u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = it.next().cloned(),
            "--shards" => shards = value(&mut it, a, "an integer >= 1", |s| *s >= 1),
            "--n" => n = value(&mut it, a, "an integer >= 1", |_| true),
            "--libs" => libs = value(&mut it, a, "an integer >= 1", |l| *l >= 1),
            other => {
                eprintln!("route: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    let Some(addr) = listen else {
        eprintln!("route: pass --listen ADDR for shards to dial");
        std::process::exit(2);
    };
    match bench::shard::route(&addr, shards, n, libs) {
        Ok(d) => {
            println!("{d}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("route: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro join ADDR` — be one worker process until the manager says stop.
fn run_join(args: &[String]) -> ! {
    let Some(addr) = args.first() else {
        eprintln!("join: pass the manager address, e.g. repro join 127.0.0.1:9440");
        std::process::exit(2);
    };
    match live::join(addr) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("join: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro disasm FILE...` — compile vinescript modules to bytecode and
/// print their disassembly (the same stable text the golden tests pin).
fn run_disasm(args: &[String]) -> ! {
    if args.is_empty() {
        eprintln!("disasm: pass one or more .vine files");
        std::process::exit(2);
    }
    for p in args {
        let src = match std::fs::read_to_string(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{p}: {e}");
                std::process::exit(2);
            }
        };
        let prog = match vine_lang::parse(&src) {
            Ok(prog) => prog,
            Err(e) => {
                eprintln!("{p}: parse error: {e}");
                std::process::exit(1);
            }
        };
        let module = vine_lang::compile_module(&prog, &src);
        if args.len() > 1 {
            println!("== {p} ==");
        }
        print!("{}", vine_lang::bytecode::disassemble(&module.top));
    }
    std::process::exit(0);
}

/// The sources of `paths`, or with none given of every
/// `examples/vinescript/*.vine` file, by path; an unreadable file exits 2.
fn vine_sources(paths: &[String]) -> Vec<(String, String)> {
    let mut files = paths.to_vec();
    if paths.is_empty() {
        let entries = std::fs::read_dir("examples/vinescript")
            .into_iter()
            .flatten();
        files = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "vine"))
            .map(|p| p.display().to_string())
            .collect();
        files.sort();
    }
    let read = |p: String| match std::fs::read_to_string(&p) {
        Ok(src) => (p, src),
        Err(e) => {
            eprintln!("{p}: {e}");
            std::process::exit(2);
        }
    };
    files.into_iter().map(read).collect()
}

/// `repro lint [paths...]` — run the vine-lint language + environment
/// layers over vinescript sources. With no paths, lints the embedded
/// application sources (LNNI, ExaMol) and every `examples/vinescript/*.vine`
/// file. Exits 1 if any target has errors.
fn run_lint(paths: &[String]) -> ! {
    // everything an activated worker environment could provide: the native
    // module registry plus every catalog package that provides a module
    let mut available: BTreeSet<String> = vine_apps::modules::full_registry()
        .names()
        .map(|s| s.to_string())
        .collect();
    available.extend(
        vine_env::catalog::standard_registry()
            .provided_modules()
            .map(|s| s.to_string()),
    );

    let mut targets: Vec<(String, String)> = Vec::new();
    if paths.is_empty() {
        targets.push(("lnni".into(), vine_apps::lnni::LNNI_SOURCE.to_string()));
        targets.push((
            "examol".into(),
            vine_apps::examol::EXAMOL_SOURCE.to_string(),
        ));
    }
    targets.extend(vine_sources(paths));

    let mut errors = 0;
    for (origin, src) in &targets {
        let report = vine_lint::lint_source_with_env(origin, src, &available, None);
        print!("{}", report.render());
        errors += report.error_count();
    }
    std::process::exit(if errors > 0 { 1 } else { 0 });
}

/// `repro analyze [paths...] [--check]` — run context discovery
/// (`vine_flow::discover`) over vinescript modules and report, per
/// target, what it hoists into the synthesized setup, which statements
/// stay per-invocation residue, and the effect summaries driving the
/// decisions; then boot the assembled library as a daemon does (run the
/// program, call its setup) under the full module registry. With no
/// paths, analyzes the embedded naive LNNI user module, ExaMol, and every
/// `examples/vinescript/*.vine` file. For files, every top-level `def` is
/// treated as a work function. `--check` exits 1 on analysis or boot
/// errors.
fn run_analyze(args: &[String]) -> ! {
    use vine_lang::ast::StmtKind;

    let mut check = false;
    let mut paths: Vec<String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--check" => check = true,
            other if other.starts_with("--") => {
                eprintln!("analyze: unknown flag '{other}'");
                std::process::exit(2);
            }
            p => paths.push(p.to_string()),
        }
    }

    // (origin, source, explicit work set — None means every top-level def)
    let mut targets: Vec<(String, String, Option<Vec<String>>)> = Vec::new();
    if paths.is_empty() {
        targets.push((
            "lnni-user".into(),
            vine_apps::lnni::LNNI_USER_SOURCE.to_string(),
            Some(vec!["classify".into(), "remaining".into()]),
        ));
        targets.push((
            "examol".into(),
            vine_apps::examol::EXAMOL_SOURCE.to_string(),
            Some(vec!["simulate".into(), "train".into(), "infer".into()]),
        ));
    }
    targets.extend(
        vine_sources(&paths)
            .into_iter()
            .map(|(p, src)| (p, src, None)),
    );

    let registry = vine_apps::modules::full_registry();
    let boot = |ctx: &vine_flow::DiscoveredContext| -> vine_core::Result<()> {
        let mut interp = vine_lang::Interp::with_registry(registry.clone());
        interp.exec_source(&ctx.source)?;
        interp.call_global(&ctx.setup, &[])?;
        Ok(())
    };
    let mut failures = 0usize;
    for (origin, src, explicit_work) in &targets {
        println!("== {origin} ==");
        let prog = match vine_lang::parse(src) {
            Ok(p) => p,
            Err(e) => {
                println!("  parse error: {e}\n");
                failures += 1;
                continue;
            }
        };
        let work: Vec<String> = match explicit_work {
            Some(w) => w.clone(),
            None => prog
                .iter()
                .filter_map(|s| match &s.kind {
                    StmtKind::FuncDef(f) => Some(f.name.clone()),
                    _ => None,
                })
                .collect(),
        };
        let work_refs: Vec<&str> = work.iter().map(String::as_str).collect();
        // module-level statements eligible for hoisting (defs travel as code)
        let candidates = prog
            .iter()
            .filter(|s| !matches!(s.kind, StmtKind::FuncDef(_)))
            .count();
        println!(
            "  work functions: {}",
            if work.is_empty() {
                "(none)".into()
            } else {
                work.join(", ")
            }
        );

        match vine_flow::discover(src, &work_refs) {
            Ok(f) => {
                println!(
                    "  flow:      hoisted {}/{candidates} ({} folded), residue {}",
                    f.hoisted.len(),
                    f.folded,
                    f.context.residue.len()
                );
                let multiline = |tag: &str, text: &str| {
                    for (i, line) in text.lines().enumerate() {
                        if i == 0 {
                            println!("    {tag} {line}");
                        } else {
                            println!("    {}{line}", " ".repeat(tag.len() + 1));
                        }
                    }
                };
                for st in &f.hoisted {
                    match &st.folded_from {
                        Some(orig) => multiline("fold: ", &format!("{}  <-  {orig}", st.source)),
                        None => multiline("hoist:", &st.source),
                    }
                }
                for r in &f.context.residue {
                    multiline("stays:", r);
                }
                if !f.context.provides.is_empty() {
                    println!("  provides: {}", f.context.provides.join(", "));
                }
                for (name, eff) in &f.effects {
                    println!("  effect {name}: {}", eff.describe());
                }
                match boot(&f.context) {
                    Ok(()) => println!("  boot:      {}() ok", f.context.setup),
                    Err(e) => {
                        println!("  boot:      {}() error: {e}", f.context.setup);
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                println!("  flow:      error: {e}");
                failures += 1;
            }
        }
        println!();
    }
    std::process::exit(if check && failures > 0 { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("analyze") => run_analyze(&args[1..]),
        Some("disasm") => run_disasm(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("join") => run_join(&args[1..]),
        Some("route") => run_route(&args[1..]),
        _ => {}
    }
    let mut scale = 1.0f64;
    let mut json = false;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut sim = false;
    let mut lang = false;
    let mut net_flag = false;
    let mut conns = 1000usize;
    let mut transport: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = value(&mut it, a, "a number in (0, 1]", |s| *s > 0.0 && *s <= 1.0),
            "--jobs" => jobs = value(&mut it, a, "an integer >= 1", |j| *j >= 1),
            "--json" => json = true,
            "--sim" => sim = true,
            "--lang" => lang = true,
            "--net" => net_flag = true,
            "--conns" => conns = value(&mut it, a, "an integer >= 2", |c| *c >= 2),
            "--transport" => {
                transport = it
                    .next()
                    .filter(|t| t.as_str() == "inproc" || t.as_str() == "tcp")
                    .cloned();
                if transport.is_none() {
                    eprintln!("--transport expects 'inproc' or 'tcp'");
                    std::process::exit(2);
                }
            }
            "--list" => {
                for id in experiments::IDS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [all | <id>...] [--scale S] [--json] [--jobs N] [--transport inproc|tcp]\n\
                     \x20      repro lint [file.vine ...]\n\
                     \x20      repro analyze [file.vine ...] [--check]\n\
                     \x20      repro serve [--listen ADDR | --local] [--workers N] [--n N]\n\
                     \x20      repro serve --shard ID --router ADDR [--workers N] [--libs L] [--listen ADDR]\n\
                     \x20      repro route --listen ADDR [--shards N] [--n N] [--libs L]\n\
                     \x20      repro join ADDR\n\
                     \x20      repro disasm file.vine ...\n\
                     experiments: {}\n\
                     extra: perf (scheduler self-benchmark, writes BENCH_sched.json)\n\
                     \x20      perf --sim (simulator event-core self-benchmark, writes BENCH_sim.json)\n\
                     \x20      perf --lang (VM vs tree-walker invocation benchmark, writes BENCH_lang.json)\n\
                     \x20      perf --net [--conns N] (reactor transport scaling, writes BENCH_net.json)\n\
                     \x20      shard (federated sharding 1\u{2192}8 shards, writes BENCH_shard.json)\n\
                     --conns N: cap the largest fleet size for perf --net (default 1000)\n\
                     --jobs N: worker threads for independent simulation cells\n\
                     \x20         (default: available parallelism; output is identical at any N)",
                    experiments::IDS.join(", ")
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::IDS.iter().map(|s| s.to_string()).collect();
    }
    if (sim as u8) + (lang as u8) + (net_flag as u8) > 1 {
        eprintln!("--sim, --lang, and --net are mutually exclusive");
        std::process::exit(2);
    }
    if sim || lang || net_flag {
        for id in &mut ids {
            if id == "perf" {
                *id = if sim {
                    "perf_sim"
                } else if lang {
                    "perf_lang"
                } else {
                    "perf_net"
                }
                .to_string();
            }
        }
    }
    for id in &ids {
        let known = experiments::IDS.contains(&id.as_str())
            || id == "perf"
            || id == "perf_sim"
            || id == "perf_lang"
            || id == "perf_net"
            || id == "shard";
        if !known {
            eprintln!("unknown experiment '{id}' (try --list)");
            std::process::exit(2);
        }
    }

    rayon::ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build_global()
        .expect("thread pool setup");

    eprintln!("# vine-rs reproduction at scale {scale}");
    // fan the experiments out too (each also fans out its own cells);
    // results land in input-ordered slots and print sequentially below
    let tables: Vec<_> = ids
        .clone()
        .into_par_iter()
        .map(|id| {
            if id == "perf_net" {
                net::perf_net(scale, conns)
            } else {
                experiments::by_id(&id, scale).expect("id validated above")
            }
        })
        .collect();
    for table in &tables {
        if json {
            println!("{}", table.to_json());
        } else {
            table.print();
        }
    }

    // live transport rows ride along only when asked for: the default
    // output stays byte-identical to the committed reference
    if let Some(kind) = transport {
        if ids.iter().any(|i| i == "table2") {
            let live = live::table2_live(scale, kind == "tcp");
            if json {
                println!("{}", live.to_json());
            } else {
                live.print();
            }
        } else {
            eprintln!("--transport only affects table2; add it to the experiment list");
        }
    }
}
