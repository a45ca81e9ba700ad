use super::*;
use quasii_shard::{part_path, ShardedQuasii};
use std::path::Path;

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// Threads and shards 0 (auto, one shard), the paper's lower coordinate,
/// dispatch auto.
fn default_engine() -> EngineOpts {
    EngineOpts {
        threads: 0,
        shards: 0,
        assign_by: AssignBy::Lower,
        simd: SimdPolicy::Auto,
    }
}

/// Parses and executes one command line (paths must not hold spaces).
fn run(cmdline: &str) -> Result<(), String> {
    parse(&args(cmdline)).and_then(execute)
}

#[test]
fn parse_generate_defaults() {
    let cmd = parse(&args("generate --out /tmp/x.qsd")).unwrap();
    assert_eq!(
        cmd,
        Command::Generate {
            family: "uniform".into(),
            n: 100_000,
            seed: 42,
            out: "/tmp/x.qsd".into()
        }
    );
}

#[test]
fn parse_bench_full() {
    let bench = |rest: &str| parse(&args(&format!("bench --data d.qsd {rest}"))).unwrap();
    let expected = |index: &str, workload: &WorkloadOpts, batch, engine: &EngineOpts, metrics| {
        Command::Bench {
            source: Source::Data("d.qsd".into()),
            index: index.into(),
            workload: workload.clone(),
            batch,
            engine: engine.clone(),
            metrics,
        }
    };
    // Batch defaults to 0 (per-query).
    let workload = WorkloadOpts {
        pattern: Pattern::Clustered,
        queries: 200,
        volume: 1e-4,
        seed: 7,
    };
    let engine = default_engine();
    assert_eq!(bench(""), expected("quasii", &workload, 0, &engine, false));
    let uniform = WorkloadOpts {
        pattern: Pattern::Uniform,
        queries: 50,
        volume: 0.01,
        seed: 3,
    };
    assert_eq!(
        bench("--index rtree --queries 50 --volume 0.01 --pattern uniform --seed 3 --batch 25"),
        expected("rtree", &uniform, 25, &engine, false)
    );
    let skewed = WorkloadOpts {
        pattern: Pattern::Skewed,
        ..workload.clone()
    };
    let tuned = EngineOpts {
        threads: 2,
        shards: 4,
        assign_by: AssignBy::Center,
        simd: SimdPolicy::Scalar,
    };
    assert_eq!(
        bench("--shards 4 --threads 2 --pattern skewed --assign-by center --simd scalar"),
        expected("quasii", &skewed, 0, &tuned, false)
    );
    // `--metrics` is a bare flag that also takes an explicit value.
    for (rest, on) in [
        ("--metrics", true),
        ("--metrics --seed 7", true),
        ("--metrics false", false),
    ] {
        assert_eq!(
            bench(rest),
            expected("quasii", &workload, 0, &engine, on),
            "{rest}"
        );
    }
}

#[test]
fn options_are_validated_by_parse_before_any_file_or_socket() {
    let err_of = |cmdline: &str| parse(&args(cmdline)).unwrap_err();
    for (cmdline, fragment) in [
        // Typed values are checked where they enter.
        ("bench --data d --assign-by sideways", "--assign-by"),
        ("bench --data d --simd mmx", "unknown --simd 'mmx'"),
        ("bench --data d --pattern zigzag", "--pattern 'zigzag'"),
        ("bench --data d --metrics maybe", "--metrics"),
        ("snapshot --data d --out s --assign-by 3", "--assign-by"),
        ("snapshot --data d --out s --simd mmx", "--simd"),
        ("snapshot --data d --out s --pattern zigzag", "--pattern"),
        ("snapshot --data d --out s --finalize maybe", "--finalize"),
        ("serve --data d --assign-by sideways", "--assign-by"),
        // Exactly one source, and only QUASII has snapshots.
        ("bench", "bench needs exactly one of --data or"),
        ("bench --data d --warm-start s", "exactly one"),
        ("serve", "serve needs exactly one of --data or"),
        ("serve --data d --warm-start s", "exactly one"),
        (
            "bench --index rtree --warm-start s",
            "--warm-start requires",
        ),
    ] {
        let err = err_of(cmdline);
        assert!(err.contains(fragment), "{cmdline}: {err}");
    }
    // An engine always seals what converges: `--seal` is an option of no
    // command.
    for cmdline in [
        "generate --out x",
        "info --data d",
        "bench --data d",
        "bench --warm-start s",
        "snapshot --data d --out s",
        "verify --path p",
        "recover --snapshot s",
        "serve --data d",
        "serve --warm-start s",
    ] {
        for value in ["true", "false"] {
            let err = err_of(&format!("{cmdline} --seal {value}"));
            assert!(err.contains("unknown option --seal"), "{cmdline}: {err}");
        }
    }
    // The one rule, for every ENGINE option: given where it cannot take
    // effect, at its default value or another, is an error with one
    // message.
    for option in [
        "threads 0",
        "threads 2",
        "shards 0",
        "shards 2",
        "assign-by lower",
        "assign-by center",
        "simd auto",
        "simd scalar",
    ] {
        let key = option.split(' ').next().unwrap();
        for index in ["rtree", "btree"] {
            assert_eq!(
                err_of(&format!("bench --data d --index {index} --{option}")),
                format!("--{key} requires --index quasii")
            );
        }
        for cmd in ["bench", "serve"] {
            assert_eq!(
                err_of(&format!("{cmd} --warm-start s --{option}")),
                format!(
                    "--{key} conflicts with --warm-start (the snapshot fixes layout and \
                     configuration; kernel dispatch is re-resolved at load, set QUASII_SIMD \
                     to override)"
                )
            );
        }
    }
}

#[test]
fn parse_errors() {
    assert!(parse(&args("generate")).is_err(), "missing --out");
    assert!(parse(&args("info")).is_err(), "missing --data");
    assert!(parse(&args("frobnicate")).is_err());
    assert!(parse(&args("bench --data")).is_err(), "dangling option");
    assert!(parse(&args("bench x.qsd")).is_err(), "positional rejected");
    assert!(
        parse(&args("snapshot --data d.qsd")).is_err(),
        "missing --out"
    );
    // An option the command does not read is named, not ignored
    // (`--layout` left with the second sharded snapshot form).
    for (cmdline, option) in [
        (
            "snapshot --data d.qsd --out s --shards 3 --layout parts",
            "--layout",
        ),
        ("bench --data d.qsd --querys 10", "--querys"),
        ("info --data d.qsd --seed 1", "--seed"),
        // `serve` has no admission window and no grouping knob: a group
        // is what is queued.
        ("serve --data d.qsd --max-batch 1", "--max-batch"),
        ("serve --data d.qsd --max-delay-us 0", "--max-delay-us"),
        ("serve --data d.qsd --adaptive false", "--adaptive"),
    ] {
        let err = parse(&args(cmdline)).unwrap_err();
        assert!(err.contains(&format!("unknown option {option}")), "{err}");
    }
    assert_eq!(parse(&args("help")).unwrap(), Command::Help);
    assert_eq!(parse(&[]).unwrap(), Command::Help);
}

#[test]
fn malformed_numeric_flags_name_flag_and_value() {
    // Every numeric flag rejects garbage with an error naming both the
    // flag and the offending value — never a panic.
    let cases = [
        ("generate --out x.qsd --n ten", "--n", "ten"),
        ("generate --out x.qsd --seed -3", "--seed", "-3"),
        ("bench --data d.qsd --queries 12.5", "--queries", "12.5"),
        ("bench --data d.qsd --volume huge", "--volume", "huge"),
        ("bench --data d.qsd --seed 0x10", "--seed", "0x10"),
        ("bench --data d.qsd --batch -1", "--batch", "-1"),
        ("bench --data d.qsd --threads many", "--threads", "many"),
        ("bench --data d.qsd --shards 2.0", "--shards", "2.0"),
        (
            "snapshot --data d.qsd --out s --queries no",
            "--queries",
            "no",
        ),
        (
            "snapshot --data d.qsd --out s --shards -2",
            "--shards",
            "-2",
        ),
        ("serve --data d.qsd --queue-cap many", "--queue-cap", "many"),
    ];
    for (cmdline, flag, value) in cases {
        let err = parse(&args(cmdline)).unwrap_err();
        assert!(err.contains(flag), "{cmdline}: {err}");
        assert!(err.contains(value), "{cmdline}: {err}");
    }
}

#[test]
fn parse_serve_defaults_and_overrides() {
    assert_eq!(
        parse(&args("serve --data d.qsd")).unwrap(),
        Command::Serve {
            source: Source::Data("d.qsd".into()),
            addr: "127.0.0.1:7077".into(),
            engine: default_engine(),
            queue_cap: 1024,
        }
    );
    assert_eq!(
        parse(&args(
            "serve --warm-start s.qshard --addr 0.0.0.0:80 --queue-cap 8",
        ))
        .unwrap(),
        Command::Serve {
            source: Source::WarmStart("s.qshard".into()),
            addr: "0.0.0.0:80".into(),
            engine: default_engine(),
            queue_cap: 8,
        }
    );
}

#[test]
fn option_census() {
    // Every (command, option) pair, by name: an option added without a
    // usage line, or a usage line without its option, fails here.
    const CENSUS: [(&str, &str); 7] = [
        ("generate --out x", "family n out seed"),
        ("info --data d", "data"),
        (
            "bench --data d",
            "assign-by batch data index metrics pattern queries seed shards simd threads volume \
             warm-start",
        ),
        (
            "snapshot --data d --out s",
            "assign-by data fault finalize out pattern queries seed shards simd threads volume",
        ),
        ("verify --path p", "path"),
        ("recover --snapshot s", "data snapshot"),
        (
            "serve --data d",
            "addr assign-by data queue-cap shards simd threads warm-start",
        ),
    ];
    let mut pairs = 0;
    let mut union = BTreeSet::new();
    for (cmdline, options) in CENSUS {
        let (_, read) = parse_census(&args(cmdline)).unwrap();
        let options: Vec<&str> = options.split(' ').collect();
        assert_eq!(read.into_iter().collect::<Vec<_>>(), options, "{cmdline}");
        pairs += options.len();
        union.extend(options);
    }
    assert_eq!(pairs, 41);
    let option_name = |t: &'static str| {
        let end = t.find(|c: char| !c.is_ascii_lowercase() && c != '-');
        &t[..end.unwrap_or(t.len())]
    };
    let in_usage: BTreeSet<&str> = USAGE.split("--").skip(1).map(option_name).collect();
    assert_eq!(in_usage, union);
}

#[test]
fn serve_end_to_end_over_loopback() {
    // Build a tiny dataset, serve it on an ephemeral port, and drive
    // the full path: query, batch, health, metrics, admin shutdown.
    let dir = std::env::temp_dir();
    let data = dir.join(format!("quasii-serve-{}.qsd", std::process::id()));
    let data_s = data.to_string_lossy().to_string();
    run(&format!("generate --out {data_s} --n 1500 --seed 31")).unwrap();
    let records = load(&data_s).unwrap();
    let cfg = ShardConfig::default().with_shards(2);
    let engine = ShardedQuasii::new(records, cfg);
    let handle =
        quasii_server::start(engine, "127.0.0.1:0", quasii_server::ServeConfig::default()).unwrap();
    let mut c = minihttp::Client::connect(handle.addr()).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    let r = c.get("/query?lo=0,0,0&hi=1000,1000,1000").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let r = c.post("/admin/shutdown", "text/plain", b"").unwrap();
    assert_eq!(r.status, 200);
    handle.wait();
    std::fs::remove_file(&data).ok();
}

#[test]
fn snapshot_and_warm_start_round_trip() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let data = dir.join(format!("quasii-snap-{pid}.qsd"));
    let single = dir.join(format!("quasii-snap-{pid}-single.qsnap"));
    let sharded = dir.join(format!("quasii-snap-{pid}-sharded.qsnap"));
    let (data_s, single_s, sharded_s) = (
        data.to_string_lossy(),
        single.to_string_lossy(),
        sharded.to_string_lossy(),
    );
    const WORKLOAD: &str = "--queries 30 --volume 1e-4 --pattern clustered --seed 12";
    run(&format!("generate --out {data_s} --n 2000 --seed 11")).unwrap();
    // One-shard deployment: snapshot after a query warm-up, then
    // warm-start.
    run(&format!(
        "snapshot --data {data_s} --out {single_s} {WORKLOAD}"
    ))
    .unwrap();
    run(&format!("verify --path {single_s}")).unwrap();
    run(&format!("bench --warm-start {single_s} {WORKLOAD}")).unwrap();
    // Three shards: finalize, then warm-start through the batch path.
    run(&format!(
        "snapshot --data {data_s} --out {sharded_s} --shards 3 --finalize true {WORKLOAD}"
    ))
    .unwrap();
    run(&format!(
        "bench --warm-start {sharded_s} --batch 8 {WORKLOAD}"
    ))
    .unwrap();
    // A torn part fails loudly, not with a panic, in the run that would
    // serve it and in `verify` alike; so does a torn manifest.
    let part = part_path(&single, 1, 0);
    let bytes = std::fs::read(&part).unwrap();
    std::fs::write(&part, &bytes[..bytes.len() / 2]).unwrap();
    let err = run(&format!("bench --warm-start {single_s} {WORKLOAD}")).unwrap_err();
    assert!(err.contains("cannot load"), "{err}");
    let err = run(&format!("verify --path {single_s}")).unwrap_err();
    assert!(
        err.starts_with("1 of 1 shards failed verification"),
        "{err}"
    );
    let bytes = std::fs::read(&single).unwrap();
    std::fs::write(&single, &bytes[..bytes.len() / 2]).unwrap();
    assert!(run(&format!("bench --warm-start {single_s} {WORKLOAD}")).is_err());
    assert!(run(&format!("verify --path {single_s}")).is_err());
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&single).ok();
    std::fs::remove_file(&part).ok();
    std::fs::remove_file(&sharded).ok();
    for k in 0..3 {
        std::fs::remove_file(part_path(&sharded, 1, k)).ok();
    }
}

#[test]
fn one_deployment_shape_without_shards() {
    let dir = std::env::temp_dir().join(format!("quasii-one-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("d.qsd").to_string_lossy().to_string();
    let snap = dir.join("deploy.qsnap");
    let snap_s = snap.to_string_lossy().to_string();
    const WORKLOAD: &str = "--queries 20 --seed 5";
    run(&format!("generate --out {data} --n 1500 --seed 4")).unwrap();
    // `snapshot` without `--shards` commits a manifest and one part, which
    // every reader of a deployment accepts.
    run(&format!("snapshot --data {data} --out {snap_s} {WORKLOAD}")).unwrap();
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .filter(|name| name.starts_with("deploy"))
        .collect();
    assert_eq!(files.len(), 2, "{files:?}");
    let part = part_path(&snap, 1, 0);
    assert!(part.exists(), "{files:?}");
    run(&format!("verify --path {snap_s}")).unwrap();
    run(&format!("bench --warm-start {snap_s} {WORKLOAD}")).unwrap();
    run(&format!("recover --snapshot {snap_s}")).unwrap();
    // The part alone is a bare engine snapshot: `bench --warm-start`,
    // `serve --warm-start` and `verify` each refuse it with one error that
    // points at the manifest.
    let part_s = part.to_string_lossy().to_string();
    let expect = format!("'{part_s}' is one engine's part file, not a deployment");
    for cmdline in [
        format!("bench --warm-start {part_s} {WORKLOAD}"),
        format!("serve --warm-start {part_s} --addr 127.0.0.1:0"),
        format!("verify --path {part_s}"),
    ] {
        let err = run(&cmdline).unwrap_err();
        assert!(err.starts_with(&expect), "{cmdline}: {err}");
        assert!(err.contains("manifest"), "{cmdline}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_fault_injection_and_recover_flow() {
    let dir = std::env::temp_dir().join(format!("quasii-recover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("d.qsd").to_string_lossy().to_string();
    let snap = dir.join("deploy.qshard").to_string_lossy().to_string();
    run(&format!("generate --out {data} --n 2000 --seed 21")).unwrap();
    let verify = |path: &str| run(&format!("verify --path {path}"));
    verify(&data).unwrap();
    let snapshot = |fault: &str| {
        run(&format!(
            "snapshot --data {data} --out {snap} --queries 30 --seed 22 --shards 3 {fault}"
        ))
    };
    snapshot("").unwrap();
    verify(&snap).unwrap();

    // A crash injected mid-commit fails the write but leaves the
    // committed generation fully intact (manifest still names it).
    assert!(snapshot("--fault crash@2:7").is_err());
    verify(&snap).unwrap();
    run(&format!(
        "bench --warm-start {snap} --queries 30 --seed 22 --batch 8"
    ))
    .unwrap();
    // Transient faults are absorbed by the bounded retry.
    snapshot("--fault transient@2").unwrap();
    verify(&snap).unwrap();

    // Tear one part file: verify flags it, recover reports it, and
    // rebuilding from the source dataset re-commits a clean generation.
    let part = part_path(Path::new(&snap), 2, 1);
    let bytes = std::fs::read(&part).expect("part of committed generation");
    std::fs::write(&part, &bytes[..bytes.len() / 2]).unwrap();
    let err = verify(&snap).unwrap_err();
    assert!(
        err.starts_with("1 of 3 shards failed verification"),
        "{err}"
    );
    let err = run(&format!("recover --snapshot {snap}")).unwrap_err();
    assert!(err.contains("--data"), "{err}");
    run(&format!("recover --snapshot {snap} --data {data}")).unwrap();
    verify(&snap).unwrap();
    // A healthy deployment reports complete and changes nothing.
    run(&format!("recover --snapshot {snap}")).unwrap();

    // One file holding the manifest and then the shard buffers is not
    // a snapshot layout: verify and recover both name the trailing
    // bytes instead of reading it as a second format.
    let mut one_file = std::fs::read(&snap).unwrap();
    let mut trailing = 0;
    for k in 0..3 {
        let part = std::fs::read(part_path(Path::new(&snap), 3, k)).unwrap();
        trailing += part.len();
        one_file.extend(part);
    }
    let glued = dir.join("one-file.qshard").to_string_lossy().to_string();
    std::fs::write(&glued, &one_file).unwrap();
    let expect = format!("{trailing} trailing bytes");
    let err = verify(&glued).unwrap_err();
    assert!(err.contains(&expect), "{err}");
    let err = run(&format!("recover --snapshot {glued} --data {data}")).unwrap_err();
    assert!(err.contains(&expect), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn end_to_end_generate_info_bench() {
    let path = std::env::temp_dir().join(format!("quasii-cli-{}.qsd", std::process::id()));
    let out = path.to_string_lossy().to_string();
    run(&format!(
        "generate --out {out} --family neuro --n 3000 --seed 1"
    ))
    .unwrap();
    run(&format!("info --data {out}")).unwrap();
    let bench = |rest: &str| run(&format!("bench --data {out} --queries 20 --seed 2 {rest}"));
    for index in [
        "scan",
        "rtree",
        "grid",
        "sfc",
        "sfcracker",
        "mosaic",
        "quasii",
    ] {
        bench(&format!("--index {index}")).unwrap();
    }
    // Batch path: batches of 8, sealed reads on up to 2 workers.
    bench("--batch 8 --threads 2 --assign-by center").unwrap();
    // Sharded path on the skewed (hot-region) workload, with
    // the metrics table printed after it.
    bench("--pattern skewed --batch 8 --threads 2 --shards 3 --metrics").unwrap();
    // --shards is a router over QUASII engines only.
    assert!(bench("--index rtree --shards 2").is_err());
    assert!(bench("--index btree").is_err());
    std::fs::remove_file(&path).ok();
}
