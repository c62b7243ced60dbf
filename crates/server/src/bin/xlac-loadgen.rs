//! The load-generator binary.
//!
//! ```text
//! xlac-loadgen --self-host --profile smoke          # CI entry point
//! xlac-loadgen --self-host --capacity [--bench-jit BENCH_jit.json]
//! xlac-loadgen --addr HOST:PORT [--conns N] [--requests N] [--items N]
//!              [--tenants N] [--seed N] [--rate R] [--mixed] [--name S]
//! ```
//!
//! `--self-host` spawns the server in-process on an ephemeral port (no
//! port races in CI). `--profile smoke` runs the two CI workloads —
//! `server/mul_smoke` (multiplier-only closed loop, the throughput
//! floor of `scripts/gates.jsonl`) and `server/mixed_smoke` (all four
//! kernels) — and prints one JSON line per run on stdout; everything
//! else goes to stderr. Pipe stdout through `grep '^{'` into
//! `BENCH_server.json`.
//!
//! `--capacity` runs the predicted-vs-measured capacity check instead
//! of a plain load run: the per-item compute cost is folded in from the
//! `--bench-jit` record, the wire costs are calibrated from two
//! closed-loop runs, and the line reports the measured/predicted `ratio`
//! at the protocol's maximum batch size. The `capacity.ratio` rule of
//! `scripts/gates.jsonl` holds that ratio to [0.5, 2.0]; the binary
//! itself exits non-zero only when the check cannot run or a reply
//! mismatches the golden model. A missing, empty or series-less bench
//! record is a hard error (exit 2) with a diagnostic naming the file
//! and the expected series — pass `--measure` to calibrate the
//! per-evaluation cost in-process instead of reading a record.

use xlac_server::loadgen::{
    capacity_check, measure_per_eval_ns, per_eval_ns_from_bench, run, CapacityOptions, LoadOptions,
    CAPACITY_BENCH_SERIES,
};
use xlac_server::{Kernel, Ladders, Server, ServerConfig};

struct Args {
    addr: String,
    self_host: bool,
    profile: Option<String>,
    capacity: bool,
    bench_jit: String,
    measure: bool,
    opts: LoadOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        self_host: false,
        profile: None,
        capacity: false,
        bench_jit: "BENCH_jit.json".into(),
        measure: false,
        opts: LoadOptions::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => out.addr = value("--addr")?,
            "--self-host" => out.self_host = true,
            "--profile" => out.profile = Some(value("--profile")?),
            "--capacity" => out.capacity = true,
            "--bench-jit" => out.bench_jit = value("--bench-jit")?,
            "--measure" => out.measure = true,
            "--conns" => out.opts.conns = parse(&value("--conns")?)?,
            "--requests" => out.opts.requests_per_conn = parse(&value("--requests")?)?,
            "--items" => out.opts.items = parse(&value("--items")?)?,
            "--tenants" => out.opts.tenants = parse(&value("--tenants")?)?,
            "--seed" => out.opts.seed = parse(&value("--seed")?)?,
            "--rate" => out.opts.rate = parse(&value("--rate")?)?,
            "--max-med" => out.opts.max_med = parse(&value("--max-med")?)?,
            "--window" => out.opts.max_outstanding = parse(&value("--window")?)?,
            "--name" => out.opts.name = value("--name")?,
            "--mixed" => {
                out.opts.mix =
                    vec![(Kernel::Mul, 4), (Kernel::Sad, 2), (Kernel::Fir, 1), (Kernel::Dct, 1)];
            }
            "--help" | "-h" => {
                return Err("usage: xlac-loadgen (--addr HOST:PORT | --self-host) \
                            [--profile smoke] \
                            [--capacity [--bench-jit PATH] [--measure]] \
                            [--conns N] [--requests N] [--items N] \
                            [--tenants N] [--seed N] [--rate R] [--max-med X] \
                            [--window N] [--mixed] [--name S]"
                    .into())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !out.self_host && out.addr.is_empty() {
        return Err("one of --addr or --self-host is required".into());
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value '{s}': {e}"))
}

fn smoke_profiles(addr: &str) -> Vec<LoadOptions> {
    vec![
        LoadOptions {
            name: "server/mul_smoke".into(),
            addr: addr.into(),
            conns: 4,
            requests_per_conn: 50_000,
            items: 8,
            tenants: 8,
            seed: 0x10AD_0001,
            mix: Vec::new(),
            max_med: 4.0,
            max_outstanding: 512,
            rate: 0.0,
        },
        LoadOptions {
            name: "server/mixed_smoke".into(),
            addr: addr.into(),
            conns: 4,
            requests_per_conn: 8_000,
            items: 4,
            tenants: 12,
            seed: 0x10AD_0002,
            mix: vec![(Kernel::Mul, 4), (Kernel::Sad, 2), (Kernel::Fir, 1), (Kernel::Dct, 1)],
            max_med: 8.0,
            max_outstanding: 256,
            rate: 0.0,
        },
    ]
}

/// The capacity check: resolve the per-evaluation cost (bench record,
/// or in-process with `--measure`), run the three-phase model, print
/// the JSON line, and return the process exit code.
///
/// A bench record that cannot be read, is empty, or lacks the
/// [`CAPACITY_BENCH_SERIES`] entry fails hard (exit 2) with a
/// diagnostic — a capacity verdict against a silently-substituted cost
/// number would not be checking what the flag claims to check.
fn run_capacity(args: &Args, ladders: &Ladders) -> i32 {
    let (per_eval_ns, source) = if args.measure {
        (measure_per_eval_ns(ladders), "in-process".into())
    } else {
        let text = match std::fs::read_to_string(&args.bench_jit) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("capacity: cannot read bench record '{}': {e}", args.bench_jit);
                eprintln!(
                    "capacity: run the JIT bench first (scripts/ci.sh writes BENCH_jit.json), \
                     point --bench-jit at an existing record, or pass --measure to \
                     calibrate in-process"
                );
                return 2;
            }
        };
        match per_eval_ns_from_bench(&text) {
            Some(per) => (per, args.bench_jit.clone()),
            None => {
                eprintln!(
                    "capacity: '{}' is {} — no usable '{CAPACITY_BENCH_SERIES}' series with \
                     a median_ns field",
                    args.bench_jit,
                    if text.trim().is_empty() { "empty" } else { "missing the series" },
                );
                eprintln!(
                    "capacity: regenerate it with the JIT bench or pass --measure to \
                     calibrate in-process"
                );
                return 2;
            }
        }
    };
    let opts = CapacityOptions {
        addr: args.addr.clone(),
        seed: args.opts.seed,
        per_eval_ns,
        per_eval_source: source,
        ..CapacityOptions::default()
    };
    match capacity_check(&opts, ladders) {
        Ok(report) => {
            eprintln!(
                "{}: predicted {:.0} req/s vs measured {:.0} req/s at {} items \
                 (ratio {:.2}; per-eval {:.2} ns from {}; base {:.0} ns, \
                 wire {:.1} ns/item; {} mismatches)",
                report.name,
                report.predicted_rps,
                report.measured_rps,
                report.items,
                report.ratio,
                report.per_eval_ns,
                report.per_eval_source,
                report.base_ns,
                report.wire_ns,
                report.mismatches,
            );
            println!("{}", report.json_line());
            if report.mismatches == 0 {
                0
            } else {
                eprintln!("capacity: FAILED: replies mismatched the golden model");
                1
            }
        }
        Err(e) => {
            eprintln!("capacity: run failed: {e}");
            1
        }
    }
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let server = if args.self_host {
        let s = Server::spawn(ServerConfig::default()).unwrap_or_else(|e| {
            eprintln!("self-host bind failed: {e}");
            std::process::exit(1);
        });
        args.addr = s.local_addr().to_string();
        eprintln!("self-hosted server on {}", args.addr);
        Some(s)
    } else {
        None
    };
    // The verification oracle: the same deterministic ladder table the
    // server built.
    let ladders = Ladders::build();
    if args.capacity {
        let code = run_capacity(&args, &ladders);
        if let Some(s) = server {
            s.shutdown();
        }
        std::process::exit(code);
    }
    let runs = match args.profile.as_deref() {
        Some("smoke") => smoke_profiles(&args.addr),
        Some(other) => {
            eprintln!("unknown profile '{other}' (try: smoke)");
            std::process::exit(2);
        }
        None => {
            args.opts.addr = args.addr.clone();
            vec![args.opts]
        }
    };
    let mut failed = false;
    for opts in &runs {
        match run(opts, &ladders) {
            Ok(report) => {
                eprintln!(
                    "{}: {} replies at {:.0} req/s (p50 {} us, p99 {} us, \
                     {} overloaded, {} errors, {} mismatches)",
                    report.name,
                    report.replies,
                    report.rps,
                    report.p50_ns / 1000,
                    report.p99_ns / 1000,
                    report.overloaded,
                    report.errors,
                    report.mismatches,
                );
                println!("{}", report.json_line());
                failed |= report.mismatches != 0;
            }
            Err(e) => {
                eprintln!("{}: run failed: {e}", opts.name);
                failed = true;
            }
        }
    }
    if let Some(s) = server {
        let st = s.shutdown();
        let replies = st.values_replies + st.error_replies + st.overloaded + st.pongs;
        eprintln!("self-hosted server: {replies} replies in {} socket writes", st.reply_writes);
    }
    if failed {
        std::process::exit(1);
    }
}
