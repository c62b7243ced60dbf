//! Serving workloads: the run-time half of the paper's flow, where the
//! server picks a certified configuration per request and the quality
//! monitor and budget steer tenants.
//!
//! The untraced run drives a live in-process server over TCP: an open loop
//! at a fixed offered rate for latency, then a closed loop for capacity.
//! The traced pass repeats a live open-loop phase for the server's counters
//! and the generator's health, then replays the same seeded request stream
//! through the request path's public functions in process.

use std::time::{Duration, Instant};

use xlac_server::engine;
use xlac_server::proto::{decode_reply, decode_request, encode_reply, encode_request};
use xlac_server::tenant::ShardTenants;
use xlac_server::{
    Kernel, Ladders, Reply, Request, RequestBody, Server, ServerConfig, StatsSnapshot,
    TenantPolicy, Values,
};

use crate::loadgen::{self, Mix, Oracle, Prepared, Verdict};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, percentile, supported_tail};
use crate::trace::{timed, Tracer};
use crate::Budget;

/// Connections and requests in flight per connection of the closed loop:
/// no more client threads than the 2-CPU box has cores.
const CLOSED_CONNS: usize = 2;
const IN_FLIGHT: usize = 32;
/// Distinct requests each closed-loop connection cycles through.
const CLOSED_SET: usize = 2048;
/// Open-loop windows of the untraced run, each followed by a closed-loop
/// window, and the share of the budget each kind takes together: 1.6 s per
/// open-loop window at the benchmark's 18 s.
const WINDOWS: u32 = 9;
const OPEN_SHARE: f64 = 0.8;
const CLOSED_SHARE: f64 = 0.2;
/// How long replies may trail the end of a window before they count as
/// missing.
const GRACE: Duration = Duration::from_secs(2);

struct Spec {
    mix: Mix,
    /// Offered open-loop rate, requests per second.
    rate: f64,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "serve_mul" => Spec {
            mix: Mix {
                kernels: &[(Kernel::Mul, 1)],
                items: 8,
                tenants: 8,
                max_med: 4.0,
            },
            rate: 30_000.0,
        },
        "serve_mixed" => Spec {
            mix: Mix {
                kernels: &[
                    (Kernel::Mul, 4),
                    (Kernel::Sad, 2),
                    (Kernel::Fir, 1),
                    (Kernel::Dct, 1),
                ],
                items: 8,
                tenants: 12,
                max_med: 8.0,
            },
            rate: 12_000.0,
        },
        other => panic!("{other} is not a serving workload"),
    }
}

/// `windows` windows sharing `share` of the budget, as `(count, length)`;
/// one 0.2 s window in quick mode.
fn phase(budget: &Budget, windows: u32, share: f64) -> (u32, Duration) {
    if budget.quick {
        (1, Duration::from_millis(200))
    } else {
        let len = share * budget.seconds / f64::from(windows);
        (windows, Duration::from_secs_f64(len))
    }
}

/// The requests of open-loop window `w` (window 0 is also the stream the
/// traced pass replays). Ids are `(w + 1) << 32 ..`.
fn window_requests(spec: &Spec, seed: u64, w: u64, len: Duration) -> Vec<Request> {
    let stream_seed = seed ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let n = (spec.rate * len.as_secs_f64()).round() as usize;
    loadgen::gen_requests(&spec.mix, stream_seed, (w + 1) << 32, n)
}

/// Counts every request of a phase against the run, with one problem line
/// per phase that had failures.
fn tally(out: &mut Outcome, phase: &str, verdicts: &[Verdict]) {
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    let bad = verdicts.len() - count(Verdict::Ok);
    out.tally(verdicts.len() as u64, bad as u64, || {
        format!(
            "{phase}: {bad} of {} requests failed (overloaded {}, error {}, mismatched {}, missing {})",
            verdicts.len(),
            count(Verdict::Overloaded),
            count(Verdict::Error),
            count(Verdict::Mismatch),
            count(Verdict::Missing)
        )
    });
}

/// Latencies and lateness of one open-loop window, nanoseconds, sorted.
/// A failed request's latency is `u64::MAX`: it misses every limit.
struct OpenStats {
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
}

fn open_window(
    server: &Server,
    oracle: &mut Oracle<'_>,
    requests: &[Request],
    rate: f64,
    out: &mut Outcome,
) -> OpenStats {
    let set = Prepared::new(oracle, requests);
    let win = match loadgen::open_loop(server.local_addr(), &set, rate, GRACE) {
        Ok(w) => w,
        Err(e) => {
            out.tally(requests.len() as u64, requests.len() as u64, || {
                format!("open loop failed: {e}")
            });
            return OpenStats {
                latency_ns: vec![u64::MAX; requests.len()],
                late_ns: Vec::new(),
            };
        }
    };
    tally(out, "open loop", &win.verdicts);
    let mut latency_ns: Vec<u64> = win
        .verdicts
        .iter()
        .zip(&win.latency)
        .map(|(v, l)| match (v, l) {
            (Verdict::Ok, Some(l)) => l.as_nanos() as u64,
            _ => u64::MAX,
        })
        .collect();
    latency_ns.sort_unstable();
    let mut late_ns: Vec<u64> = win.late.iter().map(|l| l.as_nanos() as u64).collect();
    late_ns.sort_unstable();
    OpenStats {
        latency_ns,
        late_ns,
    }
}

fn started(server: std::io::Result<Server>, out: &mut Outcome) -> Option<Server> {
    server
        .map_err(|e| out.check(false, || format!("server failed to start: {e}")))
        .ok()
}

/// Lets connections, threads and caches settle before anything counts.
fn warm_up(server: &Server, oracle: &mut Oracle<'_>, spec: &Spec, seed: u64, out: &mut Outcome) {
    let requests = loadgen::gen_requests(&spec.mix, seed ^ 0x3A3A, 0, (spec.rate * 0.2) as usize);
    open_window(server, oracle, &requests, spec.rate, out);
}

/// One closed-loop window: [`CLOSED_CONNS`] connections, each keeping
/// [`IN_FLIGHT`] requests outstanding. Returns their replies per second
/// together.
fn closed_window(server: &Server, sets: &[Prepared], len: Duration, out: &mut Outcome) -> f64 {
    let start = Instant::now() + Duration::from_millis(20);
    let tallies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = sets
            .iter()
            .map(|set| {
                s.spawn(|| {
                    loadgen::closed_loop(server.local_addr(), set, IN_FLIGHT, start, len, GRACE)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    let mut rate = 0.0;
    for t in tallies {
        match t {
            Ok(t) => {
                rate += t.rate;
                out.tally(t.sent, t.failed, || {
                    format!("closed loop: {} of {} requests failed", t.failed, t.sent)
                });
            }
            Err(e) => out.check(false, || format!("closed loop failed: {e}")),
        }
    }
    rate
}

/// The untraced run: `Server::spawn` as set-up, then open-loop latency
/// windows with closed-loop capacity windows between them.
#[must_use]
pub fn run(workload: &str, seed: u64, budget: &Budget) -> Outcome {
    let spec = spec(workload);
    let mut out = Outcome::default();
    let (server, setup_s) = budget.time_setup(|| Server::spawn(ServerConfig::default()));
    let Some(server) = started(server, &mut out) else {
        return out;
    };
    let ladders = Ladders::build();
    let mut oracle = Oracle::new(&ladders);
    warm_up(&server, &mut oracle, &spec, seed, &mut out);
    let sets: Vec<Prepared> = (0..CLOSED_CONNS as u64)
        .map(|c| {
            let requests = loadgen::gen_requests(
                &spec.mix,
                seed ^ (0xC105ED + c),
                (1 << 48) + (c << 32),
                CLOSED_SET,
            );
            Prepared::new(&mut oracle, &requests)
        })
        .collect();

    let (windows, len) = phase(budget, WINDOWS, OPEN_SHARE);
    let (_, closed_len) = phase(budget, WINDOWS, CLOSED_SHARE);
    let (mut p50_ms, mut p99_us, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    for w in 0..windows {
        let requests = window_requests(&spec, seed, u64::from(w), len);
        let s = open_window(&server, &mut oracle, &requests, spec.rate, &mut out);
        let at = |p| percentile(&s.latency_ns, p).unwrap_or(u64::MAX) as f64;
        p50_ms.push(at(0.5) / 1e6);
        p99_us.push(at(0.99) / 1e3);
        // The two phases alternate rather than run one after the other:
        // the host's speed drifts over seconds, and both should read the
        // same mix of it.
        capacity.push(closed_window(&server, &sets, closed_len, &mut out));
    }
    let stats = server.shutdown();
    out.check(stats.write_failures == 0, || {
        format!("{} reply writes failed", stats.write_failures)
    });

    out.set("setup_s", setup_s);
    // The windows' rates cluster in two groups that a median flips between,
    // so capacity is their mean: the closed loop's rate over all of them.
    out.set(
        "throughput_per_s",
        capacity.iter().sum::<f64>() / capacity.len() as f64,
    );
    out.set("latency_p50_ms", median(&p50_ms).expect("open windows"));
    out.set("serve_p99_us", median(&p99_us).expect("open windows"));
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    eprintln!(
        "{workload}: open-loop p50 by window {p50_ms:.4?} ms, p99 {p99_us:.0?} us; \
         closed-loop capacity by window {capacity:.0?} req/s"
    );
    out
}

const ENGINE_SPANS: [&str; 4] = [
    "server.engine.mul",
    "server.engine.sad",
    "server.engine.fir",
    "server.engine.dct",
];

/// The per-request stages of the replay, with their metric names.
const STAGES: [(&str, &str); 6] = [
    (
        "server.proto.encode_request",
        "server.proto.encode_request_ns",
    ),
    (
        "server.proto.decode_request",
        "server.proto.decode_request_ns",
    ),
    ("server.ladder.select", "server.ladder.select_ns"),
    ("server.tenant.decide", "server.tenant.decide_ns"),
    ("server.proto.encode_reply", "server.proto.encode_reply_ns"),
    ("server.proto.decode_reply", "server.proto.decode_reply_ns"),
];

/// What the worker's engine computes for one request at `config`.
fn evaluate(ladders: &Ladders, body: &RequestBody, config: usize) -> Values {
    match body {
        RequestBody::Mul(pairs) => Values::Mul(engine::eval_mul(&ladders.mul[config], pairs)),
        RequestBody::Sad(blocks) => Values::Sad(engine::eval_sad(&ladders.sad[config], blocks)),
        RequestBody::Fir(samples) => {
            Values::Fir(engine::eval_fir(&ladders.fir[config], &[samples.as_slice()]).remove(0))
        }
        RequestBody::Dct(blocks) => Values::Dct(engine::eval_dct(&ladders.dct[config], blocks)),
        RequestBody::Ping => unreachable!("workloads carry no pings"),
    }
}

/// The `(approximate, exact)` pair of a request's first item that the
/// worker feeds its quality monitor when it samples.
fn first_item_pair(body: &RequestBody, values: &Values) -> (i64, i64) {
    match (body, values) {
        (RequestBody::Mul(pairs), Values::Mul(v)) => {
            let (a, b) = pairs[0];
            (i64::from(v[0]), i64::from(a) * i64::from(b))
        }
        (RequestBody::Sad(blocks), Values::Sad(v)) => {
            let b = &blocks[0];
            let exact: i64 = b
                .cur
                .iter()
                .zip(&b.refb)
                .map(|(&c, &r)| i64::from(c.abs_diff(r)))
                .sum();
            (i64::from(v[0]), exact)
        }
        (RequestBody::Fir(samples), Values::Fir(v)) => {
            let wide: Vec<u64> = samples.iter().map(|&s| u64::from(s)).collect();
            let exact = xlac_accel::fir::FirAccelerator::apply_exact(
                &xlac_server::ladder::FIR_COEFFS,
                &wide,
            );
            (i64::from(v[0]), exact[0])
        }
        (RequestBody::Dct(blocks), Values::Dct(v)) => (
            i64::from(v[0][0]),
            i64::from(engine::eval_dct_exact(&blocks[..1])[0][0]),
        ),
        _ => unreachable!("values always answer the request's kernel"),
    }
}

/// Pushes `requests` one at a time through the request path's stages as a
/// worker runs them: decode, ladder selection, tenant control, the engine,
/// feedback, reply encoding, and the client's encode and decode around
/// them. Returns the decoded replies.
fn replay(
    ladders: &Ladders,
    requests: &[Request],
    workers: usize,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Reply> {
    let mut shards: Vec<ShardTenants> = (0..workers)
        .map(|_| ShardTenants::new(TenantPolicy::default()))
        .collect();
    let mut replies = Vec::with_capacity(requests.len());
    for req in requests {
        let key = req.req_id;
        let parent = tracer
            .as_deref_mut()
            .map(|t| t.begin("server.request", None, key));
        let tr = &mut tracer;
        let payload = timed(tr, STAGES[0].0, parent, key, || encode_request(req));
        let decoded = timed(tr, STAGES[1].0, parent, key, || decode_request(&payload))
            .expect("the replay decodes what it encoded");
        let kernel = decoded.body.kernel().expect("workloads carry no pings");
        let (tenant, max_med, items) = (decoded.tenant, decoded.max_med, decoded.body.items());
        let base = timed(tr, STAGES[2].0, parent, key, || {
            ladders.select(kernel, max_med)
        });
        let shard = &mut shards[tenant as usize % workers];
        let d = timed(tr, STAGES[3].0, parent, key, || {
            shard
                .state(tenant, kernel, max_med)
                .decide(base, max_med, items)
        });
        let values = timed(tr, ENGINE_SPANS[kernel.index()], parent, key, || {
            evaluate(ladders, &decoded.body, d.config)
        });
        timed(tr, STAGES[3].0, parent, key, || {
            let state = shard.state(tenant, kernel, max_med);
            if d.sample && items > 0 {
                let (approx, exact) = first_item_pair(&decoded.body, &values);
                state.record_sample(approx, exact);
            }
            state.charge(items, ladders.med_bound(kernel, d.config));
        });
        let reply = Reply::Values {
            req_id: key,
            config: d.config as u32,
            values,
        };
        let bytes = timed(tr, STAGES[4].0, parent, key, || encode_reply(&reply));
        let back = timed(tr, STAGES[5].0, parent, key, || decode_reply(&bytes))
            .expect("the replay decodes what it encoded");
        if let (Some(t), Some(p)) = (tracer.as_deref_mut(), parent) {
            t.end(p);
        }
        replies.push(back);
    }
    replies
}

/// The traced pass: a live open-loop phase for the server's counters and
/// the generator's health, then the in-process replay of window 0's
/// request stream, untraced and traced.
#[must_use]
pub fn trace(workload: &str, seed: u64, budget: &Budget, tracer: &mut Tracer) -> Outcome {
    let spec = spec(workload);
    let mut out = Outcome::default();
    let Some(server) = started(Server::spawn(ServerConfig::default()), &mut out) else {
        return out;
    };
    let ladders = Ladders::build();
    let mut oracle = Oracle::new(&ladders);
    warm_up(&server, &mut oracle, &spec, seed, &mut out);

    let (live_windows, len) = phase(budget, WINDOWS, 0.5);
    let before = server.stats();
    let (mut latency, mut late, mut p50_ns) = (Vec::new(), Vec::new(), Vec::new());
    for w in 0..u64::from(live_windows) {
        let requests = window_requests(&spec, seed, w, len);
        let s = open_window(&server, &mut oracle, &requests, spec.rate, &mut out);
        p50_ns.push(percentile(&s.latency_ns, 0.5).unwrap_or(u64::MAX) as f64);
        latency.extend(s.latency_ns);
        late.extend(s.late_ns);
    }
    let after = server.stats();
    drop(server);
    latency.sort_unstable();
    late.sort_unstable();

    let requests = window_requests(&spec, seed, 0, len);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let untraced = replay(&ladders, &requests, workers, None);
    let untraced_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let traced = replay(&ladders, &requests, workers, Some(tracer));
    let traced_s = t0.elapsed().as_secs_f64();
    let set = Prepared::new(&mut oracle, &requests);
    let verdicts: Vec<Verdict> = traced
        .iter()
        .enumerate()
        .map(|(k, reply)| set.verdict(k, reply))
        .collect();
    tally(&mut out, "replay", &verdicts);
    out.check(traced == untraced, || {
        "traced and untraced replays differ".into()
    });

    let n = requests.len() as f64;
    let mut staged_ns = 0.0;
    for (span, metric) in STAGES {
        let ns = tracer.total(span).as_secs_f64() * 1e9;
        out.set(metric, ns / n);
        staged_ns += ns;
    }
    let items = |k: Kernel| {
        requests
            .iter()
            .filter(|r| r.body.kernel() == Some(k))
            .map(|r| r.body.items())
            .sum::<usize>()
    };
    for (kernel, metric) in Kernel::ALL.into_iter().zip([
        "server.engine.mul_ns_per_item",
        "server.engine.sad_ns_per_item",
        "server.engine.fir_ns_per_item",
        "server.engine.dct_ns_per_item",
    ]) {
        let ns = tracer.total(ENGINE_SPANS[kernel.index()]).as_secs_f64() * 1e9;
        staged_ns += ns;
        if items(kernel) > 0 {
            out.set(metric, ns / items(kernel) as f64);
        }
    }
    let live_p50_ns = median(&p50_ns).expect("at least one live window");
    out.set(
        "server.transport_queue_us",
        (live_p50_ns - staged_ns / n) / 1e3,
    );
    out.set("trace.overhead", traced_s / untraced_s);
    let live = |counter: fn(&StatsSnapshot) -> u64| (counter(&after) - counter(&before)) as f64;
    out.set("server.batches", live(|s| s.batches));
    out.set(
        "server.requests_per_batch",
        live(|s| s.requests) / live(|s| s.batches).max(1.0),
    );
    out.set("server.samples", live(|s| s.samples));
    out.set("server.exact_forced", live(|s| s.exact_forced));
    out.set("server.queue_depth_hw", after.queue_depth_hw as f64);
    out.set("server.overloaded", live(|s| s.overloaded));
    out.set("server.write_failures", live(|s| s.write_failures));
    let ms = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e6;
    out.set("loadgen.late_p99_ms", ms(percentile(&late, 0.99)));
    out.set("loadgen.late_max_ms", ms(late.last().copied()));
    out.set("loadgen.samples", latency.len() as f64);
    out.set("serve.p999_us", ms(supported_tail(&latency)) * 1e3);
    out
}
