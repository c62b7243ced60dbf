//! Soak / backpressure suite (DESIGN.md §15.7): the server past
//! capacity must stay bounded and lossless-or-explicit — every request
//! draws exactly one terminal reply (`Values` or `Overloaded`), never
//! zero, never two; shard queues never grow past their cap (the memory
//! bound); and budget-exhausted tenants degrade to the exact
//! configuration instead of being dropped.
//!
//! The flood runs ~1.5 s by default (CI smoke size) and 30 s with
//! `XLAC_SOAK=1`.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use xlac_server::{
    Client, Kernel, Reply, Request, RequestBody, Server, ServerConfig, TenantPolicy, Values,
};

fn soak_duration() -> Duration {
    if std::env::var("XLAC_SOAK").as_deref() == Ok("1") {
        Duration::from_secs(30)
    } else {
        Duration::from_millis(1500)
    }
}

/// Open-loop flood from several connections into deliberately tiny
/// shard queues: backpressure must engage (`Overloaded` replies), no
/// reply may be lost or duplicated, every `Values` reply must be exact
/// (the flood asks for `max_med = 0`), and the queue high-water mark
/// must respect the configured cap.
#[test]
fn flood_past_capacity_is_bounded_and_lossless() {
    const QUEUE_CAP: usize = 16;
    const CONNS: u64 = 4;
    const WINDOW: usize = 512;
    let server = Server::spawn(ServerConfig {
        workers: 2,
        queue_cap: QUEUE_CAP,
        max_batch: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let deadline = Instant::now() + soak_duration();

    let handles: Vec<_> = (0..CONNS)
        .map(|conn| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut outstanding: HashSet<u64> = HashSet::new();
                let mut seq = 0u64;
                let mut values = 0u64;
                let mut overloaded = 0u64;
                let recv_one = |outstanding: &mut HashSet<u64>,
                                c: &mut Client,
                                values: &mut u64,
                                overloaded: &mut u64| {
                    match c.recv().unwrap() {
                        Reply::Values { req_id, config, values: Values::Mul(v) } => {
                            assert!(outstanding.remove(&req_id), "dup/unknown reply {req_id}");
                            assert_eq!(config, 0, "max_med 0 must serve exact");
                            let (a, b) = ((req_id >> 8) as u8, req_id as u8);
                            assert_eq!(v, vec![u16::from(a) * u16::from(b)], "req {req_id}");
                            *values += 1;
                        }
                        Reply::Overloaded { req_id, queue_depth } => {
                            assert!(outstanding.remove(&req_id), "dup/unknown overload {req_id}");
                            assert_eq!(queue_depth as usize, QUEUE_CAP);
                            *overloaded += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                };
                while Instant::now() < deadline {
                    let req_id = conn << 48 | seq;
                    seq += 1;
                    let (a, b) = ((req_id >> 8) as u8, req_id as u8);
                    c.send(&Request {
                        req_id,
                        tenant: (req_id % 5) as u32,
                        max_med: 0.0,
                        body: RequestBody::Mul(vec![(a, b)]),
                    })
                    .unwrap();
                    outstanding.insert(req_id);
                    if outstanding.len() >= WINDOW {
                        recv_one(&mut outstanding, &mut c, &mut values, &mut overloaded);
                    }
                }
                while !outstanding.is_empty() {
                    recv_one(&mut outstanding, &mut c, &mut values, &mut overloaded);
                }
                (seq, values, overloaded)
            })
        })
        .collect();

    let mut sent = 0u64;
    let mut values = 0u64;
    let mut overloaded = 0u64;
    for h in handles {
        let (s, v, o) = h.join().expect("flood connection panicked");
        assert_eq!(s, v + o, "every request needs exactly one terminal reply");
        sent += s;
        values += v;
        overloaded += o;
    }
    assert!(sent > 0);
    let stats = server.shutdown();
    assert_eq!(stats.values_replies, values);
    assert_eq!(stats.overloaded, overloaded);
    assert!(
        stats.queue_depth_hw <= QUEUE_CAP as u64,
        "queue high-water {} exceeds the {QUEUE_CAP} cap (memory bound broken)",
        stats.queue_depth_hw
    );
    // The flood ran far past capacity, so backpressure must have engaged.
    assert!(overloaded > 0, "flood never tripped backpressure ({sent} sent)");
}

/// A tenant that spends its MED budget must be degraded to the exact
/// configuration — still answered, bit-exactly — rather than dropped.
#[test]
fn budget_exhaustion_degrades_to_exact_not_drops() {
    let policy = TenantPolicy {
        budget_med_per_window: 50.0,
        window_items: 1 << 20, // never rolls inside this test
        ..TenantPolicy::default()
    };
    let server =
        Server::spawn(ServerConfig { workers: 2, policy, ..ServerConfig::default() }).unwrap();
    let base = server.ladders().select(Kernel::Mul, 1e12);
    assert!(base > 0, "an unbounded target must pick an approximate entry");
    let per_request = 16.0 * server.ladders().med_bound(Kernel::Mul, base);
    assert!(per_request > 0.0);

    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let n = 200u64;
    let mut configs = Vec::with_capacity(n as usize);
    for i in 0..n {
        c.send(&Request {
            req_id: i,
            tenant: 7,
            max_med: 1e12,
            body: RequestBody::Mul((0..16).map(|k| (i as u8, k as u8)).collect()),
        })
        .unwrap();
        match c.recv().unwrap() {
            Reply::Values { req_id, config, values: Values::Mul(v) } => {
                assert_eq!(req_id, i);
                // Bit-exact against the scalar model of the served entry.
                let m = &server.ladders().mul[config as usize].mul;
                for (k, &got) in v.iter().enumerate() {
                    assert_eq!(
                        u64::from(got),
                        xlac_multipliers::Multiplier::mul(m, u64::from(i as u8), k as u64),
                        "req {i} item {k} config {config}"
                    );
                }
                configs.push(config);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(configs.len() as u64, n, "no request may be dropped");
    assert_eq!(configs[0] as usize, base, "fresh budget serves the manager's pick");
    assert_eq!(*configs.last().unwrap(), 0, "exhausted budget degrades to exact");
    // The spend crosses the budget after ~budget/per_request requests;
    // every request after the crossing must be exact.
    let crossing = (50.0 / per_request).ceil() as usize + 1;
    assert!(
        configs[crossing..].iter().all(|&c| c == 0),
        "configs after exhaustion: {:?}",
        &configs[crossing.min(configs.len())..]
    );
    let stats = server.shutdown();
    assert!(stats.exact_forced > 0, "budget control never engaged");
    assert_eq!(stats.values_replies, n);
}
