//! Differential suite for the compute server (DESIGN.md §15.6).
//!
//! The server's contract: every batched reply is **bit-identical** to
//! the single-threaded library model of the configuration the reply
//! names, no matter how requests were coalesced, which connection's
//! reader served them, or how many shards the server runs. Two pins:
//!
//! * every `Values` reply is re-derived from the scalar golden models
//!   (`WallaceMultiplier::mul`, `SadAccelerator::sad`,
//!   `FirAccelerator::apply`, `DctAccelerator::forward`) of the ladder
//!   entry named by the reply's `config` — exhaustively over the full
//!   8×8 operand space for the multiplier, and over ≥ 10⁵ seeded items
//!   across the four kernels otherwise;
//! * the complete `req_id → (config, values)` reply map is identical at
//!   1, 4 and 8 shards, from one connection and from three sending at
//!   once (per-tenant sharding, one claim holder per shard and
//!   batch-composition invariance — the determinism argument of
//!   DESIGN.md §15.3).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use xlac_core::rng::{DefaultRng, Rng};
use xlac_multipliers::Multiplier;
use xlac_server::{
    Client, Kernel, Ladders, Reply, Request, RequestBody, SadPair, Server, ServerConfig,
    TenantPolicy, Values,
};

/// Recomputes a reply through the scalar library models of ladder entry
/// `config` and asserts bit-equality, item by item.
fn assert_reply_exact(ladders: &Ladders, body: &RequestBody, config: usize, values: &Values) {
    match (body, values) {
        (RequestBody::Mul(pairs), Values::Mul(v)) => {
            assert_eq!(v.len(), pairs.len());
            let m = &ladders.mul[config].mul;
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    u64::from(v[i]),
                    m.mul(u64::from(a), u64::from(b)),
                    "mul config {config} item {i} ({a} x {b})"
                );
            }
        }
        (RequestBody::Sad(blocks), Values::Sad(v)) => {
            assert_eq!(v.len(), blocks.len());
            let s = &ladders.sad[config].sad;
            for (i, blk) in blocks.iter().enumerate() {
                let cur: Vec<u64> = blk.cur.iter().map(|&p| u64::from(p)).collect();
                let refb: Vec<u64> = blk.refb.iter().map(|&p| u64::from(p)).collect();
                assert_eq!(
                    u64::from(v[i]),
                    s.sad(&cur, &refb).unwrap(),
                    "sad config {config} item {i}"
                );
            }
        }
        (RequestBody::Fir(samples), Values::Fir(v)) => {
            assert_eq!(v.len(), samples.len());
            let wide: Vec<u64> = samples.iter().map(|&p| u64::from(p)).collect();
            let expect = ladders.fir[config].fir.apply(&wide);
            for (i, (&got, &want)) in v.iter().zip(&expect).enumerate() {
                assert_eq!(i64::from(got), want, "fir config {config} output {i}");
            }
        }
        (RequestBody::Dct(blocks), Values::Dct(v)) => {
            assert_eq!(v.len(), blocks.len());
            let d = &ladders.dct[config].dct;
            for (i, blk) in blocks.iter().enumerate() {
                let mut grid = [[0i64; 4]; 4];
                for (k, &r) in blk.iter().enumerate() {
                    grid[k / 4][k % 4] = i64::from(r);
                }
                let y = d.forward(&grid);
                for (k, &got) in v[i].iter().enumerate() {
                    assert_eq!(
                        i64::from(got),
                        y[k / 4][k % 4],
                        "dct config {config} block {i} coeff {k}"
                    );
                }
            }
        }
        other => panic!("reply kernel does not match the request: {other:?}"),
    }
}

/// Builds the seeded mixed workload: `n` requests across all four
/// kernels, six tenants and per-kernel quality targets spanning exact to
/// unconstrained. Pure function of the seed.
fn mixed_workload(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let meds: [&[f64]; 4] = [
        &[0.0, 0.5, 2.0, 8.0, 1e12], // mul
        &[0.0, 1.0, 16.0, 1e12],     // sad
        &[0.0, 50.0, 1e4, 1e12],     // fir
        &[0.0, 100.0, 1e5, 1e12],    // dct
    ];
    (0..n as u64)
        .map(|i| {
            let kernel = Kernel::ALL[(rng.next_u64() % 4) as usize];
            let items = 1 + (rng.next_u64() % 16) as usize;
            let body = match kernel {
                Kernel::Mul => RequestBody::Mul(
                    (0..items).map(|_| (rng.next_u64() as u8, rng.next_u64() as u8)).collect(),
                ),
                Kernel::Sad => RequestBody::Sad(
                    (0..items)
                        .map(|_| {
                            let mut cur = [0u8; 16];
                            let mut refb = [0u8; 16];
                            cur.iter_mut().for_each(|p| *p = rng.next_u64() as u8);
                            refb.iter_mut().for_each(|p| *p = rng.next_u64() as u8);
                            SadPair { cur, refb }
                        })
                        .collect(),
                ),
                Kernel::Fir => RequestBody::Fir((0..items).map(|_| rng.next_u64() as u8).collect()),
                Kernel::Dct => RequestBody::Dct(
                    (0..items)
                        .map(|_| {
                            let mut blk = [0i16; 16];
                            blk.iter_mut().for_each(|r| *r = ((rng.next_u64() % 511) as i16) - 255);
                            blk
                        })
                        .collect(),
                ),
            };
            let scale = meds[kernel.index()];
            Request {
                req_id: i,
                tenant: (rng.next_u64() % 6) as u32,
                max_med: scale[(rng.next_u64() as usize) % scale.len()],
                body,
            }
        })
        .collect()
}

/// Sends `requests` over one pipelined connection (window 64), verifies
/// every reply against the scalar twins and returns the full reply map.
fn run_and_verify(
    server: &Server,
    requests: &[Request],
    window: usize,
) -> BTreeMap<u64, (u32, Values)> {
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let by_id: BTreeMap<u64, &Request> = requests.iter().map(|r| (r.req_id, r)).collect();
    let mut replies = BTreeMap::new();
    let mut outstanding = 0usize;
    let recv_one = |client: &mut Client, replies: &mut BTreeMap<u64, (u32, Values)>| match client
        .recv()
        .unwrap()
    {
        Reply::Values { req_id, config, values } => {
            let req = by_id[&req_id];
            assert_reply_exact(server.ladders(), &req.body, config as usize, &values);
            assert!(
                replies.insert(req_id, (config, values)).is_none(),
                "duplicate reply for {req_id}"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    };
    for req in requests {
        client.send(req).unwrap();
        outstanding += 1;
        if outstanding >= window {
            recv_one(&mut client, &mut replies);
            outstanding -= 1;
        }
    }
    while outstanding > 0 {
        recv_one(&mut client, &mut replies);
        outstanding -= 1;
    }
    assert_eq!(replies.len(), requests.len(), "every request got exactly one reply");
    replies
}

fn spawn(workers: usize) -> Server {
    Server::spawn(ServerConfig { workers, ..ServerConfig::default() }).unwrap()
}

/// Exhaustive 8×8 multiplier space through the server — an exhaustive
/// check *is* a proof — at both ends of the quality axis: the exact
/// entry (`max_med = 0`) and the most aggressive entry the ladder
/// admits (`max_med = 1e12`). 2 × 65 536 operand pairs.
#[test]
fn mul_replies_are_exhaustively_bit_exact() {
    let server = spawn(4);
    for (t, max_med) in [(0u32, 0.0), (1u32, 1e12)] {
        let requests: Vec<Request> = (0..16u64)
            .map(|chunk| {
                let lo = chunk * 4096;
                Request {
                    req_id: u64::from(t) << 32 | chunk,
                    tenant: t,
                    max_med,
                    body: RequestBody::Mul(
                        (lo..lo + 4096).map(|v| ((v >> 8) as u8, v as u8)).collect(),
                    ),
                }
            })
            .collect();
        let replies = run_and_verify(&server, &requests, 4);
        // The quality targets sit strictly clear of every sampled error,
        // so the monitor never moves the served configuration.
        let expect = server.ladders().select(Kernel::Mul, max_med) as u32;
        for (req_id, (config, _)) in &replies {
            assert_eq!(*config, expect, "req {req_id} at max_med {max_med}");
        }
    }
    server.shutdown();
}

/// The seeded mixed workload (all four kernels, six tenants, mixed
/// quality targets) is bit-exact against the scalar twins, and the full
/// reply map — configs included — is identical at 1, 4 and 8 workers.
#[test]
fn mixed_workload_is_bit_exact_and_worker_count_invisible() {
    let requests = mixed_workload(1800, 0xD1FF_5E21);
    let mut maps = Vec::new();
    for workers in [1usize, 4, 8] {
        let server = spawn(workers);
        maps.push((workers, run_and_verify(&server, &requests, 64)));
        server.shutdown();
    }
    let (_, reference) = &maps[0];
    for (workers, map) in &maps[1..] {
        assert_eq!(map, reference, "reply map at {workers} workers diverged from 1 worker");
    }
}

/// The seeded mixed workload split by tenant over three connections that
/// send at the same time (each tenant keeps one connection, so its order
/// is fixed): readers contend for the same shard's claim, and the reply
/// map must still equal the one-connection reference at 1, 4 and 8
/// shards. A tight budget and frequent sampling make every served config
/// depend on the tenant's whole history, so a decision taken against
/// another drainer's copy of the tenant state would show in the map.
#[test]
fn concurrent_connections_match_the_one_connection_reference() {
    let policy = TenantPolicy {
        budget_med_per_window: 64.0,
        window_items: 48,
        sample_every: 2,
        monitor_window: 4,
        ..TenantPolicy::default()
    };
    let spawn = |workers| {
        Server::spawn(ServerConfig { workers, policy, ..ServerConfig::default() }).unwrap()
    };
    let requests = mixed_workload(1800, 0xD1FF_5E21);
    let server = spawn(1);
    let reference = run_and_verify(&server, &requests, 64);
    assert!(server.shutdown().exact_forced > 0, "the budget never forced exact");
    let served: BTreeSet<u32> = reference.values().map(|(config, _)| *config).collect();
    assert!(served.len() > 2, "too few distinct configs to tell orders apart: {served:?}");
    let parts: Vec<Vec<Request>> = (0..3)
        .map(|conn| requests.iter().filter(|r| r.tenant % 3 == conn).cloned().collect())
        .collect();
    for workers in [1usize, 4, 8] {
        let server = spawn(workers);
        let start = std::sync::Barrier::new(parts.len());
        let mut map = BTreeMap::new();
        std::thread::scope(|s| {
            let senders: Vec<_> = parts
                .iter()
                .map(|part| {
                    let (server, start) = (&server, &start);
                    s.spawn(move || {
                        start.wait();
                        run_and_verify(server, part, 64)
                    })
                })
                .collect();
            for sender in senders {
                map.extend(sender.join().expect("connection thread panicked"));
            }
        });
        server.shutdown();
        let diverged = reference.iter().filter(|&(id, reply)| map.get(id) != Some(reply)).count();
        assert_eq!(
            diverged,
            0,
            "3 connections at {workers} shards diverged from 1 connection on {diverged} of {} \
             requests",
            reference.len()
        );
    }
}

/// Seeded per-kernel bulk sweeps: ≥ 10⁵ items total cross the server and
/// every value survives the scalar-twin comparison. Single large
/// requests exercise the widest `[u64; 8]` plane batches.
#[test]
fn bulk_seeded_items_are_bit_exact() {
    let server = spawn(2);
    let mut rng = DefaultRng::seed_from_u64(0xB17_E7AC7);
    let mut requests = Vec::new();
    let mut req_id = 0u64;
    // 24 x 4096 multiplier items = 98 304.
    for _ in 0..24 {
        requests.push(Request {
            req_id,
            tenant: (req_id % 4) as u32,
            max_med: [0.0, 2.0, 1e12][(req_id % 3) as usize],
            body: RequestBody::Mul(
                (0..4096).map(|_| (rng.next_u64() as u8, rng.next_u64() as u8)).collect(),
            ),
        });
        req_id += 1;
    }
    // 4 x 1024 SAD blocks + 4 x 2048-sample FIR streams + 4 x 256 DCT
    // blocks = 17 408 more items.
    for i in 0..4u64 {
        let mut blocks = Vec::with_capacity(1024);
        for _ in 0..1024 {
            let mut cur = [0u8; 16];
            let mut refb = [0u8; 16];
            cur.iter_mut().for_each(|p| *p = rng.next_u64() as u8);
            refb.iter_mut().for_each(|p| *p = rng.next_u64() as u8);
            blocks.push(SadPair { cur, refb });
        }
        requests.push(Request {
            req_id,
            tenant: i as u32,
            max_med: [0.0, 1e12][(i % 2) as usize],
            body: RequestBody::Sad(blocks),
        });
        req_id += 1;
        requests.push(Request {
            req_id,
            tenant: i as u32,
            max_med: [0.0, 1e12][(i % 2) as usize],
            body: RequestBody::Fir((0..2048).map(|_| rng.next_u64() as u8).collect()),
        });
        req_id += 1;
        let mut dct = Vec::with_capacity(256);
        for _ in 0..256 {
            let mut blk = [0i16; 16];
            blk.iter_mut().for_each(|r| *r = ((rng.next_u64() % 511) as i16) - 255);
            dct.push(blk);
        }
        requests.push(Request {
            req_id,
            tenant: i as u32,
            max_med: [0.0, 1e12][(i % 2) as usize],
            body: RequestBody::Dct(dct),
        });
        req_id += 1;
    }
    let total: usize = requests.iter().map(|r| r.body.items()).sum();
    assert!(total >= 100_000, "suite must cross 1e5 items, got {total}");
    run_and_verify(&server, &requests, 4);
    server.shutdown();
}
