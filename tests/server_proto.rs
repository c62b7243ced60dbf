//! Protocol-robustness suite (DESIGN.md §15.2): the server must survive
//! arbitrary bytes on the wire — truncated frames, oversized length
//! prefixes, bad opcodes, mid-frame disconnects, slowloris drip-feeds —
//! without panicking, answering every malformed *payload* with a typed
//! error frame and closing only on *frame-level* poison, while
//! concurrent well-formed tenant streams keep getting bit-exact replies.
//!
//! Two runtime cases ride along: a request queued behind a busy drainer
//! is served without its connection sending more, and shutdown answers
//! every request it admitted.
//!
//! The golden fixtures under `tests/fixtures/proto/` pin the wire bytes
//! of each malformed class (and one well-formed ping) so the error
//! taxonomy cannot drift silently.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xlac_core::rng::{DefaultRng, Rng};
use xlac_server::{Client, ErrorCode, Reply, Request, RequestBody, Server, ServerConfig, Values};

fn spawn() -> Server {
    Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap()
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/proto/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"))
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// Round-trips a ping and checks the pong — the liveness probe used
/// after every hostile interaction.
fn assert_alive(server: &Server) {
    let mut c = connect(server);
    c.send(&Request { req_id: 999, tenant: 0, max_med: 0.0, body: RequestBody::Ping }).unwrap();
    assert_eq!(c.recv().unwrap(), Reply::Pong { req_id: 999 });
}

/// Every malformed-payload fixture draws its pinned typed error frame
/// and leaves the connection usable; the two frame-level fixtures are
/// fatal: error frame, then EOF. The well-formed ping fixture pongs.
#[test]
fn golden_fixtures_draw_their_pinned_replies() {
    let server = spawn();
    let survivable: [(&str, ErrorCode, u64); 6] = [
        ("bad_opcode.bin", ErrorCode::BadOpcode, 42),
        ("bad_count.bin", ErrorCode::BadCount, 1),
        ("short_body.bin", ErrorCode::BadBody, 2),
        ("trailing_garbage.bin", ErrorCode::BadBody, 3),
        ("bad_quality.bin", ErrorCode::BadQuality, 4),
        ("bad_operand.bin", ErrorCode::BadOperand, 5),
    ];
    for (name, code, req_id) in survivable {
        let mut c = connect(&server);
        c.send_raw(&fixture(name)).unwrap();
        match c.recv().unwrap() {
            Reply::Error { req_id: got, code: got_code, .. } => {
                assert_eq!((got_code, got), (code, req_id), "{name}");
            }
            other => panic!("{name}: unexpected {other:?}"),
        }
        // The frame boundary survived, so the same connection still
        // serves well-formed requests.
        c.send(&Request { req_id: 1000, tenant: 0, max_med: 0.0, body: RequestBody::Ping })
            .unwrap();
        assert_eq!(c.recv().unwrap(), Reply::Pong { req_id: 1000 }, "{name} poisoned the conn");
    }

    for (name, code) in
        [("oversized.bin", ErrorCode::FrameOversized), ("empty_frame.bin", ErrorCode::FrameEmpty)]
    {
        let mut c = connect(&server);
        c.send_raw(&fixture(name)).unwrap();
        match c.recv().unwrap() {
            Reply::Error { code: got, .. } => assert_eq!(got, code, "{name}"),
            other => panic!("{name}: unexpected {other:?}"),
        }
        // Frame-level poison is fatal: the server closes the stream.
        assert_eq!(
            c.recv().unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof,
            "{name} must close the connection"
        );
        assert_alive(&server);
    }

    let mut c = connect(&server);
    c.send_raw(&fixture("ping.bin")).unwrap();
    assert_eq!(c.recv().unwrap(), Reply::Pong { req_id: 7 });
    server.shutdown();
}

/// Mid-frame disconnects: a valid prefix of a well-formed frame, cut at
/// every interesting offset, then a hard close. The server must neither
/// panic nor leak the partial frame into a reply.
#[test]
fn truncated_frames_and_disconnects_do_not_wound_the_server() {
    let server = spawn();
    let req = Request {
        req_id: 55,
        tenant: 3,
        max_med: 0.0,
        body: RequestBody::Mul(vec![(9, 9), (200, 200)]),
    };
    let payload = xlac_server::proto::encode_request(&req);
    let frame = xlac_core::wire::frame(&payload).unwrap();
    for cut in [1, 3, 4, 5, frame.len() / 2, frame.len() - 1] {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(&frame[..cut]).unwrap();
        drop(s); // mid-frame disconnect
    }
    assert_alive(&server);
    server.shutdown();
}

/// Slowloris: one byte at a time with pauses. The frame must still
/// assemble and answer correctly — slow peers only tie up their own
/// reader thread, never the protocol state.
#[test]
fn slowloris_drip_feed_still_assembles_frames() {
    let server = spawn();
    let req =
        Request { req_id: 77, tenant: 1, max_med: 0.0, body: RequestBody::Mul(vec![(12, 11)]) };
    let payload = xlac_server::proto::encode_request(&req);
    let frame = xlac_core::wire::frame(&payload).unwrap();
    let mut c = connect(&server);
    for chunk in frame.chunks(1) {
        c.send_raw(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    match c.recv().unwrap() {
        Reply::Values { req_id, values: Values::Mul(v), .. } => {
            assert_eq!((req_id, v.as_slice()), (77, &[132u16][..]));
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

/// The seeded frame fuzzer: random garbage, bit-flipped valid frames,
/// random truncations and random-length splits, all interleaved with a
/// *concurrent well-formed tenant stream* on another connection. The
/// server never panics, the hostile connection only ever sees typed
/// error frames or EOF, and the honest stream's replies stay bit-exact.
#[test]
fn seeded_fuzz_never_corrupts_concurrent_streams() {
    let server = spawn();
    let addr = server.local_addr();
    let mut rng = DefaultRng::seed_from_u64(0xF022_FEED);

    // The honest tenant, running throughout on its own thread.
    let honest = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut pairs_by_id = std::collections::HashMap::new();
        for i in 0..400u64 {
            let pairs = vec![(i as u8, (i * 7) as u8), (255 - i as u8, 13)];
            pairs_by_id.insert(i, pairs.clone());
            c.send(&Request { req_id: i, tenant: 9, max_med: 0.0, body: RequestBody::Mul(pairs) })
                .unwrap();
            if i % 8 == 7 {
                for _ in 0..8 {
                    match c.recv().unwrap() {
                        Reply::Values { req_id, config, values: Values::Mul(v) } => {
                            assert_eq!(config, 0);
                            let pairs: &Vec<(u8, u8)> = &pairs_by_id[&req_id];
                            for (k, &(a, b)) in pairs.iter().enumerate() {
                                assert_eq!(
                                    u64::from(v[k]),
                                    u64::from(a) * u64::from(b),
                                    "req {req_id} item {k}"
                                );
                            }
                        }
                        other => panic!("honest stream got {other:?}"),
                    }
                }
            }
        }
        pairs_by_id.len()
    });

    // The fuzzer: 60 hostile connections with seeded attack shapes.
    let valid = xlac_core::wire::frame(&xlac_server::proto::encode_request(&Request {
        req_id: 1,
        tenant: 2,
        max_med: 1.0,
        body: RequestBody::Mul(vec![(3, 5)]),
    }))
    .unwrap();
    for conn in 0..60u32 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        match conn % 4 {
            0 => {
                // Pure random garbage (random length prefix included).
                let n = 1 + (rng.next_u64() % 200) as usize;
                let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                let _ = s.write_all(&bytes);
            }
            1 => {
                // A valid frame with one seeded bit flipped.
                let mut f = valid.clone();
                let bit = (rng.next_u64() % (f.len() as u64 * 8)) as usize;
                f[bit / 8] ^= 1 << (bit % 8);
                let _ = s.write_all(&f);
            }
            2 => {
                // A valid frame truncated at a seeded offset, then EOF.
                let cut = 1 + (rng.next_u64() % (valid.len() as u64 - 1)) as usize;
                let _ = s.write_all(&valid[..cut]);
            }
            _ => {
                // Valid frames split at seeded points across writes.
                let mut sent = 0;
                while sent < valid.len() {
                    let n = 1 + (rng.next_u64() % 6) as usize;
                    let end = valid.len().min(sent + n);
                    let _ = s.write_all(&valid[sent..end]);
                    sent = end;
                }
            }
        }
        drop(s);
    }

    assert_eq!(honest.join().expect("honest stream must not panic"), 400);
    assert_alive(&server);
    // Fuzz connections drop their sockets without reading, so their
    // replies may land as write failures — only the honest stream's 400
    // value replies are guaranteed on the counters.
    let stats = server.shutdown();
    assert!(stats.values_replies >= 400, "honest replies went missing: {stats:?}");
}

/// One client write of 64 kernel frames, with a ping and a malformed
/// payload in the middle, against 4-deep shard queues: the reader
/// enqueues each shard's run under one lock, so most of the run is
/// refused. Every request is still answered exactly once, with values or
/// `Overloaded`; the pong and the typed error arrive; the connection
/// stays open; and each tenant's value replies keep send order.
#[test]
fn batched_enqueue_answers_every_frame_of_one_write() {
    let server =
        Server::spawn(ServerConfig { workers: 2, queue_cap: 4, ..ServerConfig::default() })
            .unwrap();
    let frame =
        |req: &Request| xlac_core::wire::frame(&xlac_server::proto::encode_request(req)).unwrap();
    let mut bytes = Vec::new();
    for i in 0..64u64 {
        if i == 20 {
            bytes.extend(frame(&Request {
                req_id: 1000,
                tenant: 0,
                max_med: 0.0,
                body: RequestBody::Ping,
            }));
        }
        if i == 40 {
            bytes.extend(fixture("bad_opcode.bin"));
        }
        bytes.extend(frame(&Request {
            req_id: 100 + i,
            tenant: (i % 3) as u32,
            max_med: 0.0,
            body: RequestBody::Mul(vec![(i as u8, 3)]),
        }));
    }
    let mut c = connect(&server);
    c.send_raw(&bytes).unwrap();

    let mut answered = std::collections::BTreeMap::new();
    let mut values_by_tenant: [Vec<u64>; 3] = Default::default();
    let (mut pong, mut error) = (false, false);
    for _ in 0..66 {
        match c.recv().unwrap() {
            Reply::Values { req_id, config, values: Values::Mul(v) } => {
                let i = req_id - 100;
                assert_eq!((config, v), (0, vec![i as u16 * 3]), "req {req_id}");
                values_by_tenant[(i % 3) as usize].push(req_id);
                assert_eq!(answered.insert(req_id, true), None, "req {req_id} answered twice");
            }
            Reply::Overloaded { req_id, queue_depth } => {
                assert_eq!(queue_depth, 4);
                assert_eq!(answered.insert(req_id, false), None, "req {req_id} answered twice");
            }
            Reply::Pong { req_id } => {
                assert_eq!(req_id, 1000);
                assert!(!std::mem::replace(&mut pong, true), "two pongs");
            }
            Reply::Error { req_id, code, .. } => {
                assert_eq!((code, req_id), (ErrorCode::BadOpcode, 42));
                assert!(!std::mem::replace(&mut error, true), "two errors");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(pong && error, "pong {pong}, error {error}");
    assert_eq!(answered.keys().copied().collect::<Vec<_>>(), (100..164).collect::<Vec<_>>());
    for (tenant, ids) in values_by_tenant.iter().enumerate() {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "tenant {tenant} out of order: {ids:?}");
    }
    // The connection survived the bad payload and the refusals.
    c.send(&Request { req_id: 1001, tenant: 0, max_med: 0.0, body: RequestBody::Ping }).unwrap();
    assert_eq!(c.recv().unwrap(), Reply::Pong { req_id: 1001 });
    let stats = server.shutdown();
    assert_eq!(stats.requests + stats.overloaded, 64, "{stats:?}");
    assert!(stats.overloaded > 0, "the 4-deep queues never refused a request: {stats:?}");
}

/// Blocks until `count` reaches `target`, failing after 30 s.
fn wait_for(count: &AtomicU64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while count.load(Ordering::Relaxed) < target {
        assert!(
            Instant::now() < deadline,
            "stalled at {} of {target}",
            count.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// With one shard, connection A sends bursts of 256 requests in one
/// write each, which its reader drains one request per batch, so the
/// shard is claimed most of the time. Connection B then probes 32 times:
/// it sends one request and only reads. When B's reader finds the shard
/// claimed, the drainer must serve B's request before it releases the
/// shard, so each reply arrives without B sending another byte.
#[test]
fn a_request_queued_behind_a_busy_drainer_is_served() {
    let server =
        Server::spawn(ServerConfig { workers: 1, max_batch: 1, ..ServerConfig::default() })
            .unwrap();
    let addr = server.local_addr();
    let (stop, answered) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicU64::new(0)));
    let flood = {
        let (stop, answered) = (Arc::clone(&stop), Arc::clone(&answered));
        std::thread::spawn(move || {
            let mut a = Client::connect(addr).unwrap();
            a.set_timeout(Some(Duration::from_secs(30))).unwrap();
            let burst: Vec<u8> = (0..256u64)
                .flat_map(|i| {
                    let body = RequestBody::Mul(vec![(i as u8, 5); 8]);
                    let req = Request { req_id: i, tenant: 0, max_med: 0.0, body };
                    xlac_core::wire::frame(&xlac_server::proto::encode_request(&req)).unwrap()
                })
                .collect();
            while !stop.load(Ordering::Relaxed) {
                a.send_raw(&burst).unwrap();
                for _ in 0..256 {
                    match a.recv().unwrap() {
                        Reply::Values { .. } => answered.fetch_add(1, Ordering::Relaxed),
                        other => panic!("flood got {other:?}"),
                    };
                }
            }
        })
    };
    wait_for(&answered, 512);
    let mut b = connect(&server);
    let probes: std::io::Result<Vec<Reply>> = (0..32u64)
        .map(|i| {
            let body = RequestBody::Mul(vec![(i as u8, 9)]);
            b.send(&Request { req_id: 1000 + i, tenant: 1, max_med: 0.0, body }).unwrap();
            b.recv()
        })
        .collect();
    stop.store(true, Ordering::Relaxed);
    flood.join().expect("flood connection panicked");
    for (i, reply) in probes.expect("a probe's reply never arrived").into_iter().enumerate() {
        let values = Values::Mul(vec![i as u16 * 9]);
        assert_eq!(reply, Reply::Values { req_id: 1000 + i as u64, config: 0, values });
    }
    server.shutdown();
}

/// `Server::shutdown` races pipelined bursts from two connections, eight
/// times over. A reader serves every request it admitted before it
/// exits, so each admitted request is either answered or, when its
/// connection is gone, counted as a failed write: none is left in a
/// queue.
#[test]
fn shutdown_answers_every_admitted_request() {
    for round in 0..8 {
        let server =
            Server::spawn(ServerConfig { workers: 2, max_batch: 8, ..ServerConfig::default() })
                .unwrap();
        let addr = server.local_addr();
        let replies = Arc::new(AtomicU64::new(0));
        let conns: Vec<_> = (0..2u64)
            .map(|conn| {
                let replies = Arc::clone(&replies);
                std::thread::spawn(move || burst_until_closed(addr, conn, &replies))
            })
            .collect();
        wait_for(&replies, 2000);
        let stats = server.shutdown();
        for conn in conns {
            conn.join().expect("burst connection panicked");
        }
        assert!(stats.requests >= 2000, "round {round}: {stats:?}");
        assert_eq!(
            stats.requests,
            stats.values_replies + stats.write_failures,
            "round {round}: {stats:?}"
        );
    }
}

/// Sends bursts of 32 pipelined requests in one write each and reads
/// their replies, until the server closes the connection.
fn burst_until_closed(addr: std::net::SocketAddr, conn: u64, replies: &AtomicU64) {
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for burst in 0u64.. {
        let bytes: Vec<u8> = (0..32u64)
            .flat_map(|i| {
                let req = Request {
                    req_id: conn << 32 | burst << 8 | i,
                    tenant: (i % 5) as u32,
                    max_med: 1e12,
                    body: RequestBody::Mul(vec![(i as u8, burst as u8); 4]),
                };
                xlac_core::wire::frame(&xlac_server::proto::encode_request(&req)).unwrap()
            })
            .collect();
        if c.send_raw(&bytes).is_err() {
            return;
        }
        for _ in 0..32 {
            match c.recv() {
                Ok(Reply::Values { .. }) => replies.fetch_add(1, Ordering::Relaxed),
                Ok(other) => panic!("unexpected {other:?}"),
                Err(_) => return,
            };
        }
    }
}
