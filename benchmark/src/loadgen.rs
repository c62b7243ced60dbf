//! The benchmark's load generator: seeded request streams, an open loop
//! timed from each request's due time, a closed loop for capacity, and a
//! reply checker covering every kernel.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xlac_core::rng::{DefaultRng, Rng};
use xlac_core::wire::{self, FrameDecoder};
use xlac_multipliers::Multiplier;
use xlac_server::proto::{decode_reply, encode_request, DCT_BLOCK, SAD_PIXELS};
use xlac_server::{Kernel, Ladders, Reply, Request, RequestBody, SadPair, Values};

/// A traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Kernels with relative weights.
    pub kernels: &'static [(Kernel, u32)],
    /// Items per request.
    pub items: usize,
    /// Tenant ids are drawn uniformly from `0..tenants`.
    pub tenants: u32,
    /// Quality target of every request.
    pub max_med: f64,
}

/// `n` seeded requests with ids `first_id..first_id + n`.
#[must_use]
pub fn gen_requests(mix: &Mix, seed: u64, first_id: u64, n: usize) -> Vec<Request> {
    let mut rng = DefaultRng::seed_from_u64(seed);
    let total: u64 = mix.kernels.iter().map(|&(_, w)| u64::from(w)).sum();
    (0..n as u64)
        .map(|k| {
            let mut pick = rng.next_u64() % total.max(1);
            let kernel = mix
                .kernels
                .iter()
                .find(|&&(_, w)| {
                    let hit = pick < u64::from(w);
                    pick = pick.saturating_sub(u64::from(w));
                    hit
                })
                .map_or(Kernel::Mul, |&(k, _)| k);
            let mut byte = || rng.next_u64() as u8;
            let body = match kernel {
                Kernel::Mul => RequestBody::Mul((0..mix.items).map(|_| (byte(), byte())).collect()),
                Kernel::Sad => RequestBody::Sad(
                    (0..mix.items)
                        .map(|_| {
                            let mut p = SadPair {
                                cur: [0; SAD_PIXELS],
                                refb: [0; SAD_PIXELS],
                            };
                            p.cur
                                .iter_mut()
                                .chain(p.refb.iter_mut())
                                .for_each(|v| *v = byte());
                            p
                        })
                        .collect(),
                ),
                Kernel::Fir => RequestBody::Fir((0..mix.items).map(|_| byte()).collect()),
                Kernel::Dct => RequestBody::Dct(
                    (0..mix.items)
                        .map(|_| {
                            let mut b = [0i16; DCT_BLOCK];
                            b.iter_mut()
                                .for_each(|v| *v = (rng.next_u64() % 511) as i16 - 255);
                            b
                        })
                        .collect(),
                ),
            };
            let tenant = (rng.next_u64() % u64::from(mix.tenants.max(1))) as u32;
            Request {
                req_id: first_id + k,
                tenant,
                max_med: mix.max_med,
                body,
            }
        })
        .collect()
}

/// The length-prefixed wire frame of `req`.
#[must_use]
pub fn frame(req: &Request) -> Vec<u8> {
    wire::frame(&encode_request(req)).expect("benchmark requests stay far below the frame cap")
}

/// The scalar models of every ladder entry: what served replies are
/// checked against. Multiplier products are tabulated per entry on first
/// use (65,536 of them for 8-bit operands), as the Wallace model is slow to
/// call once per item.
pub struct Oracle<'l> {
    ladders: &'l Ladders,
    mul_tables: Vec<Option<Vec<u16>>>,
}

impl<'l> Oracle<'l> {
    /// An oracle over `ladders`, with no table built yet.
    #[must_use]
    pub fn new(ladders: &'l Ladders) -> Self {
        Oracle {
            ladders,
            mul_tables: (0..ladders.mul.len()).map(|_| None).collect(),
        }
    }

    /// What ladder entry `config`'s scalar model returns for `body`;
    /// `None` for a config the ladder does not have.
    pub fn expected(&mut self, body: &RequestBody, config: usize) -> Option<Values> {
        let l = self.ladders;
        Some(match body {
            RequestBody::Mul(pairs) => {
                let m = &l.mul.get(config)?.mul;
                let table = self.mul_tables[config].get_or_insert_with(|| {
                    (0..1u64 << 16)
                        .map(|ab| m.mul(ab >> 8, ab & 0xFF) as u16)
                        .collect()
                });
                Values::Mul(
                    pairs
                        .iter()
                        .map(|&(a, b)| table[usize::from(a) << 8 | usize::from(b)])
                        .collect(),
                )
            }
            RequestBody::Sad(blocks) => {
                let s = &l.sad.get(config)?.sad;
                Values::Sad(
                    blocks
                        .iter()
                        .map(|p| {
                            let cur: Vec<u64> = p.cur.iter().map(|&v| u64::from(v)).collect();
                            let refb: Vec<u64> = p.refb.iter().map(|&v| u64::from(v)).collect();
                            s.sad(&cur, &refb).expect("16 8-bit pixels are in range") as u32
                        })
                        .collect(),
                )
            }
            RequestBody::Fir(samples) => {
                let f = &l.fir.get(config)?.fir;
                let wide: Vec<u64> = samples.iter().map(|&v| u64::from(v)).collect();
                Values::Fir(f.apply(&wide).into_iter().map(|v| v as i32).collect())
            }
            RequestBody::Dct(blocks) => {
                let d = &l.dct.get(config)?.dct;
                Values::Dct(
                    blocks
                        .iter()
                        .map(|blk| {
                            let mut grid = [[0i64; 4]; 4];
                            blk.iter()
                                .enumerate()
                                .for_each(|(i, &v)| grid[i / 4][i % 4] = i64::from(v));
                            let y = d.forward(&grid);
                            std::array::from_fn(|i| y[i / 4][i % 4] as i16)
                        })
                        .collect(),
                )
            }
            RequestBody::Ping => return None,
        })
    }
}

/// A 64-bit FNV-1a digest of reply values, kernel included: replies are
/// checked against the digests of the expected values, so neither side
/// has to be kept whole.
#[must_use]
pub fn digest(values: &Values) -> u64 {
    let elems: Box<dyn Iterator<Item = i64> + '_> = match values {
        Values::Mul(v) => Box::new(v.iter().map(|&x| i64::from(x))),
        Values::Sad(v) => Box::new(v.iter().map(|&x| i64::from(x))),
        Values::Fir(v) => Box::new(v.iter().map(|&x| i64::from(x))),
        Values::Dct(v) => Box::new(v.iter().flatten().map(|&x| i64::from(x))),
    };
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ values.kernel().index() as u64;
    for x in elems {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Values equal to the scalar model of the named configuration.
    Ok,
    /// Refused by backpressure.
    Overloaded,
    /// A typed error reply.
    Error,
    /// Values that differ from the scalar model, or a wrong reply kind.
    Mismatch,
    /// No reply before the deadline.
    Missing,
}

fn reply_id(reply: &Reply) -> u64 {
    match reply {
        Reply::Values { req_id, .. }
        | Reply::Error { req_id, .. }
        | Reply::Overloaded { req_id, .. }
        | Reply::Pong { req_id } => *req_id,
    }
}

fn invalid(msg: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads whatever replies arrive within the stream's read timeout.
/// `Ok(None)` on a timeout, `Ok(Some(replies))` otherwise.
fn read_replies(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    buf: &mut [u8],
) -> std::io::Result<Option<Vec<Reply>>> {
    match stream.read(buf) {
        Ok(0) => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "peer closed",
        )),
        Ok(n) => {
            decoder.feed(&buf[..n]);
            let mut replies = Vec::new();
            while let Some(frame) = decoder.next_frame().map_err(invalid)? {
                replies.push(decode_reply(&frame).map_err(|e| invalid(e.msg))?);
            }
            Ok(Some(replies))
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Requests ready to send: their frames and, for every ladder
/// configuration, the digest of what the scalar model gives. Computed
/// before anything is timed, so replies are checked as they arrive and
/// none has to be kept.
pub struct Prepared {
    frames: Vec<Vec<u8>>,
    expected: Vec<Vec<u64>>,
    first_id: u64,
}

impl Prepared {
    /// Prepares `requests`, whose ids must be consecutive from the first.
    #[must_use]
    pub fn new(oracle: &mut Oracle<'_>, requests: &[Request]) -> Self {
        let expected = requests
            .iter()
            .map(|r| {
                let kernel = r.body.kernel().expect("no pings in a workload");
                (0..oracle.ladders.len_of(kernel))
                    .map(|c| {
                        digest(
                            &oracle
                                .expected(&r.body, c)
                                .expect("config within the ladder"),
                        )
                    })
                    .collect()
            })
            .collect();
        Prepared {
            frames: requests.iter().map(frame).collect(),
            expected,
            first_id: requests.first().map_or(0, |r| r.req_id),
        }
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// The index of the request `reply` answers, if it is one of these.
    fn index_of(&self, reply: &Reply) -> Option<usize> {
        let k = reply_id(reply).wrapping_sub(self.first_id);
        usize::try_from(k).ok().filter(|&k| k < self.len())
    }

    /// Checks `reply` to request `k` against the scalar model of the
    /// configuration the reply names.
    #[must_use]
    pub fn verdict(&self, k: usize, reply: &Reply) -> Verdict {
        match reply {
            Reply::Overloaded { .. } => Verdict::Overloaded,
            Reply::Error { .. } => Verdict::Error,
            Reply::Values { config, values, .. } => {
                if self.expected[k].get(*config as usize) == Some(&digest(values)) {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch
                }
            }
            Reply::Pong { .. } => Verdict::Mismatch,
        }
    }
}

/// One open-loop window.
#[derive(Debug)]
pub struct OpenWindow {
    /// Per request, time from its due instant to its reply (`None` when
    /// no reply came).
    pub latency: Vec<Option<Duration>>,
    /// Per request, how long after its due instant it was written.
    pub late: Vec<Duration>,
    /// Per request, how it ended.
    pub verdicts: Vec<Verdict>,
}

/// Sends `set` over one connection on a fixed schedule — request `k` is
/// due `k / rate` seconds after the start — from a sender thread while a
/// receiver thread checks replies as they arrive. Latency counts from the
/// due instant, so a stall anywhere (generator, network or server) is
/// charged to every request queued behind it.
///
/// # Errors
///
/// Propagates connection failures and malformed reply frames.
pub fn open_loop(
    addr: SocketAddr,
    set: &Prepared,
    rate: f64,
    grace: Duration,
) -> std::io::Result<OpenWindow> {
    let n = set.len();
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = writer.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(10)))?;
    let start = Instant::now() + Duration::from_millis(1);
    let due = move |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let deadline = due(n) + grace;

    let (late, arrivals) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<Vec<Duration>> {
            let mut late = Vec::with_capacity(n);
            let mut batch = Vec::new();
            let mut k = 0;
            while k < n {
                let now = Instant::now();
                if now < due(k) {
                    std::thread::sleep(due(k) - now);
                    continue;
                }
                // Everything already due goes out in one write.
                batch.clear();
                while k < n && due(k) <= now {
                    batch.extend_from_slice(&set.frames[k]);
                    late.push(now - due(k));
                    k += 1;
                }
                writer.write_all(&batch)?;
            }
            Ok(late)
        });
        let receiver = s.spawn(
            move || -> std::io::Result<Vec<Option<(Instant, Verdict)>>> {
                let mut got: Vec<Option<(Instant, Verdict)>> = vec![None; n];
                let (mut decoder, mut buf) = (FrameDecoder::new(0), vec![0u8; 64 * 1024]);
                let mut count = 0;
                while count < n && Instant::now() < deadline {
                    let Some(replies) = read_replies(&mut reader, &mut decoder, &mut buf)? else {
                        continue;
                    };
                    let t = Instant::now();
                    for reply in replies {
                        if let Some(k) = set.index_of(&reply).filter(|&k| got[k].is_none()) {
                            got[k] = Some((t, set.verdict(k, &reply)));
                            count += 1;
                        }
                    }
                }
                Ok(got)
            },
        );
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let (late, arrivals) = (late?, arrivals?);
    let latency = arrivals
        .iter()
        .enumerate()
        .map(|(k, a)| a.map(|(t, _)| t.saturating_duration_since(due(k))))
        .collect();
    let verdicts = arrivals
        .iter()
        .map(|a| a.map_or(Verdict::Missing, |(_, v)| v))
        .collect();
    Ok(OpenWindow {
        latency,
        late,
        verdicts,
    })
}

/// Tallies of one closed-loop connection.
#[derive(Debug, Default, Clone)]
pub struct ClosedTally {
    /// Requests written.
    pub sent: u64,
    /// Requests that failed, by any [`Verdict`] other than `Ok`.
    pub failed: u64,
    /// Replies per second inside the window: from its first reply to its
    /// last.
    pub rate: f64,
}

/// One closed-loop connection: from `start`, keeps `in_flight` requests
/// outstanding, cycling through `set`, for `window`, then drains. Replies
/// later than `grace` after the window count as missing.
///
/// # Errors
///
/// Propagates connection failures and malformed reply frames.
pub fn closed_loop(
    addr: SocketAddr,
    set: &Prepared,
    in_flight: usize,
    start: Instant,
    window: Duration,
    grace: Duration,
) -> std::io::Result<ClosedTally> {
    let n = set.len();
    assert!(
        in_flight < n,
        "ids of requests in flight must stay distinct"
    );
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(10)))?;
    let (mut decoder, mut buf) = (FrameDecoder::new(0), vec![0u8; 64 * 1024]);
    let mut tally = ClosedTally::default();
    // Replies inside the window, and its first and last arrival.
    let (mut count, mut first, mut last) = (0u64, None, None);
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut batch = Vec::new();
    let mut next = 0usize;
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let end = start + window;
    loop {
        let now = Instant::now();
        if now < end && outstanding.len() < in_flight {
            batch.clear();
            while outstanding.len() < in_flight {
                batch.extend_from_slice(&set.frames[next]);
                outstanding.push_back(next);
                next = (next + 1) % n;
                tally.sent += 1;
            }
            stream.write_all(&batch)?;
        }
        if outstanding.is_empty() && now >= end {
            break;
        }
        if now >= end + grace {
            tally.failed += outstanding.len() as u64; // missing
            break;
        }
        let Some(replies) = read_replies(&mut stream, &mut decoder, &mut buf)? else {
            continue;
        };
        let t = Instant::now();
        for reply in replies {
            let Some(k) = set.index_of(&reply) else {
                continue;
            };
            let Some(pos) = outstanding.iter().position(|&o| o == k) else {
                continue; // not in flight: the original request stays missing
            };
            outstanding.remove(pos);
            if t < end {
                count += 1;
                first.get_or_insert(t);
                last = Some(t);
            }
            if set.verdict(k, &reply) != Verdict::Ok {
                tally.failed += 1;
            }
        }
    }
    tally.rate = match (first, last) {
        (Some(f), Some(l)) if count > 1 && l > f => (count - 1) as f64 / (l - f).as_secs_f64(),
        _ => 0.0,
    };
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use xlac_server::proto::{decode_request, encode_reply};

    const MUL_ONLY: Mix = Mix {
        kernels: &[(Kernel::Mul, 1)],
        items: 8,
        tenants: 8,
        max_med: 4.0,
    };

    #[test]
    fn request_streams_are_a_function_of_the_seed() {
        let mix = Mix {
            kernels: &[
                (Kernel::Mul, 4),
                (Kernel::Sad, 2),
                (Kernel::Fir, 1),
                (Kernel::Dct, 1),
            ],
            items: 8,
            tenants: 12,
            max_med: 8.0,
        };
        let a = gen_requests(&mix, 5, 100, 400);
        assert_eq!(a, gen_requests(&mix, 5, 100, 400));
        assert_ne!(a, gen_requests(&mix, 6, 100, 400));
        assert_eq!(a[0].req_id, 100);
        for kernel in Kernel::ALL {
            assert!(
                a.iter().any(|r| r.body.kernel() == Some(kernel)),
                "{kernel:?} never drawn"
            );
        }
        assert!(a.iter().all(|r| r.tenant < 12 && r.body.items() == 8));
    }

    #[test]
    fn the_oracle_checks_every_kernel_at_the_named_config() {
        let ladders = Ladders::build();
        let mut oracle = Oracle::new(&ladders);
        let mix = Mix {
            kernels: &[
                (Kernel::Mul, 1),
                (Kernel::Sad, 1),
                (Kernel::Fir, 1),
                (Kernel::Dct, 1),
            ],
            items: 8,
            tenants: 1,
            max_med: 8.0,
        };
        let requests = gen_requests(&mix, 11, 0, 64);
        let set = Prepared::new(&mut oracle, &requests);
        for (k, req) in requests.iter().enumerate() {
            let kernel = req.body.kernel().unwrap();
            let last = ladders.len_of(kernel) - 1;
            let values = oracle.expected(&req.body, last).expect("in range");
            if let (RequestBody::Mul(pairs), Values::Mul(v)) = (&req.body, &values) {
                let (a, b) = pairs[0];
                assert_eq!(
                    u64::from(v[0]),
                    ladders.mul[last].mul.mul(u64::from(a), u64::from(b))
                );
            }
            let good = Reply::Values {
                req_id: req.req_id,
                config: last as u32,
                values: values.clone(),
            };
            assert_eq!(set.index_of(&good), Some(k));
            assert_eq!(set.verdict(k, &good), Verdict::Ok);
            // The same values claimed for the exact entry are wrong
            // whenever that entry computes something else.
            let exact = oracle.expected(&req.body, 0).unwrap();
            let want = if exact == values {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            };
            let claimed = Reply::Values {
                req_id: req.req_id,
                config: 0,
                values,
            };
            assert_eq!(set.verdict(k, &claimed), want);
            let beyond = Reply::Values {
                req_id: req.req_id,
                config: 99,
                values: exact,
            };
            assert_eq!(set.verdict(k, &beyond), Verdict::Mismatch);
            let refused = Reply::Overloaded {
                req_id: req.req_id,
                queue_depth: 1,
            };
            assert_eq!(set.verdict(k, &refused), Verdict::Overloaded);
        }
        assert_eq!(set.index_of(&Reply::Pong { req_id: 64 }), None);
        assert!(oracle
            .expected(&RequestBody::Mul(vec![(1, 1)]), 99)
            .is_none());
    }

    #[test]
    fn digests_tell_kernels_and_values_apart() {
        assert_ne!(
            digest(&Values::Mul(vec![1, 2])),
            digest(&Values::Mul(vec![2, 1]))
        );
        assert_ne!(digest(&Values::Mul(vec![7])), digest(&Values::Sad(vec![7])));
        assert_eq!(
            digest(&Values::Fir(vec![-3, 4])),
            digest(&Values::Fir(vec![-3, 4]))
        );
    }

    /// A protocol peer that answers every multiplier request with zeros,
    /// stalling `stall` before answering request `stall_at`.
    fn fake_peer(listener: TcpListener, stall_at: u64, stall: Duration) {
        let (mut s, _) = listener.accept().expect("accept");
        let mut decoder = FrameDecoder::new(0);
        let mut buf = vec![0u8; 4096];
        loop {
            let n = match s.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            decoder.feed(&buf[..n]);
            while let Some(f) = decoder.next_frame().expect("well-formed frames") {
                let req = decode_request(&f).expect("well-formed request");
                if req.req_id == stall_at {
                    std::thread::sleep(stall);
                }
                let values = Values::Mul(vec![0; req.body.items()]);
                let reply = Reply::Values {
                    req_id: req.req_id,
                    config: 0,
                    values,
                };
                s.write_all(&wire::frame(&encode_reply(&reply)).unwrap())
                    .expect("reply");
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        const RATE: f64 = 2000.0;
        const STALL_AT: usize = 50;
        let stall = Duration::from_millis(50);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || fake_peer(listener, STALL_AT as u64, stall));
        let ladders = Ladders::build();
        let set = Prepared::new(
            &mut Oracle::new(&ladders),
            &gen_requests(&MUL_ONLY, 1, 0, 200),
        );
        let w = open_loop(addr, &set, RATE, Duration::from_secs(2)).expect("open loop");
        peer.join().expect("peer");
        let latency: Vec<Duration> = w
            .latency
            .iter()
            .map(|l| l.expect("every reply arrived"))
            .collect();
        // The stalled request reached the peer no earlier than its due
        // instant, and no reply behind it leaves before the stall ends. So
        // request k, due (k - STALL_AT) periods later, waits at least the
        // rest of the stall, whenever the generator managed to send it.
        let period = Duration::from_secs_f64(1.0 / RATE);
        for (k, l) in latency.iter().enumerate().skip(STALL_AT).take(90) {
            let floor = stall.saturating_sub(period * (k - STALL_AT) as u32);
            assert!(*l >= floor, "request {k}: {l:?} < {floor:?}");
        }
        assert!(
            latency[..STALL_AT].iter().all(|l| *l < stall),
            "requests ahead of the stall"
        );
        assert_eq!(w.late.len(), 200);
    }
}
