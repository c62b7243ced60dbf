//! The batched compute service runtime (DESIGN.md §15).
//!
//! A hand-rolled thread-per-connection runtime with no async runtime and
//! no thread pool: the reader that admits a request also serves its shard.
//!
//! ```text
//! acceptor ──▶ reader (1/conn) ──▶ admit into shard queues ──▶ drain inline
//!                   │ frame decode,      bounded; one lock      claim each idle shard
//!                   │ typed errors,      per shard per read;    it enqueued into, then
//!                   │ PING inline        Overloaded when full   decide, charge, sample
//!                   │                                           (arrival order) →
//!                   ▼                                           coalesced evaluate
//!               conn writers  ◀──── one write per connection per batch ──┘
//! ```
//!
//! **Syscalls scale with batches.** A reader enqueues every kernel
//! request decoded from one `read` with one lock per shard, and sends its
//! own replies (pongs, typed errors, `Overloaded`) in one write. A batch's
//! replies are framed into one buffer per connection and each is written
//! with one `write_all`, so the reply path costs one write per connection
//! per batch, not one per reply.
//!
//! **Serving by flat combining.** Each shard keeps its queue and its
//! tenants' control state under one lock. After admitting a read, the
//! reader claims each shard it enqueued into by taking that state, unless
//! another reader holds it, and serves batches of up to `max_batch` until
//! the queue is empty. It puts the state back under the lock that
//! enqueuers take, so a request enqueued behind a busy drainer is served
//! by that drainer and no request is stranded. Each reader's pass starts
//! at its own shard (its connection ordinal), so concurrent readers
//! spread over the shards instead of queueing behind one another.
//!
//! **Sharding.** Requests land on shard `tenant % workers`, so one shard
//! holds all state of a tenant, and only the claim holder decides that
//! tenant's requests, in enqueue order. Per-tenant control decisions
//! ([`crate::tenant`]) therefore depend only on the tenant's own request
//! order, and batch evaluation ([`crate::engine`]) is batch-composition
//! invariant — together, replies are **bit-identical at any shard
//! count**, the property the differential suite pins.
//!
//! **Backpressure.** Shard queues are bounded; a full queue answers
//! `Overloaded` immediately from the reader thread instead of buffering
//! without limit. Budget exhaustion *degrades to exact configurations*;
//! it never drops requests.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use xlac_core::wire::{self, FrameDecoder, WireError};
use xlac_obs::{obs_count, obs_span};

use crate::engine;
use crate::ladder::Ladders;
use crate::proto::{
    decode_request, encode_reply, ErrorCode, Kernel, Reply, Request, RequestBody, Values,
};
use crate::tenant::{ShardTenants, TenantPolicy};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard count: tenants are sharded by `tenant % workers`, each shard
    /// with its own queue and tenant state, served by whichever
    /// connection reader claims it. `0` uses the machine's parallelism.
    pub workers: usize,
    /// Bounded per-shard queue depth; a full queue replies `Overloaded`.
    pub queue_cap: usize,
    /// Maximum accepted frame size; `0` uses [`wire::MAX_FRAME`].
    pub max_frame: usize,
    /// Quality-control policy applied to every tenant.
    pub policy: TenantPolicy,
    /// Reader socket timeout — the shutdown polling period.
    pub read_timeout_ms: u64,
    /// Maximum requests a draining reader serves as a single batch.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 4096,
            max_frame: 0,
            policy: TenantPolicy::default(),
            read_timeout_ms: 25,
            max_batch: 256,
        }
    }
}

/// Live server counters (all monotone except the high-water mark).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Well-formed kernel requests enqueued.
    pub requests: AtomicU64,
    /// Value replies written.
    pub values_replies: AtomicU64,
    /// Typed error replies written.
    pub error_replies: AtomicU64,
    /// `Overloaded` replies written (backpressure events).
    pub overloaded: AtomicU64,
    /// Pings answered.
    pub pongs: AtomicU64,
    /// Batches served.
    pub batches: AtomicU64,
    /// Requests whose first item was re-executed exactly (monitoring).
    pub samples: AtomicU64,
    /// Requests forced to the exact configuration by budget/drift
    /// control.
    pub exact_forced: AtomicU64,
    /// Highest shard-queue depth observed.
    pub queue_depth_hw: AtomicU64,
    /// Replies lost to failed socket writes (peer gone), one per reply
    /// the failed write carried.
    pub write_failures: AtomicU64,
    /// Socket writes of reply frames: one per connection per served
    /// batch, and one per read whose pongs, errors or `Overloaded`
    /// replies the reader sent itself.
    pub reply_writes: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct StatsSnapshot {
    pub accepted: u64,
    pub requests: u64,
    pub values_replies: u64,
    pub error_replies: u64,
    pub overloaded: u64,
    pub pongs: u64,
    pub batches: u64,
    pub samples: u64,
    pub exact_forced: u64,
    pub queue_depth_hw: u64,
    pub write_failures: u64,
    pub reply_writes: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            accepted: ld(&self.accepted),
            requests: ld(&self.requests),
            values_replies: ld(&self.values_replies),
            error_replies: ld(&self.error_replies),
            overloaded: ld(&self.overloaded),
            pongs: ld(&self.pongs),
            batches: ld(&self.batches),
            samples: ld(&self.samples),
            exact_forced: ld(&self.exact_forced),
            queue_depth_hw: ld(&self.queue_depth_hw),
            write_failures: ld(&self.write_failures),
            reply_writes: ld(&self.reply_writes),
        }
    }
}

/// Serialized writer half of one connection. Its own reader (errors,
/// pongs, overloads) and every reader draining a shard that holds its
/// requests (value replies) share it; each [`ReplyBuf::flush`] is one
/// `write_all` under the mutex, so frames stay whole.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

/// Bytes of capacity a reply buffer keeps between flushes, so one burst
/// of large replies does not pin its peak size for the thread's life.
const REPLY_BUF_RETAIN: usize = 64 * 1024;

/// Framed replies bound for one connection, sent with one socket write.
#[derive(Default)]
struct ReplyBuf {
    bytes: Vec<u8>,
    /// Replies held, by kind: values, error, overloaded, pong.
    held: [u64; 4],
}

impl ReplyBuf {
    fn push(&mut self, reply: &Reply) {
        wire::frame_into(&mut self.bytes, &encode_reply(reply))
            .expect("reply frames are bounded well inside the frame cap");
        let kind = match reply {
            Reply::Values { .. } => 0,
            Reply::Error { .. } => 1,
            Reply::Overloaded { .. } => 2,
            Reply::Pong { .. } => 3,
        };
        self.held[kind] += 1;
    }

    /// Writes every held frame with one `write_all` and empties the
    /// buffer. A failed write loses every reply it carried.
    fn flush(&mut self, writer: &ConnWriter, stats: &ServerStats) {
        let n: u64 = self.held.iter().sum();
        if n == 0 {
            return;
        }
        let ok = writer.stream.lock().expect("writer lock").write_all(&self.bytes).is_ok();
        stats.reply_writes.fetch_add(1, Ordering::Relaxed);
        obs_count!("server.reply_writes", 1);
        if ok {
            obs_count!("server.replies", n);
            let counters =
                [&stats.values_replies, &stats.error_replies, &stats.overloaded, &stats.pongs];
            for (counter, &k) in counters.into_iter().zip(&self.held) {
                counter.fetch_add(k, Ordering::Relaxed);
            }
        } else {
            stats.write_failures.fetch_add(n, Ordering::Relaxed);
        }
        self.bytes.clear();
        self.bytes.shrink_to(REPLY_BUF_RETAIN);
        self.held = [0; 4];
    }
}

struct Job {
    writer: Arc<ConnWriter>,
    req: Request,
}

/// One shard's queue and tenant state, kept under one lock.
struct Shard {
    queue: VecDeque<Job>,
    /// The shard's tenant states; `None` while a reader holds the claim
    /// and drains the queue.
    tenants: Option<ShardTenants>,
}

struct Shared {
    shards: Vec<Mutex<Shard>>,
    stats: ServerStats,
    ladders: Ladders,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// A running compute server. Dropping it (or calling
/// [`Server::shutdown`]) stops the acceptor and the readers and joins
/// every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, builds the configuration ladders and starts the acceptor.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(mut config: ServerConfig) -> std::io::Result<Server> {
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        }
        config.queue_cap = config.queue_cap.max(1);
        config.max_batch = config.max_batch.max(1);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shards: (0..config.workers)
                .map(|_| {
                    let tenants = Some(ShardTenants::new(config.policy));
                    Mutex::new(Shard { queue: VecDeque::new(), tenants })
                })
                .collect(),
            stats: ServerStats::default(),
            ladders: Ladders::build(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xlac-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener))
                .expect("spawn acceptor")
        };
        Ok(Server { addr, shared, acceptor: Some(acceptor) })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the runtime counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The configuration ladders the server selects from (clients use
    /// this to recompute expected values for the config a reply names).
    #[must_use]
    pub fn ladders(&self) -> &Ladders {
        &self.shared.ladders
    }

    /// Stops every thread and joins them. A reader serves every request
    /// it admitted before it exits, so each admitted request is answered
    /// (or counted in `write_failures` when its connection is gone).
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _span = obs_span!("server.accept");
                let ordinal = shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                obs_count!("server.accepted", 1);
                let shared = Arc::clone(shared);
                let h = std::thread::Builder::new()
                    .name("xlac-reader".into())
                    .spawn(move || reader_loop(&shared, stream, ordinal as usize))
                    .expect("spawn reader");
                readers.push(h);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
        // Reap finished readers so a long-lived server doesn't hoard
        // handles.
        readers.retain(|h| !h.is_finished());
    }
    for h in readers {
        let _ = h.join();
    }
}

/// Reads, admits and serves one connection's requests. `ordinal` (the
/// connection's accept order) picks the shard its serving passes start at.
fn reader_loop(shared: &Arc<Shared>, stream: TcpStream, ordinal: usize) {
    let _ = stream.set_nodelay(true);
    let _ =
        stream.set_read_timeout(Some(Duration::from_millis(shared.config.read_timeout_ms.max(1))));
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream.try_clone().expect("clone stream for writer")),
    });
    let mut reader = stream;
    let mut decoder = FrameDecoder::new(shared.config.max_frame);
    let n_shards = shared.shards.len();
    let mut inbox = Inbox {
        runs: (0..n_shards).map(|_| Vec::new()).collect(),
        replies: ReplyBuf::default(),
        enqueued: vec![false; n_shards],
        start: ordinal % n_shards,
        batch: Vec::new(),
        writers: Vec::new(),
        outbox: Outbox::default(),
    };
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                decoder.feed(&buf[..n]);
                if inbox.drain_frames(shared, &writer, &mut decoder).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// A reader's state for one read: the kernel requests it decoded, held
/// per shard with their decode position until they are enqueued
/// together, the replies the reader gives itself, the shards it enqueued
/// into, and the buffers it serves batches with, reused across reads.
struct Inbox {
    runs: Vec<Vec<(usize, Request)>>,
    replies: ReplyBuf,
    enqueued: Vec<bool>,
    /// The shard this reader's serving passes start at.
    start: usize,
    batch: Vec<Request>,
    writers: Vec<Arc<ConnWriter>>,
    outbox: Outbox,
}

impl Inbox {
    /// Decodes every complete frame buffered in `decoder`, enqueues the
    /// kernel requests under one lock per shard, sends the reader's own
    /// replies in one write, then serves the shards it enqueued into.
    /// `Err(())` means the stream is poisoned (frame-level failure) and
    /// the connection must close; payload-level errors are answered and
    /// survive.
    fn drain_frames(
        &mut self,
        shared: &Shared,
        writer: &Arc<ConnWriter>,
        decoder: &mut FrameDecoder,
    ) -> Result<(), ()> {
        let mut result = Ok(());
        let mut seq = 0;
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    let code = match e {
                        WireError::Oversized { .. } => ErrorCode::FrameOversized,
                        _ => ErrorCode::FrameEmpty,
                    };
                    self.enqueue(shared, writer);
                    self.replies.push(&Reply::Error { req_id: 0, code, msg: e.to_string() });
                    result = Err(());
                    break;
                }
            };
            let _span = obs_span!("server.dispatch");
            // Pings and bad payloads are answered by the reader, after the
            // requests decoded before them are enqueued, so the reader's
            // replies keep request order.
            match decode_request(&frame) {
                Ok(Request { req_id, body: RequestBody::Ping, .. }) => {
                    self.enqueue(shared, writer);
                    self.replies.push(&Reply::Pong { req_id });
                }
                Ok(req) => {
                    let shard = req.tenant as usize % self.runs.len();
                    self.runs[shard].push((seq, req));
                    seq += 1;
                }
                Err(pe) => {
                    self.enqueue(shared, writer);
                    self.replies.push(&Reply::Error {
                        req_id: pe.req_id.unwrap_or(0),
                        code: pe.code,
                        msg: pe.msg,
                    });
                }
            }
        }
        self.enqueue(shared, writer);
        self.replies.flush(writer, &shared.stats);
        self.serve(shared);
        result
    }

    /// Moves each shard's held run into its queue under one lock.
    /// Requests past `queue_cap` get `Overloaded`, in decode order: they
    /// are dropped and the client retries, so bounded queues stay the
    /// memory bound.
    fn enqueue(&mut self, shared: &Shared, writer: &Arc<ConnWriter>) {
        let mut refused = Vec::new();
        for ((shard, run), enqueued) in
            shared.shards.iter().zip(&mut self.runs).zip(&mut self.enqueued)
        {
            if run.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("shard lock");
            let take = run.len().min(shared.config.queue_cap.saturating_sub(shard.queue.len()));
            let jobs = run.drain(..take).map(|(_, req)| Job { writer: Arc::clone(writer), req });
            shard.queue.extend(jobs);
            let depth = shard.queue.len() as u64;
            drop(shard);
            if take > 0 {
                *enqueued = true;
                shared.stats.requests.fetch_add(take as u64, Ordering::Relaxed);
                shared.stats.queue_depth_hw.fetch_max(depth, Ordering::Relaxed);
                obs_count!("server.enqueued", take as u64);
            }
            refused.extend(run.drain(..).map(|(seq, req)| (seq, req.req_id)));
        }
        if refused.is_empty() {
            return;
        }
        obs_count!("server.overloaded", refused.len() as u64);
        refused.sort_unstable();
        for (_, req_id) in refused {
            self.replies
                .push(&Reply::Overloaded { req_id, queue_depth: shared.config.queue_cap as u32 });
        }
    }

    /// Drains every shard this read enqueued into, starting at the
    /// reader's own shard so that concurrent readers claim different
    /// shards first.
    fn serve(&mut self, shared: &Shared) {
        let n = self.enqueued.len();
        for k in 0..n {
            let idx = (self.start + k) % n;
            if std::mem::take(&mut self.enqueued[idx]) {
                self.drain(shared, &shared.shards[idx]);
            }
        }
    }

    /// Claims `shard` unless another reader holds it, then serves its
    /// queue in batches of up to `max_batch` until it is empty. The claim
    /// is released under the queue lock, so every request enqueued while
    /// this reader serves is served by it before it lets go.
    fn drain(&mut self, shared: &Shared, shard: &Mutex<Shard>) {
        let mut guard = shard.lock().expect("shard lock");
        let Some(mut tenants) = guard.tenants.take() else {
            return;
        };
        while !guard.queue.is_empty() {
            let take = guard.queue.len().min(shared.config.max_batch);
            for job in guard.queue.drain(..take) {
                self.writers.push(job.writer);
                self.batch.push(job.req);
            }
            drop(guard);
            let replies = serve_batch(&shared.ladders, &mut tenants, &shared.stats, &self.batch);
            self.outbox.send(&mut self.writers, &replies, &shared.stats);
            self.batch.clear();
            guard = shard.lock().expect("shard lock");
        }
        guard.tenants = Some(tenants);
    }
}

/// A drainer's reply buffers, one per connection of the current batch,
/// kept across batches so their capacity is reused.
#[derive(Default)]
struct Outbox {
    conns: Vec<Arc<ConnWriter>>,
    bufs: Vec<ReplyBuf>,
}

impl Outbox {
    /// Sends `replies[i]` to `writers[i]`, draining `writers`: each
    /// connection gets its replies in batch order, in one write.
    fn send(&mut self, writers: &mut Vec<Arc<ConnWriter>>, replies: &[Reply], stats: &ServerStats) {
        for (writer, reply) in writers.drain(..).zip(replies) {
            let slot = match self.conns.iter().position(|c| Arc::ptr_eq(c, &writer)) {
                Some(slot) => slot,
                None => {
                    self.conns.push(writer);
                    if self.bufs.len() < self.conns.len() {
                        self.bufs.push(ReplyBuf::default());
                    }
                    self.conns.len() - 1
                }
            };
            self.bufs[slot].push(reply);
        }
        for (conn, buf) in self.conns.drain(..).zip(&mut self.bufs) {
            buf.flush(&conn, stats);
        }
    }
}

/// Serves one shard's batch of kernel requests and returns their replies
/// in arrival order.
///
/// Each request is decided, charged against its tenant's budget and,
/// when sampled, fed back to the monitor before the next request is
/// decided, so a tenant's configs depend on its own request order alone,
/// never on where batch boundaries fall. Evaluation is then coalesced
/// per `(kernel, config)` group.
pub(crate) fn serve_batch(
    ladders: &Ladders,
    tenants: &mut ShardTenants,
    stats: &ServerStats,
    batch: &[Request],
) -> Vec<Reply> {
    let _span = obs_span!("server.batch");
    stats.batches.fetch_add(1, Ordering::Relaxed);
    obs_count!("server.batched_requests", batch.len() as u64);

    // Control, strictly in arrival order (the determinism contract of
    // `crate::tenant`). A sampled request's first item is evaluated on
    // its own, so its feedback lands before the tenant's next decide.
    let mut plans = Vec::with_capacity(batch.len());
    for req in batch {
        let kernel = req.body.kernel().expect("pings never reach the queue");
        let items = req.body.items();
        let base = ladders.select(kernel, req.max_med);
        let state = tenants.state(req.tenant, kernel, req.max_med);
        let d = state.decide(base, req.max_med, items);
        if d.exact_forced {
            stats.exact_forced.fetch_add(1, Ordering::Relaxed);
        }
        state.charge(items, ladders.med_bound(kernel, d.config));
        let mut sampled = None;
        if d.sample && items > 0 {
            let one = first_item(&req.body);
            let vals = evaluate(ladders, kernel, d.config, &[&one]).remove(0);
            let (approx, exact) = first_item_pair(&one, &vals);
            state.record_sample(approx, exact);
            stats.samples.fetch_add(1, Ordering::Relaxed);
            obs_count!("server.samples", 1);
            sampled = Some(approx);
        }
        plans.push((kernel, d.config, sampled));
    }

    // Coalesced evaluation per (kernel, config) group.
    let mut values: Vec<Option<Values>> = (0..batch.len()).map(|_| None).collect();
    let mut groups: HashMap<(Kernel, usize), Vec<usize>> = HashMap::new();
    for (i, &(kernel, config, _)) in plans.iter().enumerate() {
        groups.entry((kernel, config)).or_default().push(i);
    }
    for ((kernel, config), indices) in groups {
        let bodies: Vec<&RequestBody> = indices.iter().map(|&i| &batch[i].body).collect();
        for (i, vals) in indices.into_iter().zip(evaluate(ladders, kernel, config, &bodies)) {
            values[i] = Some(vals);
        }
    }

    batch
        .iter()
        .zip(plans)
        .zip(values)
        .map(|((req, (_, config, sampled)), vals)| {
            let values = vals.expect("every request was evaluated");
            debug_assert!(
                sampled.is_none_or(|approx| approx == first_item_pair(&req.body, &values).0),
                "batch evaluation is composition-invariant"
            );
            Reply::Values { req_id: req.req_id, config: config as u32, values }
        })
        .collect()
}

/// Evaluates request bodies of one kernel at one config in one coalesced
/// pass and returns their values in `bodies` order.
fn evaluate(
    ladders: &Ladders,
    kernel: Kernel,
    config: usize,
    bodies: &[&RequestBody],
) -> Vec<Values> {
    match kernel {
        Kernel::Mul => {
            let mut all = Vec::new();
            for body in bodies {
                let RequestBody::Mul(pairs) = body else { unreachable!() };
                all.extend_from_slice(pairs);
            }
            let mut results = engine::eval_mul(&ladders.mul[config], &all).into_iter();
            bodies.iter().map(|b| Values::Mul(results.by_ref().take(b.items()).collect())).collect()
        }
        Kernel::Sad => {
            let mut all = Vec::new();
            for body in bodies {
                let RequestBody::Sad(blocks) = body else { unreachable!() };
                all.extend_from_slice(blocks);
            }
            let mut results = engine::eval_sad(&ladders.sad[config], &all).into_iter();
            bodies.iter().map(|b| Values::Sad(results.by_ref().take(b.items()).collect())).collect()
        }
        Kernel::Fir => {
            let streams: Vec<&[u8]> = bodies
                .iter()
                .map(|body| {
                    let RequestBody::Fir(s) = body else { unreachable!() };
                    s.as_slice()
                })
                .collect();
            let filtered = engine::eval_fir(&ladders.fir[config], &streams);
            filtered.into_iter().map(Values::Fir).collect()
        }
        Kernel::Dct => {
            let mut all = Vec::new();
            for body in bodies {
                let RequestBody::Dct(blocks) = body else { unreachable!() };
                all.extend_from_slice(blocks);
            }
            let mut results = engine::eval_dct(&ladders.dct[config], &all).into_iter();
            bodies.iter().map(|b| Values::Dct(results.by_ref().take(b.items()).collect())).collect()
        }
    }
}

/// A body holding only the item the sampling monitor compares: the
/// first one. A FIR output reads its neighbouring samples, so a FIR body
/// keeps its whole stream.
fn first_item(body: &RequestBody) -> RequestBody {
    match body {
        RequestBody::Mul(pairs) => RequestBody::Mul(pairs[..1].to_vec()),
        RequestBody::Sad(blocks) => RequestBody::Sad(blocks[..1].to_vec()),
        RequestBody::Fir(samples) => RequestBody::Fir(samples.clone()),
        RequestBody::Dct(blocks) => RequestBody::Dct(blocks[..1].to_vec()),
        RequestBody::Ping => unreachable!("pings never reach the queue"),
    }
}

/// The `(approximate, exact)` signed pair of a request's first item,
/// used by the sampling monitor. For multi-valued items the comparison
/// point is the item's first value (the DC coefficient for the DCT).
fn first_item_pair(body: &RequestBody, vals: &Values) -> (i64, i64) {
    match (body, vals) {
        (RequestBody::Mul(pairs), Values::Mul(v)) => {
            let (a, b) = pairs[0];
            (i64::from(v[0]), i64::from(a) * i64::from(b))
        }
        (RequestBody::Sad(blocks), Values::Sad(v)) => {
            let b = &blocks[0];
            let exact: u64 =
                b.cur.iter().zip(&b.refb).map(|(&c, &r)| u64::from(c.abs_diff(r))).sum();
            (i64::from(v[0]), exact as i64)
        }
        (RequestBody::Fir(samples), Values::Fir(v)) => {
            let wide: Vec<u64> = samples.iter().map(|&s| u64::from(s)).collect();
            let exact =
                xlac_accel::fir::FirAccelerator::apply_exact(&crate::ladder::FIR_COEFFS, &wide);
            (i64::from(v[0]), exact[0])
        }
        (RequestBody::Dct(blocks), Values::Dct(v)) => {
            let exact = engine::eval_dct_exact(&blocks[..1]);
            (i64::from(v[0][0]), i64::from(exact[0][0]))
        }
        _ => unreachable!("values always match the request body kernel"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;

    use crate::proto::decode_reply;

    fn mul(req_id: u64, tenant: u32, max_med: f64, pairs: &[(u8, u8)]) -> Request {
        Request { req_id, tenant, max_med, body: RequestBody::Mul(pairs.to_vec()) }
    }

    /// A server-side writer and the client end of one loopback connection.
    fn loopback() -> (Arc<ConnWriter>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        (Arc::new(ConnWriter { stream: Mutex::new(server_end) }), client)
    }

    fn read_replies(stream: &mut TcpStream, n: usize) -> Vec<Reply> {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut decoder, mut buf, mut out) = (FrameDecoder::new(0), [0u8; 4096], Vec::new());
        while out.len() < n {
            match decoder.next_frame().unwrap() {
                Some(frame) => out.push(decode_reply(&frame).unwrap()),
                None => {
                    let got = stream.read(&mut buf).unwrap();
                    assert!(got > 0, "connection closed after {} replies", out.len());
                    decoder.feed(&buf[..got]);
                }
            }
        }
        out
    }

    /// The same per-tenant request sequence served as one batch and as
    /// single-request batches draws the same `(req_id, config, values)`
    /// trail: a request's budget charge and sample land before its
    /// tenant's next decision, wherever the batch boundaries fall.
    #[test]
    fn tenant_decisions_do_not_depend_on_batch_boundaries() {
        let ladders = Ladders::build();
        let policy = TenantPolicy {
            budget_med_per_window: 4.0,
            window_items: 8,
            sample_every: 2,
            monitor_window: 4,
            cec_capacity: 1e9,
        };
        let requests: Vec<Request> = (0..48u64)
            .map(|i| {
                let a = (i * 37 + 11) as u8;
                mul(i, (i % 3) as u32, 4.0, &[(a, 200 - a / 2), (255, a)])
            })
            .collect();
        let stats = ServerStats::default();
        let one_batch = serve_batch(&ladders, &mut ShardTenants::new(policy), &stats, &requests);
        let mut tenants = ShardTenants::new(policy);
        let singles: Vec<Reply> = requests
            .iter()
            .flat_map(|r| serve_batch(&ladders, &mut tenants, &stats, std::slice::from_ref(r)))
            .collect();
        assert_eq!(one_batch, singles);
        let configs: Vec<u32> = singles
            .iter()
            .map(|r| match r {
                Reply::Values { config, .. } => *config,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(configs.contains(&0), "the budget never forced exact: {configs:?}");
        assert!(configs.iter().any(|&c| c > 0), "nothing was approximate: {configs:?}");
    }

    /// One 5-request batch across 2 connections makes exactly 2 socket
    /// writes, and each connection decodes its own replies in arrival
    /// order.
    #[test]
    fn one_batch_writes_once_per_connection() {
        let ladders = Ladders::build();
        let ((a, mut client_a), (b, mut client_b)) = (loopback(), loopback());
        let batch: Vec<Request> =
            (0..5u64).map(|i| mul(i, i as u32, 0.0, &[(i as u8 + 3, 7)])).collect();
        let mut writers = [&a, &b, &a, &a, &b].map(Arc::clone).to_vec();
        let stats = ServerStats::default();
        let replies =
            serve_batch(&ladders, &mut ShardTenants::new(TenantPolicy::default()), &stats, &batch);
        Outbox::default().send(&mut writers, &replies, &stats);
        let snap = stats.snapshot();
        assert_eq!((snap.reply_writes, snap.values_replies, snap.write_failures), (2, 5, 0));
        let pick = |idx: &[usize]| idx.iter().map(|&i| replies[i].clone()).collect::<Vec<_>>();
        assert_eq!(read_replies(&mut client_a, 3), pick(&[0, 2, 3]));
        assert_eq!(read_replies(&mut client_b, 2), pick(&[1, 4]));
        assert!(matches!(
            &replies[4],
            Reply::Values { req_id: 4, config: 0, values: Values::Mul(v) } if v == &[49]
        ));
    }

    /// A failed write loses every reply it carried, each counted once.
    #[test]
    fn a_failed_write_counts_every_reply_it_carried() {
        let (writer, _client) = loopback();
        writer.stream.lock().unwrap().shutdown(Shutdown::Write).unwrap();
        let (stats, mut buf) = (ServerStats::default(), ReplyBuf::default());
        for req_id in 0..3 {
            buf.push(&Reply::Pong { req_id });
        }
        buf.flush(&writer, &stats);
        let snap = stats.snapshot();
        assert_eq!((snap.reply_writes, snap.write_failures, snap.pongs), (1, 3, 0));
        assert!(buf.bytes.is_empty());
    }
}
