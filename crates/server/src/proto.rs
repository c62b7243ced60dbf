//! The approximation-as-a-service wire protocol (DESIGN.md §15).
//!
//! Every message is one frame (`xlac_core::wire`: little-endian `u32`
//! payload length + payload). The payload grammar:
//!
//! ```text
//! request    := opcode:u8 req_id:u64 tenant:u32 max_med:f64 count:u16 body
//! opcode     := 0x01 MUL | 0x02 SAD | 0x03 FIR | 0x04 DCT | 0x10 PING
//! MUL body   := count x (a:u8 b:u8)            -- 8-bit operand pairs
//! SAD body   := count x (16 cur:u8, 16 ref:u8) -- 16-pixel block pairs
//! FIR body   := count x sample:u8              -- one filter input stream
//! DCT body   := count x 16 x res:i16           -- 4x4 residual blocks,
//!                                                 each in -255..=255
//! PING body  := (empty, count must be 0)
//!
//! reply      := 0x81 orig_op:u8 req_id:u64 config:u32 count:u16 values
//! MUL values := count x p:u16                  -- full 16-bit products
//! SAD values := count x s:u32
//! FIR values := count x y:i32
//! DCT values := count x 16 x c:i16
//!
//! error      := 0x82 req_id:u64 code:u8 len:u16 msg:utf8
//! overloaded := 0x83 req_id:u64 queue_depth:u32
//! pong       := 0x90 req_id:u64
//! ```
//!
//! `max_med` is the request's quality target: the maximum mean error
//! distance the tenant tolerates, in the kernel's output units. The
//! manager serves the request with the cheapest configuration whose
//! *certified* MED bound stays below it; `config` in the reply names the
//! ladder index actually used (0 is always the exact configuration), so
//! any client can re-derive the exact expected values from the library.
//!
//! Decoding is total: every malformed payload maps to a typed
//! [`ProtoError`] (never a panic), which the server echoes as an `error`
//! frame. Frame-level failures (oversized/zero length prefixes) poison
//! the stream and are fatal to the connection; payload-level failures
//! are not, because the frame boundary is still trustworthy.

use xlac_core::wire::{self, ByteReader, WireError};

/// Upper bound on `count` in any request (keeps one request's work and
/// reply bounded; larger batches are split client-side).
pub const MAX_COUNT: u16 = 4096;

/// Pixels per SAD block pair (fixed by the server's SAD ladder width).
pub const SAD_PIXELS: usize = 16;

/// Residual samples per DCT block (4×4).
pub const DCT_BLOCK: usize = 16;

/// Request opcodes.
pub mod op {
    /// Batched multiplier request.
    pub const MUL: u8 = 0x01;
    /// Batched SAD request.
    pub const SAD: u8 = 0x02;
    /// FIR stream request.
    pub const FIR: u8 = 0x03;
    /// Batched DCT request.
    pub const DCT: u8 = 0x04;
    /// Liveness probe.
    pub const PING: u8 = 0x10;
    /// Value reply.
    pub const REPLY: u8 = 0x81;
    /// Typed error reply.
    pub const ERROR: u8 = 0x82;
    /// Backpressure reply: the tenant's shard queue was full.
    pub const OVERLOADED: u8 = 0x83;
    /// Liveness reply.
    pub const PONG: u8 = 0x90;
}

/// Typed protocol error codes carried by `error` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Unknown request opcode.
    BadOpcode = 1,
    /// `count` exceeded [`MAX_COUNT`].
    BadCount = 2,
    /// Body size disagreed with the header (truncated or trailing bytes).
    BadBody = 3,
    /// An operand was outside its kernel's domain.
    BadOperand = 4,
    /// `max_med` was NaN, infinite or negative.
    BadQuality = 5,
    /// Frame length prefix exceeded the limit (fatal to the stream).
    FrameOversized = 6,
    /// Zero-length frame (fatal to the stream).
    FrameEmpty = 7,
}

impl ErrorCode {
    /// Decodes a wire byte back into a code.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadOpcode,
            2 => ErrorCode::BadCount,
            3 => ErrorCode::BadBody,
            4 => ErrorCode::BadOperand,
            5 => ErrorCode::BadQuality,
            6 => ErrorCode::FrameOversized,
            7 => ErrorCode::FrameEmpty,
            _ => return None,
        })
    }
}

/// A decoded protocol violation: the code and a human-readable message
/// for the error frame, plus the request id when the header survived far
/// enough to recover it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The typed code echoed on the wire.
    pub code: ErrorCode,
    /// Diagnostic message (truncated to fit a `u16` length on the wire).
    pub msg: String,
    /// The offending request's id, when recoverable.
    pub req_id: Option<u64>,
}

impl ProtoError {
    fn new(code: ErrorCode, msg: impl Into<String>, req_id: Option<u64>) -> Self {
        ProtoError { code, msg: msg.into(), req_id }
    }
}

/// The compute kernels the service batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// 8×8 multiplier.
    Mul,
    /// 16-pixel sum of absolute differences.
    Sad,
    /// FIR low-pass filter over an 8-bit sample stream.
    Fir,
    /// 4×4 integer DCT of a residual block.
    Dct,
}

impl Kernel {
    /// All kernels, in opcode order.
    pub const ALL: [Kernel; 4] = [Kernel::Mul, Kernel::Sad, Kernel::Fir, Kernel::Dct];

    /// The kernel's request opcode.
    #[must_use]
    pub fn opcode(self) -> u8 {
        match self {
            Kernel::Mul => op::MUL,
            Kernel::Sad => op::SAD,
            Kernel::Fir => op::FIR,
            Kernel::Dct => op::DCT,
        }
    }

    /// Stable dense index (`0..4`) for per-kernel tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Kernel::Mul => 0,
            Kernel::Sad => 1,
            Kernel::Fir => 2,
            Kernel::Dct => 3,
        }
    }

    /// Short lowercase name (used in stats and load-generator mixes).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Mul => "mul",
            Kernel::Sad => "sad",
            Kernel::Fir => "fir",
            Kernel::Dct => "dct",
        }
    }
}

/// One SAD block pair: 16 current and 16 reference pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SadPair {
    /// Current-block pixels.
    pub cur: [u8; SAD_PIXELS],
    /// Reference-block pixels.
    pub refb: [u8; SAD_PIXELS],
}

/// A decoded request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// 8-bit operand pairs.
    Mul(Vec<(u8, u8)>),
    /// 16-pixel block pairs.
    Sad(Vec<SadPair>),
    /// One 8-bit sample stream (reply carries one output per sample).
    Fir(Vec<u8>),
    /// 4×4 residual blocks with entries in `-255..=255`.
    Dct(Vec<[i16; DCT_BLOCK]>),
    /// Liveness probe.
    Ping,
}

impl RequestBody {
    /// The kernel this body targets (`None` for ping).
    #[must_use]
    pub fn kernel(&self) -> Option<Kernel> {
        match self {
            RequestBody::Mul(_) => Some(Kernel::Mul),
            RequestBody::Sad(_) => Some(Kernel::Sad),
            RequestBody::Fir(_) => Some(Kernel::Fir),
            RequestBody::Dct(_) => Some(Kernel::Dct),
            RequestBody::Ping => None,
        }
    }

    /// Number of workload items in the body.
    #[must_use]
    pub fn items(&self) -> usize {
        match self {
            RequestBody::Mul(v) => v.len(),
            RequestBody::Sad(v) => v.len(),
            RequestBody::Fir(v) => v.len(),
            RequestBody::Dct(v) => v.len(),
            RequestBody::Ping => 0,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim on every reply.
    pub req_id: u64,
    /// Tenant id: the sharding key and the budget-accounting identity.
    pub tenant: u32,
    /// Quality target: maximum tolerated mean error distance.
    pub max_med: f64,
    /// The workload.
    pub body: RequestBody,
}

/// Reply values, one variant per kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Values {
    /// Full 16-bit products.
    Mul(Vec<u16>),
    /// SAD values.
    Sad(Vec<u32>),
    /// Filter outputs.
    Fir(Vec<i32>),
    /// Transformed blocks.
    Dct(Vec<[i16; DCT_BLOCK]>),
}

impl Values {
    /// Number of values carried.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Values::Mul(v) => v.len(),
            Values::Sad(v) => v.len(),
            Values::Fir(v) => v.len(),
            Values::Dct(v) => v.len(),
        }
    }

    /// `true` when no values are carried.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kernel these values answer.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        match self {
            Values::Mul(_) => Kernel::Mul,
            Values::Sad(_) => Kernel::Sad,
            Values::Fir(_) => Kernel::Fir,
            Values::Dct(_) => Kernel::Dct,
        }
    }
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A successful evaluation: the ladder index served and the values.
    Values {
        /// Echoed request id.
        req_id: u64,
        /// Ladder index of the configuration that produced the values.
        config: u32,
        /// The results.
        values: Values,
    },
    /// A typed protocol error.
    Error {
        /// Echoed request id (0 when the request never parsed that far).
        req_id: u64,
        /// The error class.
        code: ErrorCode,
        /// Diagnostic message.
        msg: String,
    },
    /// Backpressure: the shard queue was full; the request was not
    /// evaluated and may be retried.
    Overloaded {
        /// Echoed request id.
        req_id: u64,
        /// Queue depth observed at rejection (= the configured cap).
        queue_depth: u32,
    },
    /// Liveness reply.
    Pong {
        /// Echoed request id.
        req_id: u64,
    },
}

/// Encodes a request into a frame payload (not yet length-prefixed).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = Vec::with_capacity(24 + req.body.items() * 2);
    let opcode = req.body.kernel().map_or(op::PING, Kernel::opcode);
    wire::put_u8(&mut p, opcode);
    wire::put_u64(&mut p, req.req_id);
    wire::put_u32(&mut p, req.tenant);
    wire::put_f64(&mut p, req.max_med);
    wire::put_u16(&mut p, req.body.items() as u16);
    match &req.body {
        RequestBody::Mul(pairs) => {
            for &(a, b) in pairs {
                wire::put_u8(&mut p, a);
                wire::put_u8(&mut p, b);
            }
        }
        RequestBody::Sad(blocks) => {
            for blk in blocks {
                p.extend_from_slice(&blk.cur);
                p.extend_from_slice(&blk.refb);
            }
        }
        RequestBody::Fir(samples) => p.extend_from_slice(samples),
        RequestBody::Dct(blocks) => {
            for blk in blocks {
                for &r in blk {
                    wire::put_i16(&mut p, r);
                }
            }
        }
        RequestBody::Ping => {}
    }
    p
}

fn map_wire(req_id: Option<u64>, e: WireError) -> ProtoError {
    ProtoError::new(ErrorCode::BadBody, e.to_string(), req_id)
}

/// Decodes one frame payload into a request.
///
/// # Errors
///
/// A typed [`ProtoError`] for every malformed payload; the variants are
/// exactly the `error`-frame codes the server echoes.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut r = ByteReader::new(payload);
    let opcode = r.u8().map_err(|e| map_wire(None, e))?;
    // Recover the request id for error attribution as soon as the header
    // allows, even if the rest of the payload turns out malformed.
    let req_id = r.u64().map_err(|e| map_wire(None, e))?;
    let some_id = Some(req_id);
    let kernel = match opcode {
        op::MUL => Some(Kernel::Mul),
        op::SAD => Some(Kernel::Sad),
        op::FIR => Some(Kernel::Fir),
        op::DCT => Some(Kernel::Dct),
        op::PING => None,
        other => {
            return Err(ProtoError::new(
                ErrorCode::BadOpcode,
                format!("unknown opcode {other:#04x}"),
                some_id,
            ))
        }
    };
    let tenant = r.u32().map_err(|e| map_wire(some_id, e))?;
    let max_med = r.f64().map_err(|e| map_wire(some_id, e))?;
    if !max_med.is_finite() || max_med < 0.0 {
        return Err(ProtoError::new(
            ErrorCode::BadQuality,
            format!("max_med {max_med} is not a finite non-negative target"),
            some_id,
        ));
    }
    let count = r.u16().map_err(|e| map_wire(some_id, e))?;
    if count > MAX_COUNT {
        return Err(ProtoError::new(
            ErrorCode::BadCount,
            format!("count {count} exceeds the {MAX_COUNT} cap"),
            some_id,
        ));
    }
    let n = count as usize;
    let body = match kernel {
        Some(Kernel::Mul) => {
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = r.u8().map_err(|e| map_wire(some_id, e))?;
                let b = r.u8().map_err(|e| map_wire(some_id, e))?;
                pairs.push((a, b));
            }
            RequestBody::Mul(pairs)
        }
        Some(Kernel::Sad) => {
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                let cur: [u8; SAD_PIXELS] = r
                    .bytes(SAD_PIXELS)
                    .map_err(|e| map_wire(some_id, e))?
                    .try_into()
                    .expect("16-byte slice");
                let refb: [u8; SAD_PIXELS] = r
                    .bytes(SAD_PIXELS)
                    .map_err(|e| map_wire(some_id, e))?
                    .try_into()
                    .expect("16-byte slice");
                blocks.push(SadPair { cur, refb });
            }
            RequestBody::Sad(blocks)
        }
        Some(Kernel::Fir) => {
            RequestBody::Fir(r.bytes(n).map_err(|e| map_wire(some_id, e))?.to_vec())
        }
        Some(Kernel::Dct) => {
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                let mut blk = [0i16; DCT_BLOCK];
                for slot in blk.iter_mut() {
                    let v = r.i16().map_err(|e| map_wire(some_id, e))?;
                    if !(-255..=255).contains(&v) {
                        return Err(ProtoError::new(
                            ErrorCode::BadOperand,
                            format!("DCT residual {v} outside -255..=255"),
                            some_id,
                        ));
                    }
                    *slot = v;
                }
                blocks.push(blk);
            }
            RequestBody::Dct(blocks)
        }
        None => {
            if count != 0 {
                return Err(ProtoError::new(ErrorCode::BadCount, "ping carries no items", some_id));
            }
            RequestBody::Ping
        }
    };
    r.finish().map_err(|e| map_wire(some_id, e))?;
    Ok(Request { req_id, tenant, max_med, body })
}

/// Encodes a reply into a frame payload.
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut p = Vec::with_capacity(20);
    match reply {
        Reply::Values { req_id, config, values } => {
            wire::put_u8(&mut p, op::REPLY);
            wire::put_u8(&mut p, values.kernel().opcode());
            wire::put_u64(&mut p, *req_id);
            wire::put_u32(&mut p, *config);
            wire::put_u16(&mut p, values.len() as u16);
            match values {
                Values::Mul(v) => v.iter().for_each(|&x| wire::put_u16(&mut p, x)),
                Values::Sad(v) => v.iter().for_each(|&x| wire::put_u32(&mut p, x)),
                Values::Fir(v) => v.iter().for_each(|&x| wire::put_i32(&mut p, x)),
                Values::Dct(v) => {
                    for blk in v {
                        blk.iter().for_each(|&x| wire::put_i16(&mut p, x));
                    }
                }
            }
        }
        Reply::Error { req_id, code, msg } => {
            wire::put_u8(&mut p, op::ERROR);
            wire::put_u64(&mut p, *req_id);
            wire::put_u8(&mut p, *code as u8);
            let bytes = msg.as_bytes();
            let take = bytes.len().min(u16::MAX as usize);
            // Truncate on a char boundary so the message stays valid UTF-8.
            let take = (0..=take).rev().find(|&i| msg.is_char_boundary(i)).unwrap_or(0);
            wire::put_u16(&mut p, take as u16);
            p.extend_from_slice(&bytes[..take]);
        }
        Reply::Overloaded { req_id, queue_depth } => {
            wire::put_u8(&mut p, op::OVERLOADED);
            wire::put_u64(&mut p, *req_id);
            wire::put_u32(&mut p, *queue_depth);
        }
        Reply::Pong { req_id } => {
            wire::put_u8(&mut p, op::PONG);
            wire::put_u64(&mut p, *req_id);
        }
    }
    p
}

/// Decodes one frame payload into a reply (the client side of the codec).
///
/// # Errors
///
/// A [`ProtoError`] when the payload is not a well-formed reply frame.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtoError> {
    let mut r = ByteReader::new(payload);
    let opcode = r.u8().map_err(|e| map_wire(None, e))?;
    let reply = match opcode {
        op::REPLY => {
            let orig = r.u8().map_err(|e| map_wire(None, e))?;
            let req_id = r.u64().map_err(|e| map_wire(None, e))?;
            let config = r.u32().map_err(|e| map_wire(Some(req_id), e))?;
            let count = r.u16().map_err(|e| map_wire(Some(req_id), e))? as usize;
            let some_id = Some(req_id);
            let values = match orig {
                op::MUL => {
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        v.push(r.u16().map_err(|e| map_wire(some_id, e))?);
                    }
                    Values::Mul(v)
                }
                op::SAD => {
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        v.push(r.u32().map_err(|e| map_wire(some_id, e))?);
                    }
                    Values::Sad(v)
                }
                op::FIR => {
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        v.push(r.i32().map_err(|e| map_wire(some_id, e))?);
                    }
                    Values::Fir(v)
                }
                op::DCT => {
                    let mut v = Vec::with_capacity(count);
                    for _ in 0..count {
                        let mut blk = [0i16; DCT_BLOCK];
                        for slot in blk.iter_mut() {
                            *slot = r.i16().map_err(|e| map_wire(some_id, e))?;
                        }
                        v.push(blk);
                    }
                    Values::Dct(v)
                }
                other => {
                    return Err(ProtoError::new(
                        ErrorCode::BadOpcode,
                        format!("reply for unknown opcode {other:#04x}"),
                        some_id,
                    ))
                }
            };
            Reply::Values { req_id, config, values }
        }
        op::ERROR => {
            let req_id = r.u64().map_err(|e| map_wire(None, e))?;
            let code = r.u8().map_err(|e| map_wire(Some(req_id), e))?;
            let code = ErrorCode::from_u8(code).ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::BadOpcode,
                    format!("unknown error code {code}"),
                    Some(req_id),
                )
            })?;
            let len = r.u16().map_err(|e| map_wire(Some(req_id), e))? as usize;
            let msg = String::from_utf8_lossy(r.bytes(len).map_err(|e| map_wire(Some(req_id), e))?)
                .into_owned();
            Reply::Error { req_id, code, msg }
        }
        op::OVERLOADED => {
            let req_id = r.u64().map_err(|e| map_wire(None, e))?;
            let queue_depth = r.u32().map_err(|e| map_wire(Some(req_id), e))?;
            Reply::Overloaded { req_id, queue_depth }
        }
        op::PONG => Reply::Pong { req_id: r.u64().map_err(|e| map_wire(None, e))? },
        other => {
            return Err(ProtoError::new(
                ErrorCode::BadOpcode,
                format!("unknown reply opcode {other:#04x}"),
                None,
            ))
        }
    };
    r.finish().map_err(|e| map_wire(None, e))?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request {
            req_id: 7,
            tenant: 3,
            max_med: 12.5,
            body: RequestBody::Mul(vec![(3, 5), (255, 0)]),
        });
        round_trip(Request {
            req_id: u64::MAX,
            tenant: 0,
            max_med: 0.0,
            body: RequestBody::Sad(vec![SadPair { cur: [1; 16], refb: [250; 16] }]),
        });
        round_trip(Request {
            req_id: 1,
            tenant: 9,
            max_med: 4.0,
            body: RequestBody::Fir(vec![0, 127, 255]),
        });
        let mut blk = [0i16; 16];
        blk[0] = -255;
        blk[15] = 255;
        round_trip(Request {
            req_id: 2,
            tenant: 9,
            max_med: 100.0,
            body: RequestBody::Dct(vec![blk]),
        });
        round_trip(Request { req_id: 3, tenant: 1, max_med: 0.0, body: RequestBody::Ping });
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Values { req_id: 11, config: 2, values: Values::Mul(vec![65_025, 0]) },
            Reply::Values { req_id: 12, config: 0, values: Values::Sad(vec![4080]) },
            Reply::Values { req_id: 13, config: 1, values: Values::Fir(vec![-100_000, 7]) },
            Reply::Values { req_id: 14, config: 3, values: Values::Dct(vec![[-32_000i16; 16]]) },
            Reply::Error { req_id: 9, code: ErrorCode::BadCount, msg: "too many".into() },
            Reply::Overloaded { req_id: 5, queue_depth: 4096 },
            Reply::Pong { req_id: 77 },
        ] {
            let payload = encode_reply(&reply);
            assert_eq!(decode_reply(&payload).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_requests_map_to_typed_errors() {
        // Unknown opcode, with the id recovered for attribution.
        let mut p = Vec::new();
        wire::put_u8(&mut p, 0xEE);
        wire::put_u64(&mut p, 42);
        let e = decode_request(&p).unwrap_err();
        assert_eq!((e.code, e.req_id), (ErrorCode::BadOpcode, Some(42)));

        // Count beyond the cap.
        let good =
            Request { req_id: 1, tenant: 0, max_med: 1.0, body: RequestBody::Mul(vec![(1, 1)]) };
        let mut p = encode_request(&good);
        let off = 1 + 8 + 4 + 8;
        p[off..off + 2].copy_from_slice(&(MAX_COUNT + 1).to_le_bytes());
        assert_eq!(decode_request(&p).unwrap_err().code, ErrorCode::BadCount);

        // Body shorter than the declared count.
        let mut p = encode_request(&good);
        p[off..off + 2].copy_from_slice(&4u16.to_le_bytes());
        assert_eq!(decode_request(&p).unwrap_err().code, ErrorCode::BadBody);

        // Trailing garbage after a complete body.
        let mut p = encode_request(&good);
        p.push(0);
        assert_eq!(decode_request(&p).unwrap_err().code, ErrorCode::BadBody);

        // NaN quality target.
        let mut p = encode_request(&good);
        p[13..21].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(decode_request(&p).unwrap_err().code, ErrorCode::BadQuality);

        // DCT residual out of domain.
        let bad_dct = Request {
            req_id: 4,
            tenant: 0,
            max_med: 1.0,
            body: RequestBody::Dct(vec![[300i16; 16]]),
        };
        // encode_request writes it verbatim; decode must refuse.
        assert_eq!(
            decode_request(&encode_request(&bad_dct)).unwrap_err().code,
            ErrorCode::BadOperand
        );
    }

    #[test]
    fn error_messages_truncate_on_char_boundaries() {
        let long = "é".repeat(40_000); // 2 bytes per char, > u16::MAX bytes
        let payload =
            encode_reply(&Reply::Error { req_id: 1, code: ErrorCode::BadBody, msg: long });
        match decode_reply(&payload).unwrap() {
            Reply::Error { msg, .. } => {
                assert!(msg.len() <= u16::MAX as usize);
                assert!(msg.chars().all(|c| c == 'é'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
