//! The wire protocol of `sring-served`: length-prefixed frames carrying
//! [`Persist`]-encoded request/response payloads.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SRNG"
//! 4       4     protocol version, little-endian u32 (currently 1)
//! 8       4     payload length in bytes, little-endian u32
//! 12      len   payload: one Persist-encoded Request or Response
//! ```
//!
//! The payload length is bounded by the receiver's configured maximum
//! frame size *before* any allocation, so a hostile length prefix cannot
//! trigger an outsized allocation. The payload itself reuses the
//! `onoc-store` codec ([`Encoder`]/[`Decoder`]/[`Persist`]) — the same
//! little-endian, length-prefixed encoding artifacts are persisted with —
//! so the protocol inherits its bounds-checked decoding and its
//! trailing-bytes-are-corruption discipline.

use onoc_graph::{CommDelta, NodeId, StableMessageId};
use onoc_store::{DecodeError, Decoder, Encoder, Persist};
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Frame magic: the first four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SRNG";

/// Protocol version carried in every frame header. Version 2 added the
/// `Delta` workload (incremental re-synthesis against a named prior
/// result) and the job-level `save_as` field; version-1 peers are
/// rejected at the framing layer rather than mis-decoded.
pub const PROTO_VERSION: u32 = 2;

/// Default upper bound on a frame's payload length (1 MiB). Requests and
/// responses are small; anything near this size is a protocol error.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Size of the fixed frame header (magic + version + length).
pub const HEADER_LEN: usize = 12;

/// A framing-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// A read timed out before any byte of a new frame arrived. Only
    /// surfaced on sockets with a read timeout; callers use it as a
    /// polling tick (e.g. to check a shutdown flag) and retry.
    Idle,
    /// An I/O error (kind and message; `std::io::Error` is not `Clone`).
    Io(String),
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The frame carried an unknown protocol version.
    UnsupportedVersion(u32),
    /// The declared payload length exceeds the receiver's bound.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The receiver's configured maximum.
        max: u32,
    },
    /// The connection ended (or timed out for good) mid-frame.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Idle => write!(f, "read timed out between frames"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTO_VERSION})"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            FrameError::Truncated { context } => write!(f, "truncated frame ({context})"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(format!("{}: {e}", e.kind()))
    }
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes, tolerating read timeouts.
///
/// * A timeout before the first byte returns `Idle` when `at_boundary`
///   (no frame in flight — the caller may poll and retry) and keeps
///   waiting otherwise, up to `MID_FRAME_PATIENCE` attempts.
/// * EOF before the first byte at a boundary is a clean `Closed`; EOF
///   anywhere else is `Truncated`.
fn read_exact_frames(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    context: &'static str,
) -> Result<(), FrameError> {
    // With the server's 250 ms read timeout this tolerates ~10 s of
    // mid-frame stall before declaring the peer broken.
    const MID_FRAME_PATIENCE: u32 = 40;
    let mut filled = 0;
    let mut stalls = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && at_boundary {
                    FrameError::Closed
                } else {
                    FrameError::Truncated { context }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                if filled == 0 && at_boundary {
                    return Err(FrameError::Idle);
                }
                stalls += 1;
                if stalls >= MID_FRAME_PATIENCE {
                    return Err(FrameError::Truncated { context });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one frame and returns its payload bytes.
///
/// # Errors
///
/// See [`FrameError`]; `Closed` and `Idle` are the two non-fatal cases.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_frames(r, &mut header, true, "header")?;
    let magic: [u8; 4] = [header[0], header[1], header[2], header[3]];
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != PROTO_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_frames(r, &mut payload, false, "payload")?;
    Ok(payload)
}

/// Writes one frame around `payload`.
///
/// The header and payload are assembled into a single buffer and written
/// with one `write_all`, so a frame is never split across syscalls on the
/// sender side.
///
/// # Errors
///
/// `Oversized` when the payload exceeds `max_frame`, otherwise I/O
/// failures from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_frame: u32) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::Oversized {
        len: u32::MAX,
        max: max_frame,
    })?;
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Writes one Persist-encoded message as a frame.
///
/// # Errors
///
/// See [`write_frame`].
pub fn write_message(
    w: &mut impl Write,
    msg: &impl Persist,
    max_frame: u32,
) -> Result<(), FrameError> {
    write_frame(w, &msg.to_store_bytes(), max_frame)
}

/// The workload a job executes.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A named paper benchmark (`MWD`, `VOPD`, `MPEG`, `D26`, `8PM-24`,
    /// `8PM-32`, `8PM-44`), matched case-insensitively.
    Benchmark(String),
    /// A deterministic synthetic application graph
    /// (`onoc_graph::synth::random_app`).
    Random {
        /// Node count (≥ 2).
        nodes: u64,
        /// Message count (≤ `nodes · (nodes − 1)`).
        messages: u64,
        /// Generator seed.
        seed: u64,
    },
    /// A diagnostic workload that merely sleeps, checking the deadline as
    /// it goes. Used by tests and the load generator to fill the queue
    /// deterministically without burning CPU.
    Sleep {
        /// How long to sleep.
        millis: u64,
    },
    /// Incremental re-synthesis: apply an edit sequence to the named
    /// prior result (saved server-side via [`JobSpec::save_as`]) and
    /// re-synthesize, reusing every artifact the edits left clean.
    Delta {
        /// Name of the saved base result to edit.
        base: String,
        /// The edit sequence, in order.
        deltas: Vec<DeltaSpec>,
    },
}

/// One communication-graph edit on the wire (mirror of
/// [`onoc_graph::CommDelta`] with plain integer ids).
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaSpec {
    /// Add a message `src → dst` with the given bandwidth.
    Add {
        /// Sending node index.
        src: u64,
        /// Receiving node index.
        dst: u64,
        /// Relative bandwidth demand.
        bandwidth: f64,
    },
    /// Remove the message with stable id `id`.
    Remove {
        /// Stable message id.
        id: u64,
    },
    /// Move the message with stable id `id` to new endpoints.
    Retarget {
        /// Stable message id.
        id: u64,
        /// New sending node index.
        src: u64,
        /// New receiving node index.
        dst: u64,
    },
    /// Multiply the bandwidth of message `id` by `factor`.
    Scale {
        /// Stable message id.
        id: u64,
        /// Bandwidth multiplier.
        factor: f64,
    },
}

impl DeltaSpec {
    /// The graph-level edit this wire record describes.
    #[must_use]
    pub fn to_comm(&self) -> CommDelta {
        match *self {
            DeltaSpec::Add {
                src,
                dst,
                bandwidth,
            } => CommDelta::AddMessage {
                src: NodeId(src as usize),
                dst: NodeId(dst as usize),
                bandwidth,
            },
            DeltaSpec::Remove { id } => CommDelta::RemoveMessage {
                id: StableMessageId(id),
            },
            DeltaSpec::Retarget { id, src, dst } => CommDelta::Retarget {
                id: StableMessageId(id),
                src: NodeId(src as usize),
                dst: NodeId(dst as usize),
            },
            DeltaSpec::Scale { id, factor } => CommDelta::ScaleBandwidth {
                id: StableMessageId(id),
                factor,
            },
        }
    }
}

/// The `--delta` grammar of `sring-cli` and `sring-served`:
/// `add:SRC,DST,BW`, `remove:ID`, `retarget:ID,SRC,DST` or
/// `scale:ID,FACTOR` (IDs are stable message ids, SRC/DST node indices).
/// The error is the message both tools print.
impl std::str::FromStr for DeltaSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let bad = || format!("bad --delta `{spec}`");
        let (kind, rest) = spec.split_once(':').ok_or_else(bad)?;
        let parts: Vec<&str> = rest.split(',').collect();
        let int = |v: &str| v.parse::<u64>().map_err(|_| bad());
        let num = |v: &str| v.parse::<f64>().map_err(|_| bad());
        match (kind, parts.as_slice()) {
            ("add", [src, dst, bw]) => Ok(DeltaSpec::Add {
                src: int(src)?,
                dst: int(dst)?,
                bandwidth: num(bw)?,
            }),
            ("remove", [id]) => Ok(DeltaSpec::Remove { id: int(id)? }),
            ("retarget", [id, src, dst]) => Ok(DeltaSpec::Retarget {
                id: int(id)?,
                src: int(src)?,
                dst: int(dst)?,
            }),
            ("scale", [id, factor]) => Ok(DeltaSpec::Scale {
                id: int(id)?,
                factor: num(factor)?,
            }),
            _ => Err(bad()),
        }
    }
}

impl Persist for DeltaSpec {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            DeltaSpec::Add {
                src,
                dst,
                bandwidth,
            } => {
                enc.put_u8(0);
                enc.put_u64(*src);
                enc.put_u64(*dst);
                enc.put_f64(*bandwidth);
            }
            DeltaSpec::Remove { id } => {
                enc.put_u8(1);
                enc.put_u64(*id);
            }
            DeltaSpec::Retarget { id, src, dst } => {
                enc.put_u8(2);
                enc.put_u64(*id);
                enc.put_u64(*src);
                enc.put_u64(*dst);
            }
            DeltaSpec::Scale { id, factor } => {
                enc.put_u8(3);
                enc.put_u64(*id);
                enc.put_f64(*factor);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(DeltaSpec::Add {
                src: dec.take_u64()?,
                dst: dec.take_u64()?,
                bandwidth: dec.take_f64()?,
            }),
            1 => Ok(DeltaSpec::Remove {
                id: dec.take_u64()?,
            }),
            2 => Ok(DeltaSpec::Retarget {
                id: dec.take_u64()?,
                src: dec.take_u64()?,
                dst: dec.take_u64()?,
            }),
            3 => Ok(DeltaSpec::Scale {
                id: dec.take_u64()?,
                factor: dec.take_f64()?,
            }),
            t => Err(dec.error(format!("unknown delta tag {t}"))),
        }
    }
}

impl Workload {
    /// A short human-readable label (used in metrics records).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Workload::Benchmark(name) => name.clone(),
            Workload::Random {
                nodes,
                messages,
                seed,
            } => format!("random-{nodes}n{messages}m-s{seed}"),
            Workload::Sleep { millis } => format!("sleep-{millis}ms"),
            Workload::Delta { base, deltas } => format!("delta-{base}+{}", deltas.len()),
        }
    }
}

impl Persist for Workload {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            Workload::Benchmark(name) => {
                enc.put_u8(0);
                enc.put_str(name);
            }
            Workload::Random {
                nodes,
                messages,
                seed,
            } => {
                enc.put_u8(1);
                enc.put_u64(*nodes);
                enc.put_u64(*messages);
                enc.put_u64(*seed);
            }
            Workload::Sleep { millis } => {
                enc.put_u8(2);
                enc.put_u64(*millis);
            }
            Workload::Delta { base, deltas } => {
                enc.put_u8(3);
                enc.put_str(base);
                enc.put_usize(deltas.len());
                for d in deltas {
                    d.persist(enc);
                }
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Workload::Benchmark(dec.take_str()?.to_owned())),
            1 => Ok(Workload::Random {
                nodes: dec.take_u64()?,
                messages: dec.take_u64()?,
                seed: dec.take_u64()?,
            }),
            2 => Ok(Workload::Sleep {
                millis: dec.take_u64()?,
            }),
            3 => {
                let base = dec.take_str()?.to_owned();
                let len = dec.take_len(9)?;
                let mut deltas = Vec::with_capacity(len);
                for _ in 0..len {
                    deltas.push(DeltaSpec::restore(dec)?);
                }
                Ok(Workload::Delta { base, deltas })
            }
            t => Err(dec.error(format!("unknown workload tag {t}"))),
        }
    }
}

/// The wavelength-assignment strategy a synthesis job runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategySpec {
    /// The synthesizer's default (auto: MILP for small instances,
    /// heuristic beyond).
    #[default]
    Auto,
    /// Heuristic assignment only.
    Heuristic,
    /// MILP assignment with default options.
    Milp,
}

impl StrategySpec {
    /// The canonical flag spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategySpec::Auto => "auto",
            StrategySpec::Heuristic => "heuristic",
            StrategySpec::Milp => "milp",
        }
    }
}

impl Persist for StrategySpec {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            StrategySpec::Auto => 0,
            StrategySpec::Heuristic => 1,
            StrategySpec::Milp => 2,
        });
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(StrategySpec::Auto),
            1 => Ok(StrategySpec::Heuristic),
            2 => Ok(StrategySpec::Milp),
            t => Err(dec.error(format!("unknown strategy tag {t}"))),
        }
    }
}

/// One synthesis/eval job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to synthesize.
    pub workload: Workload,
    /// Wavelength-assignment strategy.
    pub strategy: StrategySpec,
    /// Per-request deadline, measured from *admission* (when the server
    /// accepts the request into its queue). `None` falls back to the
    /// server's configured default, which may also be none.
    pub deadline: Option<Duration>,
    /// Return the full per-job trace report as JSON in the response.
    pub collect_trace: bool,
    /// Save this job's synthesis result server-side under a name, making
    /// it addressable as the base of a later [`Workload::Delta`] job. A
    /// result saved under an existing name replaces it.
    pub save_as: Option<String>,
}

impl JobSpec {
    /// A job for `workload` with default strategy, no deadline, no trace
    /// collection and no server-side save.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        JobSpec {
            workload,
            strategy: StrategySpec::default(),
            deadline: None,
            collect_trace: false,
            save_as: None,
        }
    }
}

impl Persist for JobSpec {
    fn persist(&self, enc: &mut Encoder) {
        self.workload.persist(enc);
        self.strategy.persist(enc);
        self.deadline.persist(enc);
        enc.put_bool(self.collect_trace);
        self.save_as.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(JobSpec {
            workload: Workload::restore(dec)?,
            strategy: StrategySpec::restore(dec)?,
            deadline: Option::<Duration>::restore(dec)?,
            collect_trace: dec.take_bool()?,
            save_as: Option::<String>::restore(dec)?,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one job and return its [`JobResult`].
    Job(JobSpec),
    /// Return a [`ServerStats`] snapshot.
    Stats,
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Begin a graceful drain: queued and in-flight jobs complete, new
    /// jobs are rejected, then the server exits.
    Shutdown,
}

impl Persist for Request {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            Request::Job(spec) => {
                enc.put_u8(0);
                spec.persist(enc);
            }
            Request::Stats => enc.put_u8(1),
            Request::Ping => enc.put_u8(2),
            Request::Shutdown => enc.put_u8(3),
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Request::Job(JobSpec::restore(dec)?)),
            1 => Ok(Request::Stats),
            2 => Ok(Request::Ping),
            3 => Ok(Request::Shutdown),
            t => Err(dec.error(format!("unknown request tag {t}"))),
        }
    }
}

/// Why a job was rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue already holds the configured maximum of pending jobs.
    QueueFull {
        /// The configured queue depth.
        depth: u64,
    },
    /// The server is draining; no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth } => {
                write!(f, "queue full ({depth} jobs already pending)")
            }
            RejectReason::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl Persist for RejectReason {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            RejectReason::QueueFull { depth } => {
                enc.put_u8(0);
                enc.put_u64(*depth);
            }
            RejectReason::ShuttingDown => enc.put_u8(1),
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(RejectReason::QueueFull {
                depth: dec.take_u64()?,
            }),
            1 => Ok(RejectReason::ShuttingDown),
            t => Err(dec.error(format!("unknown reject tag {t}"))),
        }
    }
}

/// Headline numbers of one completed synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// The workload label (benchmark name or synthetic descriptor).
    pub workload: String,
    /// Wavelengths used by the design.
    pub wavelengths: u64,
    /// Sub-rings in the clustering.
    pub sub_rings: u64,
    /// Messages routed.
    pub messages: u64,
}

impl Persist for JobSummary {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_str(&self.workload);
        enc.put_u64(self.wavelengths);
        enc.put_u64(self.sub_rings);
        enc.put_u64(self.messages);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(JobSummary {
            workload: dec.take_str()?.to_owned(),
            wavelengths: dec.take_u64()?,
            sub_rings: dec.take_u64()?,
            messages: dec.take_u64()?,
        })
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The job ran to completion.
    Completed(JobSummary),
    /// The per-request deadline expired (possibly before the job started).
    DeadlineExceeded {
        /// How far past the deadline the abort was detected, in ns.
        overdue_ns: u64,
    },
    /// The job failed (bad workload parameters or a synthesis error).
    Failed(String),
}

impl Outcome {
    /// A short machine-readable label (used in metrics records).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed(_) => "completed",
            Outcome::DeadlineExceeded { .. } => "deadline_exceeded",
            Outcome::Failed(_) => "failed",
        }
    }
}

impl Persist for Outcome {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            Outcome::Completed(summary) => {
                enc.put_u8(0);
                summary.persist(enc);
            }
            Outcome::DeadlineExceeded { overdue_ns } => {
                enc.put_u8(1);
                enc.put_u64(*overdue_ns);
            }
            Outcome::Failed(message) => {
                enc.put_u8(2);
                enc.put_str(message);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Outcome::Completed(JobSummary::restore(dec)?)),
            1 => Ok(Outcome::DeadlineExceeded {
                overdue_ns: dec.take_u64()?,
            }),
            2 => Ok(Outcome::Failed(dec.take_str()?.to_owned())),
            t => Err(dec.error(format!("unknown outcome tag {t}"))),
        }
    }
}

/// The result of one admitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Server-assigned job id (monotonic per server process).
    pub job_id: u64,
    /// How the job ended.
    pub outcome: Outcome,
    /// Time the job spent queued before a worker picked it up, in ns.
    pub queue_ns: u64,
    /// Time the worker spent executing the job, in ns.
    pub run_ns: u64,
    /// Artifact-cache hits observed by this job's pipeline run.
    pub cache_hits: u64,
    /// Artifact-cache misses observed by this job's pipeline run.
    pub cache_misses: u64,
    /// The job's full trace report as JSON, when requested.
    pub trace_json: Option<String>,
}

impl Persist for JobResult {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u64(self.job_id);
        self.outcome.persist(enc);
        enc.put_u64(self.queue_ns);
        enc.put_u64(self.run_ns);
        enc.put_u64(self.cache_hits);
        enc.put_u64(self.cache_misses);
        self.trace_json.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(JobResult {
            job_id: dec.take_u64()?,
            outcome: Outcome::restore(dec)?,
            queue_ns: dec.take_u64()?,
            run_ns: dec.take_u64()?,
            cache_hits: dec.take_u64()?,
            cache_misses: dec.take_u64()?,
            trace_json: Option::<String>::restore(dec)?,
        })
    }
}

/// A coherent snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs admitted into the queue.
    pub accepted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Jobs rejected because the server was draining.
    pub rejected_shutdown: u64,
    /// Jobs that ended with a deadline abort.
    pub deadline_exceeded: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Malformed frames / undecodable payloads observed.
    pub protocol_errors: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Shared artifact-cache hits (process lifetime).
    pub cache_hits: u64,
    /// Shared artifact-cache misses.
    pub cache_misses: u64,
    /// Shared artifact-cache lookups (`hits + misses`).
    pub cache_gets: u64,
    /// Shared artifact-cache evictions.
    pub cache_evictions: u64,
    /// Artifacts currently in the shared cache.
    pub cache_entries: u64,
    /// Persistent-store hits (0 when no store is attached).
    pub disk_hits: u64,
    /// Persistent-store misses.
    pub disk_misses: u64,
    /// Persistent-store writes.
    pub disk_writes: u64,
}

impl ServerStats {
    /// Shared-cache hit rate over the process lifetime; 0 when idle.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_gets == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_gets as f64
        }
    }
}

impl Persist for ServerStats {
    fn persist(&self, enc: &mut Encoder) {
        for v in [
            self.accepted,
            self.completed,
            self.rejected_queue_full,
            self.rejected_shutdown,
            self.deadline_exceeded,
            self.failed,
            self.protocol_errors,
            self.queued,
            self.workers,
            self.cache_hits,
            self.cache_misses,
            self.cache_gets,
            self.cache_evictions,
            self.cache_entries,
            self.disk_hits,
            self.disk_misses,
            self.disk_writes,
        ] {
            enc.put_u64(v);
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ServerStats {
            accepted: dec.take_u64()?,
            completed: dec.take_u64()?,
            rejected_queue_full: dec.take_u64()?,
            rejected_shutdown: dec.take_u64()?,
            deadline_exceeded: dec.take_u64()?,
            failed: dec.take_u64()?,
            protocol_errors: dec.take_u64()?,
            queued: dec.take_u64()?,
            workers: dec.take_u64()?,
            cache_hits: dec.take_u64()?,
            cache_misses: dec.take_u64()?,
            cache_gets: dec.take_u64()?,
            cache_evictions: dec.take_u64()?,
            cache_entries: dec.take_u64()?,
            disk_hits: dec.take_u64()?,
            disk_misses: dec.take_u64()?,
            disk_writes: dec.take_u64()?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The result of an admitted job.
    Job(JobResult),
    /// A stats snapshot.
    Stats(ServerStats),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Acknowledgement of [`Request::Shutdown`]; the drain has begun.
    ShuttingDown,
    /// The job was refused at admission. The explicit response (rather
    /// than silent queueing) is what bounds the server's memory under
    /// overload.
    Rejected(RejectReason),
    /// A request-level error (undecodable payload, framing violation).
    Error(String),
}

impl Persist for Response {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            Response::Job(result) => {
                enc.put_u8(0);
                result.persist(enc);
            }
            Response::Stats(stats) => {
                enc.put_u8(1);
                stats.persist(enc);
            }
            Response::Pong => enc.put_u8(2),
            Response::ShuttingDown => enc.put_u8(3),
            Response::Rejected(reason) => {
                enc.put_u8(4);
                reason.persist(enc);
            }
            Response::Error(message) => {
                enc.put_u8(5);
                enc.put_str(message);
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(Response::Job(JobResult::restore(dec)?)),
            1 => Ok(Response::Stats(ServerStats::restore(dec)?)),
            2 => Ok(Response::Pong),
            3 => Ok(Response::ShuttingDown),
            4 => Ok(Response::Rejected(RejectReason::restore(dec)?)),
            5 => Ok(Response::Error(dec.take_str()?.to_owned())),
            t => Err(dec.error(format!("unknown response tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + fmt::Debug>(value: &T) {
        let bytes = value.to_store_bytes();
        let back = T::from_store_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(&Request::Ping);
        roundtrip(&Request::Stats);
        roundtrip(&Request::Shutdown);
        roundtrip(&Request::Job(JobSpec {
            workload: Workload::Benchmark("MWD".into()),
            strategy: StrategySpec::Heuristic,
            deadline: Some(Duration::from_millis(1500)),
            collect_trace: true,
            save_as: None,
        }));
        roundtrip(&Request::Job(JobSpec::new(Workload::Random {
            nodes: 12,
            messages: 20,
            seed: 7,
        })));
        roundtrip(&Request::Job(JobSpec::new(Workload::Sleep { millis: 50 })));
        let mut saved = JobSpec::new(Workload::Benchmark("VOPD".into()));
        saved.save_as = Some("base".into());
        roundtrip(&Request::Job(saved));
        roundtrip(&Request::Job(JobSpec::new(Workload::Delta {
            base: "base".into(),
            deltas: vec![
                DeltaSpec::Add {
                    src: 1,
                    dst: 2,
                    bandwidth: 1.5,
                },
                DeltaSpec::Remove { id: 3 },
                DeltaSpec::Retarget {
                    id: 4,
                    src: 0,
                    dst: 5,
                },
                DeltaSpec::Scale { id: 6, factor: 0.5 },
            ],
        })));
    }

    #[test]
    fn delta_specs_parse_the_four_forms_and_reject_malformed_ones() {
        let parse = |s: &str| s.parse::<DeltaSpec>();
        assert_eq!(
            parse("add:1,2,1.5"),
            Ok(DeltaSpec::Add {
                src: 1,
                dst: 2,
                bandwidth: 1.5
            })
        );
        assert_eq!(parse("remove:3"), Ok(DeltaSpec::Remove { id: 3 }));
        assert_eq!(
            parse("retarget:4,0,5"),
            Ok(DeltaSpec::Retarget {
                id: 4,
                src: 0,
                dst: 5
            })
        );
        assert_eq!(
            parse("scale:6,0.5"),
            Ok(DeltaSpec::Scale { id: 6, factor: 0.5 })
        );
        for bad in [
            // No colon.
            "",
            "remove",
            "scale 6,0.5",
            // Wrong arity.
            "add:1,2",
            "remove:1,2",
            "retarget:1,2",
            "scale:6",
            // Bad number.
            "remove:",
            "remove:x",
            "remove:-1",
            "add:1,2,fast",
            "retarget:1,2,3.5",
            "scale:1.5,2",
            // Unknown kind.
            "frob:1",
            "Add:1,2,1.5",
        ] {
            assert_eq!(parse(bad), Err(format!("bad --delta `{bad}`")));
        }
    }

    #[test]
    fn delta_specs_map_to_graph_deltas() {
        use onoc_graph::CommDelta;
        assert_eq!(
            DeltaSpec::Retarget {
                id: 7,
                src: 1,
                dst: 2
            }
            .to_comm(),
            CommDelta::Retarget {
                id: StableMessageId(7),
                src: NodeId(1),
                dst: NodeId(2),
            }
        );
        assert_eq!(
            DeltaSpec::Scale { id: 9, factor: 2.0 }.to_comm(),
            CommDelta::ScaleBandwidth {
                id: StableMessageId(9),
                factor: 2.0,
            }
        );
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip(&Response::Pong);
        roundtrip(&Response::ShuttingDown);
        roundtrip(&Response::Rejected(RejectReason::QueueFull { depth: 64 }));
        roundtrip(&Response::Rejected(RejectReason::ShuttingDown));
        roundtrip(&Response::Error("boom".into()));
        roundtrip(&Response::Stats(ServerStats {
            accepted: 10,
            completed: 9,
            cache_hits: 30,
            cache_misses: 10,
            cache_gets: 40,
            ..ServerStats::default()
        }));
        roundtrip(&Response::Job(JobResult {
            job_id: 3,
            outcome: Outcome::Completed(JobSummary {
                workload: "MWD".into(),
                wavelengths: 7,
                sub_rings: 4,
                messages: 13,
            }),
            queue_ns: 1_000,
            run_ns: 2_000,
            cache_hits: 4,
            cache_misses: 0,
            trace_json: Some("{}".into()),
        }));
        roundtrip(&Response::Job(JobResult {
            job_id: 4,
            outcome: Outcome::DeadlineExceeded { overdue_ns: 55 },
            queue_ns: 0,
            run_ns: 0,
            cache_hits: 0,
            cache_misses: 0,
            trace_json: None,
        }));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let req = Request::Job(JobSpec::new(Workload::Benchmark("VOPD".into())));
        let mut buf = Vec::new();
        write_message(&mut buf, &req, DEFAULT_MAX_FRAME).expect("writes");
        let mut cursor = &buf[..];
        let payload = read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("reads");
        assert_eq!(Request::from_store_bytes(&payload).expect("decodes"), req);
        // A second read on the exhausted buffer is a clean close.
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Ping, DEFAULT_MAX_FRAME).expect("writes");
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut &wrong_magic[..], DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic(_))
        ));
        let mut wrong_version = buf.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            read_frame(&mut &wrong_version[..], DEFAULT_MAX_FRAME),
            Err(FrameError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        // A length prefix beyond the bound fails before any allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&FRAME_MAGIC);
        huge.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..], DEFAULT_MAX_FRAME),
            Err(FrameError::Oversized { len: u32::MAX, .. })
        ));
        // A frame cut off mid-header and one cut off mid-payload both
        // surface as truncation, not a clean close.
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Stats, DEFAULT_MAX_FRAME).expect("writes");
        for cut in [HEADER_LEN - 4, buf.len() - 1] {
            let partial = &buf[..cut];
            assert!(
                matches!(
                    read_frame(&mut &partial[..], DEFAULT_MAX_FRAME),
                    Err(FrameError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn sender_refuses_oversized_payloads() {
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &[0u8; 32], 16).expect_err("too big");
        assert!(matches!(err, FrameError::Oversized { len: 32, max: 16 }));
        assert!(sink.is_empty(), "nothing must be written on refusal");
    }
}
