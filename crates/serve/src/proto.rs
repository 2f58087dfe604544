//! The `pld` request/response model and its binary encoding.
//!
//! Requests carry the same options the `plc` command line does, and
//! responses carry the deterministic digest lines — the whole protocol
//! is a pure function of (design, options, edits), which is what makes
//! the server's bit-identity contract testable.
//!
//! # Kinds
//!
//! | byte   | message      |
//! |--------|--------------|
//! | `0x01` | Compile      |
//! | `0x02` | Eco          |
//! | `0x03` | Stats        |
//! | `0x04` | Shutdown     |
//! | `0x81` | CompileOk    |
//! | `0x82` | EcoOk        |
//! | `0x83` | StatsOk      |
//! | `0x84` | ShutdownOk   |
//! | `0xE0` | Error        |
//!
//! Every other kind byte is rejected typed. Unknown flag bits, queue
//! bytes and option tags are likewise rejected rather than ignored, so
//! a skewed client cannot silently get different semantics. The queue
//! byte must be 0: the engine has one event queue.

use crate::error::ServeError;
use crate::wire::{push_string, read_string};
use pl_flow::{FlowArtifacts, FlowOptions};
use pl_sim::checkpoint::wire::Reader;
use pl_sim::Fnv64;

/// Request kind bytes.
pub const REQ_COMPILE: u8 = 0x01;
/// See [`REQ_COMPILE`].
pub const REQ_ECO: u8 = 0x02;
/// See [`REQ_COMPILE`].
pub const REQ_STATS: u8 = 0x03;
/// See [`REQ_COMPILE`].
pub const REQ_SHUTDOWN: u8 = 0x04;

/// Response kind bytes.
pub const RESP_COMPILE: u8 = 0x81;
/// See [`RESP_COMPILE`].
pub const RESP_ECO: u8 = 0x82;
/// See [`RESP_COMPILE`].
pub const RESP_STATS: u8 = 0x83;
/// See [`RESP_COMPILE`].
pub const RESP_SHUTDOWN: u8 = 0x84;
/// See [`RESP_COMPILE`].
pub const RESP_ERROR: u8 = 0xE0;

/// Error codes carried by [`Response::Error`].
pub const ERR_FRAME: u16 = 1;
/// The request decoded but was semantically malformed.
pub const ERR_REQUEST: u16 = 2;
/// `FlowOptions::validate` rejected the option combination.
pub const ERR_OPTIONS: u16 = 3;
/// The compile pipeline failed.
pub const ERR_FLOW: u16 = 4;

/// What to compile: a spec string the server resolves exactly like
/// `plc` does (catalog name, `.blif` path on the *server's*
/// filesystem, `rand:` spec), or BLIF text shipped inline so the
/// client needs no shared filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignSpec {
    /// Resolved server-side via `CircuitSource::from_spec`.
    Spec(String),
    /// In-memory BLIF text.
    BlifText {
        /// Design label.
        name: String,
        /// The BLIF source.
        text: String,
    },
}

impl DesignSpec {
    /// Stable digest of the design identity — half of the cache key.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            DesignSpec::Spec(s) => {
                h.mix(0);
                mix_str(&mut h, s);
            }
            DesignSpec::BlifText { name, text } => {
                h.mix(1);
                mix_str(&mut h, name);
                mix_str(&mut h, text);
            }
        }
        h.finish()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DesignSpec::Spec(s) => {
                out.push(0);
                push_string(out, s);
            }
            DesignSpec::BlifText { name, text } => {
                out.push(1);
                push_string(out, name);
                push_string(out, text);
            }
        }
    }

    fn decode(c: &mut Reader<'_>) -> Result<Self, ServeError> {
        match c.u8("design tag")? {
            0 => Ok(DesignSpec::Spec(read_string(c, "design spec")?)),
            1 => Ok(DesignSpec::BlifText {
                name: read_string(c, "design name")?,
                text: read_string(c, "design text")?,
            }),
            other => Err(ServeError::Request {
                message: format!("unknown design tag {other}"),
            }),
        }
    }
}

/// The options a request carries — the same knobs as the `plc` command
/// line, with the same defaults, so a daemon response is comparable
/// byte-for-byte to an in-process run.
///
/// Five fields fix the compile: `lut_size`, `threshold`, `ee`, `optimize`
/// and `no_lint` (see [`RequestOptions::compile_key`]). The other six
/// only configure the sweep over it.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOptions {
    /// Vectors to simulate.
    pub vectors: usize,
    /// Input-vector seed.
    pub seed: u64,
    /// Worker threads for the sweep.
    pub jobs: usize,
    /// LUT arity for technology mapping.
    pub lut_size: usize,
    /// EE cost threshold (meaningful with [`RequestOptions::ee`]).
    pub threshold: f64,
    /// Enable the early-evaluation transform.
    pub ee: bool,
    /// Cross-check against the synchronous reference.
    pub verify: bool,
    /// Run the optimize stage.
    pub optimize: bool,
    /// Skip the lint stages.
    pub no_lint: bool,
    /// Streamed protocol window (`None` = per-vector).
    pub window: Option<usize>,
    /// Lane width (`None` = scalar; validation accepts only 64).
    pub lanes: Option<usize>,
}

impl Default for RequestOptions {
    /// `plc`'s defaults: [`FlowOptions::default`] with EE and verification
    /// off, as when neither `--ee` nor `--verify` is given.
    fn default() -> Self {
        RequestOptions {
            ee: false,
            verify: false,
            ..RequestOptions::from(&FlowOptions::default())
        }
    }
}

impl From<&FlowOptions> for RequestOptions {
    /// The request for a run under `o`, as `plc client` sends it; the
    /// inverse of [`RequestOptions::to_flow_options`] on every field a
    /// request carries.
    fn from(o: &FlowOptions) -> Self {
        RequestOptions {
            vectors: o.vectors,
            seed: o.seed,
            jobs: o.jobs,
            lut_size: o.map.lut_size,
            threshold: o.ee.cost_threshold,
            ee: o.ee_enabled,
            verify: o.verify,
            optimize: o.optimize,
            no_lint: !o.lint.enabled,
            window: o.window,
            lanes: o.lanes,
        }
    }
}

impl RequestOptions {
    /// Expands to full [`FlowOptions`], wiring each field exactly like
    /// `plc`'s flag handling does — this is the function that makes
    /// "bit-identical to an in-process run with the same options" well
    /// defined. The result still goes through `FlowOptions::validate`
    /// server-side.
    pub fn to_flow_options(&self) -> FlowOptions {
        let mut o = FlowOptions {
            vectors: self.vectors,
            seed: self.seed,
            jobs: self.jobs,
            ee_enabled: self.ee,
            verify: self.verify,
            optimize: self.optimize,
            window: self.window,
            lanes: self.lanes,
            ..FlowOptions::default()
        };
        o.map.lut_size = self.lut_size;
        o.ee.cost_threshold = self.threshold;
        o.lint.enabled = !self.no_lint;
        o
    }

    /// Stable digest of the five fields a compile reads — the other half
    /// of the cache key. Two requests with the same key compile to the
    /// same netlists and EE pairs, whatever their sweep fields.
    pub fn compile_key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.mix(self.lut_size as u64);
        h.mix(self.threshold.to_bits());
        for flag in [self.ee, self.optimize, self.no_lint] {
            h.mix(u64::from(flag));
        }
        h.finish()
    }

    fn flags(&self) -> u8 {
        u8::from(self.ee)
            | u8::from(self.verify) << 1
            | u8::from(self.optimize) << 2
            | u8::from(self.no_lint) << 3
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.vectors as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.jobs as u64).to_le_bytes());
        out.extend_from_slice(&(self.lut_size as u64).to_le_bytes());
        out.extend_from_slice(&self.threshold.to_bits().to_le_bytes());
        out.push(self.flags());
        out.push(0); // the queue byte
        encode_opt(out, self.window);
        encode_opt(out, self.lanes);
    }

    fn decode(c: &mut Reader<'_>) -> Result<Self, ServeError> {
        let vectors = usize_field(c, "vectors")?;
        let seed = c.u64("seed")?;
        let jobs = usize_field(c, "jobs")?;
        let lut_size = usize_field(c, "lut size")?;
        let threshold = f64::from_bits(c.u64("threshold")?);
        let flags = c.u8("flags")?;
        if flags & !0b1111 != 0 {
            return Err(ServeError::Request {
                message: format!("unknown option flag bits {:#04x}", flags & !0b1111),
            });
        }
        let queue = c.u8("queue")?;
        if queue != 0 {
            return Err(ServeError::Request {
                message: format!("unknown queue byte {queue}"),
            });
        }
        let window = decode_opt(c, "window")?;
        let lanes = decode_opt(c, "lanes")?;
        Ok(RequestOptions {
            vectors,
            seed,
            jobs,
            lut_size,
            threshold,
            ee: flags & 1 != 0,
            verify: flags & 2 != 0,
            optimize: flags & 4 != 0,
            no_lint: flags & 8 != 0,
            window,
            lanes,
        })
    }
}

fn mix_str(h: &mut Fnv64, s: &str) {
    h.mix(s.len() as u64);
    for b in s.bytes() {
        h.mix(u64::from(b));
    }
}

fn encode_opt(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }
}

fn decode_opt(c: &mut Reader<'_>, what: &'static str) -> Result<Option<usize>, ServeError> {
    match c.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(usize_field(c, what)?)),
        other => Err(ServeError::Request {
            message: format!("{what}: unknown option tag {other}"),
        }),
    }
}

fn usize_field(c: &mut Reader<'_>, what: &'static str) -> Result<usize, ServeError> {
    let raw = c.u64(what)?;
    usize::try_from(raw).map_err(|_| ServeError::Request {
        message: format!("{what}: {raw} does not fit this target"),
    })
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile (or fetch from cache) and sweep a design.
    Compile {
        /// What to compile.
        design: DesignSpec,
        /// Full option set.
        options: RequestOptions,
    },
    /// Apply ECO edits against the warm compiled entry, one incremental
    /// recompile per edit — exactly `plc eco`'s semantics.
    Eco {
        /// What to compile.
        design: DesignSpec,
        /// Full option set.
        options: RequestOptions,
        /// Edit specs, `EcoEdit::parse` grammar, applied in order.
        edits: Vec<String>,
    },
    /// Read the server's cache/choke counters.
    Stats,
    /// Stop the daemon after acknowledging.
    Shutdown,
}

impl Request {
    /// Frame kind + payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        match self {
            Request::Compile { design, options } => {
                design.encode(&mut out);
                options.encode(&mut out);
                (REQ_COMPILE, out)
            }
            Request::Eco {
                design,
                options,
                edits,
            } => {
                design.encode(&mut out);
                options.encode(&mut out);
                out.extend_from_slice(&(edits.len() as u64).to_le_bytes());
                for e in edits {
                    push_string(&mut out, e);
                }
                (REQ_ECO, out)
            }
            Request::Stats => (REQ_STATS, out),
            Request::Shutdown => (REQ_SHUTDOWN, out),
        }
    }

    /// Decodes a frame into a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for unknown kinds, out-of-domain fields
    /// or trailing bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Reader::new(payload);
        let req = match kind {
            REQ_COMPILE => Request::Compile {
                design: DesignSpec::decode(&mut c)?,
                options: RequestOptions::decode(&mut c)?,
            },
            REQ_ECO => Request::Eco {
                design: DesignSpec::decode(&mut c)?,
                options: RequestOptions::decode(&mut c)?,
                // Each edit is at least a length prefix (8 bytes).
                edits: (0..c.count(8, "edit count")?)
                    .map(|_| read_string(&mut c, "edit spec"))
                    .collect::<Result<_, _>>()?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(ServeError::Request {
                    message: format!("unknown request kind {other:#04x}"),
                });
            }
        };
        c.expect_end("request")?;
        Ok(req)
    }
}

/// The deterministic digest triple every compile-shaped response
/// carries — the exact numbers behind `plc`'s two digest lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestTriple {
    /// LUT-mapped synchronous netlist fingerprint.
    pub mapped_fp: u64,
    /// Plain phased-logic netlist fingerprint.
    pub phased_fp: u64,
    /// FNV digest of all primary-output bits.
    pub outputs_digest: u64,
}

impl DigestTriple {
    /// The digests of compiled artifacts whose sweep produced `outputs`.
    #[must_use]
    pub fn of(art: &FlowArtifacts, outputs: &[Vec<bool>]) -> Self {
        DigestTriple {
            mapped_fp: art.mapped.fingerprint(),
            phased_fp: art.plain.fingerprint(),
            outputs_digest: crate::digest::outputs_digest(outputs),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.mapped_fp.to_le_bytes());
        out.extend_from_slice(&self.phased_fp.to_le_bytes());
        out.extend_from_slice(&self.outputs_digest.to_le_bytes());
    }

    fn decode(c: &mut Reader<'_>) -> Result<Self, ServeError> {
        Ok(DigestTriple {
            mapped_fp: c.u64("mapped fingerprint")?,
            phased_fp: c.u64("phased fingerprint")?,
            outputs_digest: c.u64("outputs digest")?,
        })
    }
}

/// Per-edit result inside [`Response::EcoOk`].
#[derive(Debug, Clone, PartialEq)]
pub struct EcoEditResult {
    /// The edit spec as sent.
    pub spec: String,
    /// Dirty nodes this incremental recompile touched.
    pub dirty_nodes: u64,
    /// Post-edit digests.
    pub digest: DigestTriple,
}

/// Cache counters inside [`Response::StatsOk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Live cache entries.
    pub entries: u64,
    /// Configured capacity.
    pub capacity: u64,
    /// Requests answered from a warm entry.
    pub hits: u64,
    /// Requests that compiled from scratch.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// ECO edits applied against warm entries.
    pub eco_edits: u64,
    /// Malformed frames/requests rejected (typed, without dying).
    pub malformed: u64,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A compile request succeeded.
    CompileOk {
        /// Design label.
        name: String,
        /// Whether a warm cache entry served the compile.
        cache_hit: bool,
        /// LUTs after technology mapping.
        luts: u64,
        /// Phased-logic gates.
        gates: u64,
        /// Early-evaluation pairs.
        pairs: u64,
        /// Deterministic digests.
        digest: DigestTriple,
    },
    /// An ECO request succeeded.
    EcoOk {
        /// Design label.
        name: String,
        /// Whether the edits ran against a warm cache entry.
        cache_hit: bool,
        /// Digests of the pre-edit compile.
        initial: DigestTriple,
        /// Per-edit incremental-recompile results, in order.
        edits: Vec<EcoEditResult>,
    },
    /// Cache/error counters.
    StatsOk(ServerStats),
    /// Shutdown acknowledged; the daemon exits after this frame.
    ShutdownOk,
    /// The request failed; the code is one of the `ERR_*` constants.
    Error {
        /// Error class.
        code: u16,
        /// Human-readable detail (for `ERR_OPTIONS`, the exact
        /// `FlowOptions::validate` message).
        message: String,
    },
}

impl Response {
    /// Frame kind + payload.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        match self {
            Response::CompileOk {
                name,
                cache_hit,
                luts,
                gates,
                pairs,
                digest,
            } => {
                push_string(&mut out, name);
                out.push(u8::from(*cache_hit));
                out.extend_from_slice(&luts.to_le_bytes());
                out.extend_from_slice(&gates.to_le_bytes());
                out.extend_from_slice(&pairs.to_le_bytes());
                digest.encode(&mut out);
                (RESP_COMPILE, out)
            }
            Response::EcoOk {
                name,
                cache_hit,
                initial,
                edits,
            } => {
                push_string(&mut out, name);
                out.push(u8::from(*cache_hit));
                initial.encode(&mut out);
                out.extend_from_slice(&(edits.len() as u64).to_le_bytes());
                for e in edits {
                    push_string(&mut out, &e.spec);
                    out.extend_from_slice(&e.dirty_nodes.to_le_bytes());
                    e.digest.encode(&mut out);
                }
                (RESP_ECO, out)
            }
            Response::StatsOk(s) => {
                for v in [
                    s.entries,
                    s.capacity,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.eco_edits,
                    s.malformed,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                (RESP_STATS, out)
            }
            Response::ShutdownOk => (RESP_SHUTDOWN, out),
            Response::Error { code, message } => {
                out.extend_from_slice(&code.to_le_bytes());
                push_string(&mut out, message);
                (RESP_ERROR, out)
            }
        }
    }

    /// Decodes a frame into a response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for unknown kinds, out-of-domain fields
    /// or trailing bytes.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Reader::new(payload);
        let resp = match kind {
            RESP_COMPILE => Response::CompileOk {
                name: read_string(&mut c, "name")?,
                cache_hit: c.bool("cache flag")?,
                luts: c.u64("luts")?,
                gates: c.u64("gates")?,
                pairs: c.u64("pairs")?,
                digest: DigestTriple::decode(&mut c)?,
            },
            RESP_ECO => Response::EcoOk {
                name: read_string(&mut c, "name")?,
                cache_hit: c.bool("cache flag")?,
                initial: DigestTriple::decode(&mut c)?,
                // Spec length prefix (8) + dirty (8) + triple (24).
                edits: (0..c.count(40, "edit result count")?)
                    .map(|_| {
                        Ok(EcoEditResult {
                            spec: read_string(&mut c, "edit spec")?,
                            dirty_nodes: c.u64("dirty nodes")?,
                            digest: DigestTriple::decode(&mut c)?,
                        })
                    })
                    .collect::<Result<_, ServeError>>()?,
            },
            RESP_STATS => Response::StatsOk(ServerStats {
                entries: c.u64("entries")?,
                capacity: c.u64("capacity")?,
                hits: c.u64("hits")?,
                misses: c.u64("misses")?,
                evictions: c.u64("evictions")?,
                eco_edits: c.u64("eco edits")?,
                malformed: c.u64("malformed")?,
            }),
            RESP_SHUTDOWN => Response::ShutdownOk,
            RESP_ERROR => Response::Error {
                code: c.u16("error code")?,
                message: read_string(&mut c, "error message")?,
            },
            other => {
                return Err(ServeError::Request {
                    message: format!("unknown response kind {other:#04x}"),
                });
            }
        };
        c.expect_end("response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_options() -> RequestOptions {
        RequestOptions {
            vectors: 60,
            seed: 7,
            jobs: 2,
            ee: true,
            verify: true,
            lanes: Some(64),
            ..RequestOptions::default()
        }
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Compile {
                design: DesignSpec::Spec("b06".into()),
                options: sample_options(),
            },
            Request::Eco {
                design: DesignSpec::BlifText {
                    name: "t".into(),
                    text: ".model t\n.end\n".into(),
                },
                options: RequestOptions::default(),
                edits: vec!["table:n8:0x6".into(), "remove:n9".into()],
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            let (kind, payload) = req.encode();
            assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let triple = DigestTriple {
            mapped_fp: 1,
            phased_fp: 2,
            outputs_digest: 3,
        };
        for resp in [
            Response::CompileOk {
                name: "b06".into(),
                cache_hit: true,
                luts: 10,
                gates: 20,
                pairs: 3,
                digest: triple,
            },
            Response::EcoOk {
                name: "b06".into(),
                cache_hit: false,
                initial: triple,
                edits: vec![EcoEditResult {
                    spec: "table:n8:0x6".into(),
                    dirty_nodes: 4,
                    digest: triple,
                }],
            },
            Response::StatsOk(ServerStats {
                entries: 1,
                capacity: 8,
                hits: 2,
                misses: 3,
                evictions: 0,
                eco_edits: 5,
                malformed: 1,
            }),
            Response::ShutdownOk,
            Response::Error {
                code: ERR_OPTIONS,
                message: "--window must be at least 1".into(),
            },
        ] {
            let (kind, payload) = resp.encode();
            assert_eq!(Response::decode(kind, &payload).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let req = Request::Compile {
            design: DesignSpec::Spec("b01".into()),
            options: RequestOptions::default(),
        };
        let (kind, payload) = req.encode();
        // The flags byte sits after design (tag + string) and five u64s;
        // the queue byte follows it.
        let flags_at = 1 + 8 + 3 + 5 * 8;
        assert_eq!(payload[flags_at] & 0b1111, payload[flags_at]);
        assert_eq!(payload[flags_at + 1], 0);
        let mut bad = vec![(flags_at, payload[flags_at] | 0b1_0000)];
        bad.extend([1, 2, 0xff].map(|q| (flags_at + 1, q)));
        for (at, byte) in bad {
            let mut p = payload.clone();
            p[at] = byte;
            assert!(
                matches!(Request::decode(kind, &p), Err(ServeError::Request { .. })),
                "byte {byte:#04x} at {at} decoded"
            );
        }
    }

    /// The cache key splits the eleven fields: each of the six sweep
    /// fields (the seed among them) leaves it unchanged, each of the five
    /// compile fields moves it.
    #[test]
    fn options_fingerprint_separates_fields() {
        let base = RequestOptions::default();
        let key = |change: fn(&mut RequestOptions)| {
            let mut o = base.clone();
            change(&mut o);
            assert_ne!(o, base);
            o.compile_key()
        };
        let sweep: [fn(&mut RequestOptions); 6] = [
            |o| o.vectors += 1,
            |o| o.seed ^= 1,
            |o| o.jobs = 4,
            |o| o.window = Some(4),
            |o| o.lanes = Some(64),
            |o| o.verify = true,
        ];
        let compile: [fn(&mut RequestOptions); 5] = [
            |o| o.lut_size = 3,
            |o| o.threshold = 0.5,
            |o| o.ee = true,
            |o| o.optimize = true,
            |o| o.no_lint = true,
        ];
        for (i, change) in sweep.into_iter().enumerate() {
            assert_eq!(key(change), base.compile_key(), "sweep field {i}");
        }
        for (i, change) in compile.into_iter().enumerate() {
            assert_ne!(key(change), base.compile_key(), "compile field {i}");
        }
    }

    #[test]
    fn from_flow_options_round_trips_with_to_flow_options() {
        let every = RequestOptions {
            lut_size: 3,
            threshold: 0.5,
            optimize: true,
            no_lint: true,
            window: Some(4),
            ..sample_options()
        };
        for o in [RequestOptions::default(), every] {
            assert_eq!(RequestOptions::from(&o.to_flow_options()), o);
        }
        let flow = RequestOptions::from(&FlowOptions::default()).to_flow_options();
        assert!(flow.ee_enabled && flow.verify && flow.lint.enabled);
    }

    #[test]
    fn to_flow_options_mirrors_plc_wiring() {
        let o = sample_options().to_flow_options();
        assert_eq!(o.vectors, 60);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 2);
        assert!(o.ee_enabled);
        assert!(o.verify);
        assert!(o.lint.enabled);
        assert_eq!(o.lanes, Some(64));
        o.validate().unwrap();
    }
}
