//! The `pld` daemon: TCP accept loop, per-connection handlers, and the
//! request dispatch that ties the protocol to the compile pipeline and
//! the LRU cache.
//!
//! # Concurrency model
//!
//! One OS thread per connection (scoped, so `serve` owns every
//! handler), a mutex around the [`NetlistCache`] held only for
//! constant-time lookup/insert, and compiles/sweeps running outside
//! any lock. An entry is keyed on the compile options only. A request
//! with exactly the options the entry was compiled under is answered
//! from the entry's own sweep; any other request runs its **own**
//! sweep over the shared compiled artifact
//! ([`pl_flow::EcoSession::resweep`]), so concurrent sessions never
//! contend. `tests/serve_equivalence.rs` pins every answer to an
//! in-process run with the request's options.
//!
//! # Failure containment
//!
//! Malformed *frames* (bad magic, truncation, checksum, oversized
//! length) get a best-effort `ERR_FRAME` response and close only that
//! connection. Malformed *requests* on a well-formed frame get
//! `ERR_REQUEST` and keep the connection. Option combinations rejected
//! by `FlowOptions::validate` get `ERR_OPTIONS` with the exact CLI
//! message. Pipeline failures get `ERR_FLOW`. Nothing panics the
//! daemon; a stalled sender runs into the per-connection read timeout.

use crate::cache::{CacheKey, CompiledState, NetlistCache};
use crate::digest::outputs_digest;
use crate::error::ServeError;
use crate::proto::{
    DesignSpec, DigestTriple, EcoEditResult, Request, RequestOptions, Response, ServerStats,
    ERR_FLOW, ERR_FRAME, ERR_OPTIONS, ERR_REQUEST,
};
use crate::wire::{read_frame, write_frame};
use pl_flow::{CircuitSource, EcoEdit, FlowArtifacts, FlowError, Pipeline};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// LRU capacity of the compiled-netlist cache.
    pub cache_entries: usize,
    /// Per-connection read timeout — bounds how long a truncated frame
    /// can hold a handler thread. `None` disables the bound.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_entries: 8,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    eco_edits: AtomicU64,
    malformed: AtomicU64,
}

struct ServerState {
    cache: Mutex<NetlistCache>,
    counters: Counters,
    shutdown: AtomicBool,
    read_timeout: Option<Duration>,
}

/// A bound `pld` daemon. [`PldServer::serve`] blocks until a client
/// sends `Shutdown`.
pub struct PldServer {
    listener: TcpListener,
    state: ServerState,
}

impl PldServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the bind fails.
    pub fn bind(addr: &str, config: &ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io {
            context: "bind",
            message: format!("{addr}: {e}"),
        })?;
        Ok(PldServer {
            listener,
            state: ServerState {
                cache: Mutex::new(NetlistCache::new(config.cache_entries)),
                counters: Counters::default(),
                shutdown: AtomicBool::new(false),
                read_timeout: config.read_timeout,
            },
        })
    }

    /// The bound address (useful after an ephemeral-port bind).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the socket refuses to report it.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(|e| ServeError::Io {
            context: "local addr",
            message: e.to_string(),
        })
    }

    /// Accepts and serves connections until a `Shutdown` request
    /// arrives; every handler thread is joined before returning.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the accept loop itself fails (individual
    /// connection failures are contained per-handler).
    pub fn serve(&self) -> Result<(), ServeError> {
        let wake = self.local_addr()?;
        std::thread::scope(|scope| {
            loop {
                let (stream, _) = match self.listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) => {
                        if self.state.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        return Err(ServeError::Io {
                            context: "accept",
                            message: e.to_string(),
                        });
                    }
                };
                if self.state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let state = &self.state;
                scope.spawn(move || handle_connection(stream, state, wake));
            }
            Ok(())
        })
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState, wake: SocketAddr) {
    let _ = stream.set_read_timeout(state.read_timeout);
    let _ = stream.set_nodelay(true);
    loop {
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF: the client closed between frames.
            Ok(None) => break,
            // A socket-level failure (reset, timeout): the peer is gone
            // or stalled — nothing to answer, and not a malformed frame.
            Err(ServeError::Io { .. }) => break,
            Err(e) => {
                // A malformed byte stream: answer typed (best effort —
                // the peer may already be gone) and drop the
                // connection; resynchronizing a broken stream is not
                // worth guessing at.
                state.counters.malformed.fetch_add(1, Ordering::Relaxed);
                respond(&mut stream, &error_response(&e));
                break;
            }
        };
        let request = match Request::decode(kind, &payload) {
            Ok(r) => r,
            Err(e) => {
                // The framing was intact, so the connection survives a
                // semantically malformed request.
                state.counters.malformed.fetch_add(1, Ordering::Relaxed);
                respond(&mut stream, &error_response(&e));
                continue;
            }
        };
        let is_shutdown = matches!(request, Request::Shutdown);
        let response = match dispatch(request, state) {
            Ok(r) => r,
            Err(e) => error_response(&e),
        };
        if !respond(&mut stream, &response) {
            break;
        }
        if is_shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so `serve` observes the flag.
            let _ = TcpStream::connect(wake);
            break;
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> bool {
    let (kind, payload) = response.encode();
    write_frame(stream, kind, &payload).is_ok()
}

fn error_response(e: &ServeError) -> Response {
    let (code, message) = match e {
        ServeError::Frame { .. } => (ERR_FRAME, e.to_string()),
        ServeError::Request { .. } => (ERR_REQUEST, e.to_string()),
        ServeError::Flow(FlowError::Options { message }) => (ERR_OPTIONS, message.clone()),
        ServeError::Flow(flow) => (ERR_FLOW, flow.to_string()),
        // Io/Remote never originate from dispatch; map them
        // conservatively to the frame class.
        ServeError::Io { .. } | ServeError::Remote { .. } => (ERR_FRAME, e.to_string()),
    };
    Response::Error { code, message }
}

fn dispatch(request: Request, state: &ServerState) -> Result<Response, ServeError> {
    match request {
        Request::Compile { design, options } => compile(design, options, state),
        Request::Eco {
            design,
            options,
            edits,
        } => eco(design, options, &edits, state),
        Request::Stats => Ok(Response::StatsOk(stats(state))),
        Request::Shutdown => Ok(Response::ShutdownOk),
    }
}

fn stats(state: &ServerState) -> ServerStats {
    let cache = state.cache.lock().expect("cache mutex");
    ServerStats {
        entries: cache.len() as u64,
        capacity: cache.capacity() as u64,
        hits: state.counters.hits.load(Ordering::Relaxed),
        misses: state.counters.misses.load(Ordering::Relaxed),
        evictions: state.counters.evictions.load(Ordering::Relaxed),
        eco_edits: state.counters.eco_edits.load(Ordering::Relaxed),
        malformed: state.counters.malformed.load(Ordering::Relaxed),
    }
}

fn resolve(design: &DesignSpec) -> CircuitSource {
    match design {
        DesignSpec::Spec(s) => CircuitSource::from_spec(s),
        DesignSpec::BlifText { name, text } => CircuitSource::BlifText {
            name: name.clone(),
            text: text.clone(),
        },
    }
}

/// Validates, then serves from cache or compiles. Shared by the
/// compile and eco paths.
fn warm_entry(
    design: &DesignSpec,
    options: &RequestOptions,
    state: &ServerState,
) -> Result<(Arc<CompiledState>, bool), ServeError> {
    let flow_opts = options.to_flow_options();
    flow_opts.validate().map_err(ServeError::Flow)?;
    let key: CacheKey = (design.digest(), options.compile_key());
    if let Some(warm) = state.cache.lock().expect("cache mutex").lookup(key) {
        state.counters.hits.fetch_add(1, Ordering::Relaxed);
        return Ok((warm, true));
    }
    // Miss: compile outside the cache lock, so a slow compile never
    // blocks hits on other keys. Two racing misses on the same key both
    // compile; determinism makes the duplicate harmless and last-insert
    // wins.
    state.counters.misses.fetch_add(1, Ordering::Relaxed);
    let compiled = Arc::new(CompiledState {
        session: Pipeline::new(flow_opts).eco_session(&resolve(design))?,
        options: options.clone(),
    });
    let evicted = state
        .cache
        .lock()
        .expect("cache mutex")
        .insert(key, Arc::clone(&compiled));
    state
        .counters
        .evictions
        .fetch_add(evicted, Ordering::Relaxed);
    Ok((compiled, false))
}

/// The digest triple of compiled artifacts whose sweep produced
/// `outputs`.
fn digest_triple(art: &FlowArtifacts, outputs: &[Vec<bool>]) -> DigestTriple {
    DigestTriple {
        mapped_fp: art.mapped.fingerprint(),
        phased_fp: art.plain.fingerprint(),
        outputs_digest: outputs_digest(outputs),
    }
}

fn compile(
    design: DesignSpec,
    options: RequestOptions,
    state: &ServerState,
) -> Result<Response, ServeError> {
    let (warm, cache_hit) = warm_entry(&design, &options, state)?;
    let art = warm.session.artifacts();
    // The entry's retained sweep ran under the options that compiled it;
    // any other request sweeps the shared compile under its own.
    let digest = if warm.options == options {
        digest_triple(art, &art.outputs)
    } else {
        let (sim, _) = warm.session.resweep(&options.to_flow_options())?;
        digest_triple(art, &sim.outputs)
    };
    Ok(Response::CompileOk {
        name: art.name.clone(),
        cache_hit,
        luts: art.report.techmap.luts_after as u64,
        gates: art.report.phased.logic_gates as u64,
        pairs: art.pairs.len() as u64,
        digest,
    })
}

fn eco(
    design: DesignSpec,
    options: RequestOptions,
    edits: &[String],
    state: &ServerState,
) -> Result<Response, ServeError> {
    // Parse every edit before touching any state, like `plc eco`.
    let mut parsed = Vec::with_capacity(edits.len());
    for spec in edits {
        let edit = EcoEdit::parse(spec).map_err(|e| ServeError::Request {
            message: format!("edit '{spec}': {e}"),
        })?;
        parsed.push((spec.clone(), edit));
    }
    let (warm, cache_hit) = warm_entry(&design, &options, state)?;
    // ECO against the warm entry: clone the pristine warm session (all
    // the compile reuse state — memoized cuts, trigger cache — comes
    // along), re-target the clone to this request's sweep options, and
    // mutate it, one incremental recompile per edit, exactly `plc eco`'s
    // loop. The entry itself stays pristine so a later plain compile on
    // this key still answers for the un-edited design.
    let mut session = warm.session.clone();
    if warm.options != options {
        session.retarget(&options.to_flow_options())?;
    }
    let initial = digest_triple(session.artifacts(), &session.artifacts().outputs);
    let mut results = Vec::with_capacity(parsed.len());
    for (spec, edit) in parsed {
        let out = session.apply_eco(std::slice::from_ref(&edit))?;
        state.counters.eco_edits.fetch_add(1, Ordering::Relaxed);
        results.push(EcoEditResult {
            spec,
            dirty_nodes: out.eco.dirty_nodes as u64,
            digest: DigestTriple {
                mapped_fp: out.eco.mapped_fingerprint,
                phased_fp: out.eco.phased_fingerprint,
                outputs_digest: outputs_digest(&session.artifacts().outputs),
            },
        });
    }
    Ok(Response::EcoOk {
        name: session.name().to_string(),
        cache_hit,
        initial,
        edits: results,
    })
}
