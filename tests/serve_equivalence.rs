//! The `pld` daemon's determinism contract: every response is
//! bit-identical to an in-process run with the same options — under
//! concurrent sessions, deterministic LRU eviction and churn,
//! re-compiles after eviction, and ECO edits applied to warm cache
//! entries. Plus the failure-containment contract: every
//! malformed-frame class is rejected typed and the server survives.

use pl_flow::{CircuitSource, EcoEdit, Pipeline};
use pl_serve::wire::{crc32, write_frame, MAGIC};
use pl_serve::{
    outputs_digest, Client, DesignSpec, DigestTriple, PldServer, Request, RequestOptions, Response,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_server(cache_entries: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Arc::new(
        PldServer::bind(
            "127.0.0.1:0",
            &ServerConfig {
                cache_entries,
                read_timeout: Some(Duration::from_secs(10)),
            },
        )
        .expect("bind ephemeral"),
    );
    let addr = server.local_addr().expect("bound addr");
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr) {
    let mut client = Client::connect(&addr.to_string()).expect("connect for shutdown");
    assert!(matches!(
        client.expect_ok(&Request::Shutdown).expect("shutdown"),
        Response::ShutdownOk
    ));
}

fn source_of(design: &DesignSpec) -> CircuitSource {
    match design {
        DesignSpec::Spec(s) => CircuitSource::from_spec(s),
        DesignSpec::BlifText { name, text } => CircuitSource::BlifText {
            name: name.clone(),
            text: text.clone(),
        },
    }
}

/// The in-process reference: a full `Pipeline::run` under the exact
/// options the daemon expands the request to.
fn in_process_digest(design: &DesignSpec, options: &RequestOptions) -> DigestTriple {
    let art = Pipeline::new(options.to_flow_options())
        .run(&source_of(design))
        .expect("in-process run");
    DigestTriple {
        mapped_fp: art.mapped.fingerprint(),
        phased_fp: art.plain.fingerprint(),
        outputs_digest: outputs_digest(&art.outputs),
    }
}

fn compile_digest(
    addr: SocketAddr,
    design: &DesignSpec,
    options: &RequestOptions,
) -> (DigestTriple, bool) {
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    match client
        .expect_ok(&Request::Compile {
            design: design.clone(),
            options: options.clone(),
        })
        .expect("compile request")
    {
        Response::CompileOk {
            digest, cache_hit, ..
        } => (digest, cache_hit),
        other => panic!("expected CompileOk, got {other:?}"),
    }
}

fn stats(addr: SocketAddr) -> pl_serve::ServerStats {
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    match client.expect_ok(&Request::Stats).expect("stats request") {
        Response::StatsOk(s) => s,
        other => panic!("expected StatsOk, got {other:?}"),
    }
}

/// ≥4 concurrent client sessions over a small cache (so eviction and
/// churn happen mid-flight) against an ITC'99 sample, plain and EE,
/// scalar and `--lanes 64`: every response must carry exactly the
/// digests of a sequential in-process run with the same options.
#[test]
fn concurrent_sessions_match_in_process_runs() {
    let designs = ["b01", "b03", "b06"];
    let variants: Vec<RequestOptions> = vec![
        RequestOptions {
            vectors: 30,
            verify: true,
            ..RequestOptions::default()
        },
        RequestOptions {
            vectors: 30,
            ee: true,
            verify: true,
            ..RequestOptions::default()
        },
        RequestOptions {
            vectors: 64,
            ee: true,
            lanes: Some(64),
            ..RequestOptions::default()
        },
    ];
    let mut cases = Vec::new();
    for d in designs {
        for v in &variants {
            let design = DesignSpec::Spec(d.to_string());
            let expected = in_process_digest(&design, v);
            cases.push((design, v.clone(), expected));
        }
    }
    // Capacity below the working set: the 6 compile keys churn through 4
    // slots while 6 sessions hammer them in different orders.
    let (addr, handle) = start_server(4);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let cases = &cases;
            scope.spawn(move || {
                let mut client = Client::connect(&addr.to_string()).expect("connect");
                for i in 0..cases.len() {
                    // Each session walks the cases at a different phase
                    // so hits, misses and evictions interleave.
                    let (design, options, expected) = &cases[(i + t * 2) % cases.len()];
                    let got = match client
                        .expect_ok(&Request::Compile {
                            design: design.clone(),
                            options: options.clone(),
                        })
                        .expect("compile")
                    {
                        Response::CompileOk { digest, .. } => digest,
                        other => panic!("expected CompileOk, got {other:?}"),
                    };
                    assert_eq!(&got, expected, "session {t}, case {i}");
                }
            });
        }
    });
    let s = stats(addr);
    // Six compile keys: the EE scalar and EE 64-lane variants differ
    // only in sweep options, so they share a compile.
    assert!(s.misses >= 6, "every key compiled at least once: {s:?}");
    assert!(s.evictions > 0, "capacity 4 under 6 keys must churn: {s:?}");
    assert_eq!(s.malformed, 0);
    shutdown(addr);
    handle.join().expect("server thread");
}

/// Sequential trace against a capacity-2 cache: eviction order is
/// strict LRU (deterministic), and a re-compiled-after-eviction entry
/// yields digests identical to the first compile.
#[test]
fn lru_eviction_is_deterministic_and_recompiles_identically() {
    let (addr, handle) = start_server(2);
    let opts = RequestOptions {
        vectors: 20,
        ee: true,
        ..RequestOptions::default()
    };
    let d = |name: &str| DesignSpec::Spec(name.to_string());

    let (b01_first, hit) = compile_digest(addr, &d("b01"), &opts);
    assert!(!hit);
    let (_, hit) = compile_digest(addr, &d("b02"), &opts);
    assert!(!hit);
    // Touch b01 so b02 is the LRU victim when b03 lands.
    let (b01_again, hit) = compile_digest(addr, &d("b01"), &opts);
    assert!(hit, "b01 is warm");
    assert_eq!(b01_again, b01_first, "warm entry reproduces its digests");
    let (_, hit) = compile_digest(addr, &d("b03"), &opts);
    assert!(!hit);
    let s = stats(addr);
    assert_eq!((s.entries, s.capacity), (2, 2));
    assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1), "{s:?}");

    // b02 was evicted (b01 was not, proving LRU picked the right
    // victim); recompiling it is a miss with identical digests.
    let (b01_warm, hit) = compile_digest(addr, &d("b01"), &opts);
    assert!(hit, "b01 survived the eviction");
    assert_eq!(b01_warm, b01_first);
    let b02_expected = in_process_digest(&d("b02"), &opts);
    let (b02_recompiled, hit) = compile_digest(addr, &d("b02"), &opts);
    assert!(!hit, "b02 was the deterministic LRU victim");
    assert_eq!(
        b02_recompiled, b02_expected,
        "re-compiled-after-eviction entry is bit-identical"
    );
    shutdown(addr);
    handle.join().expect("server thread");
}

/// The in-process reference for an Eco request: one session under the
/// request's options, one single-edit batch per spec, exactly like
/// `plc eco`. Returns the initial and per-edit digests.
fn in_process_eco(
    design: &DesignSpec,
    options: &RequestOptions,
    edit_specs: &[&str],
) -> (DigestTriple, Vec<DigestTriple>) {
    let mut session = Pipeline::new(options.to_flow_options())
        .eco_session(&source_of(design))
        .expect("in-process session");
    let initial = DigestTriple {
        mapped_fp: session.artifacts().mapped.fingerprint(),
        phased_fp: session.artifacts().plain.fingerprint(),
        outputs_digest: outputs_digest(&session.artifacts().outputs),
    };
    let mut per_edit = Vec::new();
    for spec in edit_specs {
        let edit = EcoEdit::parse(spec).expect("valid edit");
        let out = session
            .apply_eco(std::slice::from_ref(&edit))
            .expect("apply");
        per_edit.push(DigestTriple {
            mapped_fp: out.eco.mapped_fingerprint,
            phased_fp: out.eco.phased_fingerprint,
            outputs_digest: outputs_digest(&session.artifacts().outputs),
        });
    }
    (initial, per_edit)
}

/// Sends one Eco request; returns its cache flag, initial digests and
/// per-edit digests.
fn eco_digests(
    addr: SocketAddr,
    design: &DesignSpec,
    options: &RequestOptions,
    edit_specs: &[&str],
) -> (bool, DigestTriple, Vec<DigestTriple>) {
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    match client
        .expect_ok(&Request::Eco {
            design: design.clone(),
            options: options.clone(),
            edits: edit_specs.iter().map(|s| s.to_string()).collect(),
        })
        .expect("eco request")
    {
        Response::EcoOk {
            cache_hit,
            initial,
            edits,
            ..
        } => (cache_hit, initial, edits.iter().map(|e| e.digest).collect()),
        other => panic!("expected EcoOk, got {other:?}"),
    }
}

fn b06_blif() -> DesignSpec {
    DesignSpec::BlifText {
        name: "b06".to_string(),
        text: std::fs::read_to_string("assets/blif/b06.blif").expect("vendored BLIF"),
    }
}

/// ECO edits against a warm cache entry: the daemon's per-edit digest
/// trail must match an in-process `EcoSession` applying the same edits
/// one batch at a time — and the warm entry must still answer a plain
/// compile with the un-edited design afterwards.
#[test]
fn eco_on_warm_entry_matches_in_process_session() {
    let design = b06_blif();
    let options = RequestOptions {
        vectors: 40,
        ee: true,
        ..RequestOptions::default()
    };
    let edit_specs = ["table:n8:0x6", "rewire:n12:0:n5"];
    let (initial_expected, expected) = in_process_eco(&design, &options, &edit_specs);

    let (addr, handle) = start_server(4);
    // Warm the entry, then edit it.
    let (compile_d, hit) = compile_digest(addr, &design, &options);
    assert!(!hit);
    assert_eq!(compile_d, initial_expected);
    let (cache_hit, initial, got) = eco_digests(addr, &design, &options, &edit_specs);
    assert!(cache_hit, "edits ran against the warm entry");
    assert_eq!(initial, initial_expected);
    assert_eq!(got, expected, "per-edit digest trail diverged");
    // The warm entry still serves the un-edited design.
    let (after, hit) = compile_digest(addr, &design, &options);
    assert!(hit);
    assert_eq!(after, initial_expected, "entry stayed pristine");
    let s = stats(addr);
    assert_eq!(s.eco_edits, edit_specs.len() as u64);
    shutdown(addr);
    handle.join().expect("server thread");
}

/// A Compile that differs from the warm entry only in its sweep options
/// (vectors, seed, jobs, window, lanes, verify) is a hit on that
/// entry, answered with the digests of an in-process run under its own
/// options. The request that compiled the entry still gets its own sweep.
#[test]
fn sweep_option_variants_hit_the_warm_compile() {
    let (addr, handle) = start_server(2);
    let design = DesignSpec::Spec("b06".into());
    let base = RequestOptions {
        vectors: 20,
        ee: true,
        ..RequestOptions::default()
    };
    let (first, hit) = compile_digest(addr, &design, &base);
    assert!(!hit);
    assert_eq!(first, in_process_digest(&design, &base));
    let variants = [
        RequestOptions {
            vectors: 33,
            ..base.clone()
        },
        RequestOptions {
            seed: 9,
            ..base.clone()
        },
        RequestOptions {
            jobs: 2,
            ..base.clone()
        },
        RequestOptions {
            window: Some(4),
            ..base.clone()
        },
        RequestOptions {
            lanes: Some(64),
            vectors: 70,
            ..base.clone()
        },
        RequestOptions {
            verify: true,
            ..base.clone()
        },
    ];
    for v in &variants {
        let (got, hit) = compile_digest(addr, &design, v);
        assert!(hit, "{v:?}");
        assert_eq!(got, in_process_digest(&design, v), "{v:?}");
    }
    let (again, hit) = compile_digest(addr, &design, &base);
    assert!(hit);
    assert_eq!(again, first);
    let s = stats(addr);
    assert_eq!((s.entries, s.hits, s.misses), (1, 7, 1), "{s:?}");
    shutdown(addr);
    handle.join().expect("server thread");
}

/// An Eco request whose vectors differ from those the entry was compiled
/// under is a hit: the daemon re-targets its copy of the session to the
/// request's options, so the initial and per-edit digests equal an
/// in-process session compiled under them, and the entry keeps its own.
#[test]
fn eco_with_other_vectors_hits_and_matches_in_process_session() {
    let design = b06_blif();
    let compiled_under = RequestOptions {
        vectors: 40,
        ee: true,
        ..RequestOptions::default()
    };
    let options = RequestOptions {
        vectors: 25,
        verify: true,
        ..compiled_under.clone()
    };
    let edit_specs = ["table:n8:0x6", "rewire:n12:0:n5"];
    let (initial_expected, expected) = in_process_eco(&design, &options, &edit_specs);

    let (addr, handle) = start_server(4);
    let (entry, hit) = compile_digest(addr, &design, &compiled_under);
    assert!(!hit);
    let (cache_hit, initial, got) = eco_digests(addr, &design, &options, &edit_specs);
    assert!(cache_hit, "the edits share the warm compile");
    assert_eq!(initial, initial_expected);
    assert_ne!(initial.outputs_digest, entry.outputs_digest);
    assert_eq!(got, expected, "per-edit digest trail diverged");
    let (after, hit) = compile_digest(addr, &design, &compiled_under);
    assert!(hit);
    assert_eq!(after, entry, "entry stayed pristine");
    shutdown(addr);
    handle.join().expect("server thread");
}

fn read_error_frame(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.read_to_end(&mut raw).expect("read response");
    // magic(4) kind(1) len(4) payload crc(4)
    assert!(raw.len() >= 13, "got {} byte(s)", raw.len());
    assert_eq!(&raw[..4], &MAGIC, "response is framed");
    assert_eq!(raw[4], 0xE0, "error kind");
    let len = u32::from_le_bytes(raw[5..9].try_into().unwrap()) as usize;
    let payload = &raw[9..9 + len];
    let code = u16::from_le_bytes(payload[..2].try_into().unwrap());
    let msg_len = u64::from_le_bytes(payload[2..10].try_into().unwrap()) as usize;
    let message = String::from_utf8(payload[10..10 + msg_len].to_vec()).expect("utf8");
    (code, message)
}

/// Every malformed-frame class gets a typed error response — never a
/// panic, never a hang — and the server keeps serving afterwards.
#[test]
fn malformed_frames_are_rejected_typed_and_server_survives() {
    let (addr, handle) = start_server(2);
    let healthy = |label: &str| {
        let s = stats(addr);
        assert!(s.capacity == 2, "{label}: server unhealthy: {s:?}");
    };

    // Garbage magic (exactly 4 bytes, then half-close: unread bytes at
    // server-side close would RST the in-flight error response away).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"HTTP").expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (code, message) = read_error_frame(&mut stream);
    assert_eq!(code, pl_serve::proto::ERR_FRAME, "{message}");
    assert!(message.contains("magic"), "{message}");
    healthy("after bad magic");

    // Truncated frame: a valid prefix, then a half-closed socket.
    let mut full = Vec::new();
    let (kind, payload) = Request::Stats.encode();
    write_frame(&mut full, kind, &payload).expect("encode");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&full[..full.len() - 2]).expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (code, message) = read_error_frame(&mut stream);
    assert_eq!(code, pl_serve::proto::ERR_FRAME, "{message}");
    assert!(message.contains("truncated"), "{message}");
    healthy("after truncation");

    // Oversized length field: rejected before any allocation.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(0x01);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&frame).expect("write");
    let (code, message) = read_error_frame(&mut stream);
    assert_eq!(code, pl_serve::proto::ERR_FRAME, "{message}");
    assert!(
        message.contains("oversized") || message.contains("cap"),
        "{message}"
    );
    healthy("after oversized length");

    // Corrupt payload checksum.
    let mut bad_crc = full.clone();
    let n = bad_crc.len();
    bad_crc[n - 1] ^= 0x01;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&bad_crc).expect("write");
    let (code, message) = read_error_frame(&mut stream);
    assert_eq!(code, pl_serve::proto::ERR_FRAME, "{message}");
    assert!(message.contains("checksum"), "{message}");
    healthy("after bad checksum");

    // Unknown request kind on a well-formed frame: typed error AND the
    // connection survives for the next request.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let garbage_payload = b"zzzz";
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(0x7F);
    frame.extend_from_slice(&(garbage_payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(garbage_payload);
    frame.extend_from_slice(&crc32(garbage_payload).to_le_bytes());
    stream.write_all(&frame).expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Read exactly one response frame by hand, then reuse the socket.
    let mut head = [0u8; 9];
    stream.read_exact(&mut head).expect("error frame head");
    assert_eq!(&head[..4], &MAGIC);
    assert_eq!(head[4], 0xE0);
    let len = u32::from_le_bytes(head[5..9].try_into().unwrap()) as usize;
    let mut rest = vec![0u8; len + 4];
    stream.read_exact(&mut rest).expect("error frame body");
    let code = u16::from_le_bytes(rest[..2].try_into().unwrap());
    assert_eq!(code, pl_serve::proto::ERR_REQUEST);
    let (kind, payload) = Request::Stats.encode();
    write_frame(&mut stream, kind, &payload).expect("same-connection request");
    let mut head = [0u8; 9];
    stream.read_exact(&mut head).expect("stats head");
    assert_eq!(head[4], 0x83, "connection survived a request-level error");
    // Drain the rest of the response so dropping the socket is a clean
    // close, not a reset.
    let len = u32::from_le_bytes(head[5..9].try_into().unwrap()) as usize;
    let mut rest = vec![0u8; len + 4];
    stream.read_exact(&mut rest).expect("stats body");
    drop(stream);

    // The server still compiles after all of the above, and counted
    // every rejection.
    let opts = RequestOptions {
        vectors: 10,
        ..RequestOptions::default()
    };
    let expected = in_process_digest(&DesignSpec::Spec("b01".into()), &opts);
    let (got, _) = compile_digest(addr, &DesignSpec::Spec("b01".into()), &opts);
    assert_eq!(got, expected);
    let s = stats(addr);
    assert_eq!(s.malformed, 5, "{s:?}");
    shutdown(addr);
    handle.join().expect("server thread");
}

/// The daemon request path rejects exactly the option combinations the
/// CLI rejects, with the same `FlowOptions::validate` messages.
#[test]
fn daemon_rejects_every_cli_rejected_combination() {
    let (addr, handle) = start_server(2);
    let cases: Vec<(RequestOptions, &str)> = vec![
        (
            RequestOptions {
                lanes: Some(7),
                ..RequestOptions::default()
            },
            "--lanes 7 is not a supported width",
        ),
        (
            RequestOptions {
                lanes: Some(1),
                ..RequestOptions::default()
            },
            "--lanes 1 is not a supported width (64 = batch engine)",
        ),
        (
            RequestOptions {
                window: Some(0),
                ..RequestOptions::default()
            },
            "--window must be at least 1",
        ),
        (
            RequestOptions {
                lanes: Some(64),
                window: Some(4),
                ..RequestOptions::default()
            },
            "--lanes is mutually exclusive with --window",
        ),
        (
            RequestOptions {
                lut_size: 9,
                ..RequestOptions::default()
            },
            "--lut-size 9 is outside the supported range",
        ),
        (
            RequestOptions {
                lut_size: 5,
                ..RequestOptions::default()
            },
            "--lut-size 5 is outside the supported range 2..=4",
        ),
    ];
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    for (options, expect) in cases {
        let response = client
            .request(&Request::Compile {
                design: DesignSpec::Spec("b01".into()),
                options,
            })
            .expect("transport ok");
        match response {
            Response::Error { code, message } => {
                assert_eq!(code, pl_serve::proto::ERR_OPTIONS, "{message}");
                assert!(
                    message.contains(expect),
                    "expected {expect:?} in {message:?}"
                );
            }
            other => panic!("expected Error for {expect:?}, got {other:?}"),
        }
    }
    // The connection survives option rejections.
    let opts = RequestOptions {
        vectors: 10,
        ..RequestOptions::default()
    };
    match client
        .expect_ok(&Request::Compile {
            design: DesignSpec::Spec("b01".into()),
            options: opts,
        })
        .expect("compile after rejections")
    {
        Response::CompileOk { .. } => {}
        other => panic!("expected CompileOk, got {other:?}"),
    }
    shutdown(addr);
    handle.join().expect("server thread");
}

/// Regression: a Compile asking for more vectors than a run may simulate
/// used to abort the daemon while allocating the vector stream. It must
/// get a typed `ERR_OPTIONS` answer, and the same daemon must then answer
/// the next request.
#[test]
fn huge_vector_count_is_rejected_and_daemon_survives() {
    let (addr, handle) = start_server(2);
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let huge = RequestOptions {
        vectors: 100_000_000_000,
        ..RequestOptions::default()
    };
    match client
        .request(&Request::Compile {
            design: DesignSpec::Spec("b01".into()),
            options: huge,
        })
        .expect("transport ok")
    {
        Response::Error { code, message } => {
            assert_eq!(code, pl_serve::proto::ERR_OPTIONS, "{message}");
            assert!(
                message.contains("--vectors 100000000000 is above the maximum"),
                "{message}"
            );
        }
        other => panic!("expected an options error, got {other:?}"),
    }
    let (digest, _) = compile_digest(
        addr,
        &DesignSpec::Spec("b01".into()),
        &RequestOptions {
            vectors: 10,
            ..RequestOptions::default()
        },
    );
    assert_eq!(
        digest,
        in_process_digest(
            &DesignSpec::Spec("b01".into()),
            &RequestOptions {
                vectors: 10,
                ..RequestOptions::default()
            }
        )
    );
    shutdown(addr);
    handle.join().expect("server thread");
}

/// Regression: a wide design at a vector count `validate()` accepts used
/// to make the daemon allocate the whole vectors × inputs stream (about
/// 5 GB for 5,000 inputs at `MAX_VECTORS`, in one accepted frame). Past
/// the input-bit cap it must get a typed `ERR_OPTIONS` answer, and the
/// same daemon must then answer the next request.
#[test]
fn input_bit_cap_is_rejected_and_daemon_survives() {
    let (addr, handle) = start_server(2);
    let inputs: Vec<String> = (0..1024).map(|i| format!("i{i}")).collect();
    let design = DesignSpec::BlifText {
        name: "wide".into(),
        text: format!(
            ".model wide\n.inputs {}\n.outputs y\n.names i0 i1 y\n10 1\n01 1\n.end\n",
            inputs.join(" ")
        ),
    };
    let vectors = pl_flow::FlowOptions::MAX_INPUT_BITS / 1024 + 1;
    let wide = RequestOptions {
        vectors,
        window: Some(vectors),
        no_lint: true,
        ..RequestOptions::default()
    };
    let mut client = Client::connect(&addr.to_string()).expect("connect");
    match client
        .request(&Request::Compile {
            design,
            options: wide,
        })
        .expect("transport ok")
    {
        Response::Error { code, message } => {
            assert_eq!(code, pl_serve::proto::ERR_OPTIONS, "{message}");
            assert!(
                message.contains("--vectors 65537 with 1024 primary inputs is above the maximum"),
                "{message}"
            );
        }
        other => panic!("expected an options error, got {other:?}"),
    }
    let opts = RequestOptions {
        vectors: 10,
        ..RequestOptions::default()
    };
    let b01 = DesignSpec::Spec("b01".into());
    assert_eq!(
        compile_digest(addr, &b01, &opts).0,
        in_process_digest(&b01, &opts)
    );
    shutdown(addr);
    handle.join().expect("server thread");
}
