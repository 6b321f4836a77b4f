//! Protocol robustness of the compile-service daemon.
//!
//! Everything here attacks the transport: truncated frames, corrupted
//! checksums, hostile length prefixes, clients that vanish mid-stream,
//! and herds of identical concurrent requests. The daemon must answer
//! each with a typed, retry-classified error (or collapse the herd
//! onto one compile) and keep serving — never panic, never wedge.
//!
//! TCP on 127.0.0.1 is used throughout so the same tests run on any
//! host; the daemon treats both transports identically behind the
//! `Conn` abstraction.

use bisram_serve::{Client, ClientError, Daemon, DaemonConfig, Listen, RespFrame, Service};
use bisram_wire::{read_frame, write_frame, FRAME_MAGIC};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

fn start_daemon() -> (Daemon, Listen) {
    let daemon = Daemon::start_with_service(
        &DaemonConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_owned()),
            jobs: Some(1),
        },
        Arc::new(Service::cold()),
    )
    .expect("bind ephemeral port");
    let listen = daemon.listen().clone();
    (daemon, listen)
}

fn addr_of(listen: &Listen) -> String {
    match listen {
        Listen::Tcp(addr) => addr.clone(),
        #[cfg(unix)]
        Listen::Unix(_) => unreachable!("tests use TCP"),
    }
}

fn read_error(stream: &mut TcpStream) -> (u32, bool) {
    let payload = read_frame(stream, 1 << 20)
        .expect("response frame reads")
        .expect("server answered before closing");
    match RespFrame::decode(&payload).expect("decodes") {
        RespFrame::Error {
            code, retryable, ..
        } => (code, retryable),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

fn shutdown(daemon: Daemon, listen: &Listen) {
    let mut client = Client::connect(listen).expect("connect for shutdown");
    client.shutdown().expect("shutdown accepted");
    daemon.join();
}

#[test]
fn truncated_frame_gets_retryable_error_and_daemon_survives() {
    let (daemon, listen) = start_daemon();
    let mut stream = TcpStream::connect(addr_of(&listen)).expect("connect");
    // A full header promising 100 payload bytes, then only 3 and EOF.
    stream
        .write_all(&FRAME_MAGIC.to_le_bytes())
        .expect("write magic");
    stream.write_all(&100u32.to_le_bytes()).expect("write len");
    stream.write_all(b"abc").expect("write partial payload");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (code, retryable) = read_error(&mut stream);
    assert_eq!(code, 499);
    assert!(retryable, "a truncated frame is safe to resend");

    // The daemon still serves fresh connections.
    let mut client = Client::connect(&listen).expect("reconnect");
    client.ping().expect("daemon alive after truncated frame");
    shutdown(daemon, &listen);
}

#[test]
fn corrupted_checksum_gets_retryable_error() {
    let (daemon, listen) = start_daemon();
    let payload = b"job = ping\n";
    let mut bytes = Vec::new();
    write_frame(&mut bytes, payload).expect("encode");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // flip checksum bits

    let mut stream = TcpStream::connect(addr_of(&listen)).expect("connect");
    stream.write_all(&bytes).expect("send corrupted frame");
    let (code, retryable) = read_error(&mut stream);
    assert_eq!(code, 498);
    assert!(retryable, "corruption is a transport fault, resend is fine");

    let mut client = Client::connect(&listen).expect("reconnect");
    client.ping().expect("daemon alive after corrupted frame");
    shutdown(daemon, &listen);
}

#[test]
fn bad_magic_gets_retryable_error() {
    let (daemon, listen) = start_daemon();
    let mut stream = TcpStream::connect(addr_of(&listen)).expect("connect");
    stream
        .write_all(&0xDEAD_BEEFu32.to_le_bytes())
        .expect("write wrong magic");
    stream.write_all(&4u32.to_le_bytes()).expect("write len");
    stream.write_all(&[0u8; 12]).expect("write rest");
    let (code, retryable) = read_error(&mut stream);
    assert_eq!(code, 498);
    assert!(retryable);
    shutdown(daemon, &listen);
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let (daemon, listen) = start_daemon();
    let mut stream = TcpStream::connect(addr_of(&listen)).expect("connect");
    // Claim a 3.9 GiB payload; the daemon must refuse from the prefix
    // alone instead of trying to allocate or read it.
    stream
        .write_all(&FRAME_MAGIC.to_le_bytes())
        .expect("write magic");
    stream
        .write_all(&0xF000_0000u32.to_le_bytes())
        .expect("write hostile len");
    let (code, retryable) = read_error(&mut stream);
    assert_eq!(code, 413);
    assert!(!retryable, "an oversized request will never fit");

    let mut client = Client::connect(&listen).expect("reconnect");
    client.ping().expect("daemon alive after oversized frame");
    shutdown(daemon, &listen);
}

#[test]
fn midstream_client_disconnect_leaves_daemon_serving() {
    let (daemon, listen) = start_daemon();
    {
        // Send a valid compile request, then vanish without reading
        // the response.
        let mut stream = TcpStream::connect(addr_of(&listen)).expect("connect");
        let spec = "job = characterize\nwords = 128\nbpw = 8\nbpc = 4\nspares = 2\n";
        write_frame(&mut stream, spec.as_bytes()).expect("send request");
        drop(stream);
    }
    {
        // And one that disconnects mid-frame.
        let mut stream = TcpStream::connect(addr_of(&listen)).expect("connect");
        stream
            .write_all(&FRAME_MAGIC.to_le_bytes())
            .expect("write magic only");
        drop(stream);
    }
    let mut client = Client::connect(&listen).expect("reconnect");
    client.ping().expect("daemon alive after disconnects");
    let status = client.status().expect("status");
    assert!(status.contains("serve requests: "), "{status}");
    shutdown(daemon, &listen);
}

#[test]
fn malformed_spec_gets_a_400_without_closing_the_connection() {
    let (daemon, listen) = start_daemon();
    let mut client = Client::connect(&listen).expect("connect");
    let err = client
        .request_text("job = dance\n")
        .expect_err("unknown job rejected");
    match err {
        ClientError::Server(f) => {
            assert_eq!(f.code, 400);
            assert!(!f.retryable);
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // Same connection keeps working: frame-level state is intact.
    client.ping().expect("connection survives a spec error");
    shutdown(daemon, &listen);
}

#[test]
fn concurrent_identical_requests_compile_exactly_once() {
    let service = Arc::new(Service::cold());
    let daemon = Daemon::start_with_service(
        &DaemonConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_owned()),
            jobs: Some(1),
        },
        Arc::clone(&service),
    )
    .expect("bind");
    let listen = daemon.listen().clone();

    let n = 8;
    let spec = "job = characterize\nwords = 1024\nbpw = 32\nbpc = 4\nspares = 4\n";
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let listen = listen.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(&listen).expect("connect");
                barrier.wait();
                let (result, _dedup) = client.request_text(spec).expect("request ok");
                result
                    .section("metrics.txt")
                    .expect("metrics section")
                    .to_owned()
            })
        })
        .collect();
    let metrics: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for m in &metrics {
        assert_eq!(m, &metrics[0], "all clients see identical bytes");
    }
    let (requests, executed, dedup_hits) = service.counters();
    assert!(requests >= n as u64);
    assert_eq!(
        executed, 1,
        "one compile for {n} identical concurrent requests"
    );
    assert_eq!(dedup_hits, n as u64 - 1, "everyone else piggybacked");

    shutdown(daemon, &listen);
}

#[test]
fn cross_crate_roundtrip_diag_signature_through_serve_framing() {
    use bisram_bist::engine::{run_march_diagnose, MarchConfig};
    use bisram_bist::march;
    use bisram_diag::{decode_signature, encode_signature};
    use bisram_mem::{ArrayOrg, Fault, FaultKind, SramModel};

    // A real march signature from an injected-fault run...
    let org = ArrayOrg::new(256, 8, 4, 4).expect("valid org");
    let mut m = SramModel::new(org);
    m.inject(Fault::new(
        m.org().cell_at(5, 2, 3),
        FaultKind::StuckAt(true),
    ));
    m.inject(Fault::new(
        m.org().cell_at(40, 0, 7),
        FaultKind::TransitionDown,
    ));
    let sig = run_march_diagnose(&march::ifa13(), &mut m, &MarchConfig::default(), None);
    assert!(sig.detected());

    // ...encoded with the diag word framing, carried as bytes inside
    // the serve byte framing (both sit on the shared bisram-wire
    // primitives), and recovered bit-exactly on the far side.
    let words = encode_signature(&sig);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut link = Vec::new();
    write_frame(&mut link, &bytes).expect("frame the signature");
    let back_bytes = read_frame(&mut link.as_slice(), 1 << 24)
        .expect("frame valid")
        .expect("not eof");
    assert_eq!(back_bytes, bytes);
    let back_words: Vec<u64> = back_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    assert_eq!(back_words, words);
    let back = decode_signature(&back_words, &org, &sig.test).expect("signature decodes");
    assert_eq!(back, sig);
}
