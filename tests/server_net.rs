//! End-to-end tests for the networked dataspace server: real sockets,
//! real event loop, park/wake across connections, and disconnect
//! hygiene (ISSUE acceptance: a client dropping mid-park must leave no
//! blocked-queue residue).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sdl::metrics::{Counter, Gauge, LoopCounter, Metrics, MetricsRegistry};
use sdl::server::wire::{decode_response, encode_request, frame, DEFAULT_MAX_FRAME, MAGIC};
use sdl::server::{serve, Client, Request, Response, Server, ServerConfig};
use sdl_tuple::{pattern, tuple, Tuple, Value};

fn start() -> (Server, std::sync::Arc<MetricsRegistry>) {
    let (metrics, registry) = Metrics::registry();
    let server = serve(ServerConfig::default(), metrics).expect("bind ephemeral server");
    (server, registry)
}

/// A 2-loop server. Each connection is placed on the loop with fewer
/// open connections when it is accepted, so two clients that connect one
/// after the other land on different event loops deterministically.
fn start_two_loops() -> (Server, std::sync::Arc<MetricsRegistry>) {
    let (metrics, registry) = Metrics::registry();
    let cfg = ServerConfig {
        loops: 2,
        ..ServerConfig::default()
    };
    let server = serve(cfg, metrics).expect("bind ephemeral server");
    (server, registry)
}

/// Polls `cond` until it holds or `deadline` elapses.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

#[test]
fn basic_ops_roundtrip() {
    let (server, _registry) = start();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();

    c.ping().expect("ping");
    c.out(tuple![Value::atom("job"), 1i64]).expect("out");
    assert_eq!(
        c.try_read(pattern![Value::atom("job"), any]).expect("rdp"),
        Some(tuple![Value::atom("job"), 1i64])
    );
    assert_eq!(
        c.try_take(pattern![Value::atom("job"), 1i64]).expect("inp"),
        Some(tuple![Value::atom("job"), 1i64])
    );
    // Now gone.
    assert_eq!(
        c.try_take(pattern![Value::atom("job"), any]).expect("inp"),
        None
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn txn_over_the_wire() {
    let (server, _registry) = start();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();

    assert!(c.txn("-> <counter, 41>", vec![]).expect("txn out"));
    // Retracting read: consume the counter, assert its successor.
    assert!(c
        .txn("exists x : <counter, x>! : x > 0 -> <moved, x>", vec![])
        .expect("txn move"));
    assert_eq!(
        c.try_read(pattern![Value::atom("moved"), 41i64])
            .expect("rdp"),
        Some(tuple![Value::atom("moved"), 41i64])
    );
    assert_eq!(
        c.try_read(pattern![Value::atom("counter"), any])
            .expect("rdp"),
        None
    );
    // Immediate-mode transaction whose query fails reports Failed.
    assert!(!c
        .txn("exists x : <counter, x> -> <found, x>", vec![])
        .expect("txn failed"));

    server.shutdown().expect("shutdown");
}

#[test]
fn parked_in_is_served_by_another_client() {
    let (server, registry) = start();
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    a.set_timeout(Some(Duration::from_secs(10))).unwrap();
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // A's blocking take parks server-side: the interim Parked
    // notification proves it is registered on watch keys, not polling.
    let id = a
        .send(&Request::In(pattern![Value::atom("handoff"), any]))
        .unwrap();
    let (pid, parked) = a.recv().expect("parked notification");
    assert_eq!(pid, id);
    assert!(matches!(parked, Response::Parked), "{parked:?}");
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 1);

    // B's out wakes A through the value-level watch index.
    b.out(tuple![Value::atom("handoff"), 42i64]).expect("out");
    match a.wait_for(id).expect("wake") {
        Response::Tuple(t) => assert_eq!(t, tuple![Value::atom("handoff"), 42i64]),
        other => panic!("expected tuple, got {other:?}"),
    }
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 0);

    server.shutdown().expect("shutdown");
}

#[test]
fn cancel_unparks_without_consuming() {
    let (server, registry) = start();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();

    let id = c
        .send(&Request::In(pattern![Value::atom("ghost"), any]))
        .unwrap();
    let (pid, parked) = c.recv().expect("parked notification");
    assert_eq!(pid, id);
    assert!(matches!(parked, Response::Parked), "{parked:?}");

    assert!(c.cancel(id).expect("cancel"));
    // The parked request answers Cancelled (held by `cancel`'s wait).
    let (rid, resp) = c.recv().expect("cancelled reply");
    assert_eq!(rid, id);
    assert!(matches!(resp, Response::Cancelled), "{resp:?}");
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 0);
    // Cancelling an unknown id is a no-op Failed, not an error.
    assert!(!c.cancel(9999).expect("cancel unknown"));

    server.shutdown().expect("shutdown");
}

#[test]
fn disconnect_while_parked_leaves_no_blocked_residue() {
    let (server, registry) = start();
    let baseline = registry.gauge(Gauge::BlockedQueueDepth);

    {
        let mut a = Client::connect(server.addr()).expect("connect a");
        a.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let id = a
            .send(&Request::In(pattern![Value::atom("orphan"), any]))
            .unwrap();
        let (pid, parked) = a.recv().expect("parked notification");
        assert_eq!(pid, id);
        assert!(matches!(parked, Response::Parked), "{parked:?}");
        assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), baseline + 1);
        // Drop the connection with the request still parked.
    }

    // The event loop sees the hangup and must unpark + forget the
    // request: the blocked-queue gauge returns to baseline.
    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.gauge(Gauge::BlockedQueueDepth) == baseline
        }),
        "blocked queue depth stuck at {} (baseline {})",
        registry.gauge(Gauge::BlockedQueueDepth),
        baseline
    );
    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.gauge(Gauge::NetConnections) == 0
        }),
        "connection gauge stuck at {}",
        registry.gauge(Gauge::NetConnections)
    );

    // A fresh client sees a fully serviceable dataspace: the orphaned
    // pattern's tuple is NOT consumed by any leaked parked entry.
    let mut b = Client::connect(server.addr()).expect("connect b");
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();
    b.out(tuple![Value::atom("orphan"), 7i64]).expect("out");
    assert_eq!(
        b.try_take(pattern![Value::atom("orphan"), any])
            .expect("inp"),
        Some(tuple![Value::atom("orphan"), 7i64])
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn cross_loop_park_is_woken_by_commit_on_the_other_loop() {
    let (server, registry) = start_two_loops();
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    a.set_timeout(Some(Duration::from_secs(10))).unwrap();
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // a and b were placed on different loops when they connected.
    let id = a
        .send(&Request::In(pattern![Value::atom("bridge"), any]))
        .unwrap();
    let (pid, parked) = a.recv().expect("parked notification");
    assert_eq!(pid, id);
    assert!(matches!(parked, Response::Parked), "{parked:?}");
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 1);

    // B's commit runs on the other loop; the wake must cross through
    // the mailbox + wake-fd handoff, never by polling.
    b.out(tuple![Value::atom("bridge"), 7i64]).expect("out");
    match a.wait_for(id).expect("wake") {
        Response::Tuple(t) => assert_eq!(t, tuple![Value::atom("bridge"), 7i64]),
        other => panic!("expected tuple, got {other:?}"),
    }
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 0);
    let handoffs: u64 = (0..2)
        .map(|l| registry.loop_counter(l, LoopCounter::WakeHandoffs))
        .sum();
    assert_eq!(handoffs, 1, "the wake must have crossed loops");

    server.shutdown().expect("shutdown");
}

#[test]
fn cross_loop_disconnect_while_parked_settles_the_blocked_gauge() {
    let (server, registry) = start_two_loops();
    let baseline = registry.gauge(Gauge::BlockedQueueDepth);
    let mut b = Client::connect(server.addr()).expect("connect b");
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();

    {
        // a connects while b is open, so it lands on the other loop.
        let mut a = Client::connect(server.addr()).expect("connect a");
        a.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let id = a
            .send(&Request::In(pattern![Value::atom("severed"), any]))
            .unwrap();
        let (pid, parked) = a.recv().expect("parked notification");
        assert_eq!(pid, id);
        assert!(matches!(parked, Response::Parked), "{parked:?}");
        assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), baseline + 1);
        // Drop a with the request parked; its loop is not the one b's
        // commits run on.
    }

    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.gauge(Gauge::BlockedQueueDepth) == baseline
        }),
        "blocked queue depth stuck at {} (baseline {})",
        registry.gauge(Gauge::BlockedQueueDepth),
        baseline
    );

    // B's commit on the other loop finds the waiter gone: the tuple
    // must survive for a live taker, not vanish into a dead park.
    b.out(tuple![Value::atom("severed"), 1i64]).expect("out");
    assert_eq!(
        b.try_take(pattern![Value::atom("severed"), any])
            .expect("inp"),
        Some(tuple![Value::atom("severed"), 1i64])
    );
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), baseline);

    server.shutdown().expect("shutdown");
}

#[test]
fn four_loop_server_survives_mixed_load() {
    let (metrics, registry) = Metrics::registry();
    let cfg = ServerConfig {
        loops: 4,
        ..ServerConfig::default()
    };
    let server = serve(cfg, metrics).expect("bind ephemeral server");
    assert_eq!(registry.gauge(Gauge::NetLoops), 4);

    let report = sdl::server::run_load(&sdl::server::LoadConfig {
        addr: server.addr().to_string(),
        sim_clients: 200,
        connections: 8,
        pipeline: 32,
        ops_per_client: 10,
        relations: 8,
        read_from: None,
    })
    .expect("load");
    assert_eq!(report.ops, 2000);
    assert_eq!(report.misses, 0, "every inp must find its out");

    // Requests were served by the loop workers (summed across loops).
    let served: u64 = (0..4)
        .map(|l| registry.loop_counter(l, LoopCounter::Requests))
        .sum();
    assert_eq!(served, 2000);
    // Least-connections placement puts two of the eight connections on
    // every loop.
    for l in 0..4 {
        let n = registry.loop_counter(l, LoopCounter::Requests);
        assert!(n > 0, "loop {l} served no requests");
    }

    server.shutdown().expect("shutdown");
}

#[test]
fn pipelined_requests_on_one_connection_keep_order() {
    let (server, _registry) = start();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();

    // Burst of outs followed by takes, all in flight before any reply
    // is read: per-connection program order must hold.
    let mut out_ids = Vec::new();
    for k in 0..32i64 {
        out_ids.push(
            c.send(&Request::Out(tuple![Value::atom("seq"), k]))
                .unwrap(),
        );
    }
    let mut in_ids = Vec::new();
    for k in 0..32i64 {
        in_ids.push(
            c.send(&Request::Inp(pattern![Value::atom("seq"), k]))
                .unwrap(),
        );
    }
    for id in out_ids {
        assert!(matches!(c.wait_for(id).expect("out ack"), Response::Ok));
    }
    for (k, id) in in_ids.into_iter().enumerate() {
        match c.wait_for(id).expect("inp reply") {
            Response::Tuple(t) => assert_eq!(t, tuple![Value::atom("seq"), k as i64]),
            other => panic!("inp {k} got {other:?}"),
        }
    }

    server.shutdown().expect("shutdown");
}

/// `<blob, "xxx…">` with a string of `len` bytes.
fn blob(len: usize) -> Tuple {
    tuple![Value::atom("blob"), Value::Str("x".repeat(len).into())]
}

#[test]
fn a_frame_longer_than_one_read_pass_is_served() {
    // 300 KiB is more than one pass reads from a connection but well
    // inside the frame cap; the frame completes over several passes.
    let (server, _registry) = start();
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();

    c.out(blob(300 * 1024)).expect("out of a 300 KiB tuple");
    assert_eq!(
        c.try_read(pattern![Value::atom("blob"), any]).expect("rdp"),
        Some(blob(300 * 1024))
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn a_frame_at_the_cap_is_served_and_one_byte_over_closes_the_connection() {
    let (server, registry) = start();
    // The payload of an `out` of blob(len) is `len` plus a fixed part.
    let fixed = encode_request(1, &Request::Out(blob(0))).len();
    let at_cap = DEFAULT_MAX_FRAME - fixed;

    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c.ping().expect("ping");
    c.out(blob(at_cap))
        .expect("a frame of exactly the cap is served");
    assert_eq!(
        encode_request(1, &Request::Out(blob(at_cap))).len(),
        DEFAULT_MAX_FRAME
    );
    c.ping().expect("the connection survives");
    assert_eq!(registry.counter(Counter::NetProtocolErrors), 0);

    let mut over = Client::connect(server.addr()).expect("connect");
    over.set_timeout(Some(Duration::from_secs(10))).unwrap();
    over.ping().expect("ping");
    assert!(over.out(blob(at_cap + 1)).is_err(), "one byte over the cap");
    assert_eq!(registry.counter(Counter::NetProtocolErrors), 1);
    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.gauge(Gauge::NetConnections) == 1
        }),
        "the oversized connection was not closed"
    );
    c.ping().expect("other connections are unaffected");

    server.shutdown().expect("shutdown");
}

#[test]
fn a_client_that_stops_reading_stalls_until_it_drains() {
    let (metrics, registry) = Metrics::registry();
    let cfg = ServerConfig {
        write_buf_limit: 64 * 1024,
        ..ServerConfig::default()
    };
    let server = serve(cfg, metrics).expect("bind ephemeral server");
    let mut c = Client::connect(server.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c.out(blob(32 * 1024)).expect("out");
    let before = registry.counter(Counter::NetBackpressureStalls);

    // 16 MiB of replies, none read yet: far past the socket buffers and
    // the 64 KiB cap, so the server must stop reading this connection.
    let ids: Vec<u64> = (0..512)
        .map(|_| {
            c.send(&Request::Rdp(pattern![Value::atom("blob"), any]))
                .expect("send")
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.counter(Counter::NetBackpressureStalls) > before
        }),
        "a full write buffer never stalled the connection"
    );

    // Draining brings every reply, in order, and reads resume.
    for id in ids {
        let (rid, resp) = c.recv().expect("reply");
        assert_eq!(rid, id);
        assert_eq!(resp, Response::Tuple(blob(32 * 1024)));
    }
    c.ping().expect("reads resumed");
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 0);
    drop(c);
    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.gauge(Gauge::NetConnections) == 0
        }),
        "connection gauge stuck at {}",
        registry.gauge(Gauge::NetConnections)
    );

    server.shutdown().expect("shutdown");
}

/// A raw socket to `server`, for driving the handshake by hand.
fn raw(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Reads the magic echo off a raw socket.
fn read_echo(s: &mut TcpStream) {
    let mut echo = [0u8; 8];
    s.read_exact(&mut echo).expect("magic echo");
    assert_eq!(&echo, MAGIC);
}

/// Reads one response frame off a raw socket.
fn read_reply(s: &mut TcpStream) -> (u64, Response) {
    let mut header = [0u8; 8];
    s.read_exact(&mut header).expect("frame header");
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).expect("frame payload");
    decode_response(&payload).expect("response")
}

#[test]
fn a_client_slow_to_send_its_magic_is_still_served() {
    let (server, _registry) = start();
    let mut s = raw(&server);
    // Many poll timeouts pass with nothing to read; the connection waits.
    std::thread::sleep(Duration::from_millis(300));
    s.write_all(MAGIC).unwrap();
    read_echo(&mut s);
    s.write_all(&frame(&encode_request(1, &Request::Ping)))
        .unwrap();
    assert_eq!(read_reply(&mut s), (1, Response::Ok));

    server.shutdown().expect("shutdown");
}

#[test]
fn magic_and_a_first_frame_in_one_write_are_both_served() {
    let (server, _registry) = start();
    let mut s = raw(&server);
    let mut hello = MAGIC.to_vec();
    hello.extend(frame(&encode_request(7, &Request::Ping)));
    s.write_all(&hello).unwrap();
    read_echo(&mut s);
    assert_eq!(read_reply(&mut s), (7, Response::Ok));

    server.shutdown().expect("shutdown");
}

#[test]
fn a_wrong_magic_closes_the_connection() {
    let (server, registry) = start();
    let mut s = raw(&server);
    s.write_all(b"HTTP/1.1").unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(s.read(&mut buf).expect("closed"), 0, "no echo, just EOF");
    assert_eq!(registry.counter(Counter::NetProtocolErrors), 1);
    assert!(
        wait_until(Duration::from_secs(5), || {
            registry.gauge(Gauge::NetConnections) == 0
        }),
        "connection gauge stuck at {}",
        registry.gauge(Gauge::NetConnections)
    );

    server.shutdown().expect("shutdown");
}

#[test]
fn at_the_parked_limit_a_fresh_park_is_refused_and_serving_goes_on() {
    let (metrics, registry) = Metrics::registry();
    let cfg = ServerConfig {
        max_parked: 4,
        ..ServerConfig::default()
    };
    let server = serve(cfg, metrics).expect("bind ephemeral server");
    let mut a = Client::connect(server.addr()).expect("connect a");
    let mut b = Client::connect(server.addr()).expect("connect b");
    a.set_timeout(Some(Duration::from_secs(10))).unwrap();
    b.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let take = Request::In(pattern![Value::atom("slot"), any]);

    let parked: Vec<u64> = (0..4)
        .map(|_| {
            let id = a.send(&take).unwrap();
            assert_eq!(a.recv().expect("parked"), (id, Response::Parked));
            id
        })
        .collect();
    let fifth = a.send(&take).unwrap();
    let refused = Response::Error("parked-request limit reached".to_owned());
    assert_eq!(a.recv().expect("refusal"), (fifth, refused));
    assert_eq!(registry.counter(Counter::NetBackpressureStalls), 1);

    // Another client still commits, and its out wakes one of a's parks.
    b.out(tuple![Value::atom("slot"), 1i64])
        .expect("out is acked");
    let (id, resp) = a.recv().expect("wake");
    assert!(parked.contains(&id), "woke {id}");
    assert_eq!(resp, Response::Tuple(tuple![Value::atom("slot"), 1i64]));

    // Below the limit again: a new `in` parks.
    let id = a.send(&take).unwrap();
    assert_eq!(a.recv().expect("parked"), (id, Response::Parked));
    assert_eq!(registry.gauge(Gauge::BlockedQueueDepth), 4);

    server.shutdown().expect("shutdown");
}
