//! Socket streaming: real TCP, real threads, live `/metrics`.
//!
//! The paper's second I/O scenario streams the input "via a tunneled SSH
//! socket connection over a long distance". This example does it for real:
//! a throttled TCP server on loopback streams a synthetic PDF-like file,
//! a reader records when each block came off the socket, and the
//! *threaded* executor (not the simulator) runs the speculative Huffman
//! pipeline on the blocks at that pace — its feeder takes the recorded
//! due times, the same kind of schedule the simulator takes, and hands
//! over every block that is due when it wakes in one batch.
//!
//! While the run is live, the metrics plane is exposed three ways:
//!
//! * a second loopback listener answers `GET /metrics` with a
//!   Prometheus-style text exposition of the current snapshot (scrape it
//!   with `curl` while the run streams);
//! * every sampler tick is appended to
//!   `results/metrics_socket_stream.jsonl` (replay it with
//!   `tvs-top --replay`);
//! * the example scrapes its own endpoint once before shutdown and prints
//!   the first lines — an offline smoke test of the exposition path.
//!
//! Run with: `cargo run --release --example socket_stream`

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;
use tvs_pipelines::config::HuffmanConfig;
use tvs_pipelines::huffman::HuffmanWorkload;
use tvs_sre::exec::threaded::{self, ThreadedConfig};
use tvs_sre::{DispatchPolicy, InputBlock, Instruments, Recorder, Sampler};
use tvs_workloads::FileKind;

const WORKERS: usize = 8;

/// Serve `GET /metrics` (Prometheus text exposition 0.0.4) on a loopback
/// listener until `hub` is dropped by the caller side — the thread exits
/// when the listener is closed via the returned shutdown sender.
fn serve_metrics(hub: Recorder) -> (std::net::SocketAddr, mpsc::Sender<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics listener");
    let addr = listener.local_addr().expect("local addr");
    let (shutdown_tx, shutdown_rx) = mpsc::channel::<()>();
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    std::thread::Builder::new()
        .name("tvs-metrics-http".into())
        .spawn(move || loop {
            match listener.accept() {
                Ok((mut conn, _)) => {
                    // Read the request line; everything else is ignored.
                    let mut buf = [0u8; 1024];
                    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
                    let n = conn.read(&mut buf).unwrap_or(0);
                    let req = String::from_utf8_lossy(&buf[..n]);
                    let (status, body) = if req.starts_with("GET /metrics") {
                        match hub.snapshot() {
                            Some(snap) => ("200 OK", snap.to_prometheus()),
                            None => ("503 Service Unavailable", String::from("# not live\n")),
                        }
                    } else {
                        ("404 Not Found", String::from("# only /metrics here\n"))
                    };
                    let _ = write!(
                        conn,
                        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if shutdown_rx.try_recv().is_ok() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return,
            }
        })
        .expect("spawn metrics http thread");
    (addr, shutdown_tx)
}

/// One self-scrape of `GET /metrics` — the offline smoke test.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect /metrics");
    write!(conn, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
}

fn main() {
    // 512 KB keeps the demo quick; the mechanics are size-independent.
    let data = tvs_workloads::generate(FileKind::Pdf, 512 * 1024, 7);
    let block_bytes = 4096;

    // Serve the file over loopback at ~2 MB/s (a fast long-distance link;
    // scaled up so the demo finishes in well under a second).
    let (addr, server) = tvs_iosim::tcp::serve_throttled(data.clone(), 2 * 1024 * 1024, 8 * 1024)
        .expect("bind loopback");
    println!("streaming {} bytes from {addr} ...", data.len());

    let mut cfg = HuffmanConfig::socket_x86(DispatchPolicy::Balanced);
    cfg.collect_output = true;

    // The live metrics plane: one recorder into every layer (workload and
    // executor are built on the same `Instruments`), sampler to JSONL,
    // Prometheus exposition on its own loopback listener.
    let hub = Recorder::enabled(WORKERS);
    let instruments = Instruments::recorded(hub.clone());
    let workload = HuffmanWorkload::instrumented(cfg.clone(), data.len(), 0, false, &instruments);
    let (metrics_addr, http_shutdown) = serve_metrics(hub.clone());
    println!("GET /metrics live at http://{metrics_addr}/metrics");
    let results = std::path::Path::new("results");
    std::fs::create_dir_all(results).expect("results dir");
    let jsonl_path = results.join("metrics_socket_stream.jsonl");
    let mut jsonl = std::fs::File::create(&jsonl_path).expect("create jsonl");
    let sampler = Sampler::spawn(hub.clone(), Duration::from_millis(20), move |snap| {
        writeln!(jsonl, "{}", snap.to_json_line()).expect("append jsonl");
    });

    // The TCP stream as the executor's input: the bytes read into one
    // buffer, and every block as its range there with the moment it came
    // off the socket, µs from the first read.
    let mut conn = TcpStream::connect(addr).expect("connect");
    let (mut input, mut blocks) = (Vec::with_capacity(data.len()), Vec::new());
    let mut first: Option<std::time::Instant> = None;
    tvs_iosim::tcp::read_blocks(&mut conn, block_bytes, |index, at, block| {
        let t0 = *first.get_or_insert(at);
        let bytes = input.len()..input.len() + block.len();
        input.extend_from_slice(block);
        let arrival = at.duration_since(t0).as_micros() as u64;
        blocks.push(InputBlock {
            index,
            arrival,
            bytes,
        });
    })
    .expect("stream read");
    server.join().expect("server").expect("server io");

    // The calling thread plays the SRE's input role, at the socket's pace.
    let started = std::time::Instant::now();
    let tcfg = ThreadedConfig::new(WORKERS);
    let (workload, metrics) =
        threaded::run(workload, &tcfg, cfg.policy, &input, blocks, &instruments)
            .expect("nothing injected, nothing fails");

    // Self-scrape before shutdown: the exposition path works end to end.
    let response = scrape(metrics_addr);
    assert!(response.starts_with("HTTP/1.1 200"), "scrape must succeed");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    assert!(
        body.contains("tvs_tasks_delivered_total"),
        "exposition carries counters"
    );
    println!("self-scrape of /metrics:");
    for line in body.lines().take(6) {
        println!("  {line}");
    }
    sampler.stop();
    let _ = http_shutdown.send(());

    let result = workload.result();
    println!(
        "done in {:?}: {} blocks, compression ratio {:.3}",
        started.elapsed(),
        result.blocks.len(),
        result.compression_ratio()
    );
    println!(
        "mean per-block latency: {:.1} ms (wall), completion {} us",
        result.mean_latency() / 1000.0,
        metrics.makespan
    );
    if let Some(stats) = result.spec_stats {
        println!(
            "speculation: {} prediction(s), {} check(s), {} rollback(s), committed {:?}",
            stats.predictions, stats.checks, stats.rollbacks, result.committed_version
        );
    }
    println!("snapshots -> {}", jsonl_path.display());

    // Round-trip check.
    let (bytes, bits, lengths) = result.output.as_ref().expect("collected");
    let table = tvs_huffman::CodeTable::from_lengths(lengths);
    let decoded = tvs_huffman::decode_exact(bytes, 0, *bits, data.len(), &table).expect("decode");
    assert_eq!(decoded, data);
    println!("output verified against the streamed input.");
}
