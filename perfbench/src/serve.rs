//! The `serve_mixed` workload: a server process under a seeded, constant-
//! rate open-loop request mix, and the server process itself.

use crate::batch::{call_costs, stage_metrics};
use crate::calibrate::{self, slowdown, SERVE_SENSITIVITY};
use crate::protocol::{
    near_miss_solve, serve_universe, Reference, Shape, Workload, COLD_BATCH, HOT_BATCH,
    NEAR_BATCHES,
};
use crate::stages::Stages;
use crate::util::{
    geomean, interquartile_mean, list, median, metric, nproc, peak_rss_mb, process_cpu_s, string,
    tail_quantile, Metric, Quantile, Rng,
};
use crate::verify::{check_design, check_quality, check_simulated, Design};
use crate::{Outcome, RunArgs};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use thistle::{DesignPoint, OptimizeError};
use thistle_arch::ArchConfig;
use thistle_model::ConvLayer;
use thistle_obs::{CollectingSink, TraceCtx};
use thistle_serve::{HttpOptions, HttpServer, Json, Service, ServiceOptions};
use timeloop_lite::Mapping;

/// Offered load, requests per second (constant-rate open loop). At 60/s
/// the server saturated whenever the shared host slowed to about half
/// speed, and its backlog grew for the rest of the window.
pub const RATE: f64 = 40.0;
/// Hot families: cached during set-up, then hit. Each also receives at
/// most one near-miss per entry of [`NEAR_BATCHES`], half a window apart,
/// so every warm start's donor is known and has a recorded reference.
pub const HOT: usize = 90;
/// Design cache capacity: the hot set plus every miss of a run.
pub const CACHE: usize = 1024;
/// Requests per pass for `pass_s` and `cpu_s`.
pub const PASS_REQUESTS: usize = 100;
/// Latency limit for `slo_ok_ratio`.
pub const LIMIT_MS: f64 = 1000.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The generator reads the host's speed when nothing is in flight and the
/// next request is due at least this far ahead...
const READING_GAP_MS: i32 = 12;
/// ...and its last reading is at least this old.
const READING_EVERY_S: f64 = 0.1;
/// Reference table of the serve pool.
pub const TABLE: &str = "serve_mixed";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Near,
}

#[derive(Debug, Clone)]
pub struct Planned {
    pub class: Class,
    pub layer: ConvLayer,
    pub due_s: f64,
    /// The hot family a hit or near-miss belongs to.
    pub hot: Option<usize>,
}

/// The seeded inputs of one run: the hot set and the request plan.
pub fn plan(seed: u64, seconds: f64) -> (Vec<Shape>, Vec<Planned>) {
    let mut rng = Rng::new(seed, "serve_mixed");
    let mut universe = serve_universe();
    rng.shuffle(&mut universe);
    let (hot, cold) = universe.split_at(HOT);
    let n = ((RATE * seconds).round() as usize).max(20);
    let n_near = ((n as f64 * 0.1).round() as usize).min(HOT * NEAR_BATCHES.len());
    let n_miss = ((n as f64 * 0.2).round() as usize).min(cold.len());
    let mut classes: Vec<Class> = std::iter::repeat_n(Class::Miss, n_miss)
        .chain(std::iter::repeat_n(Class::Near, n_near))
        .chain(std::iter::repeat_n(Class::Hit, n - n_miss - n_near))
        .collect();
    rng.shuffle(&mut classes);
    // The j-th near-miss goes to family `order[j % HOT]` at batch
    // `NEAR_BATCHES[j / HOT]`: a family's second near-miss comes HOT
    // near-misses after its first, long after the first has landed.
    let mut order: Vec<usize> = (0..HOT).collect();
    rng.shuffle(&mut order);
    let (mut next_cold, mut next_near) = (0, 0);
    let requests = classes
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let (layer, hot_index) = match class {
                Class::Hit => {
                    let h = rng.below(HOT);
                    (hot[h].layer(HOT_BATCH), Some(h))
                }
                Class::Miss => {
                    next_cold += 1;
                    (cold[next_cold - 1].layer(COLD_BATCH), None)
                }
                Class::Near => {
                    let h = order[next_near % HOT];
                    let batch = NEAR_BATCHES[next_near / HOT];
                    next_near += 1;
                    (hot[h].layer(batch), Some(h))
                }
            };
            Planned {
                class,
                layer,
                due_s: i as f64 / RATE,
                hot: hot_index,
            }
        })
        .collect();
    (hot.to_vec(), requests)
}

// ---------------------------------------------------------------------
// The server process.

/// Runs the service behind its HTTP front end until stdin says `quit` or
/// closes. Prints `port N`, then answers `reset` (drop collected spans) and
/// `stats` (CPU seconds, peak RSS and stage totals since the last call) one
/// line each.
pub fn server_main(trace: bool) -> Result<(), String> {
    let sink = Arc::new(CollectingSink::new());
    let mut options = ServiceOptions {
        workers: nproc(),
        cache_capacity: CACHE,
        default_timeout: Duration::from_secs(60),
        ..ServiceOptions::default()
    };
    if trace {
        options.trace_sinks.push(sink.clone());
    }
    let service = Arc::new(Service::new(
        Workload::ServeMixed.optimizer(nproc()),
        options,
    ));
    let server =
        HttpServer::start_with(Arc::clone(&service), "127.0.0.1:0", HttpOptions::default())
            .map_err(|e| format!("cannot bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "port {}", server.port()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "reset" => {
                sink.take();
                writeln!(out, "ok")
            }
            "stats" => {
                let mut stages = Stages::default();
                stages.add(&sink.take());
                writeln!(
                    out,
                    "{} {} {}",
                    process_cpu_s(),
                    peak_rss_mb(),
                    stages.encode()
                )
            }
            "quit" => break,
            _ => writeln!(out, "error"),
        }
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    }
    server.shutdown();
    Ok(())
}

/// A server child process; killed and reaped on drop.
struct Server {
    child: Option<Child>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

impl Server {
    fn start(trace: bool) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["server", "--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child: Some(child),
            stdin,
            stdout,
            port: 0,
        };
        let line = server.read_line()?;
        server.port = line
            .strip_prefix("port ")
            .and_then(|p| p.trim().parse().ok())
            .ok_or_else(|| format!("unexpected server banner: {line:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !matches!(http(server.port, "GET", "/healthz", None), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited".into()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn command(&mut self, cmd: &str) -> Result<String, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| e.to_string())?;
        self.read_line()
    }

    /// `(cpu_s, peak_rss_mb, stages)` since the last `stats`/`reset`.
    fn stats(&mut self) -> Result<(f64, f64, Stages), String> {
        let line = self.command("stats")?;
        let mut parts = line.splitn(3, ' ');
        let cpu = parts.next().and_then(|v| v.parse().ok());
        let rss = parts.next().and_then(|v| v.parse().ok());
        let stages = parts.next().and_then(Stages::decode);
        match (cpu, rss, stages) {
            (Some(c), Some(r), Some(s)) => Ok((c, r, s)),
            _ => Err(format!("bad stats line {line:?}")),
        }
    }

    /// Asks the server to drain and exit, and waits for it.
    fn stop(mut self) {
        let _ = writeln!(self.stdin, "quit").and_then(|()| self.stdin.flush());
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// HTTP client.

fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let body = body.unwrap_or("");
    format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status")?;
    Ok((status, body.to_string()))
}

/// One blocking request on its own connection.
fn http(port: u16, method: &str, path: &str, body: Option<&str>) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&request_bytes(method, path, body))
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    parse_response(&raw)
}

fn optimize_body(layer: &ConvLayer) -> String {
    format!(
        "{{\"layer\": {{\"name\": {}, \"batch\": {}, \"out_channels\": {}, \"in_channels\": {}, \
         \"in_h\": {}, \"in_w\": {}, \"kernel_h\": {}, \"kernel_w\": {}, \"stride\": {}}}, \
         \"objective\": \"energy\", \"mode\": \"eyeriss\"}}",
        string(&layer.name),
        layer.batch,
        layer.out_channels,
        layer.in_channels,
        layer.in_h,
        layer.in_w,
        layer.kernel_h,
        layer.kernel_w,
        layer.stride
    )
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 1;

/// A completed request of the open loop.
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// From the due time to the last response byte.
    pub latency_ms: f64,
    /// How late the generator sent it.
    pub late_ms: f64,
    /// 0 when the connection failed.
    pub status: u16,
    pub body: String,
}

struct Flight {
    index: usize,
    stream: TcpStream,
    raw: Vec<u8>,
    late_ms: f64,
}

/// The open-loop generator: one thread sends every request at its due
/// time on a connection of its own (the server closes each connection
/// after one response) and multiplexes the responses with `poll(2)`.
/// Latency runs from the due time, so a stalled generator shows up as
/// latency and as `late_ms`. While idle, the generator also reads the
/// host's speed (see [`crate::calibrate`]); it returns those readings as
/// `(seconds into the window, slowdown)`.
pub fn drive(port: u16, plan: &[Planned]) -> (Vec<Done>, Vec<(f64, f64)>) {
    let bodies: Vec<Vec<u8>> = plan
        .iter()
        .map(|p| request_bytes("POST", "/optimize", Some(&optimize_body(&p.layer))))
        .collect();
    let mut done: Vec<Done> = vec![Done::default(); plan.len()];
    let mut flights: Vec<Flight> = Vec::new();
    let mut readings: Vec<(f64, f64)> = Vec::new();
    let mut next = 0;
    let start = Instant::now();
    let give_up = Duration::from_secs(120);
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < plan.len() && plan[next].due_s <= now {
            let late_ms = (start.elapsed().as_secs_f64() - plan[next].due_s) * 1e3;
            let sent = TcpStream::connect(("127.0.0.1", port)).and_then(|mut s| {
                s.write_all(&bodies[next])?;
                s.set_nonblocking(true)?;
                Ok(s)
            });
            match sent {
                Ok(stream) => flights.push(Flight {
                    index: next,
                    stream,
                    raw: Vec::new(),
                    late_ms,
                }),
                Err(e) => {
                    done[next] = Done {
                        latency_ms: (start.elapsed().as_secs_f64() - plan[next].due_s) * 1e3,
                        late_ms,
                        status: 0,
                        body: e.to_string(),
                    }
                }
            }
            next += 1;
        }
        if next == plan.len() && flights.is_empty() {
            break;
        }
        let wait_ms = if next < plan.len() {
            ((plan[next].due_s - start.elapsed().as_secs_f64()) * 1e3)
                .floor()
                .max(0.0) as i32
        } else {
            50
        };
        if flights.is_empty() {
            let now = start.elapsed().as_secs_f64();
            let last = readings.last().map_or(f64::NEG_INFINITY, |r| r.0);
            if next < plan.len() && wait_ms >= READING_GAP_MS && now - last >= READING_EVERY_S {
                readings.push((now, slowdown(nproc(), SERVE_SENSITIVITY)));
            } else if wait_ms >= 2 {
                std::thread::sleep(Duration::from_millis(wait_ms as u64 - 1));
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        let mut fds: Vec<PollFd> = flights
            .iter()
            .map(|f| PollFd {
                fd: f.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `struct pollfd` values (i32, i16, i16 in C layout)
        // for the whole call, and every fd belongs to an open stream in
        // `flights`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, wait_ms.min(50)) };
        if rc < 0 {
            continue; // EINTR: poll again
        }
        // Reverse order: `swap_remove` only moves entries already visited.
        for i in (0..flights.len()).rev() {
            let overdue = start.elapsed().as_secs_f64() - plan[flights[i].index].due_s
                > give_up.as_secs_f64();
            if fds[i].revents == 0 && !overdue {
                continue;
            }
            let f = &mut flights[i];
            let mut buf = [0u8; 16 * 1024];
            let finished = loop {
                match f.stream.read(&mut buf) {
                    Ok(0) => break true,
                    Ok(n) => f.raw.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break overdue,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            };
            if finished {
                let f = flights.swap_remove(i);
                let latency_ms = (start.elapsed().as_secs_f64() - plan[f.index].due_s) * 1e3;
                let (status, body) = parse_response(&f.raw).unwrap_or((0, String::new()));
                done[f.index] = Done {
                    latency_ms,
                    late_ms: f.late_ms,
                    status,
                    body,
                };
            }
        }
    }
    (done, readings)
}

// ---------------------------------------------------------------------
// Checking responses.

fn parse_design(v: &Json) -> Option<Design> {
    let u = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64);
    let list = |o: &Json, k: &str| -> Option<Vec<u64>> {
        o.get(k)?.as_arr()?.iter().map(Json::as_u64).collect()
    };
    let perm = |o: &Json, k: &str| -> Option<Vec<usize>> {
        list(o, k).map(|v| v.into_iter().map(|x| x as usize).collect())
    };
    let arch = v.get("arch")?;
    let eval = v.get("eval")?;
    let m = v.get("mapping")?;
    Some(Design {
        arch: ArchConfig::new(
            u(arch, "pe_count")?,
            u(arch, "regs_per_pe")?,
            u(arch, "sram_words")?,
        ),
        mapping: Mapping {
            register_factors: list(m, "register_factors")?,
            pe_temporal_factors: list(m, "pe_temporal_factors")?,
            pe_temporal_perm: perm(m, "pe_temporal_perm")?,
            spatial_factors: list(m, "spatial_factors")?,
            outer_factors: list(m, "outer_factors")?,
            outer_perm: perm(m, "outer_perm")?,
        },
        energy_pj: eval.get("energy_pj")?.as_f64()?,
        cycles: eval.get("cycles")?.as_f64()?,
    })
}

/// The design part of a response, re-emitted: equal text means equal bits.
fn design_text(v: &Json) -> Option<String> {
    Some(format!(
        "{}{}{}",
        v.get("arch")?.emit(),
        v.get("eval")?.emit(),
        v.get("mapping")?.emit()
    ))
}

/// Checks one served design end to end: the referee agrees with it, it
/// has a reference to be compared with, and (for the designs the server
/// computed) the simulated loop nest fills match the model's. Returns the
/// quality ratio and the design text.
pub fn check_served(
    reference: &Reference,
    layer: &ConvLayer,
    status: u16,
    body: &str,
    expect_hit: bool,
    simulate: bool,
) -> Result<(f64, String), String> {
    if status != 200 {
        return Err(format!("{}: HTTP {status}: {body}", layer.name));
    }
    let v = Json::parse(body).map_err(|e| format!("{}: bad JSON: {e}", layer.name))?;
    if v.get("cache_hit").and_then(Json::as_bool) != Some(expect_hit) {
        return Err(format!("{}: cache_hit is not {expect_hit}", layer.name));
    }
    let design = parse_design(&v).ok_or_else(|| format!("{}: no design", layer.name))?;
    let w = Workload::ServeMixed;
    let score = check_design(layer, w.objective(), &w.mode(), &design)?;
    let ratio = check_quality(reference, TABLE, &layer.name, score)?;
    if simulate {
        check_simulated(layer, &design.mapping)?;
    }
    Ok((ratio, design_text(&v).expect("parsed above")))
}

/// Serve-tier layer metrics; zeros where a workload has no serving tier.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    pub quantiles: Vec<(&'static str, Quantile)>,
    pub counters: Vec<(&'static str, f64)>,
}

pub const QUANTILE_METRICS: [&str; 14] = [
    "serve.hit_ms_p50",
    "serve.hit_ms_p99",
    "serve.miss_ms_p50",
    "serve.miss_ms_p90",
    "serve.near_ms_p50",
    "serve.generator_late_ms_p99",
    "serve.parse_ms_p50",
    "serve.serialize_ms_p50",
    "serve.client_overhead_ms_p50",
    "serve.lock_wait_ms_p99",
    "serve.queue_wait_ms_p90",
    "serve.coalesce_wait_ms_p90",
    "serve.solve_ms_p50",
    "serve.near_solve_ms_p50",
];

pub const COUNTER_METRICS: [(&str, &str); 5] = [
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.near_miss_hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.evictions", "count"),
];

pub fn layer_metrics(layer: Option<&ServeLayer>) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in QUANTILE_METRICS {
        let value = layer
            .and_then(|l| l.quantiles.iter().find(|(n, _)| *n == name))
            .map_or(0.0, |(_, q)| q.value);
        out.push(metric(name, value, "ms"));
    }
    for (name, unit) in COUNTER_METRICS {
        let value = layer
            .and_then(|l| l.counters.iter().find(|(n, _)| *n == name))
            .map_or(0.0, |(_, v)| *v);
        out.push(metric(name, value, unit));
    }
    out
}

fn breakdown(body: &str, phase: &str) -> Option<f64> {
    Json::parse(body)
        .ok()?
        .get("breakdown")?
        .get(&format!("{phase}_ms"))?
        .as_f64()
}

fn counter(metrics: &Json, path: &[&str]) -> f64 {
    let mut v = Some(metrics);
    for key in path {
        v = v.and_then(|j| j.get(key));
    }
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Starts a server and fills the hot set through it, closed loop with
/// `nproc` concurrent requests. Returns the server and each fill's
/// `(status, body)`.
fn set_up(trace: bool, hot: &[Shape]) -> Result<(Server, Vec<(u16, String)>), String> {
    let server = Server::start(trace)?;
    let port = server.port;
    let fills: Mutex<Vec<(u16, String)>> = Mutex::new(vec![(0, String::new()); hot.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..nproc() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(shape) = hot.get(i) else { break };
                let body = optimize_body(&shape.layer(HOT_BATCH));
                let r = http(port, "POST", "/optimize", Some(&body)).unwrap_or((0, String::new()));
                fills.lock().expect("fill results lock")[i] = r;
            });
        }
    });
    Ok((server, fills.into_inner().expect("fill results lock")))
}

pub fn run(args: &RunArgs) -> Outcome {
    match run_inner(args) {
        Ok(out) => out,
        Err(e) => Outcome {
            attempted: 1,
            failed: 1,
            errors: vec![e],
            ..Outcome::default()
        },
    }
}

fn run_inner(args: &RunArgs) -> Result<Outcome, String> {
    let (hot, requests) = plan(args.seed, args.seconds);
    let reference = Reference::load().unwrap_or_default();

    // Set-up, several times: start the server, wait for /healthz, fill the
    // hot set. The last server carries the timed window.
    // Each is timed between two host-speed readings.
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut current = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = current.take() {
            Server::stop(server);
        }
        let before = slowdown(nproc(), SERVE_SENSITIVITY);
        let t = Instant::now();
        current = Some(set_up(args.trace, &hot)?);
        let raw = t.elapsed().as_secs_f64();
        setup_raw_s.push(raw);
        setup_s.push(raw / ((before + slowdown(nproc(), SERVE_SENSITIVITY)) / 2.0));
    }
    let (mut server, fills) = current.expect("at least one set-up");
    let port = server.port;

    let before = http(port, "GET", "/metrics", None)
        .ok()
        .and_then(|(_, b)| Json::parse(&b).ok())
        .ok_or("cannot read /metrics")?;
    server.command("reset")?;
    let (cpu0, _, _) = server.stats()?;
    let (done, readings) = drive(port, &requests);
    let (cpu1, server_rss, stages) = server.stats()?;
    let after = http(port, "GET", "/metrics", None)
        .ok()
        .and_then(|(_, b)| Json::parse(&b).ok())
        .ok_or("cannot read /metrics")?;
    server.stop();

    // Verify: fills, then every response of the window.
    let mut errors = Vec::new();
    let fill_checks: Vec<Option<(f64, String)>> = hot
        .iter()
        .zip(&fills)
        .map(|(shape, (status, body))| {
            check_served(
                &reference,
                &shape.layer(HOT_BATCH),
                *status,
                body,
                false,
                true,
            )
            .map_err(|e| errors.push(format!("fill {e}")))
            .ok()
        })
        .collect();
    let mut failed = 0u64;
    let mut slo_ok = 0u64;
    let mut ratios = Vec::new();
    let mut hot_hit = vec![false; hot.len()];
    for (p, d) in requests.iter().zip(&done) {
        let verdict = match p.class {
            Class::Hit => {
                let h = p.hot.expect("hits name their family");
                check_served(&reference, &p.layer, d.status, &d.body, true, false).and_then(
                    |(_, text)| match &fill_checks[h] {
                        Some((_, fill)) if *fill == text => {
                            hot_hit[h] = true;
                            Ok(())
                        }
                        Some(_) => Err(format!("{}: hit differs from its fill", p.layer.name)),
                        None => Err(format!("{}: its fill failed", p.layer.name)),
                    },
                )
            }
            Class::Miss | Class::Near => {
                check_served(&reference, &p.layer, d.status, &d.body, false, true)
                    .map(|(ratio, _)| ratios.push(ratio))
            }
        };
        match verdict {
            Ok(()) => {
                if d.latency_ms <= LIMIT_MS {
                    slo_ok += 1;
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
    }
    for (h, hit) in hot_hit.iter().enumerate() {
        if let (true, Some((ratio, _))) = (hit, &fill_checks[h]) {
            ratios.push(*ratio);
        }
    }

    let attempted = requests.len() as u64;
    let latency = |class: Class| -> Vec<f64> {
        requests
            .iter()
            .zip(&done)
            .filter(|(p, d)| p.class == class && d.status == 200)
            .map(|(_, d)| d.latency_ms)
            .collect()
    };
    let phase = |class: Class, name: &str| -> Vec<f64> {
        requests
            .iter()
            .zip(&done)
            .filter(|(p, d)| p.class == class && d.status == 200)
            .filter_map(|(_, d)| breakdown(&d.body, name))
            .collect()
    };
    let overhead: Vec<f64> = requests
        .iter()
        .zip(&done)
        .filter(|(p, d)| p.class == Class::Hit && d.status == 200)
        .filter_map(|(_, d)| {
            let phases = [
                "parse",
                "queue_wait",
                "lock_wait",
                "coalesce_wait",
                "solve",
                "serialize",
            ];
            let sum: Option<f64> = phases.iter().map(|ph| breakdown(&d.body, ph)).sum();
            sum.map(|s| d.latency_ms - s)
        })
        .collect();
    let late: Vec<f64> = done.iter().map(|d| d.late_ms).collect();
    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let lookups = delta(&["cache_hits"]) + delta(&["cache_misses"]);
    let layer = ServeLayer {
        quantiles: vec![
            ("serve.hit_ms_p50", tail_quantile(&latency(Class::Hit), 0.5)),
            (
                "serve.hit_ms_p99",
                tail_quantile(&latency(Class::Hit), 0.99),
            ),
            (
                "serve.miss_ms_p50",
                tail_quantile(&latency(Class::Miss), 0.5),
            ),
            (
                "serve.miss_ms_p90",
                tail_quantile(&latency(Class::Miss), 0.9),
            ),
            (
                "serve.near_ms_p50",
                tail_quantile(&latency(Class::Near), 0.5),
            ),
            ("serve.generator_late_ms_p99", tail_quantile(&late, 0.99)),
            (
                "serve.parse_ms_p50",
                tail_quantile(&phase(Class::Hit, "parse"), 0.5),
            ),
            (
                "serve.serialize_ms_p50",
                tail_quantile(&phase(Class::Hit, "serialize"), 0.5),
            ),
            (
                "serve.client_overhead_ms_p50",
                tail_quantile(&overhead, 0.5),
            ),
            (
                "serve.lock_wait_ms_p99",
                tail_quantile(&phase(Class::Hit, "lock_wait"), 0.99),
            ),
            (
                "serve.queue_wait_ms_p90",
                tail_quantile(&phase(Class::Miss, "queue_wait"), 0.9),
            ),
            (
                "serve.coalesce_wait_ms_p90",
                tail_quantile(&phase(Class::Miss, "coalesce_wait"), 0.9),
            ),
            (
                "serve.solve_ms_p50",
                tail_quantile(&phase(Class::Miss, "solve"), 0.5),
            ),
            (
                "serve.near_solve_ms_p50",
                tail_quantile(&phase(Class::Near, "solve"), 0.5),
            ),
        ],
        counters: vec![
            (
                "serve.cache_hit_ratio",
                delta(&["cache_hits"]) / lookups.max(1.0),
            ),
            ("serve.near_miss_hits", delta(&["near_miss_hits"])),
            ("serve.coalesced", delta(&["coalesced"])),
            ("serve.shed", delta(&["shed"])),
            ("serve.evictions", delta(&["cache", "evictions"])),
        ],
    };

    // A pass is divided by the median reading taken while its requests
    // were due (the window's median if there was none), the window's CPU
    // time by the window's median reading.
    let window_slowdown = if readings.is_empty() {
        slowdown(nproc(), SERVE_SENSITIVITY)
    } else {
        median(&readings.iter().map(|r| r.1).collect::<Vec<_>>())
    };
    let (mut passes, mut passes_raw) = (Vec::new(), Vec::new());
    for (block, plans) in done
        .chunks(PASS_REQUESTS)
        .zip(requests.chunks(PASS_REQUESTS))
    {
        if block.len() < PASS_REQUESTS {
            continue;
        }
        let (from, to) = (plans[0].due_s, plans[plans.len() - 1].due_s);
        let inside: Vec<f64> = readings
            .iter()
            .filter(|r| (from..=to).contains(&r.0))
            .map(|r| r.1)
            .collect();
        let speed = if inside.is_empty() {
            window_slowdown
        } else {
            median(&inside)
        };
        let raw: f64 = block.iter().map(|d| d.latency_ms / 1e3).sum();
        passes_raw.push(raw);
        passes.push(raw / speed);
    }
    let pass_count = requests.len() as f64 / PASS_REQUESTS as f64;
    let mut out = Outcome {
        attempted,
        failed,
        reference_intact: reference.intact,
        errors,
        ..Outcome::default()
    };
    let n = nproc();
    out.info(
        "threads",
        format!("{{\"sweep\": {n}, \"serve_workers\": {n}, \"generator\": 1}}"),
    );
    out.info(
        "load",
        format!(
            "{{\"rate_per_s\": {RATE}, \"requests\": {}, \"hot\": {HOT}, \"cache\": {CACHE}, \"limit_ms\": {LIMIT_MS}}}",
            requests.len()
        ),
    );
    out.info("calibration", calibrate::info());
    out.info("slowdown_readings", readings.len().to_string());
    out.info("window_slowdown", crate::util::num(window_slowdown));
    out.info("setup_s_each", list(&setup_s));
    out.info("setup_raw_s_each", list(&setup_raw_s));
    out.info("pass_raw_s_each", list(&passes_raw));
    out.info_samples("setup_s", setup_s.len());
    out.info_samples("pass_s", passes.len());
    for (name, q) in &layer.quantiles {
        out.info_quantile(name, q);
    }
    for (name, v) in &layer.counters {
        out.info(name, crate::util::num(*v));
    }
    if !args.trace {
        out.metrics = vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("pass_s", interquartile_mean(&passes), "s"),
            metric("cpu_s", (cpu1 - cpu0) / pass_count / window_slowdown, "s"),
            metric("peak_rss_mb", server_rss, "MB"),
            metric("quality_ratio", geomean(&ratios), "ratio"),
            metric(
                "ok_ratio",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            metric(
                "slo_ok_ratio",
                slo_ok as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ];
        return Ok(out);
    }

    // Per-layer: the server's stage split, per-call costs and tracing
    // overhead on a sample of the window's cold shapes, solved in-process
    // on the server's profile, and the serving-tier metrics.
    let w = Workload::ServeMixed;
    let optimizer = w.optimizer(n);
    let (objective, mode) = (w.objective(), w.mode());
    let sample: Vec<&ConvLayer> = requests
        .iter()
        .filter(|p| p.class == Class::Miss)
        .map(|p| &p.layer)
        .take(8)
        .collect();
    let sink = Arc::new(CollectingSink::new());
    let traced_ctx = TraceCtx::new(sink.clone());
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut costs = Vec::new();
    for round in 0..2 {
        for layer in &sample {
            let t = Instant::now();
            let point = optimizer.optimize_layer(layer, objective, &mode);
            plain_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let _ = optimizer.optimize_layer_traced(layer, objective, &mode, &traced_ctx);
            traced_s += t.elapsed().as_secs_f64();
            sink.take();
            if let (0, Ok(point)) = (round, point) {
                costs.extend(call_costs(&optimizer, layer, objective, &mode, &point));
            }
        }
    }
    out.metrics = stage_metrics(&mut out, &stages, &costs, traced_s / plain_s.max(1e-9));
    out.metrics.extend(layer_metrics(Some(&layer)));
    Ok(out)
}

/// Records the serve pool's reference scores: every family cold at
/// [`COLD_BATCH`] and [`HOT_BATCH`], then warm along [`NEAR_BATCHES`], each
/// from the previous entry, as the server's family index chains them.
pub fn record_reference(reference: &mut Reference, threads: usize) {
    let w = Workload::ServeMixed;
    let optimizer = w.optimizer(threads);
    let (objective, mode) = (w.objective(), w.mode());
    let timed = |f: &dyn Fn() -> Result<DesignPoint, OptimizeError>| {
        let t = Instant::now();
        let point = f().expect("serve pool shapes are feasible");
        (point, t.elapsed().as_secs_f64() * 1e3)
    };
    for shape in serve_universe() {
        let cold = shape.layer(COLD_BATCH);
        let (point, ms) = timed(&|| optimizer.optimize_layer(&cold, objective, &mode));
        reference.insert(TABLE, &cold.name, point.score(objective), ms);
        let hot = shape.layer(HOT_BATCH);
        let (mut donor, ms) = timed(&|| optimizer.optimize_layer(&hot, objective, &mode));
        reference.insert(TABLE, &hot.name, donor.score(objective), ms);
        let mut donor_batch = HOT_BATCH;
        for batch in NEAR_BATCHES {
            let near = shape.layer(batch);
            let (point, ms) = timed(&|| {
                near_miss_solve(&optimizer, &near, objective, &mode, &donor, donor_batch)
            });
            reference.insert(TABLE, &near.name, point.score(objective), ms);
            (donor, donor_batch) = (point, batch);
        }
    }
}

/// Applies `edit` to the number at `path` in a response body.
fn tamper(body: &str, path: &[&str], edit: impl Fn(f64) -> f64) -> Result<String, String> {
    fn walk(v: &mut Json, path: &[&str], edit: &dyn Fn(f64) -> f64) -> bool {
        match (v, path) {
            (Json::Num(n), []) => {
                *n = edit(*n);
                true
            }
            (Json::Arr(items), [first, rest @ ..]) => first
                .parse::<usize>()
                .ok()
                .and_then(|i| items.get_mut(i))
                .is_some_and(|item| walk(item, rest, edit)),
            (Json::Obj(fields), [first, rest @ ..]) => fields
                .iter_mut()
                .find(|(k, _)| k == first)
                .is_some_and(|(_, item)| walk(item, rest, edit)),
            _ => false,
        }
    }
    let mut v = Json::parse(body).map_err(|e| e.to_string())?;
    if !walk(&mut v, path, &edit) {
        return Err(format!("no number at {path:?}"));
    }
    Ok(v.emit())
}

/// Serves one hot shape twice from a real server and checks that the
/// fill and the hit pass, that the hit equals the fill, and that tampered
/// copies of the served design fail.
pub fn selftest_served(reference: &Reference) -> Result<(), String> {
    let (hot, _) = plan(1, 1.0);
    let layer = hot[0].layer(HOT_BATCH);
    let server = Server::start(false)?;
    let body = optimize_body(&layer);
    let fill = http(server.port, "POST", "/optimize", Some(&body))?;
    let hit = http(server.port, "POST", "/optimize", Some(&body))?;
    server.stop();
    let (_, fill_text) = check_served(reference, &layer, fill.0, &fill.1, false, true)?;
    let (_, hit_text) = check_served(reference, &layer, hit.0, &hit.1, true, false)?;
    if fill_text != hit_text {
        return Err("the hit differs from its fill".into());
    }
    let tampered = [
        tamper(&fill.1, &["eval", "energy_pj"], |x| x * (1.0 + 1e-12))?,
        tamper(&fill.1, &["eval", "cycles"], |x| x + 1.0)?,
        tamper(&fill.1, &["mapping", "register_factors", "0"], |x| x * 2.0)?,
        tamper(&fill.1, &["arch", "regs_per_pe"], |x| x * 2.0)?,
    ];
    for (i, t) in tampered.iter().enumerate() {
        if check_served(reference, &layer, 200, t, false, true).is_ok() {
            return Err(format!("tampered served design #{i} passed the check"));
        }
        let v = Json::parse(t).map_err(|e| e.to_string())?;
        if design_text(&v).as_deref() == Some(fill_text.as_str()) {
            return Err(format!("tampered served design #{i} reads as its fill"));
        }
    }
    Ok(())
}
