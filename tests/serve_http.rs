//! End-to-end test of the thistle-serve HTTP front end: a server on an
//! ephemeral port answers the same ResNet-18 layer twice, and the second
//! response is a cache hit with an identical design point (the acceptance
//! scenario for the serving layer).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use thistle_arch::TechnologyParams;
use thistle_repro::thistle::{Optimizer, OptimizerOptions};
use thistle_repro::thistle_serve::{HttpServer, Json, Service, ServiceOptions};
use thistle_workloads::resnet18;

fn quick_service() -> Service {
    let optimizer =
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 200,
            top_solutions: 1,
            threads: 2,
            ..OptimizerOptions::default()
        });
    Service::new(
        optimizer,
        ServiceOptions {
            workers: 2,
            cache_capacity: 32,
            default_timeout: Duration::from_secs(600),
            ..ServiceOptions::default()
        },
    )
}

/// Minimal HTTP/1.1 client: one request per connection (the server replies
/// `Connection: close`), returning `(status, headers + body text)`.
fn http_raw(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, response)
}

/// As [`http_raw`], but parses the body as JSON.
fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, Json) {
    let (status, response) = http_raw(port, method, path, body);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    (status, Json::parse(body).expect("JSON body"))
}

#[test]
fn second_post_of_the_same_resnet_layer_is_a_cache_hit() {
    let service = Arc::new(quick_service());
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    let (status, health) = http(port, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // resnet_12 (Table II row 12: 512x512 channels, 7x7 image, 3x3 kernel),
    // sent as the documented POST /optimize schema.
    let layer = &resnet18()[11];
    let body = format!(
        concat!(
            "{{\"layer\": {{\"name\": \"{}\", \"batch\": {}, \"out_channels\": {}, ",
            "\"in_channels\": {}, \"in_h\": {}, \"in_w\": {}, \"kernel_h\": {}, ",
            "\"kernel_w\": {}, \"stride\": {}}}, \"objective\": \"energy\", ",
            "\"mode\": \"eyeriss\"}}"
        ),
        layer.name,
        layer.batch,
        layer.out_channels,
        layer.in_channels,
        layer.in_h,
        layer.in_w,
        layer.kernel_h,
        layer.kernel_w,
        layer.stride,
    );

    let (status, first) = http(port, "POST", "/optimize", &body);
    assert_eq!(status, 200, "first solve failed: {}", first.emit());
    assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
    assert_eq!(
        first.get("layer").and_then(Json::as_str),
        Some(layer.name.as_str())
    );

    let (status, second) = http(port, "POST", "/optimize", &body);
    assert_eq!(status, 200);
    assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));

    // Identical design point: same architecture, mapping, and evaluation
    // (f64s survive emission exactly — the emitter is round-trip shortest).
    for field in ["arch", "mapping", "eval"] {
        assert_eq!(
            first.get(field).expect(field).emit(),
            second.get(field).expect(field).emit(),
            "cached {field} differs from the fresh solve"
        );
    }

    // The hit is visible in GET /metrics, along with the span histograms
    // the traced solve filled, the pool's queue wait and the cache
    // occupancy.
    let (status, metrics) = http(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("requests").and_then(Json::as_u64), Some(2));
    assert_eq!(metrics.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(metrics.get("cache_misses").and_then(Json::as_u64), Some(1));
    let cache = metrics.get("cache").expect("cache block");
    assert_eq!(cache.get("len").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("capacity").and_then(Json::as_u64), Some(32));
    assert_eq!(cache.get("insertions").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("evictions").and_then(Json::as_u64), Some(0));
    let queue_wait = metrics.get("queue_wait_ms").expect("queue wait histogram");
    assert_eq!(queue_wait.get("count").and_then(Json::as_u64), Some(1));
    let spans = metrics.get("span_duration_ms").expect("span histograms");
    for stage in ["request", "cache_lookup", "gp_solve", "rescore"] {
        let count = spans
            .get(stage)
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert!(count >= 1, "stage {stage} never recorded");
    }

    // The Prometheus rendering reports the same snapshot as the JSON one.
    let (status, prom) = http_raw(port, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    assert!(
        prom.contains("Content-Type: text/plain"),
        "prometheus response is text: {}",
        prom.lines().take(8).collect::<Vec<_>>().join(" | ")
    );
    assert!(prom.contains("thistle_requests_total 2"));
    assert!(prom.contains("thistle_cache_hits_total 1"));
    assert!(prom.contains("thistle_cache_len 1"));
    assert!(prom.contains("thistle_span_duration_ms_count{span=\"gp_solve\"}"));

    // The fresh solve filed a retrievable SolveReport (id 1); the cache hit
    // reused the cached design point and carries no solve id of its own.
    assert_eq!(first.get("solve_id").and_then(Json::as_u64), Some(1));
    assert_eq!(second.get("solve_id"), Some(&Json::Null));

    let (status, report) = http(port, "GET", "/debug/solves/1", "");
    assert_eq!(status, 200);
    assert_eq!(
        report.get("workload").and_then(Json::as_str),
        Some(layer.name.as_str())
    );
    assert!(report.get("newton_iterations").and_then(Json::as_u64) > Some(0));
    assert!(report.get("centering_steps").and_then(Json::as_u64) > Some(0));
    let gaps = report
        .get("gap_trajectory")
        .and_then(Json::as_arr)
        .expect("gap trajectory");
    assert!(!gaps.is_empty(), "gap trajectory never recorded");

    let (status, index) = http(port, "GET", "/debug/solves", "");
    assert_eq!(status, 200);
    assert_eq!(
        index
            .get("solves")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
    let (status, _) = http(port, "GET", "/debug/solves/99", "");
    assert_eq!(status, 404);

    // Both requests were tail-sampled as exemplars, and each one's full span
    // tree round-trips as Chrome-trace JSON.
    let (status, exemplars) = http(port, "GET", "/debug/exemplars", "");
    assert_eq!(status, 200);
    let list = exemplars
        .get("exemplars")
        .and_then(Json::as_arr)
        .expect("exemplar list");
    assert_eq!(list.len(), 2, "both requests retained as exemplars");
    let id = list[0]
        .get("id")
        .and_then(Json::as_u64)
        .expect("exemplar id");
    let (status, trace) = http(port, "GET", &format!("/debug/exemplars?id={id}"), "");
    assert_eq!(status, 200);
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("Chrome-trace events");
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("request")),
        "request span missing from the exemplar trace"
    );
    let (status, _) = http(port, "GET", "/debug/exemplars?id=9999", "");
    assert_eq!(status, 404);

    // The dashboard renders as a self-contained HTML page.
    let (status, page) = http_raw(port, "GET", "/debug/dashboard", "");
    assert_eq!(status, 200);
    assert!(
        page.contains("Content-Type: text/html"),
        "dashboard is HTML"
    );
    assert!(page.contains("thistle-serve"));
    assert!(page.contains("Recent solves"));

    // Unknown routes 404; malformed bodies 400 with an error message.
    let (status, _) = http(port, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, err) = http(port, "POST", "/optimize", "{\"layer\": {\"batch\": 0}}");
    assert_eq!(status, 400);
    assert!(err.get("error").is_some());

    server.shutdown();
}

/// The `POST /optimize` body for a 16x16-channel 18x18 3x3 layer at `batch`.
fn small_layer_body(name: &str, batch: u64) -> String {
    format!(
        concat!(
            "{{\"layer\": {{\"name\": \"{}\", \"batch\": {}, \"out_channels\": 16, ",
            "\"in_channels\": 16, \"in_h\": 18, \"in_w\": 18, \"kernel_h\": 3, ",
            "\"kernel_w\": 3, \"stride\": 1}}, \"objective\": \"energy\", ",
            "\"mode\": \"eyeriss\"}}"
        ),
        name, batch
    )
}

/// The value of one Prometheus sample line, looked up by its exact series
/// (name plus label set).
fn prom_sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == series).then(|| value.parse().expect("numeric sample"))
        })
        .unwrap_or_else(|| panic!("series {series} missing from:\n{text}"))
}

/// The `/metrics` keys that clients and dashboards read. Every JSON path
/// below must exist in the JSON rendering, and every JSON scalar must equal
/// the value of its Prometheus series, after a cold miss, a cache hit and a
/// batch near-miss.
#[test]
fn metrics_keys_agree_between_json_and_prometheus() {
    let service = Arc::new(quick_service());
    let server = HttpServer::start(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let port = server.port();

    let donor = small_layer_body("b2", 2);
    for (body, hit) in [
        (donor.as_str(), false),
        (donor.as_str(), true),
        (small_layer_body("b4", 4).as_str(), false),
    ] {
        let (status, reply) = http(port, "POST", "/optimize", body);
        assert_eq!(status, 200, "{}", reply.emit());
        assert_eq!(reply.get("cache_hit").and_then(Json::as_bool), Some(hit));
    }

    let (status, json) = http(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let (status, prom) = http_raw(port, "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200);
    let path = |keys: &[&str]| -> f64 {
        let mut v = &json;
        for key in keys {
            v = v
                .get(key)
                .unwrap_or_else(|| panic!("JSON path {keys:?} missing"));
        }
        v.as_f64()
            .unwrap_or_else(|| panic!("JSON path {keys:?} is not a number"))
    };

    let counters = [
        "requests",
        "cache_hits",
        "cache_misses",
        "coalesced",
        "near_miss_hits",
        "shed",
        "browned_out",
        "conn_capped",
        "deadline_closed",
        "solve_errors",
        "timeouts",
        "worker_respawns",
        "solve_retries",
        "cancelled_solves",
        "breaker_opened",
        "breaker_fastfails",
        "degraded_results",
    ];
    for name in counters {
        let series = format!("thistle_{name}_total");
        assert_eq!(path(&[name]), prom_sample(&prom, &series), "{name}");
    }
    let gauges = [
        "in_flight",
        "solve_timeout_ms",
        "queue_depth",
        "brownout_active",
        "atlas_restored_entries",
        "atlas_load_errors",
    ];
    for name in gauges {
        let series = format!("thistle_{name}");
        assert_eq!(path(&[name]), prom_sample(&prom, &series), "{name}");
    }
    for (key, series) in [
        ("len", "thistle_cache_len"),
        ("capacity", "thistle_cache_capacity"),
        ("insertions", "thistle_cache_insertions_total"),
        ("evictions", "thistle_cache_evictions_total"),
    ] {
        assert_eq!(path(&["cache", key]), prom_sample(&prom, series), "{key}");
    }
    for name in ["queue_depth_dist", "solve_latency_ms"] {
        for (key, quantile) in [("p50", "0.5"), ("p95", "0.95")] {
            let series = format!("thistle_{name}{{quantile=\"{quantile}\"}}");
            assert_eq!(path(&[name, key]), prom_sample(&prom, &series), "{name}");
        }
    }
    assert_eq!(
        path(&["queue_depth_dist", "count"]),
        prom_sample(&prom, "thistle_queue_depth_dist_count")
    );

    // The values the three requests imply.
    assert_eq!(path(&["requests"]), 3.0);
    assert_eq!(path(&["cache_hits"]), 1.0);
    assert_eq!(path(&["cache_misses"]), 2.0);
    assert_eq!(path(&["near_miss_hits"]), 1.0);
    assert_eq!(path(&["in_flight"]), 0.0);
    assert_eq!(path(&["queue_depth_dist", "count"]), 2.0);
    assert_eq!(path(&["solve_latency_ms", "count"]), 2.0);
    assert_eq!(path(&["cache", "len"]), 2.0);
    assert_eq!(path(&["cache", "capacity"]), 32.0);
    assert_eq!(path(&["cache", "insertions"]), 2.0);
    assert_eq!(path(&["cache", "evictions"]), 0.0);
    for cause in [
        "generation",
        "infeasible",
        "numerical",
        "invalid",
        "cancelled",
        "solver_panic",
        "integerize_panic",
        "recovered",
        "degraded",
        "stalled",
    ] {
        assert!(path(&["sweep", cause]) >= 0.0, "sweep cause {cause}");
    }

    // Labelled Prometheus series: the phase breakdown and the two
    // instrumented hot-path locks.
    for phase in [
        "parse",
        "queue_wait",
        "lock_wait",
        "coalesce_wait",
        "solve",
        "serialize",
    ] {
        let series = format!("thistle_phase_latency_ms{{phase=\"{phase}\",quantile=\"0.95\"}}");
        assert!(prom_sample(&prom, &series) >= 0.0, "{phase}");
    }
    for lock in ["solve_cache", "inflight"] {
        for family in ["lock_wait_ms", "lock_hold_ms"] {
            let series = format!("thistle_{family}{{lock=\"{lock}\",quantile=\"0.5\"}}");
            assert!(prom_sample(&prom, &series) >= 0.0, "{family} {lock}");
        }
    }

    server.shutdown();
}
