//! Serve-layer chaos harness: sustained mixed hostile load against a
//! server with fault injection armed. The service must never panic, must
//! answer every successful valid request with a report byte-identical to
//! the one-shot path, and must answer everything else — shed, timed-out,
//! faulted, malformed — with a structured error code.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use parpat_engine::{AnalysisOutcome, BatchInput, Engine, EngineConfig};
use parpat_serve::client::RetryPolicy;
use parpat_serve::{parse_json, ChaosConfig, Client, Json, ServeConfig, Server};

/// A program whose interpreter run is long enough to cross the
/// cooperative cancellation poll cadence, so an expired deadline is
/// actually observed mid-run.
const HEAVY: &str = "fn main() {
    let x = 0;
    for i in 0..200000 { x = x + 1; }
    return x;
}";

/// Error codes a client may legitimately see under chaos + overload.
const STRUCTURED_CODES: &[&str] =
    &["injected-fault", "overloaded", "worker-lost", "deadline", "idle-timeout", "shutting-down"];

/// The one-shot reference reports, the same path `parpat batch --json`
/// renders from.
fn oneshot_reports() -> HashMap<String, String> {
    let engine = Engine::new(EngineConfig::default()).expect("engine");
    parpat_suite::all_apps()
        .iter()
        .map(|app| {
            let outcome = engine.analyze_one(&BatchInput {
                name: app.name.to_owned(),
                source: app.model.to_owned(),
            });
            match outcome.outcome {
                AnalysisOutcome::Ok(r) => (app.name.to_owned(), r.to_json()),
                other => panic!("{} did not analyze cleanly: {other:?}", app.name),
            }
        })
        .collect()
}

/// Assert one response line is a well-formed protocol answer: `ok` with a
/// report byte-identical to the one-shot reference, `degraded` with a
/// reason, or a structured error from the known set.
fn check_response(app: &str, response: &str, expected: &HashMap<String, String>) {
    let v = parse_json(response)
        .unwrap_or_else(|e| panic!("{app}: unparseable response `{response}`: {e}"));
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {
            let want = &expected[app];
            let suffix = format!(", \"report\": {want}}}");
            assert!(
                response.ends_with(&suffix),
                "{app}: successful report differs from the one-shot path:\n{response}"
            );
        }
        Some("degraded") => {
            assert!(v.get("degraded").is_some(), "{app}: degraded without a report: {response}");
        }
        Some("error") => {
            let code = v.get("code").and_then(Json::as_str).unwrap_or("<missing>");
            assert!(
                STRUCTURED_CODES.contains(&code),
                "{app}: unexpected error code `{code}`: {response}"
            );
            assert!(v.get("message").and_then(Json::as_str).is_some(), "{response}");
        }
        other => panic!("{app}: unexpected status {other:?}: {response}"),
    }
}

#[test]
fn chaos_soak_survives_mixed_hostile_traffic_without_panics() {
    let expected = Arc::new(oneshot_reports());
    let cfg = ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        workers: 4,
        max_connections: 6,
        queue_depth: 2,
        idle_timeout_ms: 1_500,
        chaos: Some(ChaosConfig { seed: 0xD1CE_D1CE, fault_permille: 250 }),
        cache_dir: None,
        watchdog: false,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.tcp_addr().expect("tcp listener").to_string();

    // Four well-behaved clients hammering the full bundled suite with
    // retries armed: sheds are absorbed, and every terminal answer is
    // checked for byte-identity or a structured code.
    let valid: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                client.set_retry_policy(RetryPolicy {
                    attempts: 5,
                    base_ms: 2,
                    max_ms: 20,
                    seed: 0xBEEF + i,
                });
                for app in parpat_suite::all_apps() {
                    let response = client.analyze_app(app.name).expect("round-trip");
                    check_response(app.name, &response, &expected);
                }
            })
        })
        .collect();

    // A deadline-abusing client: impossible budgets on a heavy program
    // must come back as structured degraded/deadline outcomes, never
    // hang.
    let deadline_addr = addr.clone();
    let deadline_client = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&deadline_addr).expect("connect");
        client.set_retry_policy(RetryPolicy { attempts: 5, base_ms: 2, max_ms: 20, seed: 9 });
        for _ in 0..3 {
            let response = client.analyze_within("heavy.ml", HEAVY, 1).expect("round-trip");
            let v = parse_json(&response).expect("valid JSON");
            match v.get("status").and_then(Json::as_str) {
                Some("degraded") => {
                    assert!(response.contains("deadline"), "degraded without reason: {response}");
                }
                Some("error") => {
                    let code = v.get("code").and_then(Json::as_str).unwrap_or("<missing>");
                    assert!(STRUCTURED_CODES.contains(&code), "{response}");
                }
                // A cached hit can answer before the expired deadline is
                // ever consulted; byte-stable success is fine too.
                Some("ok") => {}
                other => panic!("unexpected status {other:?}: {response}"),
            }
        }
    });

    // Socket-level chaos: byte-dribbled frames, torn disconnects, and
    // garbage. Every line these peers manage to read back must still be
    // a structured JSON answer.
    let hostile: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for round in 0..4 {
                    match (i + round) % 3 {
                        // A torn disconnect mid-frame.
                        0 => {
                            if let Ok(mut s) = TcpStream::connect(&addr) {
                                let _ = s.write_all(b"{\"cmd\": \"ana");
                                drop(s);
                            }
                        }
                        // A byte-dribbled — but eventually complete —
                        // valid request.
                        1 => {
                            if let Ok(mut s) = TcpStream::connect(&addr) {
                                let _ = s.set_read_timeout(Some(Duration::from_secs(20)));
                                for b in b"{\"cmd\": \"apps\"}\n" {
                                    if s.write_all(&[*b]).is_err() {
                                        break;
                                    }
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                                let mut line = String::new();
                                if BufReader::new(s).read_line(&mut line).is_ok()
                                    && !line.trim().is_empty()
                                {
                                    let v = parse_json(line.trim_end()).unwrap_or_else(|e| {
                                        panic!("unparseable hostile response `{line}`: {e}")
                                    });
                                    assert!(v.get("status").is_some(), "{line}");
                                }
                            }
                        }
                        // Garbage lines: structured errors, not panics.
                        _ => {
                            if let Ok(mut s) = TcpStream::connect(&addr) {
                                let _ = s.set_read_timeout(Some(Duration::from_secs(20)));
                                let _ = s.write_all(b"\xff\xfe\n{\"nope\": 1}\n");
                                let mut reader = BufReader::new(s);
                                for _ in 0..2 {
                                    let mut line = String::new();
                                    match reader.read_line(&mut line) {
                                        Ok(n) if n > 0 && !line.trim().is_empty() => {
                                            let v =
                                                parse_json(line.trim_end()).unwrap_or_else(|e| {
                                                    panic!("unparseable `{line}`: {e}")
                                                });
                                            assert_eq!(
                                                v.get("status").and_then(Json::as_str),
                                                Some("error"),
                                                "{line}"
                                            );
                                        }
                                        _ => break,
                                    }
                                }
                            }
                        }
                    }
                }
            })
        })
        .collect();

    for h in valid {
        h.join().expect("valid client panicked");
    }
    deadline_client.join().expect("deadline client panicked");
    for h in hostile {
        h.join().expect("hostile client panicked");
    }

    // The service is still fully responsive after the storm, and the
    // overload counters surfaced in the stats snapshot.
    let mut survivor = Client::connect_tcp(&addr).expect("connect after soak");
    survivor.set_retry_policy(RetryPolicy { attempts: 8, base_ms: 2, max_ms: 20, seed: 1 });
    let stats_line = survivor.stats().expect("stats after soak");
    let v = parse_json(&stats_line).expect("valid JSON");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{stats_line}");
    let stats = v.get("stats").expect("stats object");
    for field in ["requests_shed", "deadline_exceeded", "retries_client"] {
        assert!(stats.get(field).and_then(Json::as_num).is_some(), "missing {field}: {stats_line}");
    }
    assert!(
        stats.get("requests").and_then(Json::as_num).unwrap_or(0.0) > 0.0,
        "the soak registered requests: {stats_line}"
    );

    server.request_shutdown();
    let final_stats = server.wait();
    assert!(final_stats.requests > 0);
}

#[test]
fn a_server_side_deadline_cap_cancels_a_heavy_request() {
    let cfg = ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        request_deadline_ms: Some(1),
        cache_dir: None,
        watchdog: false,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // No client-side deadline: the server's own cap arms the cancel. The
    // static stages complete, so the structured answer is a degraded
    // report carrying the deadline reason.
    let response = client.analyze("heavy.ml", HEAVY).expect("round-trip");
    let v = parse_json(&response).expect("valid JSON");
    match v.get("status").and_then(Json::as_str) {
        Some("degraded") => {
            assert!(response.contains("deadline"), "degraded without a deadline reason: {response}")
        }
        Some("error") => {
            assert_eq!(v.get("code").and_then(Json::as_str), Some("deadline"), "{response}")
        }
        other => panic!("a 1 ms budget cannot analyze 200k iterations: {other:?}: {response}"),
    }

    // The cancellation is visible in the session counters.
    let v = parse_json(&client.stats().expect("stats")).expect("valid JSON");
    let exceeded = v
        .get("stats")
        .and_then(|s| s.get("deadline_exceeded"))
        .and_then(Json::as_num)
        .expect("counter");
    assert!(exceeded >= 1.0, "deadline_exceeded counted: {exceeded}");

    server.request_shutdown();
    let final_stats = server.wait();
    assert!(final_stats.deadline_exceeded >= 1);
}

#[test]
fn client_backoff_is_deterministic_and_reconnects_between_attempts() {
    // One slot, zero queue: the slot-holder parks, every retry from the
    // second client is shed with `overloaded` — which exercises the full
    // retry loop: response classified, backoff slept, fresh connection
    // dialed.
    let cfg = ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        max_connections: 1,
        queue_depth: 0,
        cache_dir: None,
        watchdog: false,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let mut holder = Client::connect_tcp(&addr).expect("connect");
    let _ = holder.stats().expect("slot held");

    let policy = RetryPolicy { attempts: 3, base_ms: 10, max_ms: 80, seed: 7 };
    let run = |addr: &str| {
        let mut client = Client::connect_tcp(addr).expect("connect");
        client.set_retry_policy(policy);
        let slept = Arc::new(Mutex::new(Vec::<Duration>::new()));
        let record = Arc::clone(&slept);
        client.set_sleeper(move |d| record.lock().unwrap().push(d));
        let response = client.analyze_app("sort").expect("terminal response");
        let delays = slept.lock().unwrap().clone();
        (response, delays)
    };
    let (first_response, first_delays) = run(&addr);
    let (second_response, second_delays) = run(&addr);

    // Both exhausted their retries against the shed path.
    for response in [&first_response, &second_response] {
        let v = parse_json(response).expect("valid JSON");
        assert_eq!(v.get("code").and_then(Json::as_str), Some("overloaded"), "{response}");
    }
    // attempts=3 → exactly three backoffs, equal-jitter bounded by the
    // doubling-then-capped ceiling: [5,10], [10,20], [20,40] ms.
    assert_eq!(first_delays.len(), 3, "{first_delays:?}");
    for (i, (lo, hi)) in [(5u64, 10u64), (10, 20), (20, 40)].iter().enumerate() {
        let ms = first_delays[i].as_millis() as u64;
        assert!(ms >= *lo && ms <= *hi, "delay {i} = {ms} ms outside [{lo}, {hi}]");
    }
    // Same seed, same arrival order → the same jitter stream, bit for
    // bit, on an entirely separate client.
    assert_eq!(first_delays, second_delays);

    // The server counted every shed arrival: 2 clients × 4 attempts.
    let v = parse_json(&holder.stats().expect("stats")).expect("valid JSON");
    let shed =
        v.get("stats").and_then(|s| s.get("requests_shed")).and_then(Json::as_num).expect("shed");
    assert_eq!(shed, 8.0);

    let _ = holder.shutdown();
    server.wait();
}

#[test]
fn a_retry_marker_on_the_wire_bumps_the_client_retry_counter() {
    let cfg = ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        cache_dir: None,
        watchdog: false,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    // A re-sent request carries `"retry": k`; the counter reflects it in
    // the very response that carries the stats snapshot.
    let response = client.request("{\"cmd\": \"stats\", \"retry\": 1}").expect("round-trip");
    let v = parse_json(&response).expect("valid JSON");
    let retries = v
        .get("stats")
        .and_then(|s| s.get("retries_client"))
        .and_then(Json::as_num)
        .expect("counter");
    assert_eq!(retries, 1.0, "{response}");

    server.request_shutdown();
    let final_stats = server.wait();
    assert_eq!(final_stats.retries_client, 1);
}
