//! The serve probe of the traced run: a resident `parpat serve` on TCP
//! loopback, driven first in a closed loop (socket overhead against a
//! mirror engine in process, and one edit per model) and then by an
//! open-loop generator.
//!
//! The generator opens one connection per host core (never more) and
//! sends on a fixed schedule, whatever the server's pace: requests that
//! cannot be served yet queue in the socket, and each request is timed
//! from the moment it was due. Each model is pinned to one connection,
//! so its requests reach the server in order.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use parpat_engine::stats::json_str;
use parpat_engine::{AnalysisOutcome, BatchInput, Engine, EngineConfig};
use parpat_serve::{parse_json, ServeConfig, Server};

use crate::common::{self, Ctx, Tally};
use crate::edits::Editable;
use crate::report::ServeProbe;
use crate::trace::Tracer;

/// Arrival rate of the open-loop leg, requests per second. It is the
/// highest rung of an earlier fixed-rate ladder (50, 100, 200 and 700
/// requests/s of edits, resubmissions and lints against the bundled
/// models, one connection per core on a 2-core host) whose tail latency
/// stayed under 100 ms for every one of ten seeds; 200 requests/s met
/// that limit for six. The leg thus loads the server without saturating
/// it, so generator lag and unanswered requests show a slower server.
const PROBE_RATE: f64 = 100.0;
/// Length of the open-loop leg, seconds.
const PROBE_SECONDS: f64 = 2.0;
/// Open-loop mix: the three kinds of request an editor sends (one-function
/// edits, unchanged resubmissions, lints), in equal shares, since nothing
/// observed favours one kind.
const PROBE_MIX: [(Kind, usize); 3] = [(Kind::Edit, 1), (Kind::Resubmit, 1), (Kind::Lint, 1)];
/// Closed-loop rounds over the probe's programs: the first fills both
/// caches, the second edits (where asked), the rest resubmit.
const ROUNDS: usize = 6;
/// How long a response may take before the request counts as timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A count-preserving single-function edit, then analyze.
    Edit,
    /// Analyze the model's current text again.
    Resubmit,
    /// Lint the model's current text.
    Lint,
}

/// One planned request.
#[derive(Debug, Clone)]
struct Planned {
    /// Request ordinal (also its wire id).
    id: u64,
    /// What it asks for.
    kind: Kind,
    /// Model name.
    name: String,
    /// Source sent.
    source: String,
    /// Due time, seconds after the open loop starts.
    due: f64,
    /// Connection it goes out on.
    conn: usize,
}

/// One answered (or unanswered) request.
#[derive(Debug, Clone)]
struct Outcome {
    /// The request.
    req: Planned,
    /// How late it was sent, seconds.
    lag: f64,
    /// Due-to-response latency, seconds; `None` when it timed out.
    latency: Option<f64>,
    /// The response line.
    response: String,
}

/// A model under edit.
struct Model {
    name: String,
    text: Editable,
}

/// The bundled suite models that have an editable site.
fn editable_models() -> Vec<Model> {
    parpat_suite::all_apps()
        .iter()
        .filter_map(|a| Some(Model { name: a.name.to_owned(), text: Editable::new(a.model)? }))
        .collect()
}

/// Plan `n` open-loop requests at `rate`. Requests are drawn in seeded
/// blocks that pair every model with each slot of [`PROBE_MIX`] once, so
/// every seed offers the same composition in a different order. An edit
/// changes its model, and the model's later requests send the edited
/// text; a model's requests all go out on one connection, in order.
fn plan(
    models: &mut [Model],
    rng: &mut u64,
    rate: f64,
    n: usize,
    conns: usize,
    first_id: u64,
) -> Vec<Planned> {
    let slots: Vec<Kind> =
        PROBE_MIX.iter().flat_map(|&(kind, k)| std::iter::repeat_n(kind, k)).collect();
    let mut block: Vec<(usize, Kind)> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if block.is_empty() {
            block = (0..models.len()).flat_map(|m| slots.iter().map(move |&k| (m, k))).collect();
            shuffle(&mut block, rng);
        }
        let (m, kind) = block.pop().expect("refilled above");
        if kind == Kind::Edit {
            models[m].text.edit(parpat_minilang::genprog::xorshift64(rng));
        }
        out.push(Planned {
            id: first_id + i as u64,
            kind,
            name: models[m].name.clone(),
            source: models[m].text.source.clone(),
            due: i as f64 / rate,
            conn: m % conns,
        });
    }
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (parpat_minilang::genprog::xorshift64(rng) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

fn request_line(p: &Planned) -> String {
    let cmd = if p.kind == Kind::Lint { "lint" } else { "analyze" };
    format!(
        "{{\"id\": \"r{}\", \"cmd\": \"{cmd}\", \"name\": {}, \"source\": {}}}\n",
        p.id,
        json_str(&p.name),
        json_str(&p.source)
    )
}

/// One client connection speaking the line protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
        Conn { writer: stream, reader }
    }

    fn read(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(line.trim_end().to_owned()),
            _ => None,
        }
    }

    fn call(&mut self, line: &str) -> Option<String> {
        self.writer.write_all(line.as_bytes()).ok()?;
        self.read()
    }
}

/// A running server with its connections.
struct Service {
    server: Server,
    conns: Vec<Conn>,
}

impl Service {
    /// Start a server with `jobs` workers and open `jobs` connections.
    fn start(jobs: usize) -> Service {
        let server = Server::start(ServeConfig {
            tcp: Some("127.0.0.1:0".to_owned()),
            workers: jobs,
            cache_dir: None,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let addr = server.tcp_addr().expect("tcp listener").to_string();
        let conns = (0..jobs).map(|_| Conn::open(&addr)).collect();
        Service { server, conns }
    }

    /// Stop the server over the first connection and wait for it.
    fn stop(mut self) {
        let _ = self.conns[0].call("{\"cmd\": \"shutdown\"}\n");
        self.conns.clear();
        self.server.wait();
    }

    /// Open loop: send each planned request when it is due, whatever the
    /// server's pace, and read responses on a separate thread per
    /// connection.
    fn open_loop(&mut self, reqs: Vec<Planned>) -> Vec<Outcome> {
        let mut per_conn: Vec<Vec<Planned>> = vec![Vec::new(); self.conns.len()];
        for r in reqs {
            per_conn[r.conn].push(r);
        }
        let start = Instant::now() + Duration::from_millis(20);
        let outs: Vec<Vec<Outcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(per_conn)
                .map(|(conn, reqs)| {
                    let Conn { writer, reader } = conn;
                    let (tx, rx) = mpsc::channel::<(Planned, Instant)>();
                    let lines: Vec<String> = reqs.iter().map(request_line).collect();
                    let sender = s.spawn(move || {
                        for (req, line) in reqs.into_iter().zip(lines) {
                            let due = start + common::secs(req.due);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let sent = Instant::now();
                            let ok = writer.write_all(line.as_bytes()).is_ok();
                            if tx.send((req, sent)).is_err() || !ok {
                                break;
                            }
                        }
                    });
                    let receiver = s.spawn(move || {
                        let mut out = Vec::new();
                        // After one timeout the connection is written off:
                        // the rest of its requests count as timed out.
                        let mut alive = true;
                        for (req, sent) in rx {
                            let due = start + common::secs(req.due);
                            let mut line = String::new();
                            let got =
                                alive && matches!(reader.read_line(&mut line), Ok(n) if n > 0);
                            alive = got;
                            let at = Instant::now();
                            out.push(Outcome {
                                lag: sent.saturating_duration_since(due).as_secs_f64(),
                                latency: got
                                    .then(|| at.saturating_duration_since(due).as_secs_f64()),
                                response: line.trim_end().to_owned(),
                                req,
                            });
                        }
                        out
                    });
                    (sender, receiver)
                })
                .collect();
            handles
                .into_iter()
                .map(|(snd, rcv)| {
                    snd.join().expect("sender");
                    rcv.join().expect("receiver")
                })
                .collect()
        });
        let mut all: Vec<Outcome> = outs.into_iter().flatten().collect();
        all.sort_by_key(|o| o.req.id);
        all
    }
}

/// Checks every response against references computed outside the server:
/// a cold `Engine::analyze_one` report of the same source (fresh engine per
/// distinct source), and `lint_source` for lints. An edit must re-analyze
/// exactly the edited function.
#[derive(Default)]
struct ResponseChecker {
    outcomes: Vec<Outcome>,
}

impl ResponseChecker {
    fn add(&mut self, outs: &[Outcome]) {
        self.outcomes.extend_from_slice(outs);
    }

    /// Edits kept, and the functions their responses say were re-analyzed.
    fn edits(&self) -> (u64, u64) {
        self.outcomes
            .iter()
            .filter(|o| o.req.kind == Kind::Edit)
            .fold((0, 0), |(n, f), o| (n + 1, f + funcs_reanalyzed(&o.response).unwrap_or(0)))
    }

    /// Check everything kept. A shed, timed-out or wrong response fails,
    /// and so does an edit that re-analyzed any other number of functions
    /// than one.
    fn finish(self, tally: &mut Tally, jobs: usize) {
        let mut distinct: Vec<&str> = self
            .outcomes
            .iter()
            .filter(|o| o.req.kind != Kind::Lint)
            .map(|o| o.req.source.as_str())
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        let cold: HashMap<&str, String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs.max(1))
                .map(|w| {
                    let distinct = &distinct;
                    s.spawn(move || {
                        (w..distinct.len())
                            .step_by(jobs.max(1))
                            .map(|i| (distinct[i], cold_report(distinct[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reference")).collect()
        });
        let mut lints: HashMap<&str, String> = HashMap::new();
        for o in &self.outcomes {
            let r = &o.response;
            let ok = o.latency.is_some()
                && match o.req.kind {
                    Kind::Lint => {
                        let want = lints.entry(o.req.source.as_str()).or_insert_with(|| {
                            let d: Vec<String> = parpat_static::lint_source(&o.req.source)
                                .iter()
                                .map(parpat_static::Diagnostic::to_json)
                                .collect();
                            format!(", \"status\": \"ok\", \"diagnostics\": [{}]}}", d.join(", "))
                        });
                        r.ends_with(want.as_str())
                    }
                    kind => {
                        r.ends_with(cold[o.req.source.as_str()].as_str())
                            && (kind != Kind::Edit || funcs_reanalyzed(r) == Some(1))
                    }
                }
                && r.starts_with(&format!("{{\"id\": \"r{}\", ", o.req.id));
            tally.check(ok, || {
                format!(
                    "request r{} ({:?} {}): {}",
                    o.req.id,
                    o.req.kind,
                    o.req.name,
                    match (o.latency, o.req.kind, funcs_reanalyzed(r)) {
                        (None, _, _) => "timed out".to_owned(),
                        (_, Kind::Edit, Some(f)) if f != 1 => {
                            format!("the edit re-analyzed {f} functions")
                        }
                        _ => r.chars().take(160).collect(),
                    }
                )
            });
        }
    }
}

/// How a response to analyzing `source` must end: the outcome of a cold
/// `Engine::analyze_one` on a fresh engine, rendered as the server
/// renders it.
fn cold_report(source: &str) -> String {
    let engine = Engine::new(EngineConfig::default()).expect("in-memory engine");
    let out = engine.analyze_one(&BatchInput { name: "ref".into(), source: source.into() });
    match out.outcome {
        AnalysisOutcome::Ok(r) => format!(", \"report\": {}}}", r.to_json()),
        AnalysisOutcome::Degraded(d) => {
            format!(", \"status\": \"degraded\", \"degraded\": {}}}", d.to_json())
        }
        AnalysisOutcome::Err(e) => format!(", \"status\": \"error\", \"error\": {}}}", e.to_json()),
    }
}

fn funcs_reanalyzed(response: &str) -> Option<u64> {
    parse_json(response).ok()?.get("funcs_reanalyzed")?.as_num().map(|n| n as u64)
}

/// The serve probe, over the bundled suite models that have an editable
/// site: per-request socket overhead against the same request analyzed in
/// process on a mirror engine, one edit per model, then a short open-loop
/// leg of edits, resubmissions and lints.
pub fn probe(ctx: &Ctx, tally: &mut Tally) -> ServeProbe {
    let tracer = Tracer::new();
    let mut checker = ResponseChecker::default();
    let mirror = Engine::new(EngineConfig {
        watchdog: Some(parpat_runtime::WatchdogConfig::default()),
        ..Default::default()
    })
    .expect("in-memory engine");
    let session = mirror.open_session();
    let mut service = Service::start(ctx.jobs);
    let mut models = editable_models();
    let mut overhead = Vec::new();
    let mut id = 0;
    for round in 0..ROUNDS {
        for (i, m) in models.iter_mut().enumerate() {
            let kind = if round == 1 {
                m.text.edit(i as u64);
                Kind::Edit
            } else {
                Kind::Resubmit
            };
            id += 1;
            let req = Planned {
                id,
                kind,
                name: m.name.clone(),
                source: m.text.source.clone(),
                due: 0.0,
                conn: 0,
            };
            let line = request_line(&req);
            let (rt, response) = tracer.span("serve.request", None, id, |_| {
                let t = Instant::now();
                let r = service.conns[0].call(&line);
                (t.elapsed().as_secs_f64(), r)
            });
            let input = BatchInput { name: req.name.clone(), source: req.source.clone() };
            let inproc = tracer.span("serve.inprocess", None, id, |_| {
                let t = Instant::now();
                std::hint::black_box(mirror.analyze_in_session(&session, &input));
                t.elapsed().as_secs_f64()
            });
            if round >= 2 {
                overhead.push((rt - inproc) * 1e3);
            }
            let response = response.unwrap_or_default();
            checker.add(&[Outcome { req, lag: 0.0, latency: Some(rt), response }]);
        }
    }
    let mut rng = ctx.seed ^ 0x0b5e_7e00_0000_0001;
    let n = (PROBE_RATE * PROBE_SECONDS) as usize;
    let reqs = plan(&mut models, &mut rng, PROBE_RATE, n, ctx.jobs, 1_000_000);
    let outs = service.open_loop(reqs);
    let lags: Vec<f64> = outs.iter().map(|o| o.lag * 1e3).collect();
    let answered = outs
        .iter()
        .filter(|o| o.latency.is_some() && !o.response.contains("\"code\": \"overloaded\""))
        .count() as u64;
    checker.add(&outs);
    service.stop();
    let (edits, funcs_reanalyzed) = checker.edits();
    checker.finish(tally, ctx.jobs);
    ServeProbe {
        overhead_ms: overhead,
        gen_lag_ms: lags,
        sent: n as u64,
        answered,
        edits,
        funcs_reanalyzed,
        spans: tracer.spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_plan_mixes_kinds_evenly_and_edits_carry_over() {
        let mut models = editable_models();
        let n = 2 * PROBE_MIX.len() * models.len();
        let mut rng = 7;
        let reqs = plan(&mut models, &mut rng, 100.0, n, 2, 0);
        for (kind, _) in PROBE_MIX {
            assert_eq!(reqs.iter().filter(|r| r.kind == kind).count(), n / PROBE_MIX.len());
        }
        let mut last: HashMap<&str, (&str, usize)> = HashMap::new();
        for r in &reqs {
            if let Some((prev, conn)) = last.get(r.name.as_str()) {
                assert_eq!(*conn, r.conn, "{}: one connection per model", r.name);
                assert_eq!(*prev != r.source, r.kind == Kind::Edit, "{}: {:?}", r.name, r.kind);
            }
            last.insert(&r.name, (&r.source, r.conn));
        }
        assert!(reqs.windows(2).all(|w| w[1].due > w[0].due), "due times increase");
    }
}
