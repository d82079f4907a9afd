//! `serve-warm`: an in-process `leapfrogd` with one shard on loopback,
//! driven by one client connection per core (at most two). After a
//! warm-up pass counted in set-up, each client cycles through the Small
//! standard rows as named `check` requests in its own seeded order, and
//! every few cycles sends a `verify` carrying a utility-row certificate.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use leapfrog::{Engine, Outcome};
use leapfrog_logic::TemplatePair;
use leapfrog_p4a::ast::Automaton;
use leapfrog_serve::{Client, ClientError, Server, ServerOptions};
use leapfrog_suite::Scale;

use crate::inputs::{self, Rng, RowSet};
use crate::trace::{Tracer, VERDICT};
use crate::workloads::{self, Acc, Ctx, Measured};

/// A `verify` follows every this many check cycles of a client.
const VERIFY_EVERY: u64 = 3;

/// Utility rows: the first four standard rows. Their certificates are
/// the ones `verify` requests carry.
const UTILITY_ROWS: usize = 4;

/// What a correct daemon answers, computed in process before set-up.
struct Oracle {
    names: Vec<String>,
    /// Canonical outcome JSON per row: the wire bytes must match.
    outcome_json: Vec<String>,
    /// Certificate JSON of each utility row, for `verify`.
    certificates: Vec<String>,
    /// Certificate, sum automaton and reachable scope per row, for the
    /// probes (the wire certificate is byte-identical to this one).
    probes: Vec<(leapfrog::Certificate, Automaton, Arc<Vec<TemplatePair>>)>,
}

impl Oracle {
    fn build(ctx: &Ctx) -> Result<Oracle, String> {
        let mut tr = Tracer::new(false, ctx.epoch);
        let rows = inputs::build(RowSet::StandardSmall, &mut tr);
        let mut oracle = Oracle {
            names: Vec::new(),
            outcome_json: Vec::new(),
            certificates: Vec::new(),
            probes: Vec::new(),
        };
        for (i, row) in rows.iter().enumerate() {
            let mut engine = Engine::new(ctx.config.clone());
            let pid = engine.prepare_pair(&row.left, row.ql, &row.right, row.qr);
            let scope = engine.reachable(pid);
            let req = row.request(&mut engine, pid);
            let outcome = engine.run_prepared(pid, &req);
            let Outcome::Equivalent(cert) = &outcome else {
                return Err(format!("{}: in-process check did not verify", row.name));
            };
            if i < UTILITY_ROWS {
                oracle.certificates.push(cert.to_json());
            }
            oracle
                .outcome_json
                .push(leapfrog_serve::proto::outcome_to_value(&outcome).render());
            oracle.names.push(row.name.clone());
            oracle.probes.push((cert.clone(), row.sum.clone(), scope));
        }
        leapfrog_obs::trace::set_enabled(false);
        Ok(oracle)
    }
}

/// A running in-process daemon; dropping it shuts it down and joins it.
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(ctx: &Ctx) -> std::io::Result<Daemon> {
        // Built field by field so no `LEAPFROG_*` default can leak in.
        let opts = ServerOptions {
            config: ctx.config.clone(),
            state_dir: None,
            scale: Scale::Small,
            workers: 1,
            queue_depth: 256,
            client_quota: 0,
        };
        let server = Server::bind("127.0.0.1:0", opts)?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            thread: Some(thread),
        })
    }

    fn connect(&self) -> Result<Client, ClientError> {
        Client::connect_timeout(
            self.addr,
            Duration::from_secs(10),
            Some(Duration::from_secs(120)),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.shutdown();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One request a client sends.
#[derive(Clone, Copy)]
enum Request {
    Check(usize),
    Verify(usize),
}

/// Sends one request and checks the answer; records per-layer data when
/// tracing.
fn send(
    client: &mut Client,
    oracle: &Oracle,
    request: &Request,
    tr: &mut Tracer,
    req: u64,
    acc: &mut Acc,
) -> Result<(), String> {
    let overloaded = |e: ClientError, acc: &mut Acc| {
        if matches!(e, ClientError::Overloaded(_)) {
            acc.add("serve.overloaded", 1.0);
        }
        e.to_string()
    };
    match *request {
        Request::Check(i) => {
            let t0 = Instant::now();
            let span = tr.begin("serve.check", req);
            let reply = client.check_named(&oracle.names[i]);
            tr.end(span);
            let rtt = t0.elapsed();
            let reply = reply.map_err(|e| overloaded(e, acc))?;
            if reply.outcome_json != oracle.outcome_json[i] {
                return Err("wire outcome differs from the in-process encoding".into());
            }
            if !tr.on() {
                return Ok(());
            }
            let engine_ms = reply.stats.wall_time.as_secs_f64() * 1e3;
            let rtt_ms = rtt.as_secs_f64() * 1e3;
            acc.add("serve.checks", 1.0);
            acc.add("serve.engine_ms", engine_ms);
            acc.add("serve.overhead_ms", rtt_ms - engine_ms);
            acc.add("serve.reply_bytes", reply.outcome_json.len() as f64);
            workloads::add_run_stats(acc, &reply.stats);
            Ok(())
        }
        Request::Verify(u) => {
            let span = tr.begin("serve.verify", req);
            let reply = client.verify_named(&oracle.names[u], &oracle.certificates[u]);
            tr.end(span);
            let reply = reply.map_err(|e| overloaded(e, acc))?;
            if !reply.ok {
                return Err(format!(
                    "trust root rejected a certificate over the wire [{}]",
                    reply.error_class.unwrap_or_default()
                ));
            }
            Ok(())
        }
    }
}

/// The warm-up pass: every row checked and every utility certificate
/// verified once.
fn warm_up(daemon: &Daemon, oracle: &Oracle, failures: &mut Vec<String>) {
    let mut client = match daemon.connect() {
        Ok(c) => c,
        Err(e) => return failures.push(format!("warm-up connect: {e}")),
    };
    let mut tr = Tracer::new(false, Instant::now());
    let mut acc = Acc::default();
    let requests = (0..oracle.names.len())
        .map(Request::Check)
        .chain((0..UTILITY_ROWS).map(Request::Verify));
    for r in requests {
        if let Err(e) = send(&mut client, oracle, &r, &mut tr, 0, &mut acc) {
            failures.push(format!("warm-up: {e}"));
        }
    }
}

/// What one client measured, its spans, and the traced requests whose
/// probes run once the window is over.
type ClientResult = (Measured, Tracer, Vec<(u64, Request)>);

/// One client's closed loop for `seconds`, and on until it has sent at
/// least `min_requests`.
fn client_loop(
    ctx: &Ctx,
    daemon: &Daemon,
    oracle: &Oracle,
    client_index: u64,
    seconds: f64,
    min_requests: usize,
    traced: bool,
) -> ClientResult {
    let mut out = Measured::default();
    let mut tr = Tracer::new(traced, ctx.epoch);
    let mut probes = Vec::new();
    let mut client = match daemon.connect() {
        Ok(c) => c,
        Err(e) => {
            out.tally(Err(format!("connect: {e}")));
            return (out, tr, probes);
        }
    };
    let mut rng = Rng::new(ctx.seed, 1000 + client_index);
    let start = Instant::now();
    let mut cycle = 0u64;
    let mut request_id = client_index << 48;
    while cycle == 0
        || start.elapsed().as_secs_f64() < seconds
        || (out.attempted as usize) < min_requests
    {
        let mut requests: Vec<Request> = rng
            .permutation(oracle.names.len())
            .into_iter()
            .map(Request::Check)
            .collect();
        if cycle % VERIFY_EVERY == VERIFY_EVERY - 1 {
            let u = (cycle / VERIFY_EVERY + client_index) as usize % UTILITY_ROWS;
            requests.push(Request::Verify(u));
        }
        for r in &requests {
            request_id += 1;
            let t0 = Instant::now();
            let root = tr.begin(VERDICT, request_id);
            let result = send(&mut client, oracle, r, &mut tr, request_id, &mut out.acc);
            tr.end(root);
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            let (kind, row) = match *r {
                Request::Check(i) => ("check", i),
                Request::Verify(u) => ("verify", u),
            };
            let ok = result.is_ok();
            out.tally(result);
            if traced {
                out.traced_latencies_ms.push(dt);
                out.traced_verdicts += 1;
                out.rtt_ms.entry(kind).or_default().push(dt);
                if ok {
                    probes.push((request_id, *r));
                }
            } else {
                out.latencies_ms.push(dt);
                let key = format!("{kind} {}", oracle.names[row]);
                out.row_ms.entry(key).or_default().push(dt);
                out.correct_verdicts += ok as u64;
            }
        }
        cycle += 1;
    }
    (out, tr, probes)
}

/// Runs every client for `seconds` and folds their measurements in.
fn run_clients(
    ctx: &Ctx,
    daemon: &Daemon,
    oracle: &Oracle,
    out: &mut Measured,
    seconds: f64,
    traced: bool,
) {
    leapfrog_obs::trace::set_enabled(traced);
    let start = Instant::now();
    // The clients share the run's minimum of verdicts.
    let min_requests = ctx.min_samples.div_ceil(out.clients);
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..out.clients as u64)
            .map(|c| {
                s.spawn(move || client_loop(ctx, daemon, oracle, c, seconds, min_requests, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if !traced {
        out.window_s += start.elapsed().as_secs_f64();
    }
    leapfrog_obs::trace::set_enabled(false);
    let mut spans = Tracer::new(traced, ctx.epoch);
    let mut probes = Vec::new();
    for (m, tr, p) in results {
        out.absorb(m);
        spans.absorb(tr);
        probes.extend(p);
    }
    // Probes after the window, so they never thin out the load. Per
    // traced check: the client-side certificate encode and the `logic`
    // sweep the warm path still makes. Per traced verify: the trust
    // root's checks, replayed call by call on the certificate it carried.
    for (req, request) in probes {
        let probe = spans.begin("bench.probe", req);
        match request {
            Request::Check(row) => {
                let (cert, aut, scope) = &oracle.probes[row];
                let span = spans.begin("core.cert_encode", req);
                let bytes = cert.to_json().len();
                spans.end(span);
                out.acc.add("core.cert_bytes", bytes as f64);
                workloads::logic_sweep(aut, scope, cert, &mut spans, req, &mut out.acc);
            }
            Request::Verify(u) => {
                let (_, aut, _) = &oracle.probes[u];
                let cert = &oracle.certificates[u];
                let replayed =
                    workloads::certcheck_traced(aut, cert, &mut spans, req, &mut out.acc);
                if let Err(e) = replayed {
                    out.fail(format!("certcheck replay rejected [{}]: {e}", e.class()));
                }
            }
        }
        spans.end(probe);
    }
    out.spans.extend_from_slice(spans.spans());
}

/// `serve-warm`. In the traced run the window is split: untraced first
/// half, traced second half.
pub fn serve_warm(ctx: &Ctx) -> Measured {
    let mut out = Measured::default();
    let oracle = match Oracle::build(ctx) {
        Ok(o) => o,
        Err(e) => {
            out.tally(Err(e));
            return out;
        }
    };
    let mut warm_failures = Vec::new();
    // The daemon builds its own named rows when it starts.
    let mut setups = workloads::Setups::new(ctx, |tr: &mut Tracer| {
        let span = tr.begin("serve.start", 0);
        let daemon = Daemon::start(ctx);
        tr.end(span);
        let daemon = daemon.ok()?;
        let span = tr.begin("serve.warm_up", 0);
        warm_up(&daemon, &oracle, &mut warm_failures);
        tr.end(span);
        Some(daemon)
    });
    let daemon = setups.first();
    setups.finish(&mut out);
    for f in warm_failures {
        out.tally(Err(f));
    }
    let Some(daemon) = daemon else {
        out.tally(Err("daemon failed to start".into()));
        return out;
    };
    out.engine_threads = ctx.config.effective_threads();
    // One connection per core, at most two.
    out.clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    if ctx.trace {
        run_clients(ctx, &daemon, &oracle, &mut out, ctx.seconds / 2.0, false);
        run_clients(ctx, &daemon, &oracle, &mut out, ctx.seconds / 2.0, true);
    } else {
        run_clients(ctx, &daemon, &oracle, &mut out, ctx.seconds, false);
    }
    drop(daemon);
    out
}
