//! The untraced run: one client thread on one connection to an
//! in-process `nra-serve` front, keeping a fixed number of requests
//! outstanding (a closed loop) until the deadline, then draining.

use crate::workload::{Inputs, Req};
use nra_serve::{decode_response, spawn, Client, Outcome, ServeConfig, ServeReport};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The serving configuration under test: the defaults (rewrite
/// optimiser over the compiled backend, batch window 16, default
/// admission policy, no eviction) with one worker per core of the
/// 2-core reference box.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// A spawned, warmed server.
pub struct Server {
    client: Client,
    handle: JoinHandle<ServeReport>,
}

impl Server {
    /// Spawn the front and send each warm-up request once, waiting for
    /// its answer. Panics if a warm-up answer is wrong: nothing would be
    /// worth measuring.
    pub fn start(inputs: &Inputs) -> Server {
        let (mut client, handle) = spawn(config());
        for (i, req) in inputs.warmup.iter().enumerate() {
            let id = u64::MAX - i as u64;
            client
                .tx
                .send_line(&req.frame(id))
                .expect("server inbox open");
            let line = client.rx.recv_line().expect("server answers warm-up");
            if let Err(e) = check(req, &line) {
                panic!("warm-up {} answered wrongly: {e}", req.root);
            }
        }
        Server { client, handle }
    }

    /// Ask the server to drain and exit; wait for its thread.
    pub fn stop(self) -> ServeReport {
        self.client.shutdown().expect("server inbox open");
        self.handle.join().expect("server thread exits cleanly")
    }
}

/// What the closed loop observed. Times are nanoseconds since the
/// first send; index = request index.
pub struct Run {
    /// Raw response line per sent request; `None` if none arrived.
    pub responses: Vec<Option<String>>,
    /// When each request was sent.
    pub sent_ns: Vec<u64>,
    /// When each response arrived.
    pub arrived_ns: Vec<Option<u64>>,
    /// First send → last arrival, drain included.
    pub elapsed: Duration,
    /// The server's closing books.
    pub report: ServeReport,
}

fn id_of(line: &str) -> Option<usize> {
    let id: u64 = line.split(';').nth(1)?.parse().ok()?;
    usize::try_from(id).ok()?.checked_sub(1)
}

/// Drive `server` with `concurrency` requests outstanding for
/// `seconds`, then drain and stop it.
pub fn run(mut server: Server, inputs: &Inputs, concurrency: usize, seconds: f64) -> Run {
    let requests = &inputs.requests;
    let start = Instant::now();
    let phase = Duration::from_secs_f64(seconds);
    let mut sent_ns: Vec<u64> = Vec::with_capacity(requests.len());
    let send = |server: &Server, sent_ns: &mut Vec<u64>| {
        let i = sent_ns.len();
        let frame = requests[i].frame(i as u64 + 1);
        sent_ns.push(start.elapsed().as_nanos() as u64);
        server.client.tx.send_line(&frame).is_ok()
    };

    let mut outstanding = 0usize;
    while outstanding < concurrency && sent_ns.len() < requests.len() {
        outstanding += usize::from(send(&server, &mut sent_ns));
    }
    let mut responses: Vec<Option<String>> = vec![None; requests.len()];
    let mut arrived_ns: Vec<Option<u64>> = vec![None; requests.len()];
    let mut last = Duration::ZERO;
    while outstanding > 0 {
        let Some(line) = server.client.rx.recv_line() else {
            break; // server gone: the rest stay unanswered
        };
        last = start.elapsed();
        let Some(i) = id_of(&line).filter(|&i| i < sent_ns.len()) else {
            continue; // unmatched: the request it belongs to stays unanswered
        };
        if responses[i].is_none() {
            outstanding -= 1;
            arrived_ns[i] = Some(last.as_nanos() as u64);
        }
        responses[i] = Some(line);
        if last < phase && sent_ns.len() < requests.len() {
            outstanding += usize::from(send(&server, &mut sent_ns));
        }
    }
    responses.truncate(sent_ns.len());
    arrived_ns.truncate(sent_ns.len());
    if sent_ns.len() == requests.len() && last < phase {
        eprintln!("warning: the pre-generated sequence ran out before the deadline");
    }
    let report = server.stop();
    Run {
        responses,
        sent_ns,
        arrived_ns,
        elapsed: last,
        report,
    }
}

/// Check one response line against the request's reference.
pub fn check(req: &Req, line: &str) -> Result<(), String> {
    use crate::workload::Expect;
    let resp = decode_response(line).map_err(|e| format!("undecodable response: {e}"))?;
    match (&resp.outcome, req.expect.as_ref()) {
        (Outcome::Ok { value, .. }, Expect::Answer(want)) if value == want => Ok(()),
        (Outcome::Ok { value, .. }, Expect::Answer(want)) => Err(format!(
            "{}: wrong answer ({} elements, reference has {})",
            req.root,
            value.cardinality().unwrap_or(0),
            want.cardinality().unwrap_or(0)
        )),
        (Outcome::Rejected { reason }, Expect::RejectExponential)
            if reason.contains("Theorem 4.1") =>
        {
            Ok(())
        }
        (Outcome::Rejected { reason }, _) => Err(format!("{}: rejected: {reason}", req.root)),
        (Outcome::Ok { .. }, Expect::RejectExponential) => Err(format!(
            "{}: admitted a certified-exponential query",
            req.root
        )),
        (Outcome::Failed { detail }, _) => Err(format!("{}: failed: {detail}", req.root)),
    }
}
