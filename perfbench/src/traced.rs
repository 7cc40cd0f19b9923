//! The traced run: an in-process replica of the serving loop that calls
//! each layer's public functions in the order `Server::stage` /
//! `Server::run_staged` do, wrapping every call in a span, so the
//! per-layer numbers come from outside the program.
//!
//! The replica replays the served run's exact request sequence as a
//! closed loop with `concurrency` frames outstanding: a batch drains
//! every queued frame (up to the batch window), and each encoded
//! response frees a slot that the next request fills at once, stamped
//! with the time it was queued.
//!
//! Steps per batch, as in the server:
//! `decode_frame` → `output_type` → intern → `optimise_eid` → `admit`
//! (plus the raw-form rescue check) → `partition` →
//! `eval_batch_assigned` → `resolve` → `encode_response`.

use crate::served;
use crate::sys;
use crate::workload::Inputs;
use nra_core::typecheck::output_type;
use nra_core::{EId, ExprArena, VId};
use nra_eval::{eval_batch_assigned, BatchJob, EvalError};
use nra_serve::{
    admit, decode_frame, encode_response, partition, AdmissionDecision, Frame, Outcome, Response,
};
use nra_symbolic::{predict_space, SpaceVerdict};
use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the index of the enclosing span plus
/// one (0 = top level); `req` is the request id (0 for batch-level
/// spans).
struct Span {
    parent: usize,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, parent: usize, req: u64, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    fn close(&mut self, span: usize) -> u64 {
        let end = self.now();
        let s = &mut self.spans[span - 1];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Run `f` inside a span; returns its result and duration (ns).
    fn time<T>(
        &mut self,
        parent: usize,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let span = self.open(parent, req, name);
        let out = f();
        let ns = self.close(span);
        (out, ns)
    }

    /// Self time per span name: duration minus the time its direct
    /// children cover, in first-seen name order.
    fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Write every span as tab-separated lines.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The outcome tag (`ok`, `rejected`, `failed`) of a response line.
fn outcome_tag(line: &str) -> &str {
    line.split(';').nth(2).unwrap_or("?")
}

/// Sums the replica folds as it goes; per-request means are taken at
/// the end.
#[derive(Default)]
struct Sums {
    requests: u64,
    batches: u64,
    decode_ns: u64,
    encode_ns: u64,
    request_bytes: u64,
    response_bytes: u64,
    intern_ns: u64,
    values_added: u64,
    opt_ns: u64,
    roots_changed: u64,
    rules_fired: u64,
    opt_rescues: u64,
    admission_ns: u64,
    symbolic_ns: u64,
    rescue_check_ns: u64,
    rejected_exponential: u64,
    tightness: Vec<f64>,
    budget_violations: u64,
    schedule_ns: u64,
    workers_used: u64,
    eval_ns: u64,
    eval_cpu_s: f64,
    admitted: u64,
    nodes: u64,
    max_object_size: u64,
    answer_size: u64,
    memo_hits: u64,
    memo_misses: u64,
    warm_hits: u64,
    delta_hits: u64,
    while_iterations: u64,
    dense_ops: u64,
    resolve_ns: u64,
    resolved: u64,
    queue_wait_ns: u64,
}

/// An admitted job waiting for the batch's evaluation.
struct Staged {
    slot: usize,
    id: u64,
    query: EId,
    input: VId,
    budget: u64,
}

/// What the traced run reports.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order: `(name, value)`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Self time per span name, in nanoseconds.
    pub self_times: Vec<(&'static str, u64)>,
    /// Request ids on which the replica disagreed with the served run.
    pub disagreements: Vec<String>,
    /// Observed `max_object_size` ÷ declared budget over evaluations
    /// that derived at least one node, sorted ascending.
    pub tightness: Vec<f64>,
}

/// Replay `served_lines.len()` requests of `inputs` through the
/// replica, compare every response with the served one, and write the
/// spans to `spans_path`.
pub fn replay(
    inputs: &Inputs,
    served_lines: &[Option<String>],
    served_rescued: u64,
    served_wall_s: f64,
    concurrency: usize,
    spans_path: &Path,
) -> Traced {
    let config = served::config();
    let mut server = nra_serve::Server::new(config.clone());
    // the served run's warm-up, untraced
    let warmup: Vec<_> = inputs
        .warmup
        .iter()
        .map(|r| match decode_frame(&r.frame(0)) {
            Ok(Frame::Request(request)) => request,
            other => panic!("warm-up frame decodes to a request: {other:?}"),
        })
        .collect();
    server.process_batch(&warmup);
    let session = server.session();

    let sent = served_lines.len();
    let mut tracer = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut sums = Sums::default();
    let mut seen_roots = HashSet::new();
    let mut disagreements = Vec::new();
    let mut rescued = 0u64;
    let mut queue: VecDeque<(usize, u64)> = (0..concurrency.min(sent)).map(|i| (i, 0)).collect();
    let mut next = queue.len();

    while !queue.is_empty() {
        let take = queue.len().min(config.batch_window.max(1));
        let batch: Vec<(usize, u64)> = queue.drain(..take).collect();
        let bspan = tracer.open(0, 0, "batch");
        let batch_start = tracer.now();
        sums.batches += 1;

        // stage every frame: one response slot per frame, filled by a
        // rejection now or by the evaluation below
        let mut slots: Vec<Option<Response>> = vec![None; batch.len()];
        let mut staged = Vec::new();
        for (slot, &(i, queued_ns)) in batch.iter().enumerate() {
            sums.queue_wait_ns += batch_start.saturating_sub(queued_ns);
            sums.requests += 1;
            let id = i as u64 + 1;
            let line = inputs.requests[i].frame(id);
            sums.request_bytes += line.len() as u64;
            let (frame, ns) = tracer.time(bspan, id, "wire.decode", || decode_frame(&line));
            sums.decode_ns += ns;
            let Ok(Frame::Request(request)) = frame else {
                panic!("request {id}: generated frame does not decode");
            };
            let reject = |reason: String| Response {
                tenant: request.tenant.clone(),
                id,
                outcome: Outcome::Rejected { reason },
            };
            let (typed, _) = tracer.time(bspan, id, "typecheck", || {
                request
                    .input
                    .infer_type()
                    .map_or(Ok(()), |dom| output_type(&request.query, &dom).map(drop))
            });
            if let Err(e) = typed {
                slots[slot] = Some(reject(format!("ill-typed query for this input: {e}")));
                continue;
            }

            let before = session.values().len();
            let ((raw, input), ns) = tracer.time(bspan, id, "intern", || {
                (
                    session.intern_expr(&request.query),
                    session.intern_value(&request.input),
                )
            });
            sums.intern_ns += ns;
            sums.values_added += (session.values().len() - before) as u64;

            if seen_roots.insert(raw) {
                // rule fire counts for a new root, on a private arena:
                // the tracer's own work, spanned so it is not
                // unattributed
                let (stats, _) = tracer.time(bspan, id, "trace.opt_stats", || {
                    let mut ea = ExprArena::new();
                    let root = ea.intern(&request.query);
                    nra_opt::optimise_with_stats(&mut ea, root).1
                });
                sums.rules_fired += stats.fired.values().sum::<u64>();
                sums.opt_rescues += stats.rescues;
            }
            let (query, ns) = tracer.time(bspan, id, "opt", || session.optimise_eid(raw));
            sums.opt_ns += ns;
            sums.roots_changed += u64::from(query != raw);

            let size = session.values().size(input);
            let card = session.values().cardinality(input).map_or(0, |c| c as u64);
            let (_, ns) = tracer.time(bspan, id, "admission.symbolic", || {
                predict_space(query, session.exprs(), size, card)
            });
            sums.symbolic_ns += ns;
            let (decision, ns) = tracer.time(bspan, id, "admission", || {
                admit(session, query, input, &config.policy)
            });
            sums.admission_ns += ns;
            match decision {
                AdmissionDecision::Admitted(a) => {
                    let rescue = query != raw && {
                        let (raw_decision, ns) =
                            tracer.time(bspan, id, "admission.rescue_check", || {
                                admit(session, raw, input, &config.policy)
                            });
                        sums.rescue_check_ns += ns;
                        matches!(raw_decision, AdmissionDecision::Rejected(_))
                    };
                    rescued += u64::from(rescue);
                    if rescue != inputs.requests[i].rescue {
                        disagreements.push(format!("{id}: rescue {rescue} in the replica"));
                    }
                    staged.push(Staged {
                        slot,
                        id,
                        query,
                        input,
                        budget: a.budget,
                    });
                }
                AdmissionDecision::Rejected(r) => {
                    if matches!(r.verdict, SpaceVerdict::Exponential { .. }) {
                        sums.rejected_exponential += 1;
                    }
                    slots[slot] = Some(reject(r.reason));
                }
            }
        }

        if !staged.is_empty() {
            let pairs: Vec<_> = staged.iter().map(|s| (s.query, s.input)).collect();
            let (assignment, ns) = tracer.time(bspan, 0, "schedule", || {
                partition(session, &pairs, config.workers)
            });
            sums.schedule_ns += ns;
            sums.workers_used += assignment.iter().filter(|w| !w.is_empty()).count() as u64;
            let jobs: Vec<BatchJob> = staged
                .iter()
                .map(|s| BatchJob {
                    query: s.query,
                    input: s.input,
                    max_object_size: Some(s.budget),
                })
                .collect();
            let cpu_before = sys::cpu_seconds();
            let (evals, ns) = tracer.time(bspan, 0, "eval", || {
                eval_batch_assigned(session, &jobs, &assignment)
            });
            sums.eval_cpu_s += sys::cpu_seconds() - cpu_before;
            sums.eval_ns += ns;

            for (job, ev) in staged.iter().zip(evals) {
                let budget = job.budget;
                let st = &ev.stats;
                sums.admitted += 1;
                sums.nodes += st.nodes;
                sums.max_object_size += st.max_object_size;
                sums.memo_hits += st.memo_hits;
                sums.memo_misses += st.memo_misses;
                sums.warm_hits += st.warm_hits;
                sums.delta_hits += st.delta_hits;
                sums.while_iterations += st.while_iterations;
                sums.dense_ops += st.dense_ops;
                if st.nodes > 0 {
                    // a fully warm evaluation derives nothing: no
                    // observation to compare with its budget
                    sums.tightness
                        .push(st.max_object_size as f64 / budget.max(1) as f64);
                }
                if st.max_object_size > budget
                    || matches!(ev.result, Err(EvalError::SpaceBudgetExceeded { .. }))
                {
                    sums.budget_violations += 1;
                }
                let outcome = match ev.result {
                    Ok(out) => {
                        sums.answer_size += session.values().size(out);
                        let (value, ns) =
                            tracer.time(bspan, job.id, "resolve", || session.resolve(out));
                        sums.resolve_ns += ns;
                        sums.resolved += 1;
                        Outcome::Ok {
                            declared_budget: budget,
                            value,
                        }
                    }
                    Err(e) => Outcome::Failed {
                        detail: e.to_string(),
                    },
                };
                slots[job.slot] = Some(Response {
                    tenant: crate::workload::TENANT.to_string(),
                    id: job.id,
                    outcome,
                });
            }
        }

        // answer in frame order; each answer frees a closed-loop slot
        for (&(i, _), response) in batch.iter().zip(slots) {
            let response = response.expect("every frame answered exactly once");
            let id = response.id;
            let (line, ns) = tracer.time(bspan, id, "wire.encode", || {
                encode_response(&response).expect("responses encode")
            });
            sums.encode_ns += ns;
            sums.response_bytes += line.len() as u64;
            let served = served_lines[i].as_deref();
            if served != Some(line.as_str()) {
                let (mine, theirs) = (outcome_tag(&line), served.map_or("nothing", outcome_tag));
                let detail = if mine == theirs {
                    " (answer or declared budget differs)"
                } else {
                    ""
                };
                disagreements.push(format!(
                    "{id}: replica answered {mine}, served {theirs}{detail}"
                ));
            }
            if next < sent {
                queue.push_back((next, tracer.now()));
                next += 1;
            }
        }
        tracer.close(bspan);
    }
    let wall_ns = tracer.now().max(1);
    if rescued != served_rescued {
        disagreements.push(format!(
            "rescued: {rescued} in the replica, {served_rescued} served"
        ));
    }

    let self_times = tracer.self_times();
    let layer_ns: u64 = self_times
        .iter()
        .filter(|(name, _)| *name != "batch")
        .map(|(_, t)| t)
        .sum();
    let resident_mb = session.approx_resident_bytes() as f64 / (1 << 20) as f64;
    if let Err(e) = tracer.write(spans_path) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    }

    let n = sums.requests.max(1) as f64;
    let b = sums.batches.max(1) as f64;
    let admitted = sums.admitted.max(1) as f64;
    let us = |ns: u64, per: f64| ns as f64 / 1e3 / per;
    let metrics = vec![
        ("wire.decode_us", us(sums.decode_ns, n)),
        ("wire.encode_us", us(sums.encode_ns, n)),
        ("wire.request_bytes", sums.request_bytes as f64 / n),
        ("wire.response_bytes", sums.response_bytes as f64 / n),
        ("intern.us", us(sums.intern_ns, n)),
        ("intern.values_added", sums.values_added as f64 / n),
        ("opt.us", us(sums.opt_ns, n)),
        ("opt.roots_changed_ratio", sums.roots_changed as f64 / n),
        ("opt.rules_fired", sums.rules_fired as f64 / n),
        ("opt.rescues", sums.opt_rescues as f64 / n),
        ("admission.us", us(sums.admission_ns, n)),
        ("admission.symbolic_us", us(sums.symbolic_ns, n)),
        ("admission.rescue_check_us", us(sums.rescue_check_ns, n)),
        (
            "admission.rejected_exponential",
            sums.rejected_exponential as f64 / n,
        ),
        (
            "admission.budget_tightness_p50",
            crate::median(&mut sums.tightness),
        ),
        ("admission.budget_violations", sums.budget_violations as f64),
        ("schedule.us", us(sums.schedule_ns, b)),
        ("schedule.workers_used", sums.workers_used as f64 / b),
        ("eval.batch_ms", sums.eval_ns as f64 / 1e6 / b),
        ("eval.share", sums.eval_ns as f64 / wall_ns as f64),
        (
            "eval.cpu_parallelism",
            sums.eval_cpu_s / (sums.eval_ns as f64 / 1e9).max(1e-9),
        ),
        ("eval.nodes", sums.nodes as f64 / admitted),
        (
            "eval.max_object_size",
            sums.max_object_size as f64 / admitted,
        ),
        (
            "eval.output_per_node",
            sums.answer_size as f64 / sums.nodes.max(1) as f64,
        ),
        (
            "eval.memo_hit_rate",
            sums.memo_hits as f64 / (sums.memo_hits + sums.memo_misses).max(1) as f64,
        ),
        ("eval.warm_hits", sums.warm_hits as f64 / admitted),
        ("eval.delta_hits", sums.delta_hits as f64 / admitted),
        (
            "eval.while_iterations",
            sums.while_iterations as f64 / admitted,
        ),
        ("eval.dense_ops", sums.dense_ops as f64 / admitted),
        (
            "resolve.us",
            us(sums.resolve_ns, sums.resolved.max(1) as f64),
        ),
        ("loop.queue_wait_ms", sums.queue_wait_ns as f64 / 1e6 / n),
        ("loop.jobs_per_batch", n / b),
        (
            "loop.unattributed_share",
            wall_ns.saturating_sub(layer_ns) as f64 / wall_ns as f64,
        ),
        ("store.resident_mb", resident_mb),
        (
            "trace.overhead_ratio",
            wall_ns as f64 / 1e9 / served_wall_s.max(1e-9),
        ),
    ];
    Traced {
        metrics,
        self_times,
        disagreements,
        tightness: sums.tightness,
    }
}
