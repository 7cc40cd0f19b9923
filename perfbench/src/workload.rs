//! The three workloads: seeded request sequences, each request carrying
//! its pre-encoded frame body and an answer computed independently of
//! the serving evaluator.
//!
//! References never go through `nra_eval`'s compiled or interned
//! backends: closures come from `nra_graph`'s BFS closure, the one-shot
//! joins from direct set algebra over edge lists below, ad-hoc queries
//! from the tree oracle `evaluate_tree`, and expected rejections are
//! exactly the bare-`powerset` frames.

use nra_core::generate::{random_expr, GenConfig};
use nra_core::{builder, queries, Expr, Type, Value};
use nra_eval::{evaluate_tree, EvalConfig};
use nra_graph::DiGraph;
use nra_serve::{encode_request, Request};
use nra_testkit::{graphs, Rng};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// The one tenant every frame is submitted under.
pub const TENANT: &str = "bench";

/// Small-family graphs per family in the `mixed_small` pool.
const POOL_PER_FAMILY: usize = 16;
/// Node count of the `road_grid_joins` relations.
pub const ROAD_GRID_NODES: u64 = 256;
/// `road_grid_joins`: one bare `powerset` per this many requests.
const ROAD_POWERSET_EVERY: usize = 8;
/// Depth bound of the `mixed_small` ad-hoc queries.
const ADHOC_DEPTH: u32 = 4;
/// Largest §3 object an ad-hoc query's reference derivation may build:
/// the mix is of *small* queries (a generated term can nest products
/// deep enough to build 10⁷-unit objects, about 1 in 10⁴ draws), so a
/// draw whose tree-oracle derivation exceeds this is discarded.
const ADHOC_MAX_OBJECT_SIZE: u64 = 4096;

type Edges = BTreeSet<(u64, u64)>;
/// A named query with its independent reference.
type Query = (&'static str, Expr, fn(&Edges) -> Edges);

/// A workload by name, with the settings the closed loop runs it at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sub-millisecond mixed traffic: zoo queries over a small-graph
    /// pool, ad-hoc queries, rescues and certified rejections.
    MixedSmall,
    /// Cold one-shot joins over fresh road-grid relations.
    RoadGridJoins,
    /// `tc_while` over fresh graphs of four closure profiles.
    ClosureWhile,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MixedSmall,
        Workload::RoadGridJoins,
        Workload::ClosureWhile,
    ];

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixedSmall => "mixed_small",
            Workload::RoadGridJoins => "road_grid_joins",
            Workload::ClosureWhile => "closure_while",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept outstanding by the closed-loop client.
    pub fn concurrency(self) -> usize {
        match self {
            Workload::MixedSmall => 16,
            Workload::RoadGridJoins | Workload::ClosureWhile => 4,
        }
    }

    /// Generous ceiling on the answered rate, used only to size the
    /// pre-generated request sequence: a run that exhausts it stops
    /// sending early and says so.
    fn max_rate(self) -> f64 {
        match self {
            Workload::MixedSmall => 10_000.0,
            Workload::RoadGridJoins => 40.0,
            Workload::ClosureWhile => 60.0,
        }
    }
}

/// What a correct server answers.
#[derive(Debug, PartialEq)]
pub enum Expect {
    /// `ok` with exactly this value.
    Answer(Value),
    /// `rejected`, citing the Theorem 4.1 bound.
    RejectExponential,
}

/// One request of a workload sequence.
#[derive(Debug, Clone)]
pub struct Req {
    /// The query root, for reports (`"adhoc"` for generated queries).
    pub root: &'static str,
    /// The frame without its `TENANT;ID;` prefix (shared across the
    /// pool's repeats).
    pub body: Arc<str>,
    /// The independent reference.
    pub expect: Arc<Expect>,
    /// The submitted form is inadmissible; the optimiser's rewrite must
    /// rescue it.
    pub rescue: bool,
}

impl Req {
    fn new(root: &'static str, query: &Expr, input: &Value, expect: Arc<Expect>) -> Req {
        let line = encode_request(&Request {
            tenant: TENANT.to_string(),
            id: 0,
            query: query.clone(),
            input: input.clone(),
        })
        .expect("generated frames are encodable");
        let prefix = format!("{TENANT};0;");
        Req {
            root,
            body: Arc::from(&line[prefix.len()..]),
            expect,
            rescue: false,
        }
    }

    /// The wire frame for correlation id `id`.
    pub fn frame(&self, id: u64) -> String {
        format!("{TENANT};{id};{}", self.body)
    }
}

/// A generated workload: the measured sequence plus one warm-up request
/// per distinct query root.
pub struct Inputs {
    /// Requests in send order; request `i` travels with id `i + 1`.
    pub requests: Vec<Req>,
    /// Untimed warm-up requests on tiny inputs (rule-set load and
    /// program compilation land in set-up, not in latency).
    pub warmup: Vec<Req>,
}

/// Generate `workload`'s sequence for a run of `seconds`.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
    let count = (seconds * workload.max_rate()).ceil() as usize + workload.concurrency();
    let mut rng = Rng::new(seed ^ 0x5EED_0000_0000_0000 ^ workload as u64);
    match workload {
        Workload::MixedSmall => mixed_small(&mut rng, count),
        Workload::RoadGridJoins => road_grid_joins(&mut rng, count),
        Workload::ClosureWhile => closure_while(&mut rng, count),
    }
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_below(i + 1));
    }
}

fn relation(edges: &Edges) -> Value {
    Value::relation(edges.iter().copied())
}

fn answer(edges: Edges) -> Arc<Expect> {
    Arc::new(Expect::Answer(relation(&edges)))
}

fn reject() -> Arc<Expect> {
    Arc::new(Expect::RejectExponential)
}

// ---------------------------------------------------------------------------
// Independent references: set algebra over edge lists
// ---------------------------------------------------------------------------

/// `r ∘ r = {(a, d) | (a, b) ∈ r, (b, d) ∈ r}`.
pub fn compose(r: &Edges) -> Edges {
    let mut succ: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(a, b) in r {
        succ.entry(a).or_default().push(b);
    }
    let mut out = Edges::new();
    for &(a, b) in r {
        for &d in succ.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
            out.insert((a, d));
        }
    }
    out
}

/// `r ∪ r ∘ r`.
pub fn tc_step(r: &Edges) -> Edges {
    let mut out = compose(r);
    out.extend(r.iter().copied());
    out
}

/// `{(a, c) | (a, b) ∈ r, (c, b) ∈ r, a ≠ c}`.
pub fn siblings(r: &Edges) -> Edges {
    let mut pred: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(a, b) in r {
        pred.entry(b).or_default().push(a);
    }
    let mut out = Edges::new();
    for sources in pred.values() {
        for &a in sources {
            for &c in sources {
                if a != c {
                    out.insert((a, c));
                }
            }
        }
    }
    out
}

/// Transitive closure by `nra_graph`'s per-source BFS.
pub fn closure(r: &Edges) -> Edges {
    nra_graph::tc(&DiGraph::from_edges(r.iter().copied()))
        .edges()
        .collect()
}

fn chain(n: u64) -> Edges {
    (0..n).map(|i| (i, i + 1)).collect()
}

/// The warm-up request for a zoo root, on a three-edge chain.
fn warm(root: &'static str, query: &Expr, reference: fn(&Edges) -> Edges) -> Req {
    let r = chain(3);
    Req::new(root, query, &relation(&r), answer(reference(&r)))
}

fn warm_powerset() -> Req {
    // powerset of a 20-edge chain: rejected at the door, never evaluated
    Req::new(
        "powerset",
        &builder::powerset(),
        &Value::chain(20),
        reject(),
    )
}

// ---------------------------------------------------------------------------
// mixed_small
// ---------------------------------------------------------------------------

/// Slots of one 16-request block: ¾ zoo, ⅛ ad-hoc, 1/16 rescue, 1/16
/// certified rejection. Each block is shuffled, so every run carries the
/// exact mix in a seeded order.
#[derive(Clone, Copy)]
enum Slot {
    Zoo(usize),
    Adhoc,
    Rescue,
    Powerset,
}

const MIXED_BLOCK: [Slot; 16] = [
    Slot::Zoo(0),
    Slot::Zoo(0),
    Slot::Zoo(0),
    Slot::Zoo(0),
    Slot::Zoo(1),
    Slot::Zoo(1),
    Slot::Zoo(1),
    Slot::Zoo(1),
    Slot::Zoo(2),
    Slot::Zoo(2),
    Slot::Zoo(2),
    Slot::Zoo(2),
    Slot::Adhoc,
    Slot::Adhoc,
    Slot::Rescue,
    Slot::Powerset,
];

fn mixed_small(rng: &mut Rng, count: usize) -> Inputs {
    type Builder = fn(&mut Rng) -> graphs::FamilyGraph;
    let families: [Builder; 7] = [
        graphs::random_chain,
        graphs::random_cycle,
        graphs::random_dag,
        graphs::random_disconnected,
        graphs::random_grid,
        graphs::random_clique,
        graphs::random_sparse,
    ];
    let zoo: [Query; 3] = [
        ("tc_while", queries::tc_while(), closure),
        ("tc_step", queries::tc_step(), tc_step),
        ("siblings_powerset", queries::siblings_powerset(), siblings),
    ];

    // the pool: every zoo query on every pool graph, encoded once
    let mut pool_graphs = Vec::new();
    for build in families {
        for _ in 0..POOL_PER_FAMILY {
            pool_graphs.push(build(rng).edges);
        }
    }
    let pool: Vec<Vec<Req>> = zoo
        .iter()
        .map(|(root, q, reference)| {
            pool_graphs
                .iter()
                .map(|g| Req::new(root, q, &relation(g), answer(reference(g))))
                .collect()
        })
        .collect();
    let rescue: Vec<Req> = (14..=17)
        .map(|n| {
            let mut req = Req::new(
                "tc_paths",
                &queries::tc_paths(),
                &Value::chain(n),
                answer(closure(&chain(n))),
            );
            req.rescue = true;
            req
        })
        .collect();
    let powerset: Vec<Req> = (20..=23)
        .map(|n| Req::new("powerset", &builder::powerset(), &Value::chain(n), reject()))
        .collect();

    // ad-hoc: distinct well-typed powerset- and while-free small
    // queries, each answered by the tree oracle
    let cfg = GenConfig {
        max_depth: ADHOC_DEPTH,
        allow_powerset: false,
        allow_powerset_m: false,
        allow_while: false,
    };
    let mut gen_rng = nra_core::generate::Rng::new(rng.next_u64());
    let mut seen = HashSet::new();
    let mut adhoc = move |rng: &mut Rng| -> Req {
        loop {
            let q = random_expr(&Type::nat_rel(), &cfg, &mut gen_rng);
            if !seen.insert(q.to_string()) {
                continue;
            }
            let input = relation(&pool_graphs[rng.usize_below(pool_graphs.len())]);
            let oracle = EvalConfig {
                max_object_size: Some(ADHOC_MAX_OBJECT_SIZE),
                ..EvalConfig::default()
            };
            if let Ok(value) = evaluate_tree(&q, &input, &oracle).result {
                return Req::new("adhoc", &q, &input, Arc::new(Expect::Answer(value)));
            }
        }
    };

    let mut requests = Vec::with_capacity(count);
    while requests.len() < count {
        let mut block = MIXED_BLOCK;
        shuffle(rng, &mut block);
        for slot in block {
            requests.push(match slot {
                Slot::Zoo(q) => rng.choose(&pool[q]).clone(),
                Slot::Adhoc => adhoc(rng),
                Slot::Rescue => rng.choose(&rescue).clone(),
                Slot::Powerset => rng.choose(&powerset).clone(),
            });
        }
    }
    requests.truncate(count);

    let mut warmup: Vec<Req> = zoo
        .iter()
        .map(|(root, q, reference)| warm(root, q, *reference))
        .collect();
    warmup.push(warm("tc_paths", &queries::tc_paths(), closure));
    warmup.push(warm_powerset());
    Inputs { requests, warmup }
}

// ---------------------------------------------------------------------------
// road_grid_joins
// ---------------------------------------------------------------------------

fn road_grid_joins(rng: &mut Rng, count: usize) -> Inputs {
    let joins: [Query; 3] = [
        ("tc_step", queries::tc_step(), tc_step),
        ("compose_rel", queries::compose_rel(), compose),
        ("siblings_direct", queries::siblings_direct(), siblings),
    ];
    let mut requests = Vec::with_capacity(count);
    'fill: loop {
        // one fresh relation per three joins, in a seeded order
        let g = graphs::road_grid(rng, ROAD_GRID_NODES).edges;
        let input = relation(&g);
        let mut order = [0usize, 1, 2];
        shuffle(rng, &mut order);
        for j in order {
            if requests.len() % ROAD_POWERSET_EVERY == ROAD_POWERSET_EVERY - 1 {
                let q = builder::powerset();
                requests.push(Req::new("powerset", &q, &input, reject()));
            }
            let (root, q, reference) = &joins[j];
            requests.push(Req::new(root, q, &input, answer(reference(&g))));
            if requests.len() >= count {
                break 'fill;
            }
        }
    }
    requests.truncate(count);
    let mut warmup: Vec<Req> = joins
        .iter()
        .map(|(root, q, reference)| warm(root, q, *reference))
        .collect();
    warmup.push(warm_powerset());
    Inputs { requests, warmup }
}

// ---------------------------------------------------------------------------
// closure_while
// ---------------------------------------------------------------------------

/// The four closure profiles, one of each per block of four requests.
const CLOSURE_SHAPES: [(&str, u64); 4] = [
    ("road_grid", 32),
    ("power_law", 64),
    ("power_law", 96),
    ("two_community", 20),
];

fn closure_while(rng: &mut Rng, count: usize) -> Inputs {
    let q = queries::tc_while();
    let mut requests = Vec::with_capacity(count);
    while requests.len() < count {
        let mut block = CLOSURE_SHAPES;
        shuffle(rng, &mut block);
        for (family, n) in block {
            let g = match family {
                "road_grid" => graphs::road_grid(rng, n),
                "power_law" => graphs::power_law(rng, n),
                _ => graphs::two_community(rng, n),
            }
            .edges;
            requests.push(Req::new("tc_while", &q, &relation(&g), answer(closure(&g))));
        }
    }
    requests.truncate(count);
    Inputs {
        requests,
        warmup: vec![warm("tc_while", &q, closure)],
    }
}
