//! The query mix: a seeded pool of `markov_blanket` / `marginal` /
//! `posterior` queries, their wire bodies, and the exact answer the
//! service must return for each, rendered from a `QueryEngine` the same
//! way the server renders it.

use crate::workload::mix;
use least_bn::linalg::Xoshiro256pp;
use least_bn::serve::{JsonValue, QueryEngine};

/// Evidence nodes per `posterior` query.
const EVIDENCE: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    MarkovBlanket,
    Marginal,
    Posterior,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::MarkovBlanket, Kind::Marginal, Kind::Posterior];

    pub fn label(self) -> &'static str {
        match self {
            Kind::MarkovBlanket => "markov_blanket",
            Kind::Marginal => "marginal",
            Kind::Posterior => "posterior",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Query {
    pub kind: Kind,
    pub node: usize,
    pub evidence: Vec<(usize, f64)>,
}

impl Query {
    /// A fixed posterior query, the probe sent to each freshly learned
    /// model.
    pub fn probe() -> Self {
        Query {
            kind: Kind::Posterior,
            node: 0,
            evidence: vec![(1, 0.5)],
        }
    }

    pub fn random(d: usize, kind: Kind, rng: &mut Xoshiro256pp) -> Self {
        let node = rng.next_below(d);
        let mut evidence = Vec::new();
        if kind == Kind::Posterior {
            while evidence.len() < EVIDENCE.min(d - 1) {
                let e = rng.next_below(d);
                if e != node && !evidence.iter().any(|&(x, _)| x == e) {
                    // Two decimals: the value's text round-trips exactly.
                    evidence.push((e, (rng.gaussian() * 100.0).round() / 100.0));
                }
            }
        }
        Query {
            kind,
            node,
            evidence,
        }
    }

    /// The `POST /models/{id}/query` body.
    pub fn body(&self) -> String {
        match self.kind {
            Kind::MarkovBlanket => format!(r#"{{"kind":"markov_blanket","node":{}}}"#, self.node),
            Kind::Marginal => format!(r#"{{"kind":"marginal","target":{}}}"#, self.node),
            Kind::Posterior => {
                let pairs: Vec<String> = self
                    .evidence
                    .iter()
                    .map(|(n, v)| format!("[{n},{v}]"))
                    .collect();
                format!(
                    r#"{{"kind":"posterior","target":{},"evidence":[{}]}}"#,
                    self.node,
                    pairs.join(",")
                )
            }
        }
    }

    /// The response body the service owes for this query on `engine`.
    pub fn answer(&self, engine: &QueryEngine) -> String {
        let kind = JsonValue::Str(self.kind.label().into());
        match self.kind {
            Kind::MarkovBlanket => {
                let nodes = engine.markov_blanket(self.node).expect("node in range");
                JsonValue::obj(vec![("kind", kind), ("nodes", JsonValue::num_array(nodes))])
            }
            Kind::Marginal | Kind::Posterior => {
                let g = engine
                    .posterior(self.node, &self.evidence, &[])
                    .expect("node in range");
                JsonValue::obj(vec![
                    ("kind", kind),
                    ("target", JsonValue::Num(self.node as f64)),
                    ("mean", JsonValue::Num(g.mean)),
                    ("variance", JsonValue::Num(g.variance)),
                ])
            }
        }
        .render()
    }

    /// Evaluate on `engine` without rendering (the engine-layer timing).
    pub fn evaluate(&self, engine: &QueryEngine) -> f64 {
        match self.kind {
            Kind::MarkovBlanket => engine
                .markov_blanket(self.node)
                .expect("node in range")
                .len() as f64,
            Kind::Marginal | Kind::Posterior => {
                engine
                    .posterior(self.node, &self.evidence, &[])
                    .expect("node in range")
                    .mean
            }
        }
    }
}

/// A model the traffic targets: its id, dimension and share of queries.
#[derive(Debug, Clone)]
pub struct Target {
    pub model: String,
    pub d: usize,
    pub weight: f64,
}

/// One pool entry: which target, the query, and its encoded request.
#[derive(Debug, Clone)]
pub struct Entry {
    pub target: usize,
    pub query: Query,
    pub request: Vec<u8>,
}

/// The fixed, seeded query pool a run's traffic cycles through.
#[derive(Debug)]
pub struct Pool {
    pub entries: Vec<Entry>,
}

impl Pool {
    pub fn new(seed: u64, targets: &[Target], size: usize) -> Self {
        let mut rng = Xoshiro256pp::new(mix(seed, 0x9E7));
        let total: f64 = targets.iter().map(|t| t.weight).sum();
        let entries = (0..size)
            .map(|i| {
                let mut pick = rng.next_f64() * total;
                let target = targets
                    .iter()
                    .position(|t| {
                        pick -= t.weight;
                        pick < 0.0
                    })
                    .unwrap_or(targets.len() - 1);
                let kind = Kind::ALL[i % Kind::ALL.len()];
                let query = Query::random(targets[target].d, kind, &mut rng);
                let path = format!("/models/{}/query", targets[target].model);
                let request = crate::client::encode("POST", &path, query.body().as_bytes());
                Entry {
                    target,
                    query,
                    request,
                }
            })
            .collect();
        Self { entries }
    }

    /// Expected answers per entry on the given per-target engines.
    pub fn answers(&self, engines: &[&QueryEngine]) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| e.query.answer(engines[e.target]))
            .collect()
    }
}
