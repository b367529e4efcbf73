//! The query engine against the `O(d)` formulation it replaced.
//!
//! `QueryEngine` answers inference over the query's ancestor closure and
//! the structural closures over the nodes they visit; it promises the
//! bits of the formulation that walked all `d` nodes per query. The
//! reference below is that code, kept verbatim: one reverse sweep of the
//! whole topological order per path vector, means and covariances as sums
//! over all `d` nodes, and `d`-sized `seen` arrays for the closures.
//!
//! Pass rule: node lists are equal; means and variances compare `==`
//! and have identical bits whenever nonzero (a zero total may differ in
//! sign, because the closure skips the `±0` terms of nodes outside it);
//! every rejected query returns the same `ServeError` variant and
//! message.

use least_graph::{
    erdos_renyi_dag, parent_lists_dense, parent_lists_sparse, weighted_adjacency_dense, DiGraph,
    WeightRange,
};
use least_linalg::{lu::LuFactorization, CsrMatrix, DenseMatrix, LinalgError, Xoshiro256pp};
use least_serve::{
    Gaussian, ModelArtifact, ModelMeta, QueryEngine, Result, ServeError, WeightMatrix,
};

// ---------------------------------------------------------------------
// Reference: the O(d) engine, verbatim apart from its name.
// ---------------------------------------------------------------------

struct RefEngine {
    d: usize,
    parents: Vec<Vec<(u32, f64)>>,
    children: Vec<Vec<u32>>,
    intercepts: Vec<f64>,
    noise_vars: Vec<f64>,
    order: Vec<usize>,
}

impl RefEngine {
    fn from_artifact(artifact: &ModelArtifact) -> Result<Self> {
        let parents = match &artifact.weights {
            WeightMatrix::Dense(w) => parent_lists_dense(w, 0.0),
            WeightMatrix::Sparse(w) => parent_lists_sparse(w, 0.0),
        };
        let d = artifact.dim();
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); d];
        let mut graph = DiGraph::new(d);
        for (v, list) in parents.iter().enumerate() {
            for &(u, _) in list {
                children[u as usize].push(v as u32);
                graph.add_edge(u as usize, v);
            }
        }
        graph.normalize();
        let order = graph.topological_sort().ok_or(ServeError::CyclicModel)?;
        Ok(Self {
            d,
            parents,
            children,
            intercepts: artifact.intercepts.clone(),
            noise_vars: artifact.noise_vars.clone(),
            order,
        })
    }

    fn check_node(&self, v: usize) -> Result<()> {
        if v >= self.d {
            return Err(ServeError::NodeOutOfRange { node: v, d: self.d });
        }
        Ok(())
    }

    fn ancestors(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        let mut seen = vec![false; self.d];
        let mut stack = vec![v];
        while let Some(n) = stack.pop() {
            for &(u, _) in &self.parents[n] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    stack.push(u as usize);
                }
            }
        }
        seen[v] = false;
        Ok((0..self.d).filter(|&n| seen[n]).collect())
    }

    fn descendants(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        let mut seen = vec![false; self.d];
        let mut stack = vec![v];
        while let Some(n) = stack.pop() {
            for &c in &self.children[n] {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    stack.push(c as usize);
                }
            }
        }
        seen[v] = false;
        Ok((0..self.d).filter(|&n| seen[n]).collect())
    }

    fn markov_blanket(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        let mut seen = vec![false; self.d];
        for &(u, _) in &self.parents[v] {
            seen[u as usize] = true;
        }
        for &c in &self.children[v] {
            seen[c as usize] = true;
            for &(co, _) in &self.parents[c as usize] {
                seen[co as usize] = true;
            }
        }
        seen[v] = false;
        Ok((0..self.d).filter(|&n| seen[n]).collect())
    }

    fn posterior(
        &self,
        target: usize,
        evidence: &[(usize, f64)],
        interventions: &[(usize, f64)],
    ) -> Result<Gaussian> {
        self.check_node(target)?;
        let mut role = vec![NodeRole::Free; self.d];
        let mut do_value = vec![0.0; self.d];
        for &(v, x) in interventions {
            self.check_node(v)?;
            if !x.is_finite() {
                return Err(ServeError::InvalidQuery(format!(
                    "non-finite intervention value for node {v}"
                )));
            }
            if role[v] != NodeRole::Free {
                return Err(ServeError::InvalidQuery(format!(
                    "node {v} intervened on twice"
                )));
            }
            role[v] = NodeRole::Intervened;
            do_value[v] = x;
        }
        for &(v, x) in evidence {
            self.check_node(v)?;
            if !x.is_finite() {
                return Err(ServeError::InvalidQuery(format!(
                    "non-finite evidence value for node {v}"
                )));
            }
            match role[v] {
                NodeRole::Free => role[v] = NodeRole::Observed,
                NodeRole::Observed => {
                    return Err(ServeError::InvalidQuery(format!("node {v} observed twice")))
                }
                NodeRole::Intervened => {
                    return Err(ServeError::InvalidQuery(format!(
                        "node {v} is both evidence and intervention"
                    )))
                }
            }
        }
        if role[target] == NodeRole::Intervened {
            return Ok(Gaussian {
                mean: do_value[target],
                variance: 0.0,
            });
        }
        if let NodeRole::Observed = role[target] {
            let &(_, x) = evidence
                .iter()
                .find(|&&(v, _)| v == target)
                .expect("target marked observed");
            return Ok(Gaussian {
                mean: x,
                variance: 0.0,
            });
        }

        // Path-weight vectors for the target and every evidence node.
        let nodes: Vec<usize> = std::iter::once(target)
            .chain(evidence.iter().map(|&(v, _)| v))
            .collect();
        let paths: Vec<Vec<f64>> = nodes.iter().map(|&a| self.path_weights(a, &role)).collect();

        // Source-term means: intercept for free/observed nodes, the pinned
        // value for intervened nodes (whose noise is cut).
        let mean_of = |r: &[f64]| -> f64 {
            r.iter()
                .enumerate()
                .map(|(j, &rj)| {
                    rj * match role[j] {
                        NodeRole::Intervened => do_value[j],
                        _ => self.intercepts[j],
                    }
                })
                .sum()
        };
        let cov_of = |ra: &[f64], rb: &[f64]| -> f64 {
            ra.iter()
                .zip(rb)
                .enumerate()
                .filter(|&(j, _)| role[j] != NodeRole::Intervened)
                .map(|(j, (&a, &b))| a * b * self.noise_vars[j])
                .sum()
        };

        let mu_t = mean_of(&paths[0]);
        let var_t = cov_of(&paths[0], &paths[0]);
        if evidence.is_empty() {
            return Ok(Gaussian {
                mean: mu_t,
                variance: var_t.max(0.0),
            });
        }

        // Exact Gaussian conditioning on the (1+k)-dimensional joint.
        let k = evidence.len();
        let sigma_ee = DenseMatrix::from_fn(k, k, |i, j| cov_of(&paths[i + 1], &paths[j + 1]));
        let sigma_te: Vec<f64> = (0..k).map(|i| cov_of(&paths[0], &paths[i + 1])).collect();
        let beta = match LuFactorization::new(&sigma_ee).and_then(|lu| lu.solve_vec(&sigma_te)) {
            Ok(beta) => beta,
            Err(LinalgError::Singular { .. }) => return Err(ServeError::DegenerateEvidence),
            Err(e) => return Err(e.into()),
        };
        let mut mean = mu_t;
        let mut variance = var_t;
        for (i, &(v, x)) in evidence.iter().enumerate() {
            debug_assert_eq!(nodes[i + 1], v);
            mean += beta[i] * (x - mean_of(&paths[i + 1]));
            variance -= beta[i] * sigma_te[i];
        }
        Ok(Gaussian {
            mean,
            variance: variance.max(0.0),
        })
    }

    fn path_weights(&self, target: usize, role: &[NodeRole]) -> Vec<f64> {
        let mut contrib = vec![0.0; self.d];
        contrib[target] = 1.0;
        for &v in self.order.iter().rev() {
            let cv = contrib[v];
            if cv == 0.0 || role[v] == NodeRole::Intervened {
                continue;
            }
            for &(u, w) in &self.parents[v] {
                contrib[u as usize] += w * cv;
            }
        }
        contrib
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRole {
    Free,
    Observed,
    Intervened,
}

// ---------------------------------------------------------------------
// Models and queries.
// ---------------------------------------------------------------------

fn meta() -> ModelMeta {
    ModelMeta {
        threshold: 0.0,
        fingerprint: "query reference".into(),
    }
}

/// One named model, as a dense and as a CSR artifact.
struct Model {
    name: String,
    w: DenseMatrix,
    intercepts: Vec<f64>,
    noise_vars: Vec<f64>,
}

impl Model {
    fn new(name: &str, w: DenseMatrix, rng: &mut Xoshiro256pp) -> Self {
        let d = w.rows();
        // Mixed-sign intercepts with some exact zeros, and noise variances
        // with some exact zeros (deterministic nodes make degenerate
        // evidence reachable).
        let intercepts = (0..d)
            .map(|_| match rng.next_below(4) {
                0 => 0.0,
                _ => rng.uniform(-1.0, 1.0),
            })
            .collect();
        let noise_vars = (0..d)
            .map(|_| match rng.next_below(10) {
                0 => 0.0,
                _ => rng.uniform(0.1, 2.0),
            })
            .collect();
        Self {
            name: name.into(),
            w,
            intercepts,
            noise_vars,
        }
    }

    fn artifacts(&self) -> [(String, ModelArtifact); 2] {
        let make = |weights| {
            ModelArtifact::new(
                weights,
                self.intercepts.clone(),
                self.noise_vars.clone(),
                meta(),
            )
            .unwrap()
        };
        [
            (
                format!("{} (dense)", self.name),
                make(WeightMatrix::Dense(self.w.clone())),
            ),
            (
                format!("{} (csr)", self.name),
                make(WeightMatrix::Sparse(CsrMatrix::from_dense(&self.w, 0.0))),
            ),
        ]
    }
}

/// Random signed weight with magnitude in `[lo, hi]`.
fn weight(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    let m = rng.uniform(lo, hi);
    if rng.bernoulli(0.5) {
        m
    } else {
        -m
    }
}

fn er(d: usize, rng: &mut Xoshiro256pp) -> DenseMatrix {
    let g = erdos_renyi_dag(d, 2, rng);
    weighted_adjacency_dense(&g, WeightRange::default(), rng)
}

/// ER-8 with magnitudes 0.3–0.8: many nodes collect path weight from
/// three or more children, where the order of their contributions shows.
fn dense_er(d: usize, rng: &mut Xoshiro256pp) -> DenseMatrix {
    let g = erdos_renyi_dag(d, 8, rng);
    weighted_adjacency_dense(&g, WeightRange { lo: 0.3, hi: 0.8 }, rng)
}

/// `0 → 1 → … → d−1`; magnitudes ≤ 1 keep the far path weights finite.
fn chain(d: usize, rng: &mut Xoshiro256pp) -> DenseMatrix {
    let mut w = DenseMatrix::zeros(d, d);
    for v in 1..d {
        w[(v - 1, v)] = weight(rng, 0.5, 1.0);
    }
    w
}

/// Hub 0 with an edge to every other node (`out`) or from every other
/// node (`!out`).
fn star(d: usize, out: bool, rng: &mut Xoshiro256pp) -> DenseMatrix {
    let mut w = DenseMatrix::zeros(d, d);
    for v in 1..d {
        let (a, b) = if out { (0, v) } else { (v, 0) };
        w[(a, b)] = weight(rng, 0.5, 2.0);
    }
    w
}

/// ER-2 among the first half of the nodes; the rest are isolated.
fn half_isolated(d: usize, rng: &mut Xoshiro256pp) -> DenseMatrix {
    let inner = er(d / 2, rng);
    DenseMatrix::from_fn(d, d, |i, j| {
        if i < d / 2 && j < d / 2 {
            inner[(i, j)]
        } else {
            0.0
        }
    })
}

fn models() -> Vec<Model> {
    let mut rng = Xoshiro256pp::new(0x0E_F1_7E);
    let mut models = vec![
        Model::new("single node", DenseMatrix::zeros(1, 1), &mut rng),
        Model::new("two isolated nodes", DenseMatrix::zeros(2, 2), &mut rng),
    ];
    let w = chain(2, &mut rng);
    models.push(Model::new("d=2 edge", w, &mut rng));
    let w = dense_er(50, &mut rng);
    models.push(Model::new("d=50 ER-8", w, &mut rng));
    for d in [50, 1000] {
        let w = er(d, &mut rng);
        models.push(Model::new(&format!("d={d} ER-2"), w, &mut rng));
        let w = chain(d, &mut rng);
        models.push(Model::new(&format!("d={d} chain"), w, &mut rng));
        let w = star(d, true, &mut rng);
        models.push(Model::new(&format!("d={d} out-star"), w, &mut rng));
        let w = star(d, false, &mut rng);
        models.push(Model::new(&format!("d={d} in-star"), w, &mut rng));
        let w = half_isolated(d, &mut rng);
        models.push(Model::new(&format!("d={d} half isolated"), w, &mut rng));
    }
    models
}

/// A node near `v`: an ancestor, a descendant or any node, so evidence
/// lands upstream and downstream of the target.
fn related(reference: &RefEngine, v: usize, rng: &mut Xoshiro256pp) -> usize {
    let pool = match rng.next_below(3) {
        0 => reference.ancestors(v).unwrap(),
        1 => reference.descendants(v).unwrap(),
        _ => Vec::new(),
    };
    if pool.is_empty() {
        rng.next_below(reference.d)
    } else {
        *rng.choose(&pool)
    }
}

struct Query {
    target: usize,
    evidence: Vec<(usize, f64)>,
    interventions: Vec<(usize, f64)>,
}

/// A random query with 0–5 evidence and 0–2 `do` pairs on distinct
/// nodes, sometimes observing or intervening on the target itself.
fn random_query(reference: &RefEngine, rng: &mut Xoshiro256pp) -> Query {
    let d = reference.d;
    let target = rng.next_below(d);
    let mut used = vec![target];
    let mut pick = |rng: &mut Xoshiro256pp| {
        for _ in 0..8 {
            let v = related(reference, target, rng);
            if !used.contains(&v) {
                used.push(v);
                return Some((v, rng.uniform(-3.0, 3.0)));
            }
        }
        None
    };
    let interventions: Vec<_> = (0..rng.next_below(3)).filter_map(|_| pick(rng)).collect();
    let mut evidence: Vec<_> = (0..rng.next_below(6)).filter_map(|_| pick(rng)).collect();
    match rng.next_below(12) {
        0 => evidence.insert(rng.next_below(evidence.len() + 1), (target, 0.25)),
        1 if interventions.is_empty() => {
            return Query {
                target,
                evidence,
                interventions: vec![(target, -0.5)],
            }
        }
        _ => {}
    }
    Query {
        target,
        evidence,
        interventions,
    }
}

/// Queries every check rejects: out-of-range nodes, non-finite values,
/// duplicate and overlapping pairs.
fn invalid_queries(d: usize) -> Vec<Query> {
    let q = |target, evidence: &[(usize, f64)], interventions: &[(usize, f64)]| Query {
        target,
        evidence: evidence.to_vec(),
        interventions: interventions.to_vec(),
    };
    let a = 0;
    let b = d - 1;
    vec![
        q(d, &[], &[]),
        q(a, &[(d + 3, 1.0)], &[]),
        q(a, &[], &[(d, 1.0)]),
        q(a, &[(b, f64::NAN)], &[]),
        q(a, &[(b, f64::NEG_INFINITY)], &[]),
        q(a, &[], &[(b, f64::INFINITY)]),
        q(a, &[(b, 1.0), (b, 2.0)], &[]),
        q(a, &[], &[(b, 1.0), (b, 2.0)]),
        q(a, &[(b, 1.0)], &[(b, 2.0)]),
        // The first offending pair decides the error.
        q(a, &[(b, 1.0), (d, 2.0)], &[(b, f64::NAN)]),
        q(a, &[(d, f64::NAN)], &[(b, 1.0), (b, 2.0)]),
        q(a, &[(a, 1.0), (a, 1.0)], &[]),
    ]
}

fn same_answer(what: &str, got: &Result<Gaussian>, want: &Result<Gaussian>) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            for (label, a, b) in [
                ("mean", g.mean, w.mean),
                ("variance", g.variance, w.variance),
            ] {
                assert!(a == b, "{what}: {label} {a:e}, reference {b:e}");
                if a != 0.0 {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {label} bits");
                }
            }
        }
        (Err(g), Err(w)) => {
            assert_eq!(
                std::mem::discriminant(g),
                std::mem::discriminant(w),
                "{what}: error {g:?}, reference {w:?}"
            );
            assert_eq!(g.to_string(), w.to_string(), "{what}");
        }
        _ => panic!("{what}: got {got:?}, reference {want:?}"),
    }
}

#[test]
fn answers_equal_the_full_sweep() {
    let mut rng = Xoshiro256pp::new(0x5EED_0001);
    let (mut answered, mut degenerate) = (0, 0);
    for model in models() {
        for (name, artifact) in model.artifacts() {
            let engine = QueryEngine::from_artifact(&artifact).unwrap();
            let reference = RefEngine::from_artifact(&artifact).unwrap();
            let d = reference.d;
            for v in 0..d.min(60) {
                let v = if d > 60 { rng.next_below(d) } else { v };
                let what = format!("{name}, node {v}");
                assert_eq!(
                    engine.ancestors(v).unwrap(),
                    reference.ancestors(v).unwrap()
                );
                assert_eq!(
                    engine.descendants(v).unwrap(),
                    reference.descendants(v).unwrap()
                );
                assert_eq!(
                    engine.markov_blanket(v).unwrap(),
                    reference.markov_blanket(v).unwrap(),
                    "{what}"
                );
                same_answer(
                    &format!("{what}, marginal"),
                    &engine.marginal(v),
                    &reference.posterior(v, &[], &[]),
                );
            }
            for _ in 0..120 {
                let q = random_query(&reference, &mut rng);
                let what = format!(
                    "{name}, target {} | {:?} do {:?}",
                    q.target, q.evidence, q.interventions
                );
                let want = reference.posterior(q.target, &q.evidence, &q.interventions);
                answered += usize::from(want.is_ok());
                degenerate += usize::from(matches!(want, Err(ServeError::DegenerateEvidence)));
                let got = engine.posterior(q.target, &q.evidence, &q.interventions);
                same_answer(&what, &got, &want);
            }
            for q in invalid_queries(d) {
                let what = format!("{name}, invalid {:?} do {:?}", q.evidence, q.interventions);
                let want = reference.posterior(q.target, &q.evidence, &q.interventions);
                assert!(want.is_err(), "{what}");
                let got = engine.posterior(q.target, &q.evidence, &q.interventions);
                same_answer(&what, &got, &want);
            }
            for v in [d, d + 7] {
                for (got, want) in [
                    (engine.ancestors(v), reference.ancestors(v)),
                    (engine.descendants(v), reference.descendants(v)),
                    (engine.markov_blanket(v), reference.markov_blanket(v)),
                ] {
                    assert_eq!(got.unwrap_err().to_string(), want.unwrap_err().to_string());
                }
            }
        }
    }
    // The query mix must reach both conditioning and its degenerate case.
    assert!(
        answered > 1000 && degenerate > 0,
        "{answered} / {degenerate}"
    );
}
