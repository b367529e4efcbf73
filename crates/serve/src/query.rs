//! The read path of a served model: structural queries and exact
//! linear-Gaussian inference.
//!
//! This is the consumer surface bnlearn standardized for fitted BNs —
//! parent sets, Markov blankets, ancestor closures — plus exact posterior
//! means/variances under evidence and `do(·)` interventions.
//!
//! ## Inference without matrix inversion
//!
//! The fitted SEM is `Xᵥ = cᵥ + Σ_{u ∈ pa(v)} W[u,v]·X_u + nᵥ` with
//! independent `nᵥ ~ N(0, σᵥ²)`. Unrolling the recursion expresses any
//! node as a weighted sum of source terms:
//!
//! ```text
//! X_t = Σ_j r_t[j] · s_j,   s_j = c_j + n_j   (or the do() value),
//! ```
//!
//! where `r_t[j]` is the **total path weight** from `j` to `t` — the
//! `(j, t)` entry of `(I − W)⁻¹`. It is nonzero only on the ancestor
//! closure `A` of the query's target and evidence nodes in the mutilated
//! graph (the walk up the parent lists stops at intervened nodes, whose
//! incoming edges the do-calculus cuts). So instead of inverting, one
//! pass over `A` in descending topological position accumulates all
//! `k+1` vectors `r_t` through the parent lists, and means, variances
//! and covariances reduce to sums over `A`:
//!
//! ```text
//! E[X_a]       = Σ_{j∈A} r_a[j]·c_j'          Cov(X_a, X_b) = Σ_{j∈A} r_a[j]·r_b[j]·σⱼ²'
//! ```
//!
//! Conditioning on evidence `E = e` is the exact Gaussian formula on the
//! small `(1+k)×(1+k)` joint of `{target} ∪ E`, solved with the in-tree
//! LU. The pass over `A` is a max-heap over topological positions holding
//! one entry per edge into `A`, so with `e_A` such edges a query costs
//! `O((k+1)·(|A| + e_A) + (k + e_A)·log(k + e_A) + k³)` — no term in `d`
//! and none in the sample size: a query pays for the part of the model it
//! touches, so a d = 1000 ER-2 posterior answers in microseconds and a
//! large sparse model answers as fast as its closures are small. The
//! structural closures (`ancestors`, `descendants`, `markov_blanket`)
//! likewise cost what they visit, times a log factor for the heap and the
//! final sort.
//!
//! ## Bit-identity with the `O(d)` formulation
//!
//! Each answer has the bits of the formulation that walks all `d` nodes
//! once per path vector and sums over all `d` nodes: every path weight
//! receives the same `w·r` updates in the same order (its nonzero entries
//! lie in `A`, and the heap hands each node its children's contributions
//! in descending topological position, as the full reverse sweep does);
//! every sum adds the same terms in ascending node order starting at
//! `−0.0` (as `f64`'s `Sum` does); and the terms it skips are those of
//! nodes outside `A`, each exactly `±0` because `r[j] = +0` there and
//! intercepts (checked by `ModelArtifact::new`), noise variances and `do`
//! values are finite. Adding `±0`
//! can change only the sign of a zero total, so means and variances
//! compare `==`, with identical bits whenever nonzero.
//! `crates/serve/tests/query_reference.rs` keeps the `O(d)` code as the
//! reference and checks this on dense and CSR models up to d = 1000.

use crate::artifact::{ModelArtifact, WeightMatrix};
use crate::error::{Result, ServeError};
use least_graph::{parent_lists_dense, parent_lists_sparse, DiGraph};
use least_linalg::{lu::LuFactorization, DenseMatrix, LinalgError};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BinaryHeap;

/// A (mean, variance) pair — every inference answer is a 1-D Gaussian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance (0 for observed/intervened targets).
    pub variance: f64,
}

/// Immutable query engine compiled from a [`ModelArtifact`].
///
/// Construction pays the `O(nnz)` cost of parent/child lists and the
/// topological order once; every query afterwards is read-only, so a
/// server can share one engine across worker threads behind an `Arc`
/// with no locking on the hot path.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    d: usize,
    /// `parents[v]` = `(u, W[u,v])`, ascending in `u` (shared
    /// representation with LSEM forward sampling).
    parents: Vec<Vec<(u32, f64)>>,
    /// `children[v]` = nodes `w` with `v → w`, ascending.
    children: Vec<Vec<u32>>,
    intercepts: Vec<f64>,
    noise_vars: Vec<f64>,
    order: Vec<usize>,
    /// `pos[v]` = position of `v` in `order`.
    pos: Vec<u32>,
}

impl QueryEngine {
    /// Compile an artifact into a query engine. Fails with
    /// [`ServeError::CyclicModel`] when the weights are not a DAG.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<Self> {
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
        let mut pos = vec![0; d];
        for (at, &v) in order.iter().enumerate() {
            pos[v] = at as u32;
        }
        Ok(Self {
            d,
            parents,
            children,
            intercepts: artifact.intercepts.clone(),
            noise_vars: artifact.noise_vars.clone(),
            order,
            pos,
        })
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// A topological order of the model's DAG.
    pub fn topological_order(&self) -> &[usize] {
        &self.order
    }

    fn check_node(&self, v: usize) -> Result<()> {
        if v >= self.d {
            return Err(ServeError::NodeOutOfRange { node: v, d: self.d });
        }
        Ok(())
    }

    /// Direct parents of `v`, ascending.
    pub fn parents(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        Ok(self.parents[v].iter().map(|&(u, _)| u as usize).collect())
    }

    /// Direct children of `v`, ascending.
    pub fn children(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        Ok(self.children[v].iter().map(|&c| c as usize).collect())
    }

    /// All ancestors of `v` (excluding `v`), ascending — the transitive
    /// "possible root causes" set the monitoring application queries.
    /// `O(e log e)` for the `e` edges into `v` and its ancestors.
    pub fn ancestors(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        Ok(self.reach(v, true, |n| {
            self.parents[n].iter().map(|&(u, _)| u as usize)
        }))
    }

    /// All descendants of `v` (excluding `v`), ascending — the downstream
    /// impact set of an intervention at `v`. `O(e log e)` for the `e`
    /// edges out of `v` and its descendants.
    pub fn descendants(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        Ok(self.reach(v, false, |n| self.children[n].iter().map(|&c| c as usize)))
    }

    /// Markov blanket of `v`: parents ∪ children ∪ co-parents of its
    /// children, excluding `v` itself; ascending. Conditioning on the
    /// blanket renders `v` independent of the rest of the network — the
    /// minimal feature set a downstream consumer needs.
    pub fn markov_blanket(&self, v: usize) -> Result<Vec<usize>> {
        self.check_node(v)?;
        let mut blanket: Vec<usize> = self.parents[v].iter().map(|&(u, _)| u as usize).collect();
        for &c in &self.children[v] {
            blanket.push(c as usize);
            blanket.extend(self.parents[c as usize].iter().map(|&(co, _)| co as usize));
        }
        blanket.sort_unstable();
        blanket.dedup();
        blanket.retain(|&n| n != v);
        Ok(blanket)
    }

    /// Marginal distribution of `v` with no evidence.
    pub fn marginal(&self, v: usize) -> Result<Gaussian> {
        self.posterior(v, &[], &[])
    }

    /// Exact posterior of `target` given observational `evidence` and
    /// `do(·)` `interventions`, each a list of `(node, value)` pairs.
    ///
    /// Evidence is conditioned on (information flows both ways);
    /// interventions mutilate the graph (incoming edges of intervened
    /// nodes are cut), per Pearl's do-calculus.
    pub fn posterior(
        &self,
        target: usize,
        evidence: &[(usize, f64)],
        interventions: &[(usize, f64)],
    ) -> Result<Gaussian> {
        self.check_node(target)?;
        let fixed = self.fixed_nodes(evidence, interventions)?;
        if let Some(&(Fixed::Intervened(x) | Fixed::Observed(x))) = fixed.get(&target) {
            return Ok(Gaussian {
                mean: x,
                variance: 0.0,
            });
        }
        let do_value = |v: usize| {
            if interventions.is_empty() {
                return None; // `fixed` holds evidence only
            }
            match fixed.get(&v) {
                Some(&Fixed::Intervened(x)) => Some(x),
                _ => None,
            }
        };

        // Path-weight vectors for the target (column 0) and every evidence
        // node over the closure, then every mean and (upper-triangle)
        // covariance in one pass in ascending node order. Source-term
        // means: intercept for free/observed nodes, the pinned value for
        // intervened nodes (whose noise is cut).
        let m = evidence.len() + 1;
        let sources = std::iter::once(target).chain(evidence.iter().map(|&(v, _)| v));
        let (nodes, r) = self.path_weights(sources, m, &|v| do_value(v).is_some());
        let mut by_node: Vec<u64> = (nodes.iter().enumerate())
            .map(|(slot, &v)| ((v as u64) << 32) | slot as u64)
            .collect();
        by_node.sort_unstable();
        let mut means = vec![-0.0; m];
        let mut cov = vec![-0.0; m * m];
        for key in by_node {
            let (j, slot) = ((key >> 32) as usize, key as u32 as usize);
            let row = &r[slot * m..(slot + 1) * m];
            if let Some(x) = do_value(j) {
                for (mean, &rj) in means.iter_mut().zip(row) {
                    *mean += rj * x;
                }
                continue;
            }
            let (c, s2) = (self.intercepts[j], self.noise_vars[j]);
            for (a, &ra) in row.iter().enumerate() {
                means[a] += ra * c;
                for (acc, &rb) in cov[a * m + a..(a + 1) * m].iter_mut().zip(&row[a..]) {
                    *acc += ra * rb * s2;
                }
            }
        }

        let mu_t = means[0];
        let var_t = cov[0];
        if evidence.is_empty() {
            return Ok(Gaussian {
                mean: mu_t,
                variance: var_t.max(0.0),
            });
        }

        // Exact Gaussian conditioning on the (1+k)-dimensional joint.
        let k = evidence.len();
        let sigma_ee = DenseMatrix::from_fn(k, k, |i, j| cov[(i.min(j) + 1) * m + i.max(j) + 1]);
        let sigma_te: Vec<f64> = cov[1..m].to_vec();
        let beta = match LuFactorization::new(&sigma_ee).and_then(|lu| lu.solve_vec(&sigma_te)) {
            Ok(beta) => beta,
            Err(LinalgError::Singular { .. }) => return Err(ServeError::DegenerateEvidence),
            Err(e) => return Err(e.into()),
        };
        let mut mean = mu_t;
        let mut variance = var_t;
        for (i, &(_, x)) in evidence.iter().enumerate() {
            mean += beta[i] * (x - means[i + 1]);
            variance -= beta[i] * sigma_te[i];
        }
        Ok(Gaussian {
            mean,
            variance: variance.max(0.0),
        })
    }

    /// Validate a query's evidence and interventions and map each fixed
    /// node to its role and value. Checks run in argument order,
    /// interventions first, so the first offending pair names the error.
    fn fixed_nodes(
        &self,
        evidence: &[(usize, f64)],
        interventions: &[(usize, f64)],
    ) -> Result<BTreeMap<usize, Fixed>> {
        let mut fixed = BTreeMap::new();
        for &(v, x) in interventions {
            self.check_node(v)?;
            if !x.is_finite() {
                return Err(ServeError::InvalidQuery(format!(
                    "non-finite intervention value for node {v}"
                )));
            }
            if fixed.insert(v, Fixed::Intervened(x)).is_some() {
                return Err(ServeError::InvalidQuery(format!(
                    "node {v} intervened on twice"
                )));
            }
        }
        for &(v, x) in evidence {
            self.check_node(v)?;
            if !x.is_finite() {
                return Err(ServeError::InvalidQuery(format!(
                    "non-finite evidence value for node {v}"
                )));
            }
            match fixed.entry(v) {
                Entry::Vacant(slot) => {
                    slot.insert(Fixed::Observed(x));
                }
                Entry::Occupied(slot) => {
                    return Err(ServeError::InvalidQuery(match slot.get() {
                        Fixed::Observed(_) => format!("node {v} observed twice"),
                        Fixed::Intervened(_) => {
                            format!("node {v} is both evidence and intervention")
                        }
                    }))
                }
            }
        }
        Ok(fixed)
    }

    /// Total path weights into each of the `m` distinct, non-intervened
    /// `sources` from every node of their ancestor closure in the
    /// mutilated graph (the walk does not pass through `intervened`
    /// nodes). Returns the closure's nodes in descending topological
    /// position and `r`, where `r[slot·m + i]` is the weight from
    /// `nodes[slot]` into source `i`.
    ///
    /// A max-heap pops the closure in descending position; each entry is
    /// a source or an edge `child → parent` keyed by the parent's position,
    /// then by the child's slot, so a node is complete when it is popped
    /// and receives `w·r[child]` from its children in descending child
    /// position: the same updates, in the same order, as a reverse sweep
    /// of the whole topological order for each source alone.
    fn path_weights(
        &self,
        sources: impl Iterator<Item = usize>,
        m: usize,
        intervened: &impl Fn(usize) -> bool,
    ) -> (Vec<usize>, Vec<f64>) {
        // Key: position (high half), then u32::MAX for a source, else
        // u32::MAX − 1 − child slot. Payload: the source's column, or the
        // edge weight's bits.
        const SOURCE: u32 = u32::MAX;
        let mut heap: BinaryHeap<(u64, u64)> = sources
            .enumerate()
            .map(|(i, v)| (u64::from(self.pos[v]) << 32 | u64::from(SOURCE), i as u64))
            .collect();
        let mut nodes = Vec::new();
        let mut r: Vec<f64> = Vec::new();
        while let Some(&(key, _)) = heap.peek() {
            let at = key >> 32;
            let slot = nodes.len();
            let v = self.order[at as usize];
            nodes.push(v);
            r.resize(r.len() + m, 0.0);
            while let Some(&(key, payload)) = heap.peek().filter(|&&(key, _)| key >> 32 == at) {
                heap.pop();
                let tag = key as u32;
                if tag == SOURCE {
                    r[slot * m + payload as usize] = 1.0;
                    continue;
                }
                let (w, child) = (f64::from_bits(payload), (SOURCE - 1 - tag) as usize);
                for i in 0..m {
                    let cv = r[child * m + i];
                    if cv != 0.0 {
                        r[slot * m + i] += w * cv;
                    }
                }
            }
            if !intervened(v) {
                let tag = u64::from(SOURCE - 1 - slot as u32);
                heap.extend(
                    self.parents[v]
                        .iter()
                        .map(|&(u, w)| (u64::from(self.pos[u as usize]) << 32 | tag, w.to_bits())),
                );
            }
        }
        (nodes, r)
    }

    /// Every node reachable from `v` along `step` (excluding `v`),
    /// ascending. A heap pops the nodes in topological order away from
    /// `v` — descending position for `ancestors` (`upward`), ascending
    /// for `descendants` — so each node's duplicate entries pop together
    /// and are dropped without a visited set.
    fn reach<I: Iterator<Item = usize>>(
        &self,
        v: usize,
        upward: bool,
        step: impl Fn(usize) -> I,
    ) -> Vec<usize> {
        let key = |n: usize| {
            let at = self.pos[n];
            if upward {
                at
            } else {
                u32::MAX - at
            }
        };
        let mut heap: BinaryHeap<u32> = step(v).map(key).collect();
        let mut out = Vec::new();
        while let Some(top) = heap.pop() {
            if out.last().map(|&n| key(n)) == Some(top) {
                continue;
            }
            let at = if upward { top } else { u32::MAX - top };
            let n = self.order[at as usize];
            out.push(n);
            heap.extend(step(n).map(key));
        }
        out.sort_unstable();
        out
    }
}

/// How a query fixes a node, and to which value.
#[derive(Debug, Clone, Copy)]
enum Fixed {
    Observed(f64),
    Intervened(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelMeta;

    fn meta() -> ModelMeta {
        ModelMeta {
            threshold: 0.0,
            fingerprint: "test".into(),
        }
    }

    /// Chain 0 →(2.0) 1 →(3.0) 2, unit noise, zero intercepts.
    fn chain_engine() -> QueryEngine {
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 2.0;
        w[(1, 2)] = 3.0;
        let a =
            ModelArtifact::new(WeightMatrix::Dense(w), vec![0.0; 3], vec![1.0; 3], meta()).unwrap();
        QueryEngine::from_artifact(&a).unwrap()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn structural_queries_on_chain() {
        let e = chain_engine();
        assert_eq!(e.parents(2).unwrap(), vec![1]);
        assert_eq!(e.children(0).unwrap(), vec![1]);
        assert_eq!(e.ancestors(2).unwrap(), vec![0, 1]);
        assert_eq!(e.descendants(0).unwrap(), vec![1, 2]);
        assert_eq!(e.ancestors(0).unwrap(), Vec::<usize>::new());
        let order = e.topological_order();
        assert_eq!(order.len(), 3);
        assert!(order.iter().position(|&v| v == 0) < order.iter().position(|&v| v == 2));
    }

    #[test]
    fn markov_blanket_includes_coparents() {
        // V-structure 0 → 2 ← 1: MB(0) must contain the co-parent 1.
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 2)] = 1.0;
        w[(1, 2)] = 1.0;
        let a =
            ModelArtifact::new(WeightMatrix::Dense(w), vec![0.0; 3], vec![1.0; 3], meta()).unwrap();
        let e = QueryEngine::from_artifact(&a).unwrap();
        assert_eq!(e.markov_blanket(0).unwrap(), vec![1, 2]);
        assert_eq!(e.markov_blanket(2).unwrap(), vec![0, 1]);
    }

    #[test]
    fn marginal_moments_match_hand_computation() {
        let e = chain_engine();
        // X2 = 6·X0 + 3·n1 + n2 ⇒ Var = 36 + 9 + 1 = 46.
        let g = e.marginal(2).unwrap();
        assert!(close(g.mean, 0.0) && close(g.variance, 46.0), "{g:?}");
        let g0 = e.marginal(0).unwrap();
        assert!(close(g0.variance, 1.0));
    }

    #[test]
    fn intercepts_propagate_through_means() {
        let mut w = DenseMatrix::zeros(2, 2);
        w[(0, 1)] = 2.0;
        let a = ModelArtifact::new(
            WeightMatrix::Dense(w),
            vec![1.0, -1.0],
            vec![1.0, 1.0],
            meta(),
        )
        .unwrap();
        let e = QueryEngine::from_artifact(&a).unwrap();
        // E[X1] = c1 + 2·c0 = 1.
        assert!(close(e.marginal(1).unwrap().mean, 1.0));
    }

    #[test]
    fn downstream_evidence_conditions_upstream() {
        let e = chain_engine();
        // Cov(X0, X2) = 6, Var(X2) = 46: classic Gaussian conditioning.
        let g = e.posterior(0, &[(2, 4.6)], &[]).unwrap();
        assert!(close(g.mean, 6.0 * 4.6 / 46.0), "{g:?}");
        assert!(close(g.variance, 1.0 - 36.0 / 46.0), "{g:?}");
    }

    #[test]
    fn upstream_evidence_truncates_variance() {
        let e = chain_engine();
        // Given X0 = x: X2 = 6x + 3·n1 + n2 ⇒ var 10.
        let g = e.posterior(2, &[(0, 1.5)], &[]).unwrap();
        assert!(close(g.mean, 9.0) && close(g.variance, 10.0), "{g:?}");
    }

    #[test]
    fn do_intervention_cuts_incoming_edges() {
        let e = chain_engine();
        // do(X1 = v): X2 = 3v + n2; X0 unaffected.
        let g2 = e.posterior(2, &[], &[(1, 2.0)]).unwrap();
        assert!(close(g2.mean, 6.0) && close(g2.variance, 1.0), "{g2:?}");
        let g0 = e.posterior(0, &[], &[(1, 2.0)]).unwrap();
        assert!(close(g0.mean, 0.0) && close(g0.variance, 1.0), "{g0:?}");
        // Intervened target is a point mass.
        let g1 = e.posterior(1, &[], &[(1, 2.0)]).unwrap();
        assert_eq!(
            g1,
            Gaussian {
                mean: 2.0,
                variance: 0.0
            }
        );
    }

    #[test]
    fn do_differs_from_conditioning_upstream() {
        let e = chain_engine();
        // Observing X1 informs X0 (they correlate); doing X1 does not.
        let seen = e.posterior(0, &[(1, 5.0)], &[]).unwrap();
        let done = e.posterior(0, &[], &[(1, 5.0)]).unwrap();
        assert!(seen.mean > 1.0, "{seen:?}");
        assert!(close(done.mean, 0.0), "{done:?}");
    }

    #[test]
    fn evidence_and_do_compose() {
        let e = chain_engine();
        // do(X1=v) cuts 0 → 1, so evidence on X0 is irrelevant for X2.
        let g = e.posterior(2, &[(0, 100.0)], &[(1, 1.0)]).unwrap();
        assert!(close(g.mean, 3.0) && close(g.variance, 1.0), "{g:?}");
    }

    #[test]
    fn observed_target_is_point_mass() {
        let e = chain_engine();
        let g = e.posterior(1, &[(1, 7.0)], &[]).unwrap();
        assert_eq!(
            g,
            Gaussian {
                mean: 7.0,
                variance: 0.0
            }
        );
    }

    #[test]
    fn invalid_queries_are_rejected() {
        let e = chain_engine();
        assert!(matches!(
            e.parents(9),
            Err(ServeError::NodeOutOfRange { node: 9, d: 3 })
        ));
        assert!(e.posterior(0, &[(1, 1.0), (1, 2.0)], &[]).is_err());
        assert!(e.posterior(0, &[(1, 1.0)], &[(1, 2.0)]).is_err());
        assert!(e.posterior(0, &[(1, f64::NAN)], &[]).is_err());
        assert!(e.posterior(0, &[], &[(1, f64::INFINITY)]).is_err());
    }

    #[test]
    fn cyclic_weights_are_rejected() {
        let mut w = DenseMatrix::zeros(2, 2);
        w[(0, 1)] = 1.0;
        w[(1, 0)] = 1.0;
        let a =
            ModelArtifact::new(WeightMatrix::Dense(w), vec![0.0; 2], vec![1.0; 2], meta()).unwrap();
        assert!(matches!(
            QueryEngine::from_artifact(&a),
            Err(ServeError::CyclicModel)
        ));
    }

    #[test]
    fn sparse_and_dense_backends_answer_identically() {
        let mut w = DenseMatrix::zeros(4, 4);
        w[(0, 1)] = 1.2;
        w[(0, 2)] = -0.7;
        w[(1, 3)] = 0.9;
        w[(2, 3)] = 2.0;
        let intercepts = vec![0.3, -0.1, 0.0, 1.0];
        let noise = vec![1.0, 0.5, 2.0, 0.25];
        let dense = ModelArtifact::new(
            WeightMatrix::Dense(w.clone()),
            intercepts.clone(),
            noise.clone(),
            meta(),
        )
        .unwrap();
        let sparse = ModelArtifact::new(
            WeightMatrix::Sparse(least_linalg::CsrMatrix::from_dense(&w, 0.0)),
            intercepts,
            noise,
            meta(),
        )
        .unwrap();
        let ed = QueryEngine::from_artifact(&dense).unwrap();
        let es = QueryEngine::from_artifact(&sparse).unwrap();
        for v in 0..4 {
            assert_eq!(ed.markov_blanket(v).unwrap(), es.markov_blanket(v).unwrap());
            let (a, b) = (ed.marginal(v).unwrap(), es.marginal(v).unwrap());
            assert!(close(a.mean, b.mean) && close(a.variance, b.variance));
        }
        let a = ed.posterior(3, &[(0, 1.0)], &[(2, -1.0)]).unwrap();
        let b = es.posterior(3, &[(0, 1.0)], &[(2, -1.0)]).unwrap();
        assert!(close(a.mean, b.mean) && close(a.variance, b.variance));
    }
}
