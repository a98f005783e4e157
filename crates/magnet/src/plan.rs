//! A defense's data flow, worked out once when it is assembled.
//!
//! [`PassPlan`] lists each network application of a pass once: roles that
//! hold the same model allocation ([`Arc::ptr_eq`]) and read the same node
//! share it. A chunk of a pass fills a node the first time a stage reads it,
//! and a stage whose nodes an earlier stage filled runs no network.

use crate::autoencoder::Autoencoder;
use crate::detector::Detector;
use crate::{DefenseScheme, MagnetError, Result};
use adv_nn::Sequential;
use adv_tensor::Tensor;
use std::borrow::Cow;
use std::sync::Arc;

/// The input node: the batch itself.
const INPUT: usize = 0;

/// One value of a pass: the input, or a model applied to an earlier node.
#[derive(Debug)]
enum Node {
    Input,
    /// `AE(of)`.
    Recon(Arc<Autoencoder>, usize),
    /// `logits(of)`.
    Logits(Arc<Sequential>, usize),
}

/// A defense's pass as nodes, built once by
/// [`MagnetDefense::new`](crate::MagnetDefense::new) and never changed.
#[derive(Debug)]
pub(crate) struct PassPlan {
    nodes: Vec<Node>,
    /// Each detector's `AE(x)`, and its `logits(x)` and `logits(AE(x))`
    /// when it has a classifier, in deployment order.
    detectors: Vec<(usize, Option<(usize, usize)>)>,
    /// The reformer's output.
    reformed: usize,
    /// The classifier on the input, and on the reformer's output.
    logits: [usize; 2],
}

impl PassPlan {
    /// Plans the pass of `detectors`, `reformer` and `classifier`.
    pub(crate) fn new(
        detectors: &[Box<dyn Detector>],
        reformer: &Arc<Autoencoder>,
        classifier: &Arc<Sequential>,
    ) -> PassPlan {
        let mut nodes = vec![Node::Input];
        let detectors = detectors
            .iter()
            .map(|det| {
                let (ae, net) = det.models();
                let recon = add(&mut nodes, Node::Recon(ae, INPUT));
                let logits = net.map(|net| {
                    let of_x = add(&mut nodes, Node::Logits(Arc::clone(&net), INPUT));
                    (of_x, add(&mut nodes, Node::Logits(net, recon)))
                });
                (recon, logits)
            })
            .collect();
        let reformed = add(&mut nodes, Node::Recon(Arc::clone(reformer), INPUT));
        let logits =
            [INPUT, reformed].map(|of| add(&mut nodes, Node::Logits(Arc::clone(classifier), of)));
        PassPlan {
            nodes,
            detectors,
            reformed,
            logits,
        }
    }

    /// Whether each of `stages`, run in order from a fresh chunk, runs a
    /// network: a stage whose every node an earlier stage filled runs none,
    /// and computes only its verdict inputs (scores or an argmax) from them.
    pub(crate) fn runs_network(&self, stages: &[Stage]) -> Vec<bool> {
        let mut filled = vec![false; self.nodes.len()];
        filled[INPUT] = true;
        stages
            .iter()
            .map(|&stage| {
                let reads = self.reads(stage);
                let runs = reads.iter().any(|&i| !filled[i]);
                for i in reads {
                    filled[i] = true;
                }
                runs
            })
            .collect()
    }

    /// The nodes `stage` reads.
    fn reads(&self, stage: Stage) -> Vec<usize> {
        match stage {
            Stage::Detect => self
                .detectors
                .iter()
                .flat_map(|&(recon, logits)| {
                    std::iter::once(recon).chain(logits.into_iter().flat_map(|(a, b)| [a, b]))
                })
                .collect(),
            Stage::Reform => vec![self.reformed],
            Stage::Classify(reformed) => vec![self.logits[usize::from(reformed)]],
        }
    }

    /// Networks the plan lists: its nodes besides the input.
    #[cfg(test)]
    pub(crate) fn networks(&self) -> usize {
        self.nodes.len() - 1
    }
}

/// The index of `node` in `nodes`, added unless it is there already.
fn add(nodes: &mut Vec<Node>, node: Node) -> usize {
    let same = |n: &Node| match (n, &node) {
        (Node::Recon(a, i), Node::Recon(b, j)) => Arc::ptr_eq(a, b) && i == j,
        (Node::Logits(a, i), Node::Logits(b, j)) => Arc::ptr_eq(a, b) && i == j,
        _ => false,
    };
    nodes.iter().position(same).unwrap_or_else(|| {
        nodes.push(node);
        nodes.len() - 1
    })
}

/// A stage of the pass, as a chunk runs it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Detect,
    Reform,
    /// Classify the reformer's output when `true`, else the input.
    Classify(bool),
}

impl Stage {
    /// The stages of a `scheme` pass, in order.
    pub(crate) fn of(scheme: DefenseScheme) -> Vec<Stage> {
        let mut stages = Vec::with_capacity(3);
        if scheme.detects() {
            stages.push(Stage::Detect);
        }
        if scheme.reforms() {
            stages.push(Stage::Reform);
        }
        stages.push(Stage::Classify(scheme.reforms()));
        stages
    }

    /// The stages of one pass that gives every scheme's verdicts.
    pub(crate) const EVERY_SCHEME: [Stage; 4] = [
        Stage::Detect,
        Stage::Reform,
        Stage::Classify(false),
        Stage::Classify(true),
    ];
}

/// One contiguous row range of a pass: a slot per plan node, and what each
/// stage has concluded for these rows so far.
pub(crate) struct Chunk<'x> {
    /// Slot 0 holds the rows; a stage fills each other slot the first time
    /// it reads that node.
    values: Vec<Option<Cow<'x, Tensor>>>,
    /// Each detector's scores, in deployment order.
    scores: Vec<Vec<f32>>,
    /// The predictions on the input, and on the reformer's output.
    preds: [Vec<usize>; 2],
}

impl<'x> Chunk<'x> {
    /// A chunk of `rows`, with every node but the input still to run.
    pub(crate) fn new(plan: &PassPlan, rows: Cow<'x, Tensor>) -> Self {
        let mut values: Vec<_> = plan.nodes.iter().map(|_| None).collect();
        values[INPUT] = Some(rows);
        Chunk {
            values,
            scores: Vec::new(),
            preds: [Vec::new(), Vec::new()],
        }
    }

    /// Joins the chunks of a pass in row order: each detector's scores, and
    /// the predictions on the input and on the reformer's output. Each is
    /// empty where the pass skipped its stage.
    pub(crate) fn join(chunks: Vec<Self>) -> (Vec<Vec<f32>>, [Vec<usize>; 2]) {
        let mut scores = vec![Vec::new(); chunks.first().map_or(0, |c| c.scores.len())];
        let mut preds = [Vec::new(), Vec::new()];
        for c in chunks {
            for (all, part) in scores.iter_mut().zip(c.scores) {
                all.extend(part);
            }
            for (all, part) in preds.iter_mut().zip(c.preds) {
                all.extend(part);
            }
        }
        (scores, preds)
    }

    /// Splits `x` into `k` contiguous chunks of near-equal size; with
    /// `k < 2`, one chunk that borrows `x`.
    pub(crate) fn split(plan: &PassPlan, x: &'x Tensor, k: usize) -> Result<Vec<Self>> {
        if k < 2 {
            return Ok(vec![Chunk::new(plan, Cow::Borrowed(x))]);
        }
        let rows = x.shape().dim(0);
        (0..k)
            .map(|i| {
                let part = x.slice_axis0(i * rows / k, (i + 1) * rows / k)?;
                Ok(Chunk::new(plan, Cow::Owned(part)))
            })
            .collect()
    }

    /// Runs `stage` of the pass `plan` of `detectors` on this chunk's rows.
    pub(crate) fn run(
        &mut self,
        plan: &PassPlan,
        detectors: &[Box<dyn Detector>],
        stage: Stage,
    ) -> Result<()> {
        match stage {
            Stage::Detect => {
                self.scores = (plan.detectors.iter().zip(detectors))
                    .map(|(&(recon, logits), det)| {
                        self.fill(plan, recon)?;
                        let logits = match logits {
                            Some((of_x, of_recon)) => {
                                self.fill(plan, of_x)?;
                                self.fill(plan, of_recon)?;
                                Some((self.value(of_x)?, self.value(of_recon)?))
                            }
                            None => None,
                        };
                        det.scores_from(self.value(INPUT)?, self.value(recon)?, logits)
                    })
                    .collect::<Result<_>>()?;
            }
            Stage::Reform => self.fill(plan, plan.reformed)?,
            Stage::Classify(reformed) => {
                let logits = plan.logits[usize::from(reformed)];
                self.fill(plan, logits)?;
                self.preds[usize::from(reformed)] = self.value(logits)?.argmax_rows()?;
            }
        }
        Ok(())
    }

    /// Runs node `i` unless this chunk has it; what it reads must have run.
    fn fill(&mut self, plan: &PassPlan, i: usize) -> Result<()> {
        if self.values[i].is_none() {
            let out = match &plan.nodes[i] {
                Node::Input => return Ok(()),
                Node::Recon(ae, of) => ae.reconstruct(self.value(*of)?)?,
                Node::Logits(net, of) => net.infer(self.value(*of)?)?,
            };
            self.values[i] = Some(Cow::Owned(out));
        }
        Ok(())
    }

    /// Node `i`'s value, once [`fill`](Self::fill) has run it.
    fn value(&self, i: usize) -> Result<&Tensor> {
        self.values[i].as_deref().ok_or_else(|| {
            MagnetError::InvalidArgument(format!("pass node {i} read before it ran"))
        })
    }

    /// Networks this chunk has run: the filled slots besides the input.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        self.values.iter().skip(1).filter(|v| v.is_some()).count()
    }
}
