//! The scorer inputs of one design's Jaccard survivors, shared by the
//! `score_digest` example and the `pins` integration test.

use rebert::{bit_sequences, jaccard_counts, ConeClasses, PairSequence, ReBertModel};

/// Every surviving class pair as a scorer input, in the pipeline's
/// sweep order.
pub fn survivors(model: &ReBertModel, netlist: &rebert_netlist::Netlist) -> Vec<PairSequence> {
    let cfg = model.config();
    let seqs = bit_sequences(netlist, cfg.k_levels, cfg.code_width);
    let classes = ConeClasses::build(&seqs);
    let pair = |x: u32, y: u32| {
        let (tx, cx) = &seqs[classes.representative(x)];
        let (ty, cy) = &seqs[classes.representative(y)];
        PairSequence::build(tx, cx, ty, cy, cfg.code_width, cfg.max_seq)
    };
    let last = |m: &[usize]| *m.last().expect("classes are non-empty");
    let k = classes.len() as u32;
    let mut pairs = Vec::new();
    for a in 0..k {
        let first = a + u32::from(classes.members(a).len() < 2);
        for b in first..k {
            if jaccard_counts(classes.histogram(a), classes.histogram(b)) < cfg.jaccard_threshold {
                continue;
            }
            let (ma, mb) = (classes.members(a), classes.members(b));
            if a == b || ma[0] < last(mb) {
                pairs.push(pair(a, b));
            }
            if a != b && mb[0] < last(ma) {
                pairs.push(pair(b, a));
            }
        }
    }
    pairs
}
