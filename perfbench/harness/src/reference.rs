//! Reference answers for small decks: the paper's Definition 3 by
//! enumeration (`covest_core::reference`), independent of the symbolic
//! coverage algorithm the CLI times. The benchmark's self-test uses it to
//! confirm the per-family formulas in `perfbench/expected.json` on small
//! family members and the explicit entries for the bundled decks.

use std::path::Path;

use covest_analyze::{cone_bit_names, task_cone, DepGraph};
use covest_bdd::{BddManager, VarId};
use covest_core::{json_string, reference_covered_set, ReferenceMode, DEFAULT_STATE_LIMIT};
use covest_mc::ModelChecker;

use crate::Error;

/// `reference DECK`: verdicts and, per observed signal, covered and space
/// counts over the signal's cone (the CLI's counting universe).
pub fn run(deck: &Path) -> Result<String, Error> {
    let src = std::fs::read_to_string(deck)?;
    let module = covest_smv::parse_module(&src)?;
    let bdd = BddManager::new();
    let model = covest_smv::compile_module(&bdd, &module)?;
    let fsm = &model.fsm;
    let mut mc = ModelChecker::new(fsm);
    for fair in &model.fairness {
        mc.add_fairness(fair)?;
    }
    let verdicts: Vec<bool> = model
        .specs
        .iter()
        .map(|spec| mc.holds(&spec.clone().into()))
        .collect::<Result<_, _>>()?;
    let fairness = mc.fairness().to_vec();
    let space_full = fsm.reachable().and(&mc.fair_states());

    let graph = DepGraph::new(&module);
    let mut signals = Vec::new();
    for signal in &model.observed {
        let cone = cone_bit_names(&module, &task_cone(&module, &graph, signal)?);
        let mut covered = bdd.constant(false);
        // A failing property covers nothing (the estimator's rule).
        for (spec, &holds) in model.specs.iter().zip(&verdicts) {
            if holds {
                let set = reference_covered_set(
                    fsm,
                    signal,
                    spec,
                    ReferenceMode::Transformed,
                    &fairness,
                    DEFAULT_STATE_LIMIT,
                )?;
                covered = covered.or(&set);
            }
        }
        let (inside, outside): (Vec<_>, Vec<_>) = fsm
            .state_bits()
            .iter()
            .partition(|b| cone.contains(&b.name));
        let outside: Vec<VarId> = outside.iter().map(|b| b.current).collect();
        let inside: Vec<VarId> = inside.iter().map(|b| b.current).collect();
        let covered = covered.and(&space_full).exists(&outside);
        let space = space_full.exists(&outside);
        signals.push(format!(
            "{{\"signal\": {}, \"covered\": {:?}, \"space\": {:?}}}",
            json_string(signal),
            covered.sat_count_over(&inside),
            space.sat_count_over(&inside)
        ));
    }
    let verdicts: String = verdicts
        .iter()
        .map(|&h| if h { 'P' } else { 'F' })
        .collect();
    Ok(format!(
        "{{\"verdicts\": \"{verdicts}\", \"signals\": [{}]}}",
        signals.join(", ")
    ))
}
