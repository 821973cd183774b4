//! Response validation against exact ground truth.

use saphyra_service::json::Json;

use crate::data::{Patch, Truth};
use crate::workload::{Measure, Read};

/// Accuracy of one ranking against exact scores.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Kendall τ of the returned scores against the exact ones.
    pub tau: f64,
    /// Target estimates within ε of exact.
    pub within_eps: usize,
    /// Target estimates.
    pub estimates: usize,
    /// Largest |estimate − exact| ÷ ε.
    pub max_err_over_eps: f64,
}

/// Checks a 200 `/rank` body: the targets are echoed, there is one finite
/// score per target, and `ranks` is the 1-based best-first ranking of the
/// scores. Returns the accuracy against `truth` for measures the oracle
/// covers (`None` for k-path, which is checked structurally only).
pub fn rank_body(body: &str, read: &Read, truth: &Truth) -> Result<Option<Accuracy>, String> {
    let json = Json::parse(body).map_err(|e| format!("unparseable body: {e}"))?;
    let nums = |key: &str| -> Result<Vec<f64>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array {key:?}"))?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("non-number in {key:?}")))
            .collect()
    };
    if json.get("measure").and_then(Json::as_str) != Some(read.measure.as_str()) {
        return Err("measure not echoed".into());
    }
    let targets = nums("targets")?;
    let echoed = targets.len() == read.targets.len()
        && targets
            .iter()
            .zip(&read.targets)
            .all(|(&a, &b)| a == b as f64);
    if !echoed {
        return Err("targets not echoed".into());
    }
    let scores = nums("scores")?;
    let ranks = nums("ranks")?;
    let k = read.targets.len();
    if scores.len() != k || ranks.len() != k {
        return Err(format!(
            "{k} targets but {} scores, {} ranks",
            scores.len(),
            ranks.len()
        ));
    }
    if scores.iter().any(|s| !s.is_finite()) {
        return Err("non-finite score".into());
    }
    let mut seen = vec![false; k];
    for &r in &ranks {
        let ok = r.fract() == 0.0 && r >= 1.0 && r <= k as f64 && !seen[r as usize - 1];
        if !ok {
            return Err("ranks are not a permutation of 1..=k".into());
        }
        seen[r as usize - 1] = true;
    }
    for i in 0..k {
        for j in 0..k {
            if scores[i] > scores[j] && ranks[i] > ranks[j] {
                return Err("ranks disagree with scores".into());
            }
        }
    }
    let exact: &[f64] = match read.measure {
        Measure::Bc => &truth.bc,
        Measure::Harmonic => &truth.harmonic,
        Measure::Kpath => return Ok(None),
    };
    let exact: Vec<f64> = read.targets.iter().map(|&v| exact[v as usize]).collect();
    let errs: Vec<f64> = scores
        .iter()
        .zip(&exact)
        .map(|(s, t)| (s - t).abs())
        .collect();
    Ok(Some(Accuracy {
        tau: saphyra_stats::kendall_tau(&scores, &exact),
        within_eps: errs.iter().filter(|&&e| e <= read.eps).count(),
        estimates: k,
        max_err_over_eps: errs.iter().fold(0.0, |m, &e| m.max(e / read.eps)),
    }))
}

/// Checks a 200 `PATCH` body: it reports the one edge it toggled.
pub fn patch_body(body: &str, patch: &Patch) -> Result<(), String> {
    let json = Json::parse(body).map_err(|e| format!("unparseable body: {e}"))?;
    let count = |key| json.get(key).and_then(Json::as_u64);
    let want = if patch.insert {
        (Some(1), Some(0))
    } else {
        (Some(0), Some(1))
    };
    if (count("inserted"), count("deleted")) != want || count("delta_seq").is_none() {
        return Err(format!(
            "patch body does not report the toggled edge: {body}"
        ));
    }
    Ok(())
}
